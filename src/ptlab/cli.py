"""Command-line surface: classify, construct, sweep, count, convert, jordan.

Matrices travel as JSON documents

    {"rows": R, "cols": C, "data": [[[re, im], ...], ...]}

with [re, im] float pairs, row-major, UTF-8.  CSV floats are printed with 17
significant digits so outputs are byte-stable golden files.  A fixed seed
(flag --seed, env PTLAB_SEED, default 42) makes every randomized search
reproducible.

Exit codes: 0 ok, 2 parse error, 3 dimension/kind mismatch, 4 constraint
violation (including an empty sweep grid), 5 count mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import catalog2x2
from .errors import (
    ConstraintError,
    ContractError,
    DimensionError,
    IndeterminateStructureError,
    NumericalError,
    SingularCaseError,
)
from .involutions import (
    GrassmannCosetSpec,
    InvolutionKind,
    grassmann_coset_element,
    make_diagonal_parity,
    make_sip,
    sip_similarity,
)
from .metric import solve_metric_space
from .numerics import ToleranceConfig, frobenius
from .spectra import build_pt_jordan, classify_spectra, classify_spectrum, degeneration_scan, jordan_chain
from .symmetry import (
    DiagMetricSelfAdjointParams,
    DiagPhaseGenPtParams,
    PseudoBlockParams,
    PtBlockParams,
    RotatedHermitianParams,
    SymmetryKind,
    check_symmetry,
    construct_gen_pt_diag,
    construct_pseudo_block,
    construct_pt_block,
    construct_rotated_hermitian,
    construct_self_adjoint_from_diag_metric,
    gen_pt_diag_operator,
)
from .convert import gen_pt_to_pseudo, pseudo_to_pt, pt_to_pseudo
from .counting import report_rows, table1_report, table_columns, CSV_COLUMNS

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_CONSTRAINT = 4
EXIT_MISMATCH = 5

_KIND_NAMES = {"pt": SymmetryKind.PT, "pseudo": SymmetryKind.PSEUDO, "genpt": SymmetryKind.GEN_PT}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def matrix_to_document(M) -> dict:
    A = np.asarray(M, dtype=complex)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }


def document_to_matrix(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise CliError(EXIT_PARSE, "matrix document must be a JSON object")
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except KeyError as exc:
        raise CliError(EXIT_PARSE, f"matrix document needs integer rows/cols and data: {exc}")
    rows, cols = _json_integer(rows, "matrix document rows"), _json_integer(cols, "matrix document cols")
    if rows < 0 or cols < 0:
        raise CliError(EXIT_PARSE, f"matrix document rows/cols must be nonnegative, got {rows} x {cols}")
    if not isinstance(data, list) or len(data) != rows:
        raise CliError(EXIT_PARSE, f"data must hold {rows} rows")
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise CliError(EXIT_PARSE, f"row {i} must hold {cols} entries")
        for j, pair in enumerate(row):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise CliError(EXIT_PARSE, f"entry ({i},{j}) must be an [re, im] pair")
            re, im = pair
            out[i, j] = complex(_json_number(re, f"entry ({i},{j}) re"), _json_number(im, f"entry ({i},{j}) im"))
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise CliError(EXIT_PARSE, "matrix document contains non-finite entries")
    return out


def _json_integer(value, what) -> int:
    """A JSON integer or integral float as an int; else a parse error naming what."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise CliError(EXIT_PARSE, f"{what} must be an integer, got {value!r}")
    return int(value)


def _json_number(value, what) -> float:
    """A JSON number (not true/false, not a string) as a float; anything else
    is a parse error naming what."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise CliError(EXIT_PARSE, f"{what} must be a number, got {value!r}")


def load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_PARSE, f"malformed JSON in {path}: {exc}")
    return document_to_matrix(doc)


def load_params(text: str) -> dict:
    """Inline JSON object, or @path to a JSON file."""
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(EXIT_PARSE, f"cannot read {text[1:]}: {exc}")
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_PARSE, f"malformed JSON parameters: {exc}")
    if not isinstance(params, dict):
        raise CliError(EXIT_PARSE, "parameters must be a JSON object")
    return params


def _fmt17(x) -> str:
    return f"{float(x):.17g}"


def emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _complex_pair(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _tolerances(args) -> ToleranceConfig:
    return ToleranceConfig(abs_tol=args.tol_abs, rel_tol=args.tol_rel)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PTLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(EXIT_PARSE, f"PTLAB_SEED must be an integer, got {env!r}")
    return 42


# ---------------------------------------------------------------- classify

# Commands that load user matrices silence numpy's overflow warnings: the
# norms they take recover from the overflow (numerics.frobenius), and the
# warning line would only precede a correct result on stderr.
@np.errstate(over="ignore")
def cmd_classify(args) -> int:
    tol = _tolerances(args)
    H = load_matrix(args.matrix)
    symmetry = None
    sym_block = None
    if args.operator:
        if not args.kind:
            raise CliError(EXIT_PARSE, "--operator requires --kind")
        O = load_matrix(args.operator)
        kind = _KIND_NAMES[args.kind]
        if O.shape != H.shape:
            raise CliError(EXIT_DIMENSION, f"operator is {O.shape} but matrix is {H.shape}")
        try:
            report = check_symmetry(kind, O, H, tol)
        except (ContractError, DimensionError) as exc:
            raise CliError(EXIT_DIMENSION, str(exc))
        symmetry = (kind, O)
        sym_block = {"kind": args.kind, "holds": report.holds, "residual": report.residual}
    try:
        spectrum = classify_spectrum(H, tol, symmetry=symmetry)
    except (ContractError, DimensionError) as exc:
        raise CliError(EXIT_DIMENSION, str(exc))
    metric = solve_metric_space(H, tol)
    payload = {
        "symmetry": sym_block,
        "spectrum": {
            "eigenvalues": [_complex_pair(z) for z in spectrum.eigenvalues],
            "reality_class": spectrum.reality_class.value,
            "segre": [
                {"eigenvalue": _complex_pair(lam), "blocks": sizes}
                for lam, sizes in sorted(spectrum.segre.items(), key=lambda kv: (kv[0].real, kv[0].imag))
            ],
            "unbroken": spectrum.unbroken,
            "ambiguous": spectrum.ambiguous,
        },
        "metric": {
            "dimension": metric.dimension,
            "positive_status": metric.positive_status,
            "positive_representative": (
                matrix_to_document(metric.positive_representative)
                if metric.positive_representative is not None else None
            ),
            "note": metric.note,
        },
    }
    emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------- construct

def _real_block(params, key, shape):
    try:
        block = np.asarray(params[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"family needs real array {key!r}: {exc}")
    if block.shape != shape:
        raise CliError(EXIT_DIMENSION, f"block {key} must have shape {shape}, got {block.shape}")
    return block


def _complex_block(params, key, shape):
    try:
        arr = np.asarray(params[key], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise CliError(EXIT_PARSE, f"family needs complex array {key!r} of [re, im] pairs")
    if arr.ndim != 3 or arr.shape[:2] != shape or arr.shape[2] != 2:
        raise CliError(EXIT_DIMENSION, f"block {key} must be {shape} of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _float_params(params, cls, allowed):
    """cls built from params, every one of them a float named in allowed."""
    unknown = set(params) - allowed
    if unknown:
        raise CliError(EXIT_PARSE, f"unknown parameters {sorted(unknown)}; expected {sorted(allowed)}")
    try:
        return cls(**{k: float(v) for k, v in params.items()})
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"bad family parameters: {exc}")


def _fields(*schema):
    """Reader of a family's parameters, in schema order: (name, int) and
    (name, float) are scalars, (name, list) a nonempty list of reals, and
    (name, float or complex, row, col) a real or complex block whose
    dimensions are the named integers or list lengths."""
    scalars = [(name, kind) for name, kind, *shape in schema if kind in (int, float) and not shape]
    ints, reals = ([name for name, kind in scalars if kind is want] for want in (int, float))
    need = " and ".join(filter(None, (ints and f"integer{'s' * (len(ints) > 1)} {', '.join(ints)}",
                                      reals and f"real {', '.join(reals)}")))

    def read(family, params):
        try:
            v = {name: kind(params[name]) for name, kind in scalars}
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"{family} needs {need}: {exc}")
        for name, kind, *shape in schema:
            if kind is list:
                try:
                    v[name] = np.asarray(params.get(name, []), dtype=float)
                except (TypeError, ValueError):
                    v[name] = np.empty(0)
                if v[name].size < 1:
                    raise CliError(EXIT_PARSE, f"{family} needs a nonempty {name} list")
            elif shape:
                dims = tuple(v[d].size if isinstance(v[d], np.ndarray) else v[d] for d in shape)
                v[name] = (_real_block if kind is float else _complex_block)(params, name, dims)
        return v
    return read


def _catalog2x2(family_of):
    """Reader of a 2x2 catalog family: its family record, and whether the
    metric constants u, v were given."""
    keys = {"e", "gamma", "rho", "delta", "u", "v", "theta", "phi"}
    return lambda family, params: {"family": family_of(_float_params(params, catalog2x2.Pt2Params, keys)),
                                   "metric": "u" in params or "v" in params}


def _catalog_matrices(tol, v):
    fam = v["family"]
    if v["metric"] and fam.metric_reason is not None:
        raise CliError(EXIT_CONSTRAINT, fam.metric_reason)
    return {"hamiltonian": fam.hamiltonian, **({"metric": fam.metric} if v["metric"] else {})}


def _diag_metric(tol, v):
    p = DiagMetricSelfAdjointParams(**v)
    return {"hamiltonian": construct_self_adjoint_from_diag_metric(p), "metric": p.metric}


def _residual(name, X):
    """Self-check: the Frobenius norm of X(matrices, values)."""
    return lambda matrices, tol, v: {name: float(frobenius(X(matrices, v)))}


def _self_adjoint(matrices, tol, v):
    """Self-check: the self-adjointness residual of the built metric, when there is one."""
    if "metric" not in matrices:
        return {}
    W, H = matrices["metric"], matrices["hamiltonian"]
    return {"self_adjoint_residual": float(frobenius(W @ H - H.conj().T @ W))}


def _symmetric(name, kind, operator):
    """Self-check: the residual of kind's identity for the built hamiltonian
    and operator(values), then _self_adjoint."""
    def checks(matrices, tol, v):
        residual = check_symmetry(kind, operator(v), matrices["hamiltonian"], tol).residual
        return {name: residual, **_self_adjoint(matrices, tol, v)}
    return checks


_HERMITIAN = InvolutionKind.HERMITIAN_INVOLUTION

# family -> (parameter reader, builder, self-checks).  The reader takes
# (family, params) and returns a dict of values; the builder takes (tol,
# values) and returns the named matrices; the self-checks take (matrices,
# tol, values) and return the named residuals.
_FAMILIES = {
    "pt2": (_catalog2x2(catalog2x2.pt2_family), _catalog_matrices,
            _symmetric("pt_residual", SymmetryKind.PT, lambda v: make_diagonal_parity(1, 1))),
    "pseudo2": (_catalog2x2(catalog2x2.pseudo2_family), _catalog_matrices,
                _symmetric("pseudo_residual", SymmetryKind.PSEUDO, lambda v: make_diagonal_parity(1, 1, _HERMITIAN))),
    "genpt2": (lambda family, params: {"p": _float_params(params, catalog2x2.GenPt2Params,
                                                          {"theta", "delta", "phi", "alpha"})},
               lambda tol, v: {"core": catalog2x2.genpt2_operator(v["p"])},
               _residual("conjugate_product_residual", lambda M, v: M["core"] @ M["core"].conj() - np.eye(2))),
    "pt-jordan": (_fields(("m", int), ("n", int), ("lambda", float)),
                  lambda tol, v: dict(zip(("hamiltonian", "similarity"), build_pt_jordan(v["m"], v["n"], v["lambda"]))),
                  _symmetric("pt_residual", SymmetryKind.PT, lambda v: make_diagonal_parity(v["m"], v["n"]))),
    "parity": (_fields(("m", int), ("n", int)),
               lambda tol, v: {"parity": make_diagonal_parity(v["m"], v["n"]).matrix}, _self_adjoint),
    "sip": (_fields(("n", int)), lambda tol, v: {"sip": make_sip(v["n"]).matrix}, _self_adjoint),
    "sip-similarity": (_fields(("n", int)), lambda tol, v: dict(zip(("q", "q_inverse"), sip_similarity(v["n"]))),
                       _residual("similarity_residual", lambda M, v: (
                           M["q"] @ make_diagonal_parity((v["n"] + 1) // 2, v["n"] // 2).matrix @ M["q_inverse"]
                           - make_sip(v["n"]).matrix))),
    "grassmann": (_fields(("m", int), ("n", int), ("x", float), ("b", complex, "m", "n")),
                  lambda tol, v: {"unitary": grassmann_coset_element(GrassmannCosetSpec(**v))},
                  _residual("unitarity_residual",
                            lambda M, v: M["unitary"] @ M["unitary"].conj().T - np.eye(v["m"] + v["n"]))),
    "pt-block": (_fields(("m", int), ("n", int), ("A", float, "m", "m"), ("B", float, "m", "n"),
                         ("C", float, "n", "m"), ("D", float, "n", "n")),
                 lambda tol, v: {"hamiltonian": construct_pt_block(PtBlockParams(**v))},
                 _symmetric("pt_residual", SymmetryKind.PT, lambda v: make_diagonal_parity(v["m"], v["n"]))),
    "pseudo-block": (_fields(("m", int), ("n", int), ("A", complex, "m", "m"), ("B", complex, "m", "n"),
                             ("D", complex, "n", "n")),
                     lambda tol, v: {"hamiltonian": construct_pseudo_block(PseudoBlockParams(**v), tol)},
                     _symmetric("pseudo_residual", SymmetryKind.PSEUDO,
                                lambda v: make_diagonal_parity(v["m"], v["n"], _HERMITIAN))),
    "rotated-hermitian": (_fields(("n", int), ("a", float, "n", "n"), ("b", float, "n", "n")),
                          lambda tol, v: {"hamiltonian": construct_rotated_hermitian(RotatedHermitianParams(**v))},
                          _symmetric("pseudo_residual", SymmetryKind.PSEUDO, lambda v: make_sip(v["n"]))),
    "genpt-diag": (_fields(("phases", list), ("r", float, "phases", "phases")),
                   lambda tol, v: {"hamiltonian": construct_gen_pt_diag(DiagPhaseGenPtParams(**v)),
                                   "core": gen_pt_diag_operator(v["phases"])},
                   _symmetric("genpt_residual", SymmetryKind.GEN_PT, lambda v: gen_pt_diag_operator(v["phases"]))),
    "diag-metric": (_fields(("omegas", list), ("a", float, "omegas", "omegas"), ("b", float, "omegas", "omegas")),
                    _diag_metric, _self_adjoint),
}


def cmd_construct(args) -> int:
    tol = _tolerances(args)
    params = load_params(args.params)
    family = args.family
    if family not in _FAMILIES:
        raise CliError(EXIT_PARSE, f"unknown family {family!r}")
    read, build, self_checks = _FAMILIES[family]
    values = read(family, params)
    matrices = build(tol, values)
    payload = {
        "family": family,
        "matrices": {name: matrix_to_document(M) for name, M in matrices.items()},
        "self_check": self_checks(matrices, tol, values),
    }
    emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------- sweep

_PT2_GRID_KEYS = ("e", "gamma", "rho", "delta")
_DEGENERATION_GRID_KEYS = ("family", "u", "gamma", "epsilon")
_AXIS_KEYS = ("start", "stop", "num", "scale")


def _reject_unknown(keys, allowed, what):
    unknown = set(keys) - set(allowed)
    if unknown:
        raise CliError(EXIT_PARSE, f"unknown {what} keys {sorted(unknown)}; expected {sorted(allowed)}")


def _grid_axis(axis, name):
    if isinstance(axis, (int, float)) and not isinstance(axis, bool):
        return np.array([_json_number(axis, f"axis {name}")])
    if isinstance(axis, dict):
        _reject_unknown(axis, _AXIS_KEYS, f"axis {name}")
        try:
            start, stop, num = axis["start"], axis["stop"], axis["num"]
        except KeyError as exc:
            raise CliError(EXIT_PARSE, f"axis {name} needs start/stop/num: {exc}")
        start, stop = _json_number(start, f"axis {name} start"), _json_number(stop, f"axis {name} stop")
        num = _json_integer(num, f"axis {name} num")
        if num < 1:
            raise CliError(EXIT_CONSTRAINT, f"axis {name} is empty (num = {num})")
        scale = axis.get("scale", "linear")
        # an endpoint at or near the float range gives non-finite values, which
        # the caller reports by name; numpy's own warnings would only repeat it
        if scale == "linear":
            with np.errstate(all="ignore"):
                return np.linspace(start, stop, num)
        if scale == "log":
            if start <= 0 or stop <= 0:
                raise CliError(EXIT_CONSTRAINT, f"log axis {name} needs positive endpoints")
            with np.errstate(all="ignore"):
                return np.geomspace(start, stop, num)
        raise CliError(EXIT_PARSE, f"axis {name} scale must be linear or log")
    raise CliError(EXIT_PARSE, f"axis {name} must be a number or a range object")


def _sweep_rows(axes, table) -> list:
    """CSV rows of a pt2/pseudo2 sweep, read from the eigenvalue and unbroken
    columns of its SpectrumTable: each axis value formatted once, each row in
    one % pass (byte-equal to _fmt17 for every float)."""
    prefixes = [""]
    for axis in axes:
        values = ["%.17g" % x for x in axis.tolist()]
        prefixes = [f"{p}{v}," for p in prefixes for v in values]
    plus, minus = table.eigenvalues[:, -1], table.eigenvalues[:, 0]
    columns = (prefixes, plus.real.tolist(), plus.imag.tolist(), minus.real.tolist(), minus.imag.tolist(),
               table.unbroken.tolist())
    return ["%s%.17g,%.17g,%.17g,%.17g,%d" % row for row in zip(*columns)]


def cmd_sweep(args) -> int:
    tol = _tolerances(args)
    grid = load_params(args.grid)
    lines = []
    if args.family in ("pt2", "pseudo2"):
        _reject_unknown(grid, _PT2_GRID_KEYS, "grid")
        axes = [_grid_axis(grid.get(name, 0.0), name) for name in _PT2_GRID_KEYS]
        if math.prod(axis.size for axis in axes) == 0:
            raise CliError(EXIT_CONSTRAINT, "sweep grid is empty")
        finite = [np.isfinite(axis) for axis in axes]
        if not all(f.all() for f in finite):
            # the first point in loop order with a non-finite coordinate raises
            # the same error a parameter record built there raises
            point = np.unravel_index(np.argmin(functools.reduce(np.logical_and.outer, finite)),
                                     [axis.size for axis in axes])
            catalog2x2.Pt2Params(*(float(axis[i]) for axis, i in zip(axes, point)))
        header = ("e", "gamma", "rho", "delta",
                  "energy_plus_re", "energy_plus_im", "energy_minus_re", "energy_minus_im", "unbroken")
        lines.append(",".join(header))
        if args.family == "pt2":
            operator = make_diagonal_parity(1, 1)
            kind = SymmetryKind.PT
            build = catalog2x2.pt2_grid
        else:
            operator = make_diagonal_parity(1, 1, InvolutionKind.HERMITIAN_INVOLUTION)
            kind = SymmetryKind.PSEUDO
            build = catalog2x2.pseudo2_grid
        table = classify_spectra(build(*axes), tol, symmetry=(kind, operator))
        lines += _sweep_rows(axes, table)
    elif args.family == "degeneration":
        _reject_unknown(grid, _DEGENERATION_GRID_KEYS, "grid")
        fam = grid.get("family", "pt2")
        if fam not in ("pt2", "pseudo2"):
            raise CliError(EXIT_PARSE, f"degeneration family must be pt2 or pseudo2, got {fam!r}")
        u = _json_number(grid.get("u", 1.0), "grid u")
        gamma = _json_number(grid.get("gamma", 1.0), "grid gamma")
        eps_axis = _grid_axis(grid.get("epsilon", {"start": 1e-2, "stop": 1e-6, "num": 9, "scale": "log"}), "epsilon")
        eps_axis = np.sort(eps_axis)[::-1]
        if eps_axis.size == 0:
            raise CliError(EXIT_CONSTRAINT, "sweep grid is empty")
        try:
            scan = degeneration_scan(u, gamma, eps_axis, family=fam)
        except ContractError as exc:
            raise CliError(EXIT_CONSTRAINT, str(exc))
        lines.append(",".join(scan.CSV_COLUMNS))
        for row in scan.rows():
            lines.append(",".join(_fmt17(x) for x in row))
    else:
        raise CliError(EXIT_PARSE, f"unknown sweep family {args.family!r}")
    emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------- count

_JSON_BOOL = {False: "false", True: "true"}
# One report as json.dumps(payload, indent=2) lays it out in "rows": its keys are the CSV columns.
_COUNT_ROW = "    {\n%s\n    }" % ",\n".join(f'      "{key}": %s' for key in CSV_COLUMNS)
# One report as a CSV line: the kind, then integers (the match flag as 0 or 1).
_COUNT_CSV_ROW = ",".join(["%s"] + ["%d"] * (len(CSV_COLUMNS) - 1))


def cmd_count(args) -> int:
    tol = _tolerances(args)
    if not (2 <= args.max_dim <= 8):
        raise CliError(EXIT_PARSE, f"--max-dim must lie in [2, 8], got {args.max_dim}")
    reports = table1_report(args.max_dim, tol)
    failures = [r for r in reports if not r.match]
    if args.format == "csv":
        emit("\n".join([",".join(CSV_COLUMNS), *(_COUNT_CSV_ROW % row for row in report_rows(reports))]) + "\n",
             args.out)
    else:
        # tests/golden/count_stdout.sha256.json pins this layout: json.dumps(payload, indent=2), byte for byte
        rows = ",\n".join([_COUNT_ROW % ('"%s"' % kind, *values, _JSON_BOOL[match])
                           for kind, *values, match in report_rows(reports)])
        cols = ",\n".join('    "%d": [\n      %s\n    ]' % (dim, ",\n      ".join(map(str, vals)))
                          for dim, vals in table_columns(reports).items())
        emit('{\n  "max_dim": %d,\n  "rows": [\n%s\n  ],\n  "columns": {\n%s\n  },\n  "all_match": %s\n}'
             % (args.max_dim, rows, cols, _JSON_BOOL[not failures]), args.out)
    if failures:
        for r in failures:
            print(f"mismatch: {r.kind.value} (m={r.m}, n={r.n}) total {r.total} != expected {r.expected}",
                  file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------- convert

@np.errstate(over="ignore")
def cmd_convert(args) -> int:
    tol = _tolerances(args)
    O = load_matrix(args.operator)
    H = load_matrix(args.matrix)
    if O.shape != H.shape:
        raise CliError(EXIT_DIMENSION, f"operator is {O.shape} but matrix is {H.shape}")
    seed = _seed(args)  # read for every direction, so a malformed PTLAB_SEED fails alike
    fn = {"pt-to-pseudo": pt_to_pseudo, "pseudo-to-pt": pseudo_to_pt, "genpt-to-pseudo": gen_pt_to_pseudo}[args.direction]
    try:
        result = fn(O, H, tol, seed=seed) if fn is gen_pt_to_pseudo else fn(O, H, tol)
    except (ContractError, DimensionError) as exc:
        raise CliError(EXIT_DIMENSION, str(exc))
    payload = {
        "direction": args.direction,
        "Q": matrix_to_document(result.Q) if result.Q is not None else None,
        "hermitian": result.hermitian,
        "involutory": result.involutory,
        "target_kind_satisfied": result.target_kind_satisfied,
        # a miss's residuals are inf, which strict JSON (RFC 8259) cannot hold: null
        "residuals": dict(zip(("structure", "involution", "intertwining"),
                              (r if np.isfinite(r) else None for r in result.residuals))),
        "degenerate": result.degenerate,
        "note": result.note,
    }
    emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------- jordan

def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise CliError(EXIT_PARSE, f"expected 're' or 're,im', got {text!r}")


@np.errstate(over="ignore")
def cmd_jordan(args) -> int:
    tol = _tolerances(args)
    H = load_matrix(args.matrix)
    lam = _parse_complex(args.eigenvalue)
    try:
        chain = jordan_chain(H, lam, tol)
    except (ContractError, DimensionError) as exc:
        raise CliError(EXIT_DIMENSION, str(exc))
    vectors = chain.with_alpha(args.alpha)
    residuals = []
    M = H - chain.eigenvalue * np.eye(H.shape[0])
    residuals.append(float(np.linalg.norm(M @ vectors[0])))
    for k in range(1, len(vectors)):
        residuals.append(float(np.linalg.norm(M @ vectors[k] - vectors[k - 1])))
    payload = {
        "eigenvalue": _complex_pair(chain.eigenvalue),
        "alpha": args.alpha,
        "vectors": [[_complex_pair(z) for z in v] for v in vectors],
        "chain_residuals": residuals,
    }
    emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------- wiring

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ptlab argument parser, built once per process (parse_args leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=float, default=1e-10, help="absolute tolerance (default 1e-10)")
    common.add_argument("--tol-rel", type=float, default=1e-9, help="relative tolerance (default 1e-9)")
    common.add_argument("--seed", type=int, default=None, help="seed for randomized searches (default: PTLAB_SEED or 42)")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="output format where supported")
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    parser = argparse.ArgumentParser(prog="ptlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="symmetry verdicts, spectrum report, metric existence")
    p.add_argument("--matrix", required=True, help="matrix document (JSON)")
    p.add_argument("--operator", default=None, help="optional symmetry operator document")
    p.add_argument("--kind", choices=sorted(_KIND_NAMES), default=None, help="symmetry kind for --operator")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("construct", parents=[common], help="build a catalog or canonical-family matrix")
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p.add_argument("--params", required=True, help="JSON object or @file")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("sweep", parents=[common], help="CSV parameter sweeps")
    p.add_argument("--family", required=True, choices=("pt2", "pseudo2", "degeneration"))
    p.add_argument("--grid", required=True, help="JSON grid spec or @file")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("count", parents=[common], help="reproduce the parameter-count table")
    p.add_argument("--max-dim", type=int, required=True)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("convert", parents=[common], help="convert between symmetry pictures")
    p.add_argument("--direction", required=True, choices=("pt-to-pseudo", "pseudo-to-pt", "genpt-to-pseudo"))
    p.add_argument("--operator", required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("jordan", parents=[common], help="extract a Jordan chain at an eigenvalue")
    p.add_argument("--matrix", required=True)
    p.add_argument("--eigenvalue", required=True, help="'re' or 're,im'")
    p.add_argument("--alpha", type=float, default=0.0, help="free additive constant in the second link")
    p.set_defaults(fn=cmd_jordan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConstraintError, SingularCaseError) as exc:
        print(f"constraint violated: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (DimensionError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (NumericalError, IndeterminateStructureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except BrokenPipeError:  # pragma: no cover
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
