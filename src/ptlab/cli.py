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
        rows, cols, data = int(doc["rows"]), int(doc["cols"]), doc["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"matrix document needs integer rows/cols and data: {exc}")
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
            out[i, j] = complex(float(re), float(im))
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise CliError(EXIT_PARSE, "matrix document contains non-finite entries")
    return out


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
    raw = params.get(key)
    if raw is None:
        raise CliError(EXIT_PARSE, f"family needs complex array {key!r} of [re, im] pairs")
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 3 or arr.shape[:2] != shape or arr.shape[2] != 2:
        raise CliError(EXIT_DIMENSION, f"block {key} must be {shape} of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _pt2_params(params) -> catalog2x2.Pt2Params:
    allowed = {"e", "gamma", "rho", "delta", "u", "v", "theta", "phi"}
    unknown = set(params) - allowed
    if unknown:
        raise CliError(EXIT_PARSE, f"unknown parameters {sorted(unknown)}; expected {sorted(allowed)}")
    try:
        return catalog2x2.Pt2Params(**{k: float(v) for k, v in params.items()})
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"bad family parameters: {exc}")


def cmd_construct(args) -> int:
    tol = _tolerances(args)
    params = load_params(args.params)
    family = args.family
    matrices = {}
    checks = {}

    if family in ("pt2", "pseudo2"):
        p = _pt2_params(params)
        want_metric = "u" in params or "v" in params
        if family == "pt2":
            fam = catalog2x2.pt2_family(p)
            parity = make_diagonal_parity(1, 1)
            checks["pt_residual"] = check_symmetry(SymmetryKind.PT, parity, fam.hamiltonian, tol).residual
        else:
            fam = catalog2x2.pseudo2_family(p)
            metric_op = make_diagonal_parity(1, 1, InvolutionKind.HERMITIAN_INVOLUTION)
            checks["pseudo_residual"] = check_symmetry(SymmetryKind.PSEUDO, metric_op, fam.hamiltonian, tol).residual
        matrices["hamiltonian"] = fam.hamiltonian
        if want_metric:
            if fam.metric_reason is not None:
                raise CliError(EXIT_CONSTRAINT, fam.metric_reason)
            matrices["metric"] = fam.metric
            checks["self_adjoint_residual"] = float(
                frobenius(fam.metric @ fam.hamiltonian - fam.hamiltonian.conj().T @ fam.metric)
            )
    elif family == "genpt2":
        allowed = {"theta", "delta", "phi", "alpha"}
        unknown = set(params) - allowed
        if unknown:
            raise CliError(EXIT_PARSE, f"unknown parameters {sorted(unknown)}; expected {sorted(allowed)}")
        core = catalog2x2.genpt2_operator(catalog2x2.GenPt2Params(**{k: float(v) for k, v in params.items()}))
        matrices["core"] = core
        checks["conjugate_product_residual"] = float(frobenius(core @ core.conj() - np.eye(2)))
    elif family == "pt-jordan":
        try:
            m, n, lam = int(params["m"]), int(params["n"]), float(params["lambda"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"pt-jordan needs integers m, n and real lambda: {exc}")
        H, T = build_pt_jordan(m, n, lam)
        matrices["hamiltonian"], matrices["similarity"] = H, T
        parity = make_diagonal_parity(m, n)
        checks["pt_residual"] = check_symmetry(SymmetryKind.PT, parity, H, tol).residual
    elif family == "parity":
        try:
            m, n = int(params["m"]), int(params["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"parity needs integers m, n: {exc}")
        matrices["parity"] = make_diagonal_parity(m, n).matrix
    elif family == "sip":
        try:
            n = int(params["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"sip needs integer n: {exc}")
        matrices["sip"] = make_sip(n).matrix
    elif family == "sip-similarity":
        try:
            n = int(params["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"sip-similarity needs integer n: {exc}")
        q, q_inv = sip_similarity(n)
        matrices["q"], matrices["q_inverse"] = q, q_inv
        parity = make_diagonal_parity((n + 1) // 2, n // 2)
        checks["similarity_residual"] = float(frobenius(q @ parity.matrix @ q_inv - make_sip(n).matrix))
    elif family == "grassmann":
        try:
            m, n, x = int(params["m"]), int(params["n"]), float(params["x"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"grassmann needs integers m, n and real x: {exc}")
        b = _complex_block(params, "b", (m, n))
        U = grassmann_coset_element(GrassmannCosetSpec(m=m, n=n, b=b, x=x))
        matrices["unitary"] = U
        checks["unitarity_residual"] = float(frobenius(U @ U.conj().T - np.eye(m + n)))
    elif family == "pt-block":
        try:
            m, n = int(params["m"]), int(params["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"pt-block needs integers m, n: {exc}")
        p = PtBlockParams(m=m, n=n, A=_real_block(params, "A", (m, m)), B=_real_block(params, "B", (m, n)),
                          C=_real_block(params, "C", (n, m)), D=_real_block(params, "D", (n, n)))
        H = construct_pt_block(p)
        matrices["hamiltonian"] = H
        checks["pt_residual"] = check_symmetry(SymmetryKind.PT, make_diagonal_parity(m, n), H, tol).residual
    elif family == "pseudo-block":
        try:
            m, n = int(params["m"]), int(params["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"pseudo-block needs integers m, n: {exc}")
        p = PseudoBlockParams(m=m, n=n, A=_complex_block(params, "A", (m, m)),
                              B=_complex_block(params, "B", (m, n)), D=_complex_block(params, "D", (n, n)))
        H = construct_pseudo_block(p, tol)
        matrices["hamiltonian"] = H
        op = make_diagonal_parity(m, n, InvolutionKind.HERMITIAN_INVOLUTION)
        checks["pseudo_residual"] = check_symmetry(SymmetryKind.PSEUDO, op, H, tol).residual
    elif family == "rotated-hermitian":
        try:
            n = int(params["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"rotated-hermitian needs integer n: {exc}")
        p = RotatedHermitianParams(n=n, a=_real_block(params, "a", (n, n)), b=_real_block(params, "b", (n, n)))
        H = construct_rotated_hermitian(p)
        matrices["hamiltonian"] = H
        S = make_sip(n)
        checks["pseudo_residual"] = check_symmetry(SymmetryKind.PSEUDO, S, H, tol).residual
    elif family == "genpt-diag":
        phases = np.asarray(params.get("phases", []), dtype=float)
        if phases.size < 1:
            raise CliError(EXIT_PARSE, "genpt-diag needs a nonempty phases list")
        p = DiagPhaseGenPtParams(phases=phases, r=_real_block(params, "r", (phases.size, phases.size)))
        H = construct_gen_pt_diag(p)
        core = gen_pt_diag_operator(phases)
        matrices["hamiltonian"], matrices["core"] = H, core
        checks["genpt_residual"] = check_symmetry(SymmetryKind.GEN_PT, core, H, tol).residual
    elif family == "diag-metric":
        omegas = np.asarray(params.get("omegas", []), dtype=float)
        if omegas.size < 1:
            raise CliError(EXIT_PARSE, "diag-metric needs a nonempty omegas list")
        N = omegas.size
        p = DiagMetricSelfAdjointParams(omegas=omegas, a=_real_block(params, "a", (N, N)), b=_real_block(params, "b", (N, N)))
        H = construct_self_adjoint_from_diag_metric(p)
        matrices["hamiltonian"], matrices["metric"] = H, p.metric
        checks["self_adjoint_residual"] = float(frobenius(p.metric @ H - H.conj().T @ p.metric))
    else:
        raise CliError(EXIT_PARSE, f"unknown family {family!r}")

    payload = {
        "family": family,
        "matrices": {name: matrix_to_document(M) for name, M in matrices.items()},
        "self_check": checks,
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
        return np.array([float(axis)])
    if isinstance(axis, dict):
        _reject_unknown(axis, _AXIS_KEYS, f"axis {name}")
        try:
            start, stop, num = float(axis["start"]), float(axis["stop"]), axis["num"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_PARSE, f"axis {name} needs start/stop/num: {exc}")
        if isinstance(num, bool) or not (isinstance(num, int) or isinstance(num, float) and num.is_integer()):
            raise CliError(EXIT_PARSE, f"axis {name} num must be an integer, got {num!r}")
        num = int(num)
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


def _sweep_rows(axes, reports) -> list:
    """CSV rows of a pt2/pseudo2 sweep: each axis value formatted once, each
    row in one % pass (byte-equal to _fmt17 for every float)."""
    prefixes = [""]
    for axis in axes:
        values = ["%.17g" % x for x in axis.tolist()]
        prefixes = [f"{p}{v}," for p in prefixes for v in values]
    values = np.array([r.eigenvalues for r in reports])
    plus, minus = values[:, -1], values[:, 0]
    columns = (prefixes, plus.real.tolist(), plus.imag.tolist(), minus.real.tolist(), minus.imag.tolist(),
               [bool(r.unbroken) for r in reports])
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
        reports = classify_spectra(build(*axes), tol, symmetry=(kind, operator))
        lines += _sweep_rows(axes, reports)
    elif args.family == "degeneration":
        _reject_unknown(grid, _DEGENERATION_GRID_KEYS, "grid")
        fam = grid.get("family", "pt2")
        if fam not in ("pt2", "pseudo2"):
            raise CliError(EXIT_PARSE, f"degeneration family must be pt2 or pseudo2, got {fam!r}")
        u = float(grid.get("u", 1.0))
        gamma = float(grid.get("gamma", 1.0))
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

def cmd_count(args) -> int:
    tol = _tolerances(args)
    if not (2 <= args.max_dim <= 8):
        raise CliError(EXIT_PARSE, f"--max-dim must lie in [2, 8], got {args.max_dim}")
    reports = table1_report(args.max_dim, tol, seed=_seed(args))
    columns = table_columns(reports)
    failures = [r for r in reports if not r.match]
    if args.format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in report_rows(reports):
            lines.append(",".join(str(int(x)) if isinstance(x, (bool, np.bool_)) else str(x) for x in row))
        emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "max_dim": args.max_dim,
            "rows": [
                {"kind": r.kind.value, "m": r.m, "n": r.n,
                 "matrix_dim": r.measured_matrix_dim, "orbit_dim": r.measured_operator_orbit_dim,
                 "total": r.total, "expected": r.expected, "match": r.match}
                for r in reports
            ],
            "columns": {str(dim): list(vals) for dim, vals in columns.items()},
            "all_match": not failures,
        }
        emit(json.dumps(payload, indent=2), args.out)
    if failures:
        for r in failures:
            print(f"mismatch: {r.kind.value} (m={r.m}, n={r.n}) total {r.total} != expected {r.expected}",
                  file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------- convert

def cmd_convert(args) -> int:
    tol = _tolerances(args)
    O = load_matrix(args.operator)
    H = load_matrix(args.matrix)
    if O.shape != H.shape:
        raise CliError(EXIT_DIMENSION, f"operator is {O.shape} but matrix is {H.shape}")
    fn = {"pt-to-pseudo": pt_to_pseudo, "pseudo-to-pt": pseudo_to_pt, "genpt-to-pseudo": gen_pt_to_pseudo}[args.direction]
    try:
        result = fn(O, H, tol, seed=_seed(args))
    except (ContractError, DimensionError) as exc:
        raise CliError(EXIT_DIMENSION, str(exc))
    payload = {
        "direction": args.direction,
        "Q": matrix_to_document(result.Q) if result.Q is not None else None,
        "hermitian": result.hermitian,
        "involutory": result.involutory,
        "target_kind_satisfied": result.target_kind_satisfied,
        "residuals": {
            "structure": result.residuals[0],
            "involution": result.residuals[1],
            "intertwining": result.residuals[2],
        },
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
    p.add_argument("--family", required=True,
                   choices=("pt2", "pseudo2", "genpt2", "pt-jordan", "parity", "sip", "sip-similarity",
                            "grassmann", "pt-block", "pseudo-block", "rotated-hermitian", "genpt-diag",
                            "diag-metric"))
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
