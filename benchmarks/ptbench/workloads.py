"""The four benchmark workloads: seeded inputs, the calls they make, their oracles.

A workload is a fixed schedule of items repeated in cycles. Cycle ``k`` of
seed ``s`` is generated from ``np.random.default_rng([s, workload id, k])``,
so the same seed gives the same inputs, and every cycle has the same mix of
kinds and sizes; only the random values change. That keeps the cost of a
cycle, and with it every latency percentile, independent of the seed.

``execute`` makes only the library calls a user would make and is what the
item latency measures. ``check`` runs afterwards, untimed, and returns the
oracle records of ``oracles``.

All library calls go through ``ptlab.<name>`` or ``ptlab.cli.main`` attribute
lookups at call time, so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ptlab
import ptlab.catalog2x2 as cat
import ptlab.cli
from ptlab.involutions import InvolutionKind
from ptlab.symmetry import SymmetryKind

from . import oracles
from .oracles import Check

PT, PSEUDO, GEN_PT = SymmetryKind.PT, SymmetryKind.PSEUDO, SymmetryKind.GEN_PT
HERMITIAN = InvolutionKind.HERMITIAN_INVOLUTION


@dataclass
class Item:
    kind: str
    n: int
    data: dict = field(default_factory=dict)
    group: str = ""  # items of one group and size cost the same; the kind when empty


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: Callable[[int, int], list]
    execute: Callable[[Item], object]
    check: Callable[[Item, object], list]
    # items run once, after the traced phase and under a tracer of their own,
    # to time layers at a size too slow for the measured cycles
    sizing: Callable[[int], list] | None = None
    probe: str = "python"  # the host probe whose slowdown matches this workload's (see runner.PROBES)


def _rng(seed: int, ident: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, ident, cycle])


def _capture_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ptlab.cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- sweep2x2

SWEEP_POINTS = 10
# Grid points closer than this to gamma^2 = rho^2 are resampled: the unbroken
# verdict cannot be certified inside the sqrt(eps) smear of the exceptional
# set, so the axes straddle it instead (as acceptance criterion 2 does).
SWEEP_MARGIN = 1e-3


def sweep_cycle(seed: int, index: int) -> list:
    rng = _rng(seed, 1, index)
    items = []
    for k in range(10):
        family = ("pt2", "pseudo2")[k % 2]
        while True:
            sign = rng.choice([-1.0, 1.0])
            g0 = rng.uniform(0.0, 0.1)
            g1 = g0 + rng.uniform(1.8, 2.2)
            r0 = rng.uniform(0.02, 0.08)
            r1 = r0 + rng.uniform(1.8, 2.0)
            gammas = np.linspace(sign * g0, sign * g1, SWEEP_POINTS)
            rhos = np.linspace(r0, r1, SWEEP_POINTS)
            if np.min(np.abs(gammas[:, None] ** 2 - rhos[None, :] ** 2)) >= SWEEP_MARGIN:
                break
        e, delta = rng.uniform(-1.0, 1.0), rng.uniform(-np.pi, np.pi)
        grid = {"e": e, "delta": delta,
                "gamma": {"start": sign * g0, "stop": sign * g1, "num": SWEEP_POINTS},
                "rho": {"start": r0, "stop": r1, "num": SWEEP_POINTS}}
        items.append(Item(family, 2, {"grid": json.dumps(grid), "e": e, "delta": delta,
                                      "gammas": gammas, "rhos": rhos}))
    return items


def sweep_execute(item: Item):
    return _capture_cli(["sweep", "--family", item.kind, "--grid", item.data["grid"]])


def sweep_check(item: Item, output) -> list:
    code, text = output
    d = item.data
    return [Check("sweep.exit", code == 0, detail=f"exit {code}")] + oracles.check_sweep_csv(
        text, d["e"], d["gammas"], d["rhos"], d["delta"])


# ---------------------------------------------------------------- count_table

def count_cycle(seed: int, index: int) -> list:
    rng = _rng(seed, 4, index)
    return [Item("count", int(k), {"seed": int(rng.integers(0, 2 ** 31))})
            for k in rng.permutation([4, 5, 6, 7, 8])]


def count_execute(item: Item):
    return _capture_cli(["count", "--max-dim", str(item.n), "--seed", str(item.data["seed"])])


def count_check(item: Item, output) -> list:
    code, text = output
    return oracles.check_count_output(code, text, item.n)


# ---------------------------------------------------------------- shared matrix builders

def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def known_spectrum(rng, n: int, kind: str, jordan: int = 0):
    """PT-symmetric V R inv(V) with a chosen spectrum.

    R = S D inv(S) is real; D holds distinct real eigenvalues, 2x2
    rotation-scale blocks c +- i b for conjugate pairs, and optionally one
    real Jordan block of size ``jordan``. S has singular values in [0.5, 2].
    V = Diag(1_m, i 1_(n-m)) makes H exactly symmetric under the parity
    Diag(1_m, -1_(n-m)) in floating point. Returns (H, parity, blocks) with
    one (eigenvalue, size) entry per Jordan block.
    """
    pairs = {"real": 0, "pairs": n // 2, "mixed": max(1, n // 4)}[kind]
    slots = n - pairs - max(jordan - 1, 0)  # one slot per real eigenvalue, pair or Jordan block
    centers = rng.permutation(np.arange(slots) - (slots - 1) / 2.0) + rng.uniform(-0.25, 0.25, slots)
    D = np.zeros((n, n))
    blocks, pos = [], 0
    for s, c in enumerate(centers):
        if s < pairs:
            b = rng.uniform(0.5, 1.5)
            D[pos:pos + 2, pos:pos + 2] = [[c, b], [-b, c]]
            blocks += [(complex(c, b), 1), (complex(c, -b), 1)]
            pos += 2
        elif jordan and s == pairs:
            D[pos:pos + jordan, pos:pos + jordan] = c * np.eye(jordan) + np.diag(np.ones(jordan - 1), 1)
            blocks.append((complex(c), jordan))
            pos += jordan
        else:
            D[pos, pos] = c
            blocks.append((complex(c), 1))
            pos += 1
    S = _orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ _orthogonal(rng, n)
    R = S @ D @ np.linalg.inv(S)
    m = n // 2
    v = np.concatenate([np.ones(m), 1j * np.ones(n - m)])
    H = R * (v[:, None] / v[None, :])
    return H, ptlab.make_diagonal_parity(m, n - m), blocks


def certify_execute(item: Item):
    d = item.data
    H = d["H"]
    out = {}
    if isinstance(d.get("symmetry"), tuple):
        out["symmetry"] = ptlab.check_symmetry(*d["symmetry"], H)
    out["spectrum"] = ptlab.classify_spectrum(H)
    out["metric"] = ptlab.solve_metric_space(H)
    out["witness"] = ptlab.transpose_matrix(H, jordan_witness=d.get("jordan"))
    try:
        out["core"] = ptlab.find_gen_pt_operator(H)
    except ptlab.IndeterminateStructureError as exc:
        out["core"] = exc
    if d.get("symmetry") == "core" and isinstance(out["core"], ptlab.InvolutionOperator):
        out["symmetry"] = ptlab.check_symmetry(GEN_PT, out["core"], H)
    if d.get("conversion"):
        name, operator, _, _ = d["conversion"]
        out["conversion"] = getattr(ptlab, name)(operator, H)
    return out


def certify_check(item: Item, out) -> list:
    d = item.data
    H = d["H"]
    checks = []
    if "symmetry_holds" in d:
        report = out.get("symmetry")
        holds = None if report is None else report.holds
        checks.append(Check("symmetry.holds", holds == d["symmetry_holds"], detail=f"holds {holds}"))
    if d.get("blocks") is not None:
        checks += oracles.check_spectrum(out["spectrum"], d["blocks"])
    elif d.get("reality_class"):
        got = out["spectrum"].reality_class.value
        checks.append(Check("spectrum.reality_class", got == d["reality_class"], hard=False, detail=got))
    checks += oracles.check_metric(H, out["metric"], d["metric_dim"])
    if d.get("positive_expected"):
        status = out["metric"].positive_status
        checks.append(Check("metric.positive_status", status in ("found", "indeterminate"), detail=status))
    checks += oracles.check_witness(H, out["witness"])
    checks += oracles.check_core(H, out["core"], d["core"])
    if d.get("conversion"):
        _, _, target, must = d["conversion"]
        result = out["conversion"]
        if must:
            checks.append(Check("conversion.succeeds", bool(result.target_kind_satisfied)))
        checks += oracles.verify_conversion(H, result, target)
    return checks


def _known_item(rng, n, kind, jordan=0, conversion=False) -> Item:
    H, parity, blocks = known_spectrum(rng, n, kind, jordan)
    data = {"H": H, "blocks": blocks, "metric_dim": oracles.metric_dimension(blocks),
            "core": "any" if jordan else "found"}
    if conversion:
        data.update(symmetry=(PT, parity), symmetry_holds=True,
                    conversion=("pt_to_pseudo", parity, "pseudo", False))
    return Item(f"known_{kind}" + (f"_jordan{jordan}" if jordan else ""), n, data,
                group="known_jordan" if jordan else "known")


# ---------------------------------------------------------------- certify_dense

# Per cycle: 30 items at n=8 (6 of them defective) and 6 at n=16; the n=16
# items take about 60% of the cycle, and p90 falls among them. n=24 and n=32
# are left out of the cycles and timed once per traced run (dense_sizing):
# one n=24 item takes 0.6-0.8 s and one n=32 item 3.5-4 s with one BLAS
# thread, and a slow spell of the shared host stretches the SVDs of their
# 1152x576 and 2048x1024 systems 5-14% less than the "svd" probe, so the
# probe cannot bring them back to the reference speed (see README.md).
DENSE_SCHEDULE = (
    [(16, k, 0) for k in ("real", "pairs", "mixed") * 2]
    + [(8, k, 0) for k in ("real", "pairs", "mixed") * 8]
    + [(8, "real", j) for j in (2, 2, 2, 3, 3, 3)]
)
SIZING_CYCLE = 2 * 10 ** 6  # rng stream of the sizing items, disjoint from cycles and warm-up


def dense_cycle(seed: int, index: int) -> list:
    rng = _rng(seed, 3, index)
    return [_known_item(rng, n, kind, jordan) for n, kind, jordan in DENSE_SCHEDULE]


def dense_sizing(seed: int) -> list:
    rng = _rng(seed, 3, SIZING_CYCLE)
    return [_known_item(rng, 24, "mixed"), _known_item(rng, 32, "mixed")]


# ---------------------------------------------------------------- certify_small

def _pt2_params(rng, chart: bool):
    """Admissible draws of acceptance criterion 7 (gap and gamma bounded away from 0)."""
    while True:
        p = cat.Pt2Params(e=rng.normal(), gamma=2 * rng.normal(), rho=rng.normal(),
                          delta=rng.uniform(-np.pi, np.pi),
                          theta=rng.uniform(-np.pi, np.pi) if chart else 0.0,
                          phi=rng.uniform(-1.2, 1.2) if chart else 0.0)
        if abs(p.gamma) < 0.15 or abs(p.gamma ** 2 - p.rho ** 2) < 1e-3:
            continue
        if chart and min(cat.cross_normalizer(case, p) for case in (
                cat.CrossCase.PSEUDO_FOR_PT_ROTATION_CHART, cat.CrossCase.PSEUDO_FOR_PT_BOOST_CHART)) < 1e-4:
            continue
        return p


def _pt2_blocks(p):
    root = np.sqrt(complex(p.gamma ** 2 - p.rho ** 2))
    return [(p.e + root, 1), (p.e - root, 1)]


def _hermitian(rng, n):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (X + X.conj().T)


def _small_item(rng, kind: str, n: int) -> Item:
    generic = {"metric_dim": n, "core": "found", "symmetry_holds": True}
    if kind in ("pt2", "pt2_rotation", "pt2_boost"):
        p = _pt2_params(rng, chart=kind != "pt2")
        if kind == "pt2":
            H, parity = cat.pt2_hamiltonian(p), ptlab.make_diagonal_parity(1, 1)
        else:
            chart = cat.Chart.ROTATION if kind == "pt2_rotation" else cat.Chart.BOOST
            moved = cat.pt2_transformed(chart, p)
            H, parity = moved.hamiltonian, moved.parity
        blocks = _pt2_blocks(p)
        return Item(kind, 2, {**generic, "H": H, "blocks": blocks, "metric_dim": 2,
                              "symmetry": (PT, parity),
                              "conversion": ("pt_to_pseudo", parity, "pseudo", True)})
    if kind == "pseudo2":
        p = _pt2_params(rng, chart=False)
        op = ptlab.make_diagonal_parity(1, 1, HERMITIAN)
        return Item(kind, 2, {**generic, "H": cat.pseudo2_hamiltonian(p), "blocks": _pt2_blocks(p),
                              "metric_dim": 2, "symmetry": (PSEUDO, op),
                              "conversion": ("pseudo_to_pt", op, "pt", False)})
    if kind == "genpt2":
        K = cat.genpt2_operator(cat.GenPt2Params(theta=rng.uniform(-np.pi, np.pi), delta=rng.uniform(-np.pi, np.pi),
                                                 phi=rng.uniform(-1.0, 1.0), alpha=rng.uniform(-np.pi, np.pi)))
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        H = A + K @ A.conj() @ K.conj()  # K conj(H) = H K because K conj(K) = 1
        return Item(kind, 2, {**generic, "H": H, "symmetry": (GEN_PT, K),
                              "conversion": ("gen_pt_to_pseudo", K, "pseudo", False)})
    if kind == "pt_block":
        m = n // 2
        H = ptlab.construct_pt_block(ptlab.PtBlockParams(
            m=m, n=n - m, A=rng.normal(size=(m, m)), B=rng.normal(size=(m, n - m)),
            C=rng.normal(size=(n - m, m)), D=rng.normal(size=(n - m, n - m))))
        parity = ptlab.make_diagonal_parity(m, n - m)
        return Item(kind, n, {**generic, "H": H, "symmetry": (PT, parity),
                              "conversion": ("pt_to_pseudo", parity, "pseudo", False)})
    if kind == "pseudo_block":
        m = n // 2
        H = ptlab.construct_pseudo_block(ptlab.PseudoBlockParams(
            m=m, n=n - m, A=_hermitian(rng, m), B=rng.normal(size=(m, n - m)) + 1j * rng.normal(size=(m, n - m)),
            D=_hermitian(rng, n - m)))
        op = ptlab.make_diagonal_parity(m, n - m, HERMITIAN)
        return Item(kind, n, {**generic, "H": H, "symmetry": (PSEUDO, op),
                              "conversion": ("pseudo_to_pt", op, "pt", False)})
    if kind == "rotated_hermitian":
        H = ptlab.construct_rotated_hermitian(ptlab.RotatedHermitianParams(
            n=n, a=rng.normal(size=(n, n)), b=rng.normal(size=(n, n))))
        op = ptlab.make_sip(n)
        return Item(kind, n, {**generic, "H": H, "symmetry": (PSEUDO, op),
                              "conversion": ("pseudo_to_pt", op, "pt", False)})
    if kind == "genpt_diag":
        phases = rng.uniform(-np.pi, np.pi, n)
        H = ptlab.construct_gen_pt_diag(ptlab.DiagPhaseGenPtParams(phases=phases, r=rng.normal(size=(n, n))))
        K = ptlab.gen_pt_diag_operator(phases)
        return Item(kind, n, {**generic, "H": H, "symmetry": (GEN_PT, K),
                              "conversion": ("gen_pt_to_pseudo", K, "pseudo", False)})
    if kind == "diag_metric":
        H = ptlab.construct_self_adjoint_from_diag_metric(ptlab.DiagMetricSelfAdjointParams(
            omegas=rng.uniform(0.5, 2.0, n), a=rng.normal(size=(n, n)), b=rng.normal(size=(n, n))))
        return Item(kind, n, {**generic, "H": H, "symmetry": "core",
                              "reality_class": "all_real_diagonalizable", "positive_expected": True})
    if kind == "known":
        spectrum = {3: "mixed", 4: "pairs", 5: "real", 6: "mixed"}[n]
        return _known_item(rng, n, spectrum, conversion=True)
    if kind == "pt_jordan":
        m = n // 2
        H, T = ptlab.build_pt_jordan(m, n - m, float(rng.uniform(-2.0, 2.0)))
        lam = complex(H[0, 0])
        parity = ptlab.make_diagonal_parity(m, n - m)
        return Item(kind, n, {"H": H, "blocks": [(lam, n)], "metric_dim": n, "core": "any",
                              "jordan": (T, [n]), "symmetry": (PT, parity), "symmetry_holds": True,
                              "conversion": ("pt_to_pseudo", parity, "pseudo", False)})
    if kind == "unpaired":
        # criterion 8: one complex eigenvalue without a conjugate partner
        values = (np.arange(n) - (n - 1) / 2.0 + rng.uniform(-0.25, 0.25, n)).astype(complex)
        values[0] += 1j * rng.uniform(0.5, 1.5)
        V = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        H = V @ np.diag(values) @ np.linalg.inv(V)
        blocks = [(v, 1) for v in values]
        return Item(kind, n, {"H": H, "blocks": blocks, "metric_dim": oracles.metric_dimension(blocks),
                              "core": "none", "symmetry": (PT, ptlab.make_diagonal_parity(n // 2, n - n // 2)),
                              "symmetry_holds": False})
    raise ValueError(f"unknown certify_small kind {kind!r}")


# Per cycle of 80 items: twice the 2x2 catalog (criterion 7 points, both
# charts, the pseudo family), every block and frame constructor at n = 3..6,
# known spectra, Jordan builds and unpaired spectra; then two generalized-PT
# points of each family at n = 2. gen_pt_to_pseudo runs only on those four,
# since one call costs 50-200 ms, and they take about a quarter of a cycle.
# At n = 3 its least-squares search costs 0.15-1.3 s with an interquartile
# range of 0.8 times its median over draws, so the 10 or so such items a run
# could hold did not pin that median, and items_per_s spread 0.11 by it alone.
_SMALL_BASE = (
    [("pt2", 2)] * 6 + [("pt2_rotation", 2)] * 3 + [("pt2_boost", 2)] * 3 + [("pseudo2", 2)] * 4
    + [("pt_block", n) for n in (3, 4, 5, 6)] + [("pseudo_block", n) for n in (3, 4, 5, 6)]
    + [("rotated_hermitian", n) for n in (3, 5)] + [("diag_metric", n) for n in (3, 5)]
    + [("known", n) for n in (3, 4, 5, 6)] + [("pt_jordan", n) for n in (2, 3, 4, 5)]
    + [("unpaired", n) for n in (3, 4)]
)
SMALL_SCHEDULE = _SMALL_BASE * 2 + [("genpt2", 2), ("genpt_diag", 2)] * 2


def small_cycle(seed: int, index: int) -> list:
    rng = _rng(seed, 2, index)
    return [_small_item(rng, kind, n) for kind, n in SMALL_SCHEDULE]


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep2x2", "in-process sweeps of 10x10 2x2 grids: per-call overhead of cli/spectra/symmetry/"
                 "involutions/numerics; metric, convert and counting are never called",
                 sweep_cycle, sweep_execute, sweep_check),
        Workload("certify_small", "n=2..6 catalog, constructor, known-spectrum, Jordan and unpaired matrices "
                 "through every check plus one conversion: convert's candidate hunt dominates",
                 small_cycle, certify_execute, certify_check),
        Workload("certify_dense", "known-spectrum matrices at n=8 and 16: the dense Kronecker SVDs of the "
                 "metric and witness solvers dominate time and memory",
                 dense_cycle, certify_execute, certify_check, dense_sizing, probe="svd"),
        Workload("count_table", "in-process count --max-dim 4..8: many small SVDs in counting and numerics",
                 count_cycle, count_execute, count_check, probe="mixed"),
    )
}
