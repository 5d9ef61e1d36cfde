"""Independent checks of ptlab outputs.

Every check here recomputes its answer with plain numpy from the benchmark's
own knowledge of the input (closed forms, the spectrum a matrix was built
with, the symmetry it was built to have). None of them calls ptlab, so a
traced run counts only the workload's own calls.

Each check returns a list of ``Check`` records. ``hard`` checks guard outputs
that ptlab certifies (CSV rows, basis residuals, witnesses, re-verified
operators, count tables); a failing hard check makes the run incorrect.
Checks with ``hard=False`` compare verdicts that ptlab decides with a
tolerance cut (reality class and Segre characteristic from eigenvalue
clustering, the core search's conjugate pairing on defective inputs) with the
structure the input was built with. The seed clusters every eigenvalue of a
matrix with n >= 10 into one cluster, so those failures are counted in
``error_rate`` and reported, not hidden.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)

# Criterion 6: a transpose witness must reproduce the transpose to 1e-9.
WITNESS_RESIDUAL = 1e-9
# Criterion 8: a generalized-PT core must intertwine to 1e-10 (relative).
CORE_RESIDUAL = 1e-10
# Residual bound for every returned metric basis element, relative to |W| |H|.
METRIC_RESIDUAL = 1e-9
# Criterion 7 tolerances for re-verifying a converted operator Q.
Q_STRUCTURE = 1e-9
Q_SQUARE = 1e-8
Q_INTERTWINE = 1e-9
# An operator is invertible for the benchmark when sigma_min / sigma_max exceeds this.
INVERTIBLE = 1e-8

SWEEP_HEADER = ["e", "gamma", "rho", "delta", "energy_plus_re", "energy_plus_im",
                "energy_minus_re", "energy_minus_im", "unbroken"]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    hard: bool = True
    detail: str = ""


def _fro(M) -> float:
    return float(np.linalg.norm(M))


# ---------------------------------------------------------------- sweep

def sweep_tolerance(expected_plus: complex, expected_minus: complex, root: complex) -> float:
    """1e-9 relative (criterion 2), widening towards sqrt(eps) * scale only
    where the two eigenvalues nearly coincide and their error is amplified."""
    scale = max(1.0, abs(expected_plus), abs(expected_minus))
    gap = abs(root)
    near_ep = 64.0 * np.sqrt(EPS) * scale
    if gap > 0:
        near_ep = min(near_ep, 64.0 * EPS * scale * scale / gap)
    return max(1e-9 * scale, near_ep)


def check_sweep_csv(text: str, e: float, gammas: np.ndarray, rhos: np.ndarray, delta: float) -> list:
    """Row-by-row check of a 2x2 sweep CSV against e +- sqrt(gamma^2 - rho^2)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return [Check("sweep.header", False, detail=f"header {rows[:1]}")]
    body = rows[1:]
    want = [(g, r) for g in gammas for r in rhos]
    if len(body) != len(want):
        return [Check("sweep.rows", False, detail=f"{len(body)} rows, expected {len(want)}")]
    bad_params = bad_values = bad_bits = 0
    for row, (g, r) in zip(body, want):
        vals = [float(x) for x in row[:8]]
        if vals[:4] != [e, g, r, delta]:
            bad_params += 1
            continue
        root = np.sqrt(complex(g * g - r * r))
        exp_plus, exp_minus = e + root, e - root
        got_plus, got_minus = complex(vals[4], vals[5]), complex(vals[6], vals[7])
        err = min(max(abs(got_plus - exp_plus), abs(got_minus - exp_minus)),
                  max(abs(got_plus - exp_minus), abs(got_minus - exp_plus)))
        if not err <= sweep_tolerance(exp_plus, exp_minus, root):
            bad_values += 1
        if row[8] != str(int(g * g >= r * r)):
            bad_bits += 1
    return [
        Check("sweep.grid", bad_params == 0, detail=f"{bad_params} rows off the grid"),
        Check("sweep.eigenvalues", bad_values == 0, detail=f"{bad_values} rows off the closed form"),
        Check("sweep.unbroken", bad_bits == 0, detail=f"{bad_bits} flipped verdicts"),
    ]


# ---------------------------------------------------------------- count

def count_closed_form(N: int) -> list:
    """Table columns: real symmetric, Hermitian, PT-or-pseudo, self-adjoint-or-gen-PT."""
    return [N * (N + 1) // 2, N * N, N * N + 2 * (N // 2) * ((N + 1) // 2), 2 * N * N - N]


def check_count_output(code: int, text: str, max_dim: int) -> list:
    checks = [Check("count.exit", code == 0, detail=f"exit {code}")]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return checks + [Check("count.json", False, detail=str(exc))]
    checks.append(Check("count.all_match", payload.get("all_match") is True))
    columns = payload.get("columns", {})
    wrong = [N for N in range(2, max_dim + 1) if columns.get(str(N)) != count_closed_form(N)]
    extra = sorted(set(columns) - {str(N) for N in range(2, max_dim + 1)})
    checks.append(Check("count.columns", not wrong and not extra,
                        detail=f"wrong dims {wrong}, unexpected {extra}"))
    return checks


# ---------------------------------------------------------------- spectra

def metric_dimension(blocks) -> int:
    """Sum of min(p_i, q_j) over Jordan blocks paired by lambda_i = conj(lambda_j).

    ``blocks`` lists (eigenvalue, size) once per Jordan block; the pairing
    runs over ordered pairs, so a real block pairs with itself and a
    conjugate pair of simple eigenvalues contributes two.
    """
    total = 0
    for lam_i, p in blocks:
        for lam_j, q in blocks:
            if abs(lam_i - np.conj(lam_j)) <= 1e-9 * max(1.0, abs(lam_i)):
                total += min(p, q)
    return total


def reality_class(blocks) -> str:
    real = [abs(lam.imag) <= 1e-9 for lam, _ in blocks]
    if all(real):
        return "all_real_defective" if any(s > 1 for _, s in blocks) else "all_real_diagonalizable"
    if not any(real):
        return "conjugate_pairs"
    return "mixed"


def check_spectrum(report, blocks) -> list:
    """Reality class and Segre characteristic against the built spectrum."""
    scale = max(1.0, max(abs(lam) for lam, _ in blocks))
    want = {}
    for lam, size in blocks:
        key = next((k for k in want if abs(k - lam) <= 1e-9 * scale), lam)
        want.setdefault(key, []).append(size)
    got = {complex(k): sorted(v) for k, v in report.segre.items()}
    segre_ok = len(got) == len(want)
    if segre_ok:
        for lam, sizes in want.items():
            match = min(got, key=lambda k: abs(k - lam))
            if abs(match - lam) > 1e-6 * scale or got[match] != sorted(sizes):
                segre_ok = False
                break
    expected_class = reality_class(blocks)
    return [
        Check("spectrum.reality_class", report.reality_class.value == expected_class, hard=False,
              detail=f"{report.reality_class.value} vs {expected_class}"),
        Check("spectrum.segre", segre_ok, hard=False, detail=f"{len(got)} clusters vs {len(want)}"),
    ]


# ---------------------------------------------------------------- metric

def check_metric(H: np.ndarray, solution, expected_dimension: int | None) -> list:
    """Each basis element is Hermitian and solves W H = adj(H) W; the basis is
    independent and, when the spectrum is known, has the predicted size."""
    basis = list(solution.hermitian_basis)
    Hn = max(_fro(H), 1.0)
    worst = 0.0
    for W in basis:
        herm = _fro(W - W.conj().T)
        gap = _fro(W @ H - H.conj().T @ W)
        worst = max(worst, (herm + gap) / (max(_fro(W), 1e-300) * Hn))
    independent = True
    if basis:
        stacked = np.column_stack([np.concatenate([W.real.ravel(), W.imag.ravel()]) for W in basis])
        sing = np.linalg.svd(stacked, compute_uv=False)
        independent = bool(sing[-1] > 1e-6 * sing[0])
    checks = [
        Check("metric.residual", worst <= METRIC_RESIDUAL, detail=f"worst {worst:.2e}"),
        Check("metric.independent", independent and solution.dimension == len(basis),
              detail=f"dimension field {solution.dimension}, {len(basis)} elements"),
    ]
    if expected_dimension is not None:
        checks.append(Check("metric.dimension", len(basis) == expected_dimension,
                            detail=f"{len(basis)} vs {expected_dimension}"))
    if solution.positive_representative is not None:
        W = solution.positive_representative
        eigs = np.linalg.eigvalsh(0.5 * (W + W.conj().T))
        ok = (eigs[0] > 0 and _fro(W - W.conj().T) <= 1e-12 * _fro(W)
              and _fro(W @ H - H.conj().T @ W) <= METRIC_RESIDUAL * _fro(W) * Hn)
        checks.append(Check("metric.positive", bool(ok), detail=f"min eigenvalue {eigs[0]:.2e}"))
    return checks


# ---------------------------------------------------------------- witnesses and cores

def check_witness(B: np.ndarray, witness) -> list:
    """A B = transpose(B) A with A invertible, recomputed independently."""
    A = witness.A
    sing = np.linalg.svd(A, compute_uv=False)
    invertible = bool(sing[0] > 0 and sing[-1] > INVERTIBLE * sing[0])
    scale = max(_fro(B), 1.0)
    independent = _fro(A @ B - B.T @ A) / (_fro(A) * scale) if invertible else np.inf
    reported = _fro(A @ B @ np.linalg.inv(A) - B.T) / scale if invertible else np.inf
    return [Check("witness.residual",
                  invertible and independent < WITNESS_RESIDUAL and reported < WITNESS_RESIDUAL
                  and witness.residual < WITNESS_RESIDUAL,
                  detail=f"intertwining {independent:.2e}, similarity {reported:.2e}, reported {witness.residual:.2e}")]


def check_core(H: np.ndarray, core, expect: str) -> list:
    """``expect`` is "found" (conjugation-closed simple spectrum, criterion 8),
    "none" (an unpaired eigenvalue, criterion 8) or "any" (defective input,
    where an IndeterminateStructureError is a documented outcome)."""
    if isinstance(core, Exception):
        return [Check("core.outcome", expect == "any", detail=f"{type(core).__name__}")]
    if core is None:
        # On a defective input the seed pairs eigenvalues with a cut far below
        # their sqrt(eps) smear and reports no core although the parity is one:
        # a known tolerance verdict, counted like the clustering failures.
        return [Check("core.outcome", expect == "none", hard=expect != "any", detail="no core returned")]
    if expect == "none":
        return [Check("core.outcome", False, detail="a core returned for an unpaired spectrum")]
    K = np.asarray(core.matrix)
    scale = _fro(H)
    intertwine = _fro(K @ H.conj() - H @ K) / scale
    product = _fro(K @ K.conj() - np.eye(K.shape[0])) / max(1.0, _fro(K) ** 2)
    return [Check("core.residual", intertwine < CORE_RESIDUAL and product < 1e-9,
                  detail=f"intertwining {intertwine:.2e}, K conj(K) - 1 {product:.2e}")]


def verify_conversion(H: np.ndarray, result, target: str) -> list:
    """Re-verify a Q reported as satisfying its target kind.

    target "pseudo": Q Hermitian, Q^2 = 1, Q H = adj(H) Q.
    target "pt":     Q real,      Q^2 = 1, Q H = conj(H) Q.
    """
    if not result.target_kind_satisfied:
        return []
    Q = result.Q
    scale = max(_fro(H), 1.0)
    if target == "pseudo":
        structure = _fro(Q - Q.conj().T)
        intertwine = _fro(Q @ H - H.conj().T @ Q)
    else:
        structure = _fro(Q - Q.conj())
        intertwine = _fro(Q @ H - H.conj() @ Q)
    square = _fro(Q @ Q - np.eye(Q.shape[0]))
    ok = structure <= Q_STRUCTURE and square <= Q_SQUARE and intertwine <= Q_INTERTWINE * scale
    return [Check("conversion.reverified", bool(ok),
                  detail=f"structure {structure:.2e}, square {square:.2e}, intertwining {intertwine:.2e}")]
