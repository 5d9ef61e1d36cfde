"""Jordan structure and conjugate pairing beyond 2x2, against independent
oracles: sympy's exact Jordan forms of integer matrices, direct sums of
Jordan blocks built with a known Segre characteristic, the agreement of
classify_spectrum with solve_metric_space and find_gen_pt_operator, and
verdicts that do not change with the units of H."""

from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ptlab import intertwine, numerics
from ptlab.convert import pseudo_to_pt, pt_to_pseudo
from ptlab.errors import IndeterminateStructureError
from ptlab.involutions import make_diagonal_parity
from ptlab.metric import solve_metric_space
from ptlab.numerics import DEFAULT_TOL, frobenius
from ptlab.spectra import RealityClass, classify_spectrum, jordan_block
from ptlab.symmetry import SymmetryKind, find_gen_pt_operator
from test_convert import SCREEN_CASES, random_draws, screen_draws


def expected_class(blocks) -> RealityClass:
    """Reality class of a spectrum given as (eigenvalue, size) per Jordan block."""
    real = [lam.imag == 0 for lam, _ in blocks]
    if all(real):
        defective = any(size > 1 for _, size in blocks)
        return RealityClass.ALL_REAL_DEFECTIVE if defective else RealityClass.ALL_REAL_DIAGONALIZABLE
    closed = Counter((lam, size) for lam, size in blocks if lam.imag > 0) == Counter(
        (lam.conjugate(), size) for lam, size in blocks if lam.imag < 0)
    return RealityClass.CONJUGATE_PAIRS if closed and not any(real) else RealityClass.MIXED


def segre_of(blocks) -> dict:
    segre = {}
    for lam, size in blocks:
        segre.setdefault(lam, []).append(size)
    return {lam: sorted(sizes) for lam, sizes in segre.items()}


def assert_segre(report, blocks, atol):
    """The report's Segre dict has one key within atol of each built
    eigenvalue, with that eigenvalue's block sizes, and no other key."""
    want = segre_of(blocks)
    assert len(report.segre) == len(want), report.segre
    for lam, sizes in want.items():
        key = min(report.segre, key=lambda k: abs(k - lam))
        assert abs(key - lam) <= atol and sorted(report.segre[key]) == sizes, (lam, report.segre)


def paired_segre_keys(segre, atol):
    """Pairs (lam, mu) of Segre keys with lam within atol of conj(mu)."""
    return [(lam, mu) for lam in segre for mu in segre if abs(lam - np.conj(mu)) <= atol]


# ---------------------------------------------------------------- sympy

def _integer_jordan(rng):
    """(J, blocks): an integer matrix of at most 8 rows in real Jordan form,
    with Jordan blocks at distinct integers (sometimes two blocks at one) and
    at most one rotation block a +- 2i."""
    eigenvalues = rng.permutation(np.arange(-3, 4))
    blocks, pieces = [], []
    if rng.random() < 0.5:
        a = int(eigenvalues[0])
        pieces.append(np.array([[a, 2], [-2, a]]))
        blocks += [(complex(a, 2), 1), (complex(a, -2), 1)]
    for lam in eigenvalues[1:].tolist():
        size = int(rng.integers(1, 4))
        if sum(len(p) for p in pieces) + size > 8:
            break
        pieces.append(jordan_block(lam, size).real.astype(int))
        blocks.append((complex(lam), size))
        if rng.random() < 0.3 and sum(len(p) for p in pieces) < 8:
            pieces.append(np.array([[lam]]))
            blocks.append((complex(lam), 1))
    n = sum(len(p) for p in pieces)
    J, pos = np.zeros((n, n), dtype=int), 0
    for piece in pieces:
        J[pos:pos + len(piece), pos:pos + len(piece)] = piece
        pos += len(piece)
    return J, blocks


def _sympy_segre(H) -> dict:
    """Segre characteristic of the exact Jordan form sympy finds for H."""
    _, J = sympy.Matrix(H.tolist()).jordan_form()
    n, start, segre = J.shape[0], 0, {}
    for k in range(n):
        if k == n - 1 or J[k, k + 1] == 0:
            lam = complex(sympy.N(J[k, k]))
            segre.setdefault(lam, []).append(k + 1 - start)
            start = k + 1
    return {lam: sorted(sizes) for lam, sizes in segre.items()}


def _unimodular_conjugate(seed):
    """(H, blocks): _integer_jordan's J conjugated by an integer U with an
    integer inverse."""
    rng = np.random.default_rng(seed)
    J, blocks = _integer_jordan(rng)
    n = len(J)
    # unit triangular factors with entries in {-1, 0, 1}: U and inv(U) are integer
    U = (np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n, dtype=int)) @ (
        np.triu(rng.integers(-1, 2, (n, n)), 1) + np.eye(n, dtype=int))
    U_inv = np.array(sympy.Matrix(U.tolist()).inv().tolist(), dtype=int)
    return U @ J @ U_inv, blocks


@pytest.mark.parametrize("seed", range(8))
def test_segre_matches_sympy_jordan_form_of_unimodular_conjugates(seed):
    H, blocks = _unimodular_conjugate(seed)
    exact = _sympy_segre(H)
    assert exact == segre_of(blocks)  # the oracle sees the structure that was built
    report = classify_spectrum(H.astype(complex))
    assert_segre(report, [(lam, size) for lam, sizes in exact.items() for size in sizes], 1e-6)
    assert report.reality_class is expected_class(blocks)
    assert not report.ambiguous


# ---------------------------------------------------------------- direct sums

# eigenvalues on a grid 1 apart; a non-real point comes as itself, as its
# conjugate, or as both with the same blocks
_POINTS = [complex(re, im) for re in range(-2, 3) for im in range(3)]


@st.composite
def direct_sums(draw):
    """(H, blocks): H = V J inv(V), J a direct sum of Jordan blocks (one
    per eigenvalue, of sizes 1-3) at most 24 rows wide, V a complex frame of
    condition number at most 10, and blocks the (eigenvalue, size) list."""
    points = draw(st.lists(st.sampled_from(_POINTS), min_size=1, max_size=12, unique=True))
    blocks = []
    for lam in points:
        size = draw(st.integers(1, 3))
        side = draw(st.sampled_from(["upper", "lower", "both"])) if lam.imag else "upper"
        new = [(mu, size) for mu in {"upper": [lam], "lower": [lam.conjugate()], "both": [lam, lam.conjugate()]}[side]]
        if len(blocks) and sum(size for _, size in blocks + new) > 24:
            break
        blocks += new
    n = sum(size for _, size in blocks)
    J, pos = np.zeros((n, n), dtype=complex), 0
    for lam, size in blocks:
        J[pos:pos + size, pos:pos + size] = jordan_block(lam, size)
        pos += size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    right, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    V = left @ np.diag(np.concatenate([[1.0, 10.0], rng.uniform(1.0, 10.0, n)])[:n]) @ right
    return V @ J @ np.linalg.inv(V), blocks


_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(direct_sums())
def test_segre_and_reality_class_of_direct_sums(case):
    H, blocks = case
    report = classify_spectrum(H)
    assert_segre(report, blocks, 1e-6 * max(1.0, np.linalg.norm(H)))
    assert report.reality_class is expected_class(blocks)


@_SETTINGS
@given(direct_sums())
def test_metric_dimension_and_gen_pt_core_agree_with_the_segre_table(case):
    """The metric space has dimension sum of min(p, q) over the blocks p at
    lambda and q at mu of every pair of Segre keys with lambda = conj(mu);
    on a simple spectrum a gen-PT core is found exactly when every Segre key
    has a conjugate key."""
    H, blocks = case
    segre = classify_spectrum(H).segre
    atol = 1e-6 * max(1.0, np.linalg.norm(H))
    pairs = paired_segre_keys(segre, atol)
    expected = sum(min(p, q) for lam, mu in pairs for p in segre[lam] for q in segre[mu])
    assert solve_metric_space(H).dimension == expected
    if all(sizes == [1] for sizes in segre.values()):
        closed = {lam for lam, _ in pairs} == set(segre)
        assert (find_gen_pt_operator(H) is not None) == closed


# ---------------------------------------------------------------- one verdict per matrix

def jordan_sums(ks=range(4, 17)):
    """J_k(1) + J_k(2) for each k in ks, in a real orthogonal frame and in a
    complex frame of condition number 3 (rng seed 5)."""
    rng = np.random.default_rng(5)
    for k in ks:
        J = np.zeros((2 * k, 2 * k), dtype=complex)
        J[:k, :k], J[k:, k:] = jordan_block(1.0, k), jordan_block(2.0, k)
        orthogonal, _ = np.linalg.qr(rng.normal(size=(2 * k, 2 * k)))
        left, _ = np.linalg.qr(rng.normal(size=(2 * k, 2 * k)) + 1j * rng.normal(size=(2 * k, 2 * k)))
        right, _ = np.linalg.qr(rng.normal(size=(2 * k, 2 * k)) + 1j * rng.normal(size=(2 * k, 2 * k)))
        framed = left @ np.diag(np.linspace(1.0, 3.0, 2 * k)) @ right
        for V in (orthogonal, framed):
            yield k, V @ J @ np.linalg.inv(V)


@pytest.mark.parametrize("k, H", list(jordan_sums()))
def test_jordan_sums_are_defective_or_ambiguous(k, H):
    """Two k-blocks at 1 and 2 smear their eigenvalues by eps^(1/k); once a
    staircase cutoff reaches s^k / 2 the ranks are no evidence, so the
    verdict is undecided, never an unambiguous wrong class."""
    report = classify_spectrum(H)
    assert report.reality_class is RealityClass.ALL_REAL_DEFECTIVE or report.ambiguous
    if not report.ambiguous:
        assert_segre(report, [(1.0, k), (2.0, k)], 1e-6 * np.linalg.norm(H))


COMPLEX_PAIR = "spectrum has a complex pair; only indefinite Hermitian solutions exist"
DEFECTIVE = "no eigenvector basis (defective); a positive metric does not exist"


def assert_one_verdict(H):
    """Every reader of H's one clustering agrees with it: the metric's
    status and note with classify_spectrum's class, find_gen_pt_operator
    (None exactly when the clusters do not pair), and the adjoint side,
    each of whose eigenvalues lies in the cluster disc of the H eigenvalue
    nearest its conjugate, with cluster sizes equal on both sides."""
    norm = frobenius(H)
    report, metric = classify_spectrum(H), solve_metric_space(H)
    if report.reality_class in (RealityClass.CONJUGATE_PAIRS, RealityClass.MIXED):
        assert (metric.positive_status, metric.note) == ("absent", COMPLEX_PAIR)
    elif report.reality_class is RealityClass.ALL_REAL_DEFECTIVE:
        assert (metric.positive_status, metric.note) == ("absent", DEFECTIVE)
    else:
        assert metric.positive_status in ("found", "indeterminate")
    clusters = intertwine.spectrum_clusters(numerics._eigenpairs(H), norm, DEFAULT_TOL)
    try:
        core = find_gen_pt_operator(H)
    except IndeterminateStructureError:
        core = "undecided"
    assert (core is None) == (clusters.pairs is None)
    record = numerics._eigenpairs(H, adjoint=True)
    frame = intertwine.cluster_frame(record, norm, DEFAULT_TOL)
    nearest = np.abs(record.values.conj()[:, None] - clusters.values).argmin(axis=1)
    assert np.all(np.abs(record.values.conj() - clusters.centres[nearest]) <= clusters.spans[nearest])
    assert sorted(np.bincount(frame.labels)[np.unique(frame.labels)]) == sorted(
        np.bincount(clusters.labels)[np.unique(clusters.labels)])


@_SETTINGS
@given(direct_sums())
def test_one_verdict_on_direct_sums(case):
    assert_one_verdict(case[0])


@pytest.mark.parametrize("seed", range(8))
def test_one_verdict_on_unimodular_conjugates(seed):
    assert_one_verdict(_unimodular_conjugate(seed)[0].astype(complex))


@pytest.mark.parametrize("k, H", list(jordan_sums((4, 5, 6, 8, 12, 16))))
def test_one_verdict_on_jordan_sums(k, H):
    assert_one_verdict(H)


@pytest.mark.parametrize("k, H", list(jordan_sums()))
def test_gen_pt_core_of_jordan_sums_takes_no_undecided_eigenvectors(monkeypatch, k, H):
    """A real frame keeps its identity core.  In a complex frame a defective
    or undecided Jordan verdict sends the search to the exact battery alone:
    the nearly parallel eigenvectors are never inverted, and the error names
    the verdict (the undecided staircase, where there is one)."""
    from ptlab import symmetry
    clusters = intertwine.spectrum_clusters(numerics._eigenpairs(H), frobenius(H), DEFAULT_TOL)
    if not H.imag.any():
        np.testing.assert_array_equal(find_gen_pt_operator(H).matrix, np.eye(2 * k))
        return
    assert clusters.defective or clusters.undecided
    monkeypatch.setattr(symmetry, "_realifying_columns", lambda *args: pytest.fail("eigenvectors realified"))
    reason = "rank staircase of a cluster is undecided" if clusters.undecided else "H is defective"
    with pytest.raises(IndeterminateStructureError, match=reason):
        find_gen_pt_operator(H)


# ---------------------------------------------------------------- units

def verdicts(H, P=None, to_pseudo=False):
    """The fields of H's analysis that the paper's identities, homogeneous in
    H, fix for every c H with c > 0: reality class, sorted Segre sizes and
    ambiguity, metric dimension and status, whether a core is found (or the
    search is undecided), and with a source operator P (a parity when
    to_pseudo, else a Hermitian involution) the symmetry verdicts and the
    conversion's outcome."""
    report, metric = classify_spectrum(H), solve_metric_space(H)
    try:
        core = find_gen_pt_operator(H) is not None
    except IndeterminateStructureError:
        core = "undecided"
    out = [report.reality_class, sorted(map(sorted, report.segre.values())), report.ambiguous,
           metric.dimension, metric.positive_status, core]
    if P is not None:
        symmetric = classify_spectrum(H, symmetry=(SymmetryKind.PT if to_pseudo else SymmetryKind.PSEUDO, P))
        result = (pt_to_pseudo if to_pseudo else pseudo_to_pt)(P, H)
        out += [symmetric.symmetry_holds, symmetric.unbroken, result.target_kind_satisfied, result.note]
    return out


UNIT_CASES = ([(H, None, False) for H in random_draws()]
              + [draw for kind, n in SCREEN_CASES for draw in screen_draws(kind, n, 1, seed=7000 + 10 * n + len(kind))]
              + [(H, None, False) for _, H in jordan_sums((4, 5, 6, 7, 8))])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(UNIT_CASES), st.integers(-60, 60))
def test_verdicts_are_unit_free(case, j):
    """H and 2^k H, k = 2j in [-120, 120], get the same verdicts: scaling by
    a power of two is exact, and every cut is a multiple of the norm of the
    matrix it judges.  k is even because LAPACK's eig is bit-equivariant
    under scaling by 4^j but not by every odd power of two (J_7(1) + J_7(2)
    in a complex frame splits its undecided cluster differently at 2H)."""
    H, P, to_pseudo = case
    assert verdicts(4.0 ** j * H, P, to_pseudo) == verdicts(H, P, to_pseudo)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_matrix_verdicts(n):
    """H = 0: every cut is 0 and every residual exactly 0, so the verdicts
    are those of c H for any H with c -> 0: one real semisimple eigenvalue,
    every Hermitian matrix a metric (the identity positive), the identity
    core, and the parity and the identity Q."""
    H, P = np.zeros((n, n), dtype=complex), make_diagonal_parity((n + 1) // 2, n // 2)
    assert verdicts(H, P, True) == [RealityClass.ALL_REAL_DIAGONALIZABLE, [[1] * n], False, n * n, "found", True,
                                    True, True, True, None]
    np.testing.assert_array_equal(find_gen_pt_operator(H).matrix, np.eye(n))
