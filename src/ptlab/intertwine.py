"""Cluster-decoupled solutions of the intertwining equation X L = R X.

Two equations of this shape have R built from L itself: the metric
equation W H = adj(H) W (R = adj(L)) and the transpose witness A B =
transpose(B) A (R = transpose(L)).  With R = U M inv(U), M block diagonal,
X = U Z U* (U* = adj(U), resp. transpose(U)) solves X L = R X exactly when
M Z = Z M*, because L = inv(U*) M* U*.  So the equation splits into one
small equation M_a Z_ab = Z_ab M_b* per pair of diagonal blocks, and a pair
has nonzero solutions only when the spectra of M_a and of M_b* meet
(Bartels & Stewart, CACM 15, 1972; Golub & Van Loan, Matrix Computations,
section 7.6).

Each matrix H is clustered once, on the H side: H = V diag(lam) inv(V),
and lam_i gets the disc of radius rank_cutoff(kappa_i ||H||_F), kappa_i
= ||x_i|| ||y_i|| / |y_i x_i| its condition number (x_i the eigenvector,
y_i the matching row of inv(V)), capped at half the cluster cut
numerics._cluster_cut; a cluster is a connected component of overlapping
discs, and the kappa_i are computed only when the discs of their common
bound 1 / sigma_min(V) overlap.  The clusters carry their conjugate pairing
(conjugate_pairs) and the one Jordan verdict of the matrix (_jordan, a
rank staircase per cluster of more than one eigenvalue), which every
reader of reality, pairing or defectiveness takes.  On R = adj(H) each
eigenvalue mu joins the cluster of the H eigenvalue nearest conj(mu)
(conjugate_map): the two eigendecompositions round apart by far less than
a disc radius.  A single eigenvalue keeps its eigenvector column of R; the
members of a larger cluster get the leading columns of the complex Schur
form of R reordered to put them first (LAPACK trsen), and M_a is the
leading block of that form.

solve_clustered drives a caller's attempt on this frame.  When the attempt
reports clusters whose solutions fail its check, or the frame's columns are
nearly dependent, those clusters are merged, with their nearest neighbour
when only one is named, and the attempt runs again.  The last frame is one
cluster holding all of R: the full equation in the identity frame, whose
result is returned whatever the check says.

Clusters and frames live on the shared eigen records of their matrix
(numerics._eigenpairs), once per matrix norm and tolerance, and only this
module reads or writes the records' memo: on the H side the
sorted_clusters of the spectrum (spectrum_clusters; sorted_clusters builds
Clusters for lone matrices and stacks alike), on the adjoint side their
map onto adj(H), the frame of that partition and the Schur form of R
(cluster_frame), read by the metric solver and both witness solvers, which
conjugate it, as transpose(H) = conj(adj(H)).  A merge builds the frame of
its own labels, from the kept Schur form, for its solve alone.
The LAPACK Schur routines (zgees, ztrsen) come from scipy.linalg, imported
on first use (numerics._scipy_linalg) by the first frame with a cluster of
more than one eigenvalue beside others: the only frames that need them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .numerics import (MACHINE_EPS, ToleranceConfig, _cluster_cut, _Eigenpairs, _eigenpairs, _read_only, _reality_cut,
                       _scale, _scipy_linalg, hermitian_basis, nullspace_complex, rank_and_nullspace, rank_cutoff,
                       vectorize)


def _components(adjacent: np.ndarray) -> np.ndarray:
    """Label of each vertex of a reflexive symmetric boolean adjacency: the
    smallest vertex of its connected component, by passing each vertex the
    smallest label among its neighbours until none changes."""
    labels = np.arange(adjacent.shape[0])
    while True:
        passed = np.where(adjacent, labels, labels.size).min(axis=1)
        if np.array_equal(passed, labels):
            return labels
        labels = passed


def eigen_clusters(values: np.ndarray, vectors: np.ndarray, sigma: np.ndarray, norm: float, tol: ToleranceConfig):
    """(radii, labels): each eigenvalue's disc radius and its cluster, named
    by the smallest index among the cluster's members; sigma holds the
    singular values of vectors.  With unit eigenvectors x_i (as numpy's eig
    returns them) and y_i the rows of inv(vectors), y_i x_i = 1 and kappa_i =
    ||x_i|| ||y_i|| / |y_i x_i| is ||y_i||, at most ||inv(vectors)||_2 =
    1 / sigma_min.  So every disc first gets the radius of that bound, and
    when no two of these discs overlap every eigenvalue is alone with it;
    only otherwise are the kappa_i computed.

    Every radius is capped at half of numerics._cluster_cut, about the
    smear ||R|| eps^(1/n) of an n-fold defective eigenvalue: the parallel
    eigenvectors of an exact Jordan block overflow their kappa_i (or do not
    invert), and the cap keeps each cluster inside a cluster of single
    linkage at that cut."""
    n = values.size
    gaps = np.abs(values[:, None] - values)
    cap, low = 0.5 * _cluster_cut(tol, norm, n), float(sigma[-1])
    # a Python float quotient overflows to inf with no warning, and takes the cap
    bound = min(float(rank_cutoff(norm)) / low, cap) if low > 0 else cap
    if np.count_nonzero(gaps <= 2 * bound) == n:
        return np.full(n, bound), np.arange(n)
    try:
        left = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:  # eigenvectors that do not invert: every radius takes the cap
        radii = np.full(n, cap)
    else:
        with np.errstate(over="ignore"):  # an overflowing ||y_i|| takes the cap
            radii = np.fmin(cap, rank_cutoff(norm) * np.sqrt(np.vecdot(left, left).real))
    adjacent = gaps <= radii[:, None] + radii
    return radii, np.zeros(n, dtype=int) if adjacent.all() else _components(adjacent)


def cluster_discs(values: np.ndarray, radii: np.ndarray, labels: np.ndarray):
    """(centres, spans): for each eigenvalue the disc of its cluster, with
    the mean of the members as centre and the largest |mu_i - centre| + r_i
    as radius; it holds every member's disc."""
    n = values.size
    if np.array_equal(labels, np.arange(n)):  # every eigenvalue alone
        return values, radii
    centres = np.bincount(labels, values.real, n) + 1j * np.bincount(labels, values.imag, n)
    centres /= np.maximum(np.bincount(labels, minlength=n), 1)
    spans = np.zeros(n)
    np.maximum.at(spans, labels, np.abs(values - centres[labels]) + radii)
    return centres[labels], spans[labels]


def conjugate_pairs(centres: np.ndarray, spans: np.ndarray, labels: np.ndarray, reality_cut: float):
    """(real, pairs) for the clusters named by labels, with each eigenvalue's
    cluster disc (centres, spans) from cluster_discs: real marks the
    eigenvalues whose cluster centre lies within reality_cut of the real
    axis, and pairs lists the matched clusters, as (a, b) with Im centre_a >
    0, or is None when some non-real cluster has no partner.  The clusters
    take partners greedily, smallest member first, among the later unmatched
    clusters of their size: a non-real a the first non-real b whose centre
    lies within max(2 reality_cut, span_a + span_b) of conj(centre_a), and
    a real a the first real b nearer conj(centre_a) than either centre is to
    its own conjugate (|centre_b - conj(centre_a)| < 2 min |Im|), its mirror
    across the axis: lambda +- i eps with eps inside the reality cut."""
    real = np.abs(centres.imag) <= reality_cut
    c, s, r, sizes = centres.tolist(), spans.tolist(), real.tolist(), np.bincount(labels).tolist()
    heads = [a for a, label in enumerate(labels.tolist()) if a == label]
    # mirrors differ in real part by less than twice the largest |Im| of a real cluster
    axis = sorted(c[a].real for a in heads if r[a])
    width = 2 * max((abs(c[a].imag) for a in heads if r[a]), default=0.0)
    mirrors = any(y - x < width for x, y in zip(axis, axis[1:]))
    pool, floor, pairs = [a for a in heads if mirrors or not r[a]], 2 * float(reality_cut), []

    def partners(a, b):
        if sizes[b] != sizes[a] or r[b] != r[a]:
            return False
        gap = abs(c[b] - c[a].conjugate())
        return gap < 2 * min(abs(c[a].imag), abs(c[b].imag)) if r[a] else gap <= max(floor, s[a] + s[b])

    while pool:
        a = pool.pop(0)
        b = next((b for b in pool if partners(a, b)), None)
        if b is not None:
            pool.remove(b)
            pairs.append((a, b) if c[a].imag > 0 else (b, a))
        elif not r[a]:
            return real, None
    return real, tuple(pairs)


def _segre_staircase(A: np.ndarray, lam: complex, multiplicity: int, radius: float, norm: float, tol: ToleranceConfig):
    """Jordan block sizes at lam from ranks of (A - lam)^k, or None; norm is ||A||_F.

    Rank cutoffs inflate with the cluster radius because a radius-delta
    eigenvalue error perturbs the zero singular values of the k-th power by
    about k * delta * s^(k-1); a cutoff that reaches s^k / 2 leaves no evidence.
    With s = ||M||_2 and delta at least the rounding 4 eps norm of A, H and
    c H get the same blocks; where the first cutoff reaches s / 2 with delta
    inside the reality cut (mirrored pairs lam +- i eps, H = 0), M is zero
    and every block has size 1.
    Where s^multiplicity leaves the float range the powers would overflow or
    underflow, so M, s and delta are first scaled by one power of two to s
    in [1/2, 1): that scales the singular values of M^k and both terms of
    its cutoff by the same exact factor, and leaves the ranks as they are.
    """
    n = A.shape[0]
    M = A - lam * np.eye(n)
    sing = np.linalg.svd(M, compute_uv=False)
    s_norm, delta = float(sing[0]), max(radius, 4.0 * MACHINE_EPS * norm)
    if s_norm <= 16.0 * delta:
        return [1] * multiplicity if delta <= _reality_cut(tol, norm) else None
    if multiplicity * abs(math.log2(s_norm)) > 1000.0:
        e = -math.frexp(s_norm)[1]
        c, d = math.ldexp(1.0, e // 2), math.ldexp(1.0, e - e // 2)  # two factors, as 2^e itself may overflow
        M, sing, s_norm, delta = d * (c * M), d * (c * sing), d * (c * s_norm), d * (c * delta)
    power, sings = M, [sing]  # the singular values of M^k, k = 1, 2, ...
    for inflate in (1.0, 8.0, 64.0):
        nullities = [0]
        for k in range(1, multiplicity + 1):
            floor = inflate * 8.0 * k * delta * s_norm ** (k - 1)
            if floor >= 0.5 * s_norm ** k:  # the other term of the cutoff, 64 eps ||M^k||, stays far below
                return None
            if k > len(sings):
                power = power @ M
                sings.append(np.linalg.svd(power, compute_uv=False))
            sing = sings[k - 1]
            rank = int(np.sum(sing > max(rank_cutoff(sing[0]), floor)))
            nullities.append(n - rank)
            if nullities[-1] >= multiplicity:
                break
        if nullities[-1] < multiplicity:
            continue
        nullities[-1] = multiplicity  # the staircase saturates at the cluster size
        # blocks of size >= k appear nullities[k] - nullities[k-1] times
        at_least = [max(b - a, 0) for a, b in zip(nullities, nullities[1:])] + [0]
        sizes = [k for k in range(1, len(at_least)) for _ in range(at_least[k - 1] - at_least[k])]
        if sum(sizes) == multiplicity:
            return sizes
    return None


def _jordan(A: np.ndarray, values: np.ndarray, labels: np.ndarray, real: np.ndarray, pairs, norm: float,
            tol: ToleranceConfig):
    """(jordan, defective, undecided) of A, of Frobenius norm `norm`: jordan maps the head of each cluster
    of more than one eigenvalue (mirrored real clusters made one) to (key,
    sizes): the mean of its members (on the axis for a real one), and the
    staircase's Jordan blocks of A there, all 1 where it fails (undecided)."""
    labels = labels.copy()
    for a, b in (pair for pair in pairs or () if real[pair[0]]):
        labels[(labels == a) | (labels == b)] = min(a, b)
    jordan, undecided = {}, False
    for head in np.flatnonzero(np.bincount(labels, minlength=values.size) > 1).tolist():
        members = values[labels == head]
        centre = complex(np.mean(members))
        key = complex(centre.real, 0.0) if real[head] else centre
        sizes = _segre_staircase(A, key, members.size, float(np.abs(members - centre).max()), norm, tol)
        undecided |= sizes is None
        jordan[head] = key, sizes or [1] * members.size
    return jordan, any(max(sizes) > 1 for _, sizes in jordan.values()), undecided


class Clusters(NamedTuple):
    """The clusters of one spectrum sorted by (Re, Im), all arrays read-only:
    values and vectors in that order, each eigenvalue's disc radius and
    cluster label (eigen_clusters), the disc of its cluster (cluster_discs),
    real and pairs of conjugate_pairs at the reality cut of the matrix norm,
    and the Jordan verdict (_jordan)."""

    values: np.ndarray
    vectors: np.ndarray
    radii: np.ndarray
    labels: np.ndarray
    centres: np.ndarray
    spans: np.ndarray
    real: np.ndarray
    pairs: tuple | None
    jordan: dict
    defective: bool
    undecided: bool


def sorted_clusters(A: np.ndarray, values: np.ndarray, vectors: np.ndarray, sigma: np.ndarray, norm: float,
                    tol: ToleranceConfig) -> Clusters:
    """Clusters of the eigenpairs (values, vectors; sigma the singular values
    of vectors) of the matrix A of Frobenius norm `norm`, sorted by (Re,
    Im), with their Jordan verdict."""
    order = np.argsort(values, kind="stable")  # a stable complex sort is the lexicographic (Re, Im) order
    values, vectors = values[order], vectors[:, order]
    radii, labels = eigen_clusters(values, vectors, sigma, norm, tol)
    centres, spans = cluster_discs(values, radii, labels)
    real, pairs = conjugate_pairs(centres, spans, labels, _reality_cut(tol, norm))
    arrays = (_read_only(a) for a in (values, vectors, radii, labels, centres, spans, real))
    return Clusters(*arrays, pairs, *_jordan(A, values, labels, real, pairs, norm, tol))


def spectrum_clusters(record: _Eigenpairs, norm: float, tol: ToleranceConfig) -> Clusters:
    """sorted_clusters of the H-side shared eigen record
    (numerics._eigenpairs) of a matrix of Frobenius norm `norm`, computed
    once and kept in its memo for every reader."""
    key = ("spectrum", norm, tol)
    if key not in record.memo:
        record.memo[key] = sorted_clusters(record.matrix, record.values, record.vectors, record.sigma, norm, tol)
    return record.memo[key]


def conjugate_map(record: _Eigenpairs, norm: float, tol: ToleranceConfig):
    """(clusters, nearest) for the adjoint-side shared eigen record of a
    matrix H of Frobenius norm `norm`: H's spectrum_clusters, and for each
    eigenvalue mu of adj(H) the index of the sorted H eigenvalue nearest
    conj(mu); kept in the record's memo."""
    key = ("map", norm, tol)
    if key not in record.memo:
        clusters = spectrum_clusters(_eigenpairs(record.matrix.conj().T), norm, tol)
        nearest = np.abs(record.values.conj()[:, None] - clusters.values).argmin(axis=1)
        record.memo[key] = clusters, _read_only(nearest)
    return record.memo[key]


def _merged(values: np.ndarray, labels: np.ndarray, groups) -> np.ndarray:
    """labels with the clusters of each group (and, for a group of one, its
    nearest cluster) made one."""
    labels = labels.copy()
    for group in groups:
        group = set(group)
        if len(group) == 1:
            inside = labels == next(iter(group))
            gaps = np.abs(values[inside][:, None] - values[~inside][None, :])
            group.add(labels[~inside][np.argmin(gaps) % gaps.shape[1]])
        labels[np.isin(labels, list(group))] = min(group)
    return labels


class Frame(NamedTuple):
    """One clustering of R = U M inv(U).  labels names each eigenvalue's
    cluster and radii gives its disc radius; single marks the eigenvalues
    alone in their cluster, whose U column is their eigenvector; blocks maps
    each larger cluster to (members, M_a), its U columns sitting at its
    members' indices; final marks the frame of one cluster."""

    labels: np.ndarray
    radii: np.ndarray
    U: np.ndarray
    single: np.ndarray
    blocks: dict
    final: bool


def _schur_bases(values, vectors, labels, multi, schur):
    """(U, blocks): the eigenvectors with each cluster in multi given the
    leading columns and block of the Schur form reordered to the Schur
    diagonal entries nearest its members (LAPACK trsen).  Leading columns of
    a Schur form always span an invariant subspace.  The nearest entries
    match the members one to one whenever the discs hold the computed copies
    of each eigenvalue; where they do not, the copies of a defective
    eigenvalue are split between clusters, and their nearly parallel
    eigenvectors are dependent columns that _entangled merges."""
    T, Q = schur
    lapack = _scipy_linalg().lapack
    U, blocks = vectors.copy(), {}
    owner = labels[np.argmin(np.abs(np.diag(T)[:, None] - values[None, :]), axis=1)]
    for a in multi:
        members = np.flatnonzero(labels == a)
        ts, qs, *_ = lapack.ztrsen((owner == a).astype(np.int32), T, Q, job="N")  # complex reordering cannot fail
        m = members.size
        U[:, members] = qs[:, :m]
        blocks[a] = (members, ts[:m, :m])
    return U, blocks


def _conditioning_floor(s: np.ndarray, norm: float, tol: ToleranceConfig) -> float:
    """Smallest s[-1] with which columns of singular values s (descending)
    count as well conditioned for a matrix R of Frobenius norm `norm`:
    rank_cutoff(cond ||R||_F) must stay within the reality cut."""
    return rank_cutoff(s[0] * norm) / _reality_cut(tol, _scale(norm))


def _entangled(record: _Eigenpairs, frame: Frame, norm: float, tol: ToleranceConfig) -> list:
    """Groups of clusters whose columns of the frame's U are nearly
    dependent, or none when U is well conditioned (_conditioning_floor, the
    gate the closed form of ptlab.convert also puts on the
    eigenvectors).  It guards the discs: should they miss the computed
    copies of a defective eigenvalue, whose eigenvectors are nearly
    parallel, a metric attempt could not see the elements it lacks.  The
    columns that weigh in the right singular vectors below that floor are
    linked each to the one with the nearest eigenvalue, and each linked
    group is one group."""
    U, values = frame.U, record.values
    s = record.sigma if U is record.vectors else np.linalg.svd(U, compute_uv=False)
    floor = _conditioning_floor(s, norm, tol)
    if s[-1] >= floor:
        return []
    _, s, vh = np.linalg.svd(U)
    weight = np.linalg.norm(vh[s < floor], axis=0)
    cols = np.flatnonzero(weight >= 0.1 * weight.max())
    gaps = np.abs(values[cols][:, None] - values[cols][None, :]) + np.diag(np.full(cols.size, np.inf))
    link = np.eye(cols.size, dtype=bool)
    link[np.arange(cols.size), np.argmin(gaps, axis=1)] = True
    part = _components(link | link.T)
    return [set(frame.labels[cols[part == p]].tolist()) for p in np.unique(part)]


def _frame(record: _Eigenpairs, radii: np.ndarray, labels: np.ndarray) -> Frame:
    """The Frame of one clustering of the record's matrix R; the Schur form
    of R is taken once and kept read-only in the record's memo, for every
    clustering that needs it."""
    n = labels.size
    if (labels == np.arange(n)).all():  # every eigenvalue alone: the eigenvector frame
        return Frame(labels, radii, record.vectors, np.ones(n, dtype=bool), {}, n == 1)
    counts = np.bincount(labels, minlength=n)
    multi = np.flatnonzero(counts > 1)
    U, blocks = record.vectors, {}
    if multi.size and counts[0] == n:  # one cluster: the full equation, in the identity frame
        U, blocks = np.eye(n, dtype=complex), {0: (np.arange(n), record.matrix)}
    elif multi.size:
        if "schur" not in record.memo:  # the complex Schur form R = Q T adj(Q), once per record
            T, _, _, Q, _, info = _scipy_linalg().lapack.zgees(lambda z: None, record.matrix)
            if info:  # pragma: no cover - LAPACK failure
                raise NumericalError(f"Schur decomposition did not converge (info {info})")
            record.memo["schur"] = _read_only(T), _read_only(Q)
        U, blocks = _schur_bases(record.values, record.vectors, labels, multi, record.memo["schur"])
    return Frame(labels, radii, U, counts[labels] == 1, blocks, counts[0] == n)


def cluster_frame(record: _Eigenpairs, norm: float, tol: ToleranceConfig) -> Frame:
    """The Frame of H's clusters on the adjoint-side shared eigen record
    (numerics._eigenpairs) of a matrix H of Frobenius norm `norm`, built
    once and kept read-only in its memo for the metric solver, both witness
    solvers and the closed form of ptlab.convert: each eigenvalue of adj(H)
    takes the cluster and disc radius of its H eigenvalue (conjugate_map)."""
    key = ("frame", norm, tol)
    if key not in record.memo:
        clusters, nearest = conjugate_map(record, norm, tol)
        first = {}  # each H cluster is named by its smallest adjoint index
        labels = np.array([first.setdefault(head, k) for k, head in enumerate(clusters.labels[nearest].tolist())])
        frame = _frame(record, _read_only(clusters.radii[nearest]), _read_only(labels))
        for array in [a for block in frame.blocks.values() for a in block] + [frame.U, frame.single]:
            _read_only(array)
        record.memo[key] = frame
    return record.memo[key]


def solve_clustered(record: _Eigenpairs, norm: float, tol: ToleranceConfig, attempt):
    """Run attempt(frame) on the cluster frames of the matrix R of a shared
    eigen record (R = vectors diag(values) inv(vectors)) until it accepts a
    frame; norm is the Frobenius norm of R.

    attempt returns (result, verdict): None accepts the frame; an empty set
    accepts it unless its columns of U are nearly dependent (_entangled);
    a set of labels names the clusters whose solutions failed.  The
    clusters of nearly dependent columns, else the named ones, are merged
    and the attempt runs again.  The frame of one cluster is always
    accepted.  The first frame is cluster_frame, shared by every solver of
    the record; a merged frame is built for this solve alone.
    """
    frame = cluster_frame(record, norm, tol)
    while True:
        result, verdict = attempt(frame)
        if verdict is None or frame.final:
            return result
        groups = _entangled(record, frame, norm, tol) or ([verdict] if verdict else [])
        if not groups:
            return result
        frame = _frame(record, frame.radii, _merged(record.values, frame.labels, groups))


def pair_solutions(Ma: np.ndarray, Mb: np.ndarray, adjoint: bool, scale: float):
    """Complex basis, a (k, ma, mb) stack, of the Z with Ma Z = Z Mb*, where
    Mb* is adj(Mb) or transpose(Mb); the rank cut is relative to scale.
    In row-major coordinates vec(Ma Z) = kron(Ma, 1) vec(Z) and
    vec(Z Mb*) = kron(1, transpose(Mb*)) vec(Z)."""
    ma, mb = Ma.shape[0], Mb.shape[0]
    right = Mb.conj() if adjoint else Mb
    system = (Ma[:, None, :, None] * np.eye(mb)[None, :, None, :]
              - np.eye(ma)[:, None, :, None] * right[None, :, None, :]).reshape(ma * mb, ma * mb)
    return nullspace_complex(system, scale=scale).T.reshape(-1, ma, mb)


def hermitian_solutions(Ma: np.ndarray, scale: float) -> np.ndarray:
    """Real basis, a (k, m, m) stack, of the Hermitian Z with Ma Z = Z adj(Ma):
    the SVD nullspace of the 2m^2 x m^2 real system on the Hermitian basis,
    with the rank cut relative to scale."""
    m = Ma.shape[0]
    basis = hermitian_basis(m)
    system = vectorize(Ma @ basis - basis @ Ma.conj().T).T
    _, coeffs = rank_and_nullspace(system, scale=scale)
    Z = (coeffs.T @ basis.reshape(m * m, -1)).reshape(-1, m, m)
    return 0.5 * (Z + Z.conj().swapaxes(-1, -2))  # exact Hermitizing of roundoff
