"""The cluster-decoupled solver of X L = R X behind the metric and witness solvers."""

import gc
import json
import subprocess
import sys
import weakref

import numpy as np

from ptlab import convert, intertwine, numerics
from ptlab.convert import transpose_matrix, witness_space
from ptlab.errors import IndeterminateStructureError
from ptlab.metric import solve_metric_space
from ptlab.numerics import DEFAULT_TOL, frobenius
from ptlab.spectra import classify_spectrum
from ptlab.symmetry import find_gen_pt_operator


def test_import_loads_neither_sparse_nor_optimize():
    code = ("import sys, ptlab; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


GUARD = """
import contextlib, io, json, sys
import numpy as np
from ptlab.cli import main, matrix_to_document

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import ptlab.cli": scipy_modules()}
path = sys.argv[1]
with open(path, "w", encoding="utf-8") as fh:
    json.dump(matrix_to_document(np.array([[0.0, 1j], [0.0, 0.0]])), fh)
for argv in (["sweep", "--family", "pt2", "--grid", '{"gamma": {"start": 0, "stop": 2, "num": 5}, "rho": 1}'],
             ["sweep", "--family", "pseudo2", "--grid", '{"gamma": 1, "rho": {"start": 0, "stop": 2, "num": 4}}'],
             ["sweep", "--family", "degeneration", "--grid", '{"gamma": 2}'],
             ["count", "--max-dim", "8"], ["count", "--max-dim", "8", "--format", "csv"],
             ["construct", "--family", "pt2", "--params", '{"gamma": 1.5, "rho": 0.4, "delta": 0.3, "u": 1}'],
             ["construct", "--family", "pt-jordan", "--params", '{"m": 2, "n": 1, "lambda": 3}'],
             ["jordan", "--matrix", path, "--eigenvalue", "0"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded[" ".join(argv)] = scipy_modules()
from ptlab.metric import solve_metric_space
solve_metric_space(np.array([[1.0, 0.5], [0.0, 2.0]]))
print(json.dumps({"numpy alone": loaded, "metric loads scipy.linalg": "scipy.linalg" in sys.modules}))
"""


def test_numpy_alone_runs_sweep_count_construct_and_jordan(tmp_path):
    """Importing ptlab.cli and running sweep, count, construct and jordan
    load no scipy module; scipy.linalg comes with the first routine that
    needs it, here the QR of a metric solve on a simple 2x2 spectrum (one
    cluster per eigenvalue: a single Jordan block would solve without it)."""
    out = subprocess.run([sys.executable, "-c", GUARD, str(tmp_path / "jordan.json")],
                         capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    assert report["numpy alone"] == {step: [] for step in report["numpy alone"]}
    assert len(report["numpy alone"]) == 9 and report["metric loads scipy.linalg"]


def test_components_close_chains():
    adjacent = np.eye(6, dtype=bool)
    adjacent[[0, 1, 3], [2, 4, 5]] = True
    adjacent |= adjacent.T
    assert intertwine._components(adjacent).tolist() == [0, 1, 0, 3, 1, 3]


def two_jordan_blocks(seed):
    """3-blocks at -2.95 and 0.84 in a complex frame of condition number <= 10."""
    rng = np.random.default_rng(seed)
    D = np.zeros((6, 6), dtype=complex)
    for pos, lam in ((0, -2.95), (3, 0.84)):
        D[pos:pos + 3, pos:pos + 3] = lam * np.eye(3) + np.eye(3, k=1)
    left, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    right, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    V = left @ np.diag(rng.uniform(1.0, 10.0, 6)) @ right
    return V @ D @ np.linalg.inv(V)


def test_defective_copies_outside_their_discs_are_merged(monkeypatch):
    """Should the discs miss the computed copies of a defective eigenvalue
    (here: radii shrunk a millionfold, so every eigenvalue is alone), the
    frame's nearly dependent eigenvector columns merge them, and the solvers
    still work on two 3-clusters and count 3 + 3 metric elements.  Each
    solver builds the merged frame for its own solve, and the record keeps
    only its first frame, where every eigenvalue is alone."""
    eigen_clusters = intertwine.eigen_clusters
    monkeypatch.setattr(intertwine, "eigen_clusters",
                        lambda values, *args: (1e-6 * eigen_clusters(values, *args)[0], np.arange(values.size)))
    schur_bases = intertwine._schur_bases
    built, solved = [], []

    def recorded(values, vectors, labels, multi, schur):
        built.append(np.bincount(labels)[multi].tolist())
        return schur_bases(values, vectors, labels, multi, schur)

    frame_space = convert._frame_space
    monkeypatch.setattr(intertwine, "_schur_bases", recorded)
    monkeypatch.setattr(convert, "_frame_space", lambda frame, *args: solved.append(frame) or frame_space(frame, *args))
    for seed in range(3):
        H = two_jordan_blocks(seed)
        built.clear()
        solved.clear()
        assert solve_metric_space(H).dimension == 6
        assert built == [[3, 3]]
        witness = transpose_matrix(H)
        assert built == [[3, 3], [3, 3]]
        frame = solved[-1]
        assert np.bincount(frame.labels)[list(frame.blocks)].tolist() == [3, 3]
        first = intertwine.cluster_frame(numerics._eigenpairs(H, adjoint=True), frobenius(H), DEFAULT_TOL)
        assert first.single.all() and not first.blocks
        s = np.linalg.svd(witness.A, compute_uv=False)
        assert witness.residual < 1e-10 and s[-1] > 1e-8 * s[0]


def test_one_clustering_per_side_and_one_schur_form(monkeypatch):
    """One matrix through classify_spectrum, solve_metric_space,
    transpose_matrix, witness_space, find_gen_pt_operator and the
    closed-form unit witnesses, in either order: each side's spectrum is
    clustered once (H's sorted by (Re, Im), adj(H)'s in LAPACK order),
    conjugate pairs are found once, and adj(H) takes one Schur form, as
    every solver reads what the shared eigen records keep.  The Jordan
    input takes every path: the cluster path of classify_spectrum and the
    Schur frames of both witness solvers."""
    calls = {name: [] for name in ("eigen_clusters", "conjugate_pairs", "zgees")}
    lapack = numerics._scipy_linalg().lapack  # the Schur routine, read from the module on each use
    for name, log in calls.items():
        owner = lapack if name == "zgees" else intertwine
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _run=original, _log=log: _log.append(args) or _run(*args))
    analyses = [classify_spectrum, solve_metric_space, transpose_matrix, witness_space, find_gen_pt_operator,
                lambda H: convert._closed_form_unit_witnesses(H, DEFAULT_TOL)]
    for H in (two_jordan_blocks(1) + np.diag(np.arange(6.0)), two_jordan_blocks(0)):
        for order in (analyses, analyses[::-1]):
            numerics._eig_record.cache_clear()
            for log in calls.values():
                log.clear()
            for analysis in order:
                try:
                    analysis(H)
                except IndeterminateStructureError:
                    pass
            sides = {"H": np.sort(numerics._eigenpairs(H).values, kind="stable"),
                     "adjoint": numerics._eigenpairs(H, adjoint=True).values}
            clustered = [name for args in calls["eigen_clusters"] for name, values in sides.items()
                         if np.array_equal(args[0], values)]
            assert len(clustered) == len(calls["eigen_clusters"]) == len(set(clustered)) <= 2
            assert len(calls["conjugate_pairs"]) <= 1 and len(calls["zgees"]) <= 1
    assert sorted(clustered) == ["H", "adjoint"] and len(calls["zgees"]) == 1  # the Jordan input


def test_transpose_witness_merges_the_clusters_of_a_missed_draw(monkeypatch):
    """J_2(0.5) + diag(2, -1) in a complex frame, with the Jordan cluster's
    first small-system solve pushed off its equation (E_11 added to one
    solution): the first draw misses the similarity cut, the cluster of the
    largest intertwining gaps is named and merged with its nearest
    neighbour, and the witness comes from the merged 3-cluster frame.  The
    shared record keeps its first frame as it was."""
    rng = np.random.default_rng(31)
    T = np.eye(4) + 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    B = T @ (np.diag([0.5, 0.5, 2.0, -1.0]) + np.diag([1.0, 0.0, 0.0], k=1)) @ np.linalg.inv(T)
    record = numerics._eigenpairs(B, adjoint=True)
    first = intertwine.cluster_frame(record, frobenius(B), DEFAULT_TOL)
    U, labels = first.U.copy(), first.labels.copy()
    sizes, solved = [], []
    solve, frame_space = convert.pair_solutions, convert._frame_space

    def spoiled(Ma, Mb, adjoint, tol, scale):
        Y = solve(Ma, Mb, adjoint, tol, scale)
        sizes.append(len(Ma))
        if len(sizes) == 1:
            Y[0, -1, -1] += 1.0
        return Y

    monkeypatch.setattr(convert, "pair_solutions", spoiled)
    monkeypatch.setattr(convert, "_frame_space", lambda frame, *args: solved.append(frame) or frame_space(frame, *args))
    witness = transpose_matrix(B)
    assert sizes == [2, 3]
    assert [np.bincount(frame.labels)[list(frame.blocks)].tolist() for frame in solved] == [[2], [3]]
    assert solved[0] is first and not solved[1].final
    s = np.linalg.svd(witness.A, compute_uv=False)
    assert witness.residual < 1e-10 and s[-1] > 1e-3 * s[0]
    assert intertwine.cluster_frame(record, frobenius(B), DEFAULT_TOL) is first
    assert np.array_equal(first.labels, labels) and np.array_equal(first.U, U)


def test_transpose_witness_merges_after_a_missed_residual(monkeypatch):
    """The same input, with the first similarity residual of a draw on the
    first frame reported as a miss while the solutions stay exact: the
    clusters whose elements leave at least half the largest intertwining
    gap are named and merged, and the merged, non-final frame gives a
    witness within the cut with sigma_min / sigma_max > 1e-3.  The record
    keeps its first frame as it was."""
    rng = np.random.default_rng(31)
    T = np.eye(4) + 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    B = T @ (np.diag([0.5, 0.5, 2.0, -1.0]) + np.diag([1.0, 0.0, 0.0], k=1)) @ np.linalg.inv(T)
    record = numerics._eigenpairs(B, adjoint=True)
    first = intertwine.cluster_frame(record, frobenius(B), DEFAULT_TOL)
    U, labels = first.U.copy(), first.labels.copy()
    solved, residuals = [], []
    residual, frame_space = convert._similarity_residual, convert._frame_space

    def spoiled(A, M, scale):
        value = residual(A, M, scale)
        if len(solved) == 1:  # a draw on the first frame
            residuals.append(value)
            return 1.0 if len(residuals) == 1 else value
        return value

    monkeypatch.setattr(convert, "_similarity_residual", spoiled)
    monkeypatch.setattr(convert, "_frame_space", lambda frame, *args: solved.append(frame) or frame_space(frame, *args))
    witness = transpose_matrix(B)
    assert len(residuals) == 1 and residuals[0] <= 1e-10  # the draw met the cut; the miss was forced
    assert len(solved) == 2 and solved[0] is first and not solved[1].final
    assert len(np.unique(solved[1].labels)) < len(np.unique(first.labels))
    s = np.linalg.svd(witness.A, compute_uv=False)
    assert witness.residual <= 1e-10 and s[-1] > 1e-3 * s[0]
    assert intertwine.cluster_frame(record, frobenius(B), DEFAULT_TOL) is first
    assert np.array_equal(first.labels, labels) and np.array_equal(first.U, U)


def test_evicted_records_are_freed_by_reference_counting():
    """What the shared eigen records keep (clusters, frame, Schur form)
    refers to their arrays, never to a record: with the garbage collector
    off, a matrix's two records die as soon as the record cache lets them
    go, after classify, the metric solver, the transpose witness and a
    forced merge have all run on them."""
    H = two_jordan_blocks(0)
    classify_spectrum(H)
    solve_metric_space(H)
    transpose_matrix(H)
    merged = []

    def attempt(frame):  # name the first cluster until it is merged with its neighbour
        merged.append(frame.labels.copy())
        return None, None if len(merged) > 1 else {0}

    intertwine.solve_clustered(numerics._eigenpairs(H, adjoint=True), frobenius(H), DEFAULT_TOL, attempt)
    assert len(merged) == 2 and np.count_nonzero(merged[1] == 0) > np.count_nonzero(merged[0] == 0)
    gc.disable()
    try:
        records = [weakref.ref(numerics._eigenpairs(H, adjoint)) for adjoint in (False, True)]
        assert all(record() is not None and record().memo for record in records)
        numerics._eig_record.cache_clear()
        assert all(record() is None for record in records)
    finally:
        gc.enable()
