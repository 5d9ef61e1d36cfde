"""The cluster-decoupled solver of X L = R X behind the metric and witness solvers."""

import subprocess
import sys

import numpy as np

from ptlab import intertwine
from ptlab.convert import transpose_matrix
from ptlab.metric import solve_metric_space


def test_import_loads_neither_sparse_nor_optimize():
    code = ("import sys, ptlab; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
    still work on two 3-clusters and count 3 + 3 metric elements."""
    eigen_clusters = intertwine.eigen_clusters
    monkeypatch.setattr(intertwine, "eigen_clusters",
                        lambda values, *args: (1e-6 * eigen_clusters(values, *args)[0], np.arange(values.size)))
    schur_bases = intertwine._schur_bases
    sizes = []

    def recorded(values, vectors, labels, multi, schur):
        sizes.append(np.bincount(labels)[multi].tolist())
        return schur_bases(values, vectors, labels, multi, schur)

    monkeypatch.setattr(intertwine, "_schur_bases", recorded)
    for seed in range(3):
        H = two_jordan_blocks(seed)
        sizes.clear()
        assert solve_metric_space(H).dimension == 6
        assert sizes[-1] == [3, 3]
        sizes.clear()
        witness = transpose_matrix(H)
        assert sizes[-1] == [3, 3]
        s = np.linalg.svd(witness.A, compute_uv=False)
        assert witness.residual < 1e-10 and s[-1] > 1e-8 * s[0]
