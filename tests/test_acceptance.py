"""Acceptance gate: one test per criterion, pinned at its stated tolerance.

Each test prints a single PASS line on success (run with -s to see them);
a failed assertion is the FAIL line by way of the pytest report.
"""

import json
import time

import numpy as np
import pytest

from ptlab import catalog2x2 as cat
from ptlab.cli import main as cli_main
from ptlab.convert import pt_to_pseudo, transpose_matrix
from ptlab.involutions import InvolutionKind, make_diagonal_parity, make_sip, sip_similarity
from ptlab.spectra import build_pt_jordan, classify_spectrum, degeneration_scan, jordan_block
from ptlab.symmetry import (
    DiagMetricSelfAdjointParams,
    SymmetryKind,
    check_symmetry,
    construct_self_adjoint_from_diag_metric,
    find_gen_pt_operator,
)

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_table_reproduction(capsys, tmp_path):
    """Parameter-count table via the CLI, dimensions 2..6, exact integers."""
    out_path = tmp_path / "table.json"
    start = time.monotonic()
    code = cli_main(["count", "--max-dim", "6", "--out", str(out_path)])
    elapsed = time.monotonic() - start
    assert code == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["columns"]["2"] == [3, 4, 6, 6]
    assert payload["columns"]["3"] == [6, 9, 13, 15]
    assert payload["all_match"] is True
    assert elapsed < 10.0
    with capsys.disabled():
        report(1, f"count --max-dim 6 exit 0, columns (3,4,6,6)/(6,9,13,15), {elapsed:.2f}s")


def test_criterion_2_eigenvalue_law_and_boundary(capsys):
    """Both 2x2 families follow e +- sqrt(gamma^2 - rho^2) at 1e-9 relative.

    The gamma and rho axes are offset so no grid point lands exactly on the
    exceptional set (eigenvalue error at a defective point is O(sqrt(eps)),
    outside any 1e-9 budget); the boundary is straddled instead and the
    unbroken verdict must equal gamma^2 >= rho^2 pointwise.
    """
    start = time.monotonic()
    e_axis = np.linspace(-1.0, 1.0, 10)
    g_axis = np.linspace(0.0, 2.0, 10)
    r_axis = np.linspace(0.05, 1.95, 10)
    d_axis = np.linspace(-np.pi, np.pi, 10)

    E, G, R, D = np.meshgrid(e_axis, g_axis, r_axis, d_axis, indexing="ij")
    E, G, R, D = (x.ravel() for x in (E, G, R, D))
    n_pts = E.size
    assert n_pts == 10_000

    pt_stack = np.empty((n_pts, 2, 2), dtype=complex)
    pt_stack[:, 0, 0] = E + G * np.cos(D)
    pt_stack[:, 0, 1] = -1j * (G * np.sin(D) - R)
    pt_stack[:, 1, 0] = 1j * (G * np.sin(D) + R)
    pt_stack[:, 1, 1] = E - G * np.cos(D)

    ps_stack = np.empty((n_pts, 2, 2), dtype=complex)
    ps_stack[:, 0, 0] = E + G
    ps_stack[:, 0, 1] = R * np.exp(1j * D)
    ps_stack[:, 1, 0] = -R * np.exp(-1j * D)
    ps_stack[:, 1, 1] = E - G

    root = np.sqrt((G * G - R * R).astype(complex))
    expected = np.stack([E + root, E - root], axis=1)
    scale = np.maximum(1.0, np.abs(expected).max(axis=1))
    for stack in (pt_stack, ps_stack):
        values = np.linalg.eigvals(stack)
        # nearest-match pairing of the two eigenvalues per point
        d00 = np.maximum(np.abs(values[:, 0] - expected[:, 0]), np.abs(values[:, 1] - expected[:, 1]))
        d01 = np.maximum(np.abs(values[:, 0] - expected[:, 1]), np.abs(values[:, 1] - expected[:, 0]))
        err = np.minimum(d00, d01)
        assert (err <= 1e-9 * scale).all()

    # unbroken verdict flips exactly at the straddled boundary, both families,
    # at every grid point
    pt_sym = (SymmetryKind.PT, make_diagonal_parity(1, 1))
    ps_sym = (SymmetryKind.PSEUDO, make_diagonal_parity(1, 1, InvolutionKind.HERMITIAN_INVOLUTION))
    for k in range(n_pts):
        want = G[k] ** 2 >= R[k] ** 2
        assert classify_spectrum(pt_stack[k], symmetry=pt_sym).unbroken == want
        assert classify_spectrum(ps_stack[k], symmetry=ps_sym).unbroken == want
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(2, f"10^4-point grid eigenvalue law at 1e-9, verdict boundary straddled, {elapsed:.2f}s")


def test_criterion_3_metric_identities(capsys):
    """1000 admissible draws: solve residual, metric eigenvalues, weighted norms."""
    rng = np.random.default_rng(2024)
    draws = 0
    while draws < 1000:
        gamma = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        rho = gamma * rng.uniform(-0.9, 0.9)
        gap = np.sqrt(gamma * gamma - rho * rho)
        v = gap * rng.uniform(-0.95, 0.95)
        u = np.sign(gamma) * rng.uniform(0.1, 2.0)
        p = cat.Pt2Params(e=rng.normal(), gamma=gamma, rho=rho, delta=rng.uniform(-np.pi, np.pi), u=u, v=v)
        assert p.metric_reason() is None
        spread = np.hypot(rho, v)
        for fam in (cat.pt2_family(p), cat.pseudo2_family(p)):
            H, W = fam.hamiltonian, fam.metric
            assert np.linalg.norm(W @ H - H.conj().T @ W) < 1e-10
            eigs = np.sort(np.linalg.eigvalsh(W))
            exp = np.sort([u * (gamma + spread), u * (gamma - spread)])
            assert np.abs(eigs - exp).max() <= 1e-9 * max(1.0, np.abs(exp).max())
            assert abs(fam.vec_plus.conj() @ W @ fam.vec_minus) < 1e-10
            for got, want in ((fam.vec_plus.conj() @ W @ fam.vec_plus, fam.norm_plus),
                              (fam.vec_minus.conj() @ W @ fam.vec_minus, fam.norm_minus)):
                assert abs(got.imag) < 1e-10
                assert abs(got.real - want) <= 1e-9 * max(1.0, abs(want))
        draws += 1
    with capsys.disabled():
        report(3, "1000 draws x 2 families: residuals < 1e-10, metric eigenvalues and norms at 1e-9")


def test_criterion_4_degeneration_scaling(capsys):
    """Small metric eigenvalue collapses linearly with the stated prefactor."""
    eps = np.logspace(-2, -6, 9)
    for family in ("pt2", "pseudo2"):
        for u, gamma in ((1.0, 1.0), (1.3, 0.8)):
            scan = degeneration_scan(u, gamma, eps, family=family)
            slope = scan.fitted_exponents["omega_small"]
            prefactor = scan.fitted_prefactors["omega_small"]
            assert abs(slope - 1.0) <= 0.05
            assert abs(prefactor - 0.5 * u * gamma) <= 0.05 * abs(0.5 * u * gamma)
            assert abs(scan.omega_large[-1] - 2.0 * u * gamma) <= 0.01 * abs(2.0 * u * gamma)
            for name in ("norm_plus", "norm_minus"):
                assert abs(scan.fitted_exponents[name] - 1.0) <= 0.05
    with capsys.disabled():
        report(4, "omega_small slope 1 +- 0.05 with prefactor u*gamma/2 (5%), omega_large -> 2*u*gamma (1%)")


def test_criterion_5_sip_similarity(capsys):
    """Closed-form q conjugates the diagonal signature onto the flip matrix."""
    for n in range(1, 10):
        q, q_inv = sip_similarity(n)
        parity = make_diagonal_parity((n + 1) // 2, n // 2).matrix
        assert np.abs(q @ parity @ q_inv - make_sip(n).matrix).max() <= 1e-12
    for lam in (-2.0, 0.0, 3.5):
        for n in range(1, 9):
            S = make_sip(n).matrix
            J = jordan_block(lam, n)
            assert np.abs(S @ J @ S - J.conj().T).max() <= 1e-12
    with capsys.disabled():
        report(5, "q P0 q^-1 = S_n to 1e-12 (n <= 9); S_n J_n S_n = adj(J_n) to 1e-12 (n <= 8)")


def test_criterion_6_transpose_witness(capsys):
    """Witness property across 500 random matrices and all Jordan builds."""
    rng = np.random.default_rng(777)
    for k in range(500):
        n = 1 + k % 6
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        witness = transpose_matrix(B)
        assert witness.residual < 1e-9
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            H, T = build_pt_jordan(m, n, rng.uniform(-2, 2))
            witness = transpose_matrix(H, jordan_witness=(T, [m + n]))
            assert witness.residual < 1e-9
    with capsys.disabled():
        report(6, "witness residual < 1e-9 on 500 random draws (N <= 6) and Jordan builds (m, n) <= (3, 3)")


def test_criterion_7_conversion_equivalence(capsys):
    """Every sampled 2x2 PT point admits a Hermitian involutory metric operator."""
    rng = np.random.default_rng(4242)

    def admissible(p):
        if abs(p.gamma) < 0.15 or abs(p.gamma ** 2 - p.rho ** 2) < 1e-3:
            return False
        return True

    converted = 0
    while converted < 600:
        p = cat.Pt2Params(e=rng.normal(), gamma=2 * rng.normal(), rho=rng.normal(),
                          delta=rng.uniform(-np.pi, np.pi))
        if not admissible(p):
            continue
        result = pt_to_pseudo(SIGMA3, cat.pt2_hamiltonian(p))
        assert result.hermitian and result.involutory and result.target_kind_satisfied
        converted += 1
    for chart, case in ((cat.Chart.ROTATION, cat.CrossCase.PSEUDO_FOR_PT_ROTATION_CHART),
                        (cat.Chart.BOOST, cat.CrossCase.PSEUDO_FOR_PT_BOOST_CHART)):
        done = 0
        while done < 200:
            p = cat.Pt2Params(e=rng.normal(), gamma=2 * rng.normal(), rho=rng.normal(),
                              delta=rng.uniform(-np.pi, np.pi),
                              theta=rng.uniform(-np.pi, np.pi), phi=rng.uniform(-1.2, 1.2))
            if not admissible(p) or cat.cross_normalizer(case, p) < 1e-4:
                continue
            moved = cat.pt2_transformed(chart, p)
            result = pt_to_pseudo(moved.parity, moved.hamiltonian)
            assert result.hermitian and result.involutory and result.target_kind_satisfied
            done += 1
        converted += done
    assert converted >= 1000

    # explicit closed-form operators: Hermitian, involutory, intertwining < 1e-10
    checked = 0
    while checked < 1000:
        p = cat.Pt2Params(e=rng.normal(), gamma=2 * rng.normal(), rho=rng.normal(),
                          delta=rng.uniform(-np.pi, np.pi),
                          theta=rng.uniform(-np.pi, np.pi), phi=rng.uniform(-1.2, 1.2))
        triples = (
            (cat.CrossCase.PT_FOR_PSEUDO_ROTATED, cat.pseudo2_family(p).rotated_hamiltonian, "pt"),
            (cat.CrossCase.PSEUDO_FOR_PT_ROTATION_CHART, cat.pt2_transformed(cat.Chart.ROTATION, p).hamiltonian, "pseudo"),
            (cat.CrossCase.PSEUDO_FOR_PT_BOOST_CHART, cat.pt2_transformed(cat.Chart.BOOST, p).hamiltonian, "pseudo"),
        )
        usable = True
        for case, _, _ in triples:
            if cat.cross_normalizer(case, p) < 1e-4:
                usable = False
        if not usable:
            continue
        for case, H, target in triples:
            Q = cat.cross_operators(case, p)
            assert np.abs(Q @ Q - np.eye(2)).max() < 1e-10
            if target == "pseudo":
                assert np.abs(Q - Q.conj().T).max() < 1e-10
                assert np.linalg.norm(Q @ H - H.conj().T @ Q) < 1e-10 * max(1.0, np.linalg.norm(H))
            else:
                assert np.abs(Q - Q.conj()).max() < 1e-10
                assert np.linalg.norm(Q @ H - H.conj() @ Q) < 1e-10 * max(1.0, np.linalg.norm(H))
        checked += 1

    # the zero-stretch reduction of the rotation-chart operator is the in-text one
    reduced = 0
    while reduced < 200:
        p = cat.Pt2Params(e=rng.normal(), gamma=2 * rng.normal(), rho=rng.normal(),
                          delta=rng.uniform(-np.pi, np.pi), theta=rng.uniform(-np.pi, np.pi), phi=0.0)
        if cat.cross_normalizer(cat.CrossCase.PSEUDO_FOR_PT_ROTATION_CHART, p) < 1e-4:
            continue
        Q = cat.cross_operators(cat.CrossCase.PSEUDO_FOR_PT_ROTATION_CHART, p)
        d, th = p.delta, p.theta
        in_text = np.array([
            [np.cos(d) * np.cos(th), np.cos(d) * np.sin(th) - 1j * np.sin(d)],
            [np.cos(d) * np.sin(th) + 1j * np.sin(d), -np.cos(d) * np.cos(th)],
        ])
        gap = min(np.abs(Q - in_text).max(), np.abs(Q + in_text).max())
        assert gap < 1e-10
        reduced += 1
    with capsys.disabled():
        report(7, "1000 PT points convert to Hermitian involutions; closed forms verified at 1e-10")


def test_criterion_8_generalized_symmetry_membership(capsys):
    """Self-adjoint draws always admit an antilinear core; unpaired spectra never do."""
    rng = np.random.default_rng(31337)
    for k in range(200):
        N = 2 + k % 3
        p = DiagMetricSelfAdjointParams(omegas=rng.uniform(0.5, 2.0, N),
                                        a=rng.normal(size=(N, N)), b=rng.normal(size=(N, N)))
        H = construct_self_adjoint_from_diag_metric(p)
        op = find_gen_pt_operator(H)
        assert op is not None
        assert check_symmetry(SymmetryKind.GEN_PT, op, H).residual < 1e-10
    for k in range(100):
        N = 2 + k % 3
        values = rng.normal(size=N).astype(complex)
        values[0] += 1j * rng.uniform(0.5, 1.5)  # one unpaired complex eigenvalue
        V = np.eye(N) + 0.4 * (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
        H = V @ np.diag(values) @ np.linalg.inv(V)
        assert find_gen_pt_operator(H) is None
    with capsys.disabled():
        report(8, "200 self-adjoint draws admit a core (residual < 1e-10); 100 unpaired spectra return none")


def test_criterion_9_jordan_chains(capsys):
    """Catalog chain vectors: relations, symmetry eigenvector property, formulas."""
    rng = np.random.default_rng(909)
    for _ in range(200):
        gamma = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        delta = rng.uniform(-1.2, 1.2)
        e = rng.normal()
        p = cat.Pt2Params(e=e, gamma=gamma, rho=gamma, delta=delta)

        # frozen closed forms, written out independently of the catalog code
        sd, cd = np.sin(delta), np.cos(delta)
        phi0 = np.array([1.0 - sd, 1j * cd])
        phi1 = np.array([(1.0 - sd) / (gamma * cd), 0.0], dtype=complex)
        v0, v1 = cat.pt2_jordan_chain(p)
        assert np.abs(v0 - phi0).max() < 1e-10
        assert np.abs(v1 - phi1).max() < 1e-10

        H = cat.pt2_hamiltonian(p)
        M = H - e * np.eye(2)
        for alpha in (0.0, 1.0, -2.5):
            w0, w1 = cat.pt2_jordan_chain(p, alpha=alpha)
            assert np.linalg.norm(M @ w0) < 1e-10
            assert np.linalg.norm(M @ w1 - w0) < 1e-10
            lam0 = (SIGMA3 @ w0.conj())[0] / w0[0]
            assert abs(abs(lam0) - 1.0) < 1e-10
            assert np.abs(SIGMA3 @ w0.conj() - lam0 * w0).max() < 1e-10
            assert np.abs(SIGMA3 @ w1.conj() - lam0 * w1).max() < 1e-10

        # pseudo-family chain formulas, same eigenvalue structure
        q0 = np.array([1.0, -np.exp(-1j * delta)])
        q1 = np.array([0.0, np.exp(-1j * delta) / gamma])
        w0, w1 = cat.pseudo2_jordan_chain(p)
        assert np.abs(w0 - q0).max() < 1e-10
        assert np.abs(w1 - q1).max() < 1e-10
        Mp = cat.pseudo2_hamiltonian(p) - e * np.eye(2)
        assert np.linalg.norm(Mp @ w0) < 1e-10
        assert np.linalg.norm(Mp @ w1 - w0) < 1e-10
    with capsys.disabled():
        report(9, "chain relations and antilinear eigenvector property at 1e-10 over 200 draws")
