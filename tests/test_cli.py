"""CLI: round trips, exit codes, determinism, document format."""

import csv
import hashlib
import io
import json
import pathlib

import numpy as np
import pytest

from ptlab import spectra
from ptlab.cli import build_parser, document_to_matrix, main, matrix_to_document
from ptlab.involutions import sip_similarity

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(tmp_path, name, M):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_document(np.asarray(M, dtype=complex))), encoding="utf-8")
    return str(path)


class TestMatrixDocuments:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        doc = matrix_to_document(M)
        assert doc["rows"] == 3 and doc["cols"] == 2
        np.testing.assert_array_equal(document_to_matrix(doc), M)

    def test_shape_mismatch_rejected(self):
        from ptlab.cli import CliError
        with pytest.raises(CliError):
            document_to_matrix({"rows": 2, "cols": 2, "data": [[[1, 0]]]})


class TestClassify:
    def test_unbroken_with_metric(self, tmp_path, capsys):
        H = write_matrix(tmp_path, "h.json", np.diag([1.0, -1.0]))
        P = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
        code, out, _ = run(capsys, "classify", "--matrix", H, "--operator", P, "--kind", "pt")
        assert code == 0
        payload = json.loads(out)
        assert payload["spectrum"]["unbroken"] is True
        assert payload["metric"]["positive_status"] == "found"

    def test_broken_catalog_point(self, tmp_path, capsys):
        # gamma=1, rho=2: conjugate pair +- i sqrt(3)
        H = write_matrix(tmp_path, "h.json", np.array([[1.0, 2j], [2j, -1.0]]))
        P = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
        code, out, _ = run(capsys, "classify", "--matrix", H, "--operator", P, "--kind", "pt")
        payload = json.loads(out)
        assert code == 0
        assert payload["symmetry"]["holds"] is True
        assert payload["spectrum"]["unbroken"] is False
        assert payload["spectrum"]["reality_class"] == "conjugate_pairs"
        imag = sorted(pair[1] for pair in payload["spectrum"]["eigenvalues"])
        np.testing.assert_allclose(imag, [-np.sqrt(3), np.sqrt(3)], atol=1e-9)

    def test_defective_block(self, tmp_path, capsys):
        H = write_matrix(tmp_path, "h.json", np.array([[0.0, 1.0], [0.0, 0.0]]))
        code, out, _ = run(capsys, "classify", "--matrix", H)
        payload = json.loads(out)
        assert code == 0
        assert payload["spectrum"]["reality_class"] == "all_real_defective"
        assert payload["metric"]["positive_status"] in ("absent", "indeterminate")

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "classify", "--matrix", str(bad))
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize("rows, cols", [("1", 1), (1, 1.5), (1, True)], ids=["string", "fraction", "boolean"])
    def test_non_integer_size_exits_2(self, tmp_path, capsys, rows, cols):
        doc = tmp_path / "h.json"
        doc.write_text(json.dumps({"rows": rows, "cols": cols, "data": [[[1, 0]]]}), encoding="utf-8")
        code, out, err = run(capsys, "classify", "--matrix", str(doc))
        assert (code, out) == (2, "") and "must be an integer" in err

    @pytest.mark.parametrize("doc, message", [
        ({"rows": 0, "cols": -1, "data": []}, "must be nonnegative"),
        ({"rows": 1, "cols": 1, "data": [[[None, 0]]]}, "entry (0,0) re must be a number"),
        ({"rows": 1, "cols": 1, "data": [[[0, {}]]]}, "entry (0,0) im must be a number"),
        ({"rows": 1, "cols": 1, "data": [[[True, 0]]]}, "entry (0,0) re must be a number"),
        ({"rows": 1, "cols": 1, "data": [[["1", 0]]]}, "entry (0,0) re must be a number"),
    ], ids=["negative-size", "null-entry", "object-entry", "boolean-entry", "string-entry"])
    def test_malformed_document_exits_2_in_every_command(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        good = write_matrix(tmp_path, "good.json", np.eye(1))
        for argv in (["classify", "--matrix", str(bad)],
                     ["convert", "--direction", "pt-to-pseudo", "--operator", good, "--matrix", str(bad)],
                     ["jordan", "--matrix", str(bad), "--eigenvalue", "1"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and message in err, argv

    @pytest.mark.parametrize("flags, flag", [
        (["--eigenvalue", "nan"], "--eigenvalue"),
        (["--eigenvalue", "1,nan"], "--eigenvalue"),
        (["--eigenvalue", "1", "--alpha", "nan"], "--alpha"),
        (["--eigenvalue", "1", "--alpha", "inf"], "--alpha"),
        (["--eigenvalue", "1", "--tol-rel", "nan"], "--tol-rel"),
        (["--eigenvalue", "1", "--tol-rel=-1e-10"], "--tol-rel"),
        (["--eigenvalue", "1", "--tol-rel", "inf"], "--tol-rel"),
    ], ids=["nan-eigenvalue", "nan-imaginary-part", "nan-alpha", "inf-alpha", "nan-tol-rel", "negative-tol-rel",
            "inf-tol-rel"])
    def test_non_finite_flag_exits_2_naming_the_flag(self, tmp_path, capsys, flags, flag):
        """Checked on the J2 document [[1, 1], [0, 1]], where every flag but
        the bad one gives a chain."""
        H = write_matrix(tmp_path, "h.json", [[1.0, 1.0], [0.0, 1.0]])
        code, out, err = run(capsys, "jordan", "--matrix", H, *flags)
        assert (code, out) == (2, "") and err.startswith(f"error: {flag}")

    def test_absolute_tolerance_flag_is_gone(self, tmp_path, capsys):
        """Every cut is relative to the norm of the matrix it judges, so
        there is no absolute tolerance to set: argparse refuses the flag."""
        H = write_matrix(tmp_path, "h.json", np.eye(2))
        with pytest.raises(SystemExit) as exit_info:
            main(["classify", "--matrix", H, "--tol-abs", "1e-10"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tol-abs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["classify", "--matrix", "h.json", "--format", "csv"], "--format"),
        (["count", "--max-dim", "4", "--tol-rel", "1e-6"], "--tol-rel"),
    ], ids=["classify-format", "count-tol-rel"])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv, flag):
        """Only count reads --format, and count reads no tolerance: argparse
        refuses either flag where it would change nothing."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_flags_of_each_command(self):
        """Every command takes --seed and --out, every one but count takes
        --tol-rel, and only count takes --format: 18 flag slots."""
        commands = build_parser()._subparsers._group_actions[0].choices
        shared = {"--tol-rel", "--seed", "--format", "--out"}
        flags = {name: shared & set(p._option_string_actions) for name, p in commands.items()}
        tolerant = {"--tol-rel", "--seed", "--out"}
        assert flags == {"classify": tolerant, "construct": tolerant, "sweep": tolerant,
                         "count": {"--seed", "--format", "--out"}, "convert": tolerant, "jordan": tolerant}
        assert sum(map(len, flags.values())) == 18

    def test_integral_float_size_is_read_as_an_integer(self, tmp_path, capsys):
        doc = tmp_path / "h.json"
        doc.write_text(json.dumps({"rows": 1.0, "cols": 1, "data": [[[1, 0]]]}), encoding="utf-8")
        code, out, _ = run(capsys, "classify", "--matrix", str(doc))
        assert code == 0 and json.loads(out)["spectrum"]["eigenvalues"] == [[1.0, 0.0]]

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        H = write_matrix(tmp_path, "h.json", np.eye(3))
        P = write_matrix(tmp_path, "p.json", np.eye(2))
        code, _, _ = run(capsys, "classify", "--matrix", H, "--operator", P, "--kind", "pt")
        assert code == 3

    def test_kind_mismatch_exits_3(self, tmp_path, capsys):
        H = write_matrix(tmp_path, "h.json", np.eye(2))
        P = write_matrix(tmp_path, "p.json", 1j * np.diag([1.0, -1.0]))
        code, _, _ = run(capsys, "classify", "--matrix", H, "--operator", P, "--kind", "pt")
        assert code == 3


class TestConstructRoundTrips:
    @pytest.mark.parametrize("family,params,kind,op_builder", [
        ("pt2", '{"e":0.2,"gamma":1.5,"rho":0.4,"delta":0.3}', "pt", lambda: np.diag([1.0, -1.0])),
        ("pseudo2", '{"e":0.2,"gamma":1.5,"rho":0.4,"delta":0.3}', "pseudo", lambda: np.diag([1.0, -1.0])),
    ])
    def test_catalog_families(self, tmp_path, capsys, family, params, kind, op_builder):
        code, out, _ = run(capsys, "construct", "--family", family, "--params", params)
        assert code == 0
        payload = json.loads(out)
        assert payload["self_check"][f"{kind}_residual"] < 1e-12
        H = write_matrix(tmp_path, "h.json", document_to_matrix(payload["matrices"]["hamiltonian"]))
        P = write_matrix(tmp_path, "p.json", op_builder())
        code, out, _ = run(capsys, "classify", "--matrix", H, "--operator", P, "--kind", kind)
        assert code == 0
        assert json.loads(out)["symmetry"]["holds"] is True

    def test_pt_jordan_round_trip(self, tmp_path, capsys):
        code, out, _ = run(capsys, "construct", "--family", "pt-jordan", "--params", '{"m":2,"n":1,"lambda":3}')
        assert code == 0
        payload = json.loads(out)
        H = document_to_matrix(payload["matrices"]["hamiltonian"])
        Hp = write_matrix(tmp_path, "h.json", H)
        code, out, _ = run(capsys, "classify", "--matrix", Hp)
        spectrum = json.loads(out)["spectrum"]
        assert spectrum["reality_class"] == "all_real_defective"
        assert spectrum["segre"][0]["blocks"] == [3]

    def test_genpt_diag_and_diag_metric(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "genpt-diag",
                           "--params", '{"phases":[0.4,-0.2],"r":[[1.0,0.5],[2.0,-1.0]]}')
        assert code == 0
        assert json.loads(out)["self_check"]["genpt_residual"] < 1e-12
        code, out, _ = run(capsys, "construct", "--family", "diag-metric",
                           "--params", '{"omegas":[1.0,3.0],"a":[[0.1,1.0],[0.0,-0.4]],"b":[[0.0,0.2],[0.0,0.0]]}')
        assert code == 0
        payload = json.loads(out)
        H = document_to_matrix(payload["matrices"]["hamiltonian"])
        assert abs(H[0, 1] / H[1, 0]) == pytest.approx(3.0)

    def test_metric_constraint_violation_exits_4(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "pt2",
                           "--params", '{"e":0,"gamma":1.0,"rho":2.0,"delta":0,"u":1.0,"v":0.0}')
        assert code == 4
        assert "v^2 < gamma^2 - rho^2" in err

    def test_unknown_parameter_exits_2(self, capsys):
        code, _, _ = run(capsys, "construct", "--family", "pt2", "--params", '{"bogus":1}')
        assert code == 2

    @pytest.mark.parametrize("family, params", [
        ("genpt2", '{"theta":"q"}'),
        ("genpt-diag", '{"phases":["a"],"r":[[1.0]]}'),
        ("grassmann", '{"m":1,"n":1,"x":0.1,"b":[[["a",1.0]]]}'),
    ])
    def test_non_numeric_parameters_exit_2(self, capsys, family, params):
        code, _, err = run(capsys, "construct", "--family", family, "--params", params)
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("n", range(1, 5))
    def test_sip_similarity_family(self, capsys, n):
        """q and q_inverse are sip_similarity(n) bit for bit, and q carries the
        diagonal parity to the SIP within rounding."""
        code, out, _ = run(capsys, "construct", "--family", "sip-similarity", "--params", f'{{"n":{n}}}')
        assert code == 0
        payload = json.loads(out)
        for name, expected in zip(("q", "q_inverse"), sip_similarity(n)):
            got = document_to_matrix(payload["matrices"][name])
            assert got.tobytes() == np.asarray(expected, dtype=complex).tobytes(), name
        assert payload["self_check"]["similarity_residual"] <= 1e-15

    def test_sip_similarity_of_size_0_exits_3(self, capsys):
        code, out, err = run(capsys, "construct", "--family", "sip-similarity", "--params", '{"n":0}')
        assert (code, out) == (3, "") and "n_total >= 1" in err

    def test_genpt2_identity(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "genpt2",
                           "--params", '{"theta":0,"delta":0,"phi":0,"alpha":0}')
        assert code == 0
        core = document_to_matrix(json.loads(out)["matrices"]["core"])
        np.testing.assert_array_equal(core, np.eye(2))

    def test_grassmann_family(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "grassmann",
                           "--params", '{"m":1,"n":1,"x":0.7853981633974483,"b":[[[1.0,0.0]]]}')
        assert code == 0
        U = document_to_matrix(json.loads(out)["matrices"]["unitary"])
        np.testing.assert_allclose(U, np.array([[1, 1], [-1, 1]]) / np.sqrt(2), atol=1e-12)

    def test_block_families_round_trip(self, tmp_path, capsys):
        cases = [
            ("pt-block",
             '{"m":1,"n":2,"A":[[0.4]],"B":[[1.0,-0.3]],"C":[[0.7],[0.2]],"D":[[0.1,0.9],[0.5,-0.6]]}',
             "pt", np.diag([1.0, -1.0, -1.0])),
            ("pseudo-block",
             '{"m":1,"n":1,"A":[[[2.0,0.0]]],"B":[[[1.0,0.5]]],"D":[[[0.0,0.0]]]}',
             "pseudo", np.diag([1.0, -1.0])),
            ("rotated-hermitian",
             '{"n":3,"a":[[0.3,1.0,0.2],[0.5,0.0,0.0],[0.1,0.0,0.0]],'
             '"b":[[0.9,-0.4,0.0],[0.0,0.0,0.0],[0.0,0.0,0.0]]}',
             "pseudo", np.fliplr(np.eye(3))),
        ]
        for family, params, kind, operator in cases:
            code, out, _ = run(capsys, "construct", "--family", family, "--params", params)
            assert code == 0
            doc = json.loads(out)["matrices"]["hamiltonian"]
            H = write_matrix(tmp_path, "h.json", document_to_matrix(doc))
            P = write_matrix(tmp_path, "p.json", operator)
            code, out, _ = run(capsys, "classify", "--matrix", H, "--operator", P, "--kind", kind)
            assert code == 0
            assert json.loads(out)["symmetry"]["holds"] is True

    def test_diag_metric_has_positive_metric(self, tmp_path, capsys):
        code, out, _ = run(capsys, "construct", "--family", "diag-metric",
                           "--params", '{"omegas":[1.0,2.0,0.5],'
                                       '"a":[[0.1,1.0,0.3],[0.0,-0.4,0.8],[0.0,0.0,0.6]],'
                                       '"b":[[0.0,0.2,-0.9],[0.0,0.0,0.4],[0.0,0.0,0.0]]}')
        assert code == 0
        doc = json.loads(out)["matrices"]["hamiltonian"]
        H = write_matrix(tmp_path, "h.json", document_to_matrix(doc))
        code, out, _ = run(capsys, "classify", "--matrix", H)
        assert code == 0
        assert json.loads(out)["metric"]["positive_status"] == "found"


class TestSweep:
    def test_unbroken_flag_flips_at_gap(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "pt2",
                           "--grid", '{"gamma":{"start":0,"stop":2,"num":21},"rho":1}')
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        gi, ui = header.index("gamma"), header.index("unbroken")
        flags = [(float(row.split(",")[gi]), int(row.split(",")[ui])) for row in lines[1:]]
        for gamma, flag in flags:
            assert flag == (1 if gamma >= 1.0 else 0)

    def test_degeneration_columns(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "degeneration",
                           "--grid", '{"family":"pseudo2","u":1,"gamma":1,'
                                     '"epsilon":{"start":1e-2,"stop":1e-6,"num":5,"scale":"log"}}')
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,omega_small,omega_large,norm_plus,norm_minus"
        rows = [list(map(float, row.split(","))) for row in lines[1:]]
        slope = np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_empty_grid_exits_4(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "pt2", "--grid", '{"gamma":{"start":0,"stop":1,"num":0}}')
        assert code == 4

    @pytest.mark.parametrize("family, grid, message", [
        ("pt2", '{"gamma":{"start":0,"stop":2,"num":3},"rho":NaN}', "error: parameter rho must be finite\n"),
        ("pseudo2", '{"e":Infinity,"rho":NaN}', "error: parameter e must be finite\n"),
        # an infinite endpoint: numpy warns while it fills the axis, and only
        # the error line may reach stderr
        ("pt2", '{"gamma":{"start":0,"stop":Infinity,"num":3},"rho":NaN}', "error: parameter gamma must be finite\n"),
        ("pt2", '{"e":{"start":0,"stop":1,"num":2},"delta":{"start":0,"stop":Infinity,"num":3},'
                '"rho":{"start":1,"stop":Infinity,"num":2}}', "error: parameter rho must be finite\n"),
        ("pt2", '{"rho":{"start":1e308,"stop":-1e308,"num":3}}', "error: parameter rho must be finite\n"),
    ])
    def test_non_finite_grid_exits_3(self, capsys, family, grid, message):
        code, out, err = run(capsys, "sweep", "--family", family, "--grid", grid)
        assert (code, out, err) == (3, "", message)

    @pytest.mark.parametrize("family, grid, key", [
        ("pt2", '{"gama":{"start":0,"stop":2,"num":3},"rho":1}', "gama"),
        ("pseudo2", '{"gamma":1,"rho":1,"u":2}', "'u'"),
        ("degeneration", '{"family":"pt2","rho":1}', "rho"),
        ("pt2", '{"gamma":{"start":0,"stop":2,"num":3,"scal":"log"}}', "scal"),
        ("pt2", '{"gamma":{"start":0,"stop":2,"num":2.9}}', "num"),
        ("pt2", '{"gamma":{"start":0,"stop":2,"num":true}}', "num"),
        ("pt2", '{"gamma":true}', "gamma"),
        ("degeneration", '{"epsilon":false}', "epsilon"),
        ("degeneration", '{"u":"abc"}', "grid u"),
        ("degeneration", '{"u":[1,2]}', "grid u"),
        ("degeneration", '{"u":true}', "grid u"),
        ("degeneration", '{"gamma":true}', "grid gamma"),
        ("pt2", '{"gamma":{"start":true,"stop":2,"num":2}}', "axis gamma start"),
        ("pt2", '{"gamma":{"start":0,"stop":"2","num":2}}', "axis gamma stop"),
        ("pseudo2", '{"rho":%d}' % 10 ** 400, "axis rho"),
    ])
    def test_grid_typos_exit_2(self, capsys, family, grid, key):
        code, out, err = run(capsys, "sweep", "--family", family, "--grid", grid)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and key in err

    def test_integral_float_num_is_an_integer(self, capsys):
        grid = '{"gamma":{"start":0,"stop":2,"num":%s},"rho":1}'
        assert run(capsys, "sweep", "--family", "pt2", "--grid", grid % "21.0") == \
            run(capsys, "sweep", "--family", "pt2", "--grid", grid % "21")

    @pytest.mark.parametrize("rho", ["1e150", "1e160"])
    def test_huge_entries_break_the_symmetry(self, capsys, rho):
        code, out, _ = run(capsys, "sweep", "--family", "pt2", "--grid", '{"rho":%s,"gamma":1}' % rho)
        assert code == 0
        assert out.splitlines()[1].endswith(",0")

    def test_norm_beyond_the_float_range_exits_3(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "pt2", "--grid", '{"rho":1e308,"gamma":1e308}')
        assert (code, out, err) == (3, "", "error: Frobenius norm exceeds the float range\n")

    # finite axes whose matrix entries overflow: numpy's overflow warning (an
    # error under this suite's warning filter) must not reach stderr, and the
    # error names the first such point in loop order
    @pytest.mark.parametrize("family, grid, point", [
        ("pt2", '{"e":1e308,"gamma":1e308}', "e = 1e+308, gamma = 1e+308, rho = 0, delta = 0"),
        ("pseudo2", '{"e":1e308,"gamma":{"start":1,"stop":1e308,"num":3},"rho":2}',
         "e = 1e+308, gamma = 1e+308, rho = 2, delta = 0"),
    ])
    def test_entries_beyond_the_float_range_name_the_point(self, capsys, family, grid, point):
        code, out, err = run(capsys, "sweep", "--family", family, "--grid", grid)
        assert (code, out, err) == (3, "", f"error: the {family} matrix at {point} has NaN or Inf entries\n")

    # every command that takes the 2x2 closed forms gives one exit code and message
    @pytest.mark.parametrize("argv, value", [
        (["sweep", "--family", "degeneration", "--grid", '{"u":1e308,"gamma":1e308}'], "1e+308"),
        (["construct", "--family", "pt2", "--params", '{"gamma":1e200}'], "1e+200"),
        (["construct", "--family", "pseudo2", "--params", '{"gamma":-1e200,"u":1}'], "-1e+200"),
    ])
    def test_parameter_whose_square_overflows_exits_4(self, capsys, argv, value):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (4, "", f"constraint violated: parameter gamma = {value} is too large: "
                                           "its square overflows\n")

    # the scan's metric or eigenvector norms past the float range: one exit
    # code and message naming u, and no numpy warning from the scan or its fit
    @pytest.mark.parametrize("grid, value", [
        ('{"u":1e308,"gamma":1}', "1e+308"),
        ('{"u":1e308,"gamma":1,"family":"pseudo2"}', "1e+308"),
        ('{"u":1e300,"gamma":1e10}', "1e+300"),
    ])
    def test_degeneration_scan_beyond_the_float_range_exits_4(self, capsys, grid, value):
        code, out, err = run(capsys, "sweep", "--family", "degeneration", "--grid", grid)
        assert (code, out, err) == (4, "", f"constraint violated: parameter u = {value} is too large: "
                                           "the metric or an eigenvector norm leaves the float range\n")

    # parameters so small that a square, a product or the scan's norms
    # underflow: one exit code and a message naming them, with no traceback
    # and no numpy warning
    @pytest.mark.parametrize("grid, message", [
        ('{"u":1,"gamma":1e-170}', "parameter gamma = 1e-170 is too small: its square underflows"),
        ('{"u":1,"gamma":1e-150}', "parameters u = 1 and gamma = 1e-150 are too small: "
                                   "the metric or an eigenvector norm underflows"),
        ('{"u":1,"gamma":1e-150,"family":"pseudo2"}', "parameters u = 1 and gamma = 1e-150 are too small: "
                                                      "the metric or an eigenvector norm underflows"),
        ('{"u":1e-200,"gamma":1e-150}', "u*gamma is too small: the product of u = 1e-200 and gamma = 1e-150 underflows"),
    ])
    def test_degeneration_scan_below_the_float_range_exits_4(self, capsys, grid, message):
        code, out, err = run(capsys, "sweep", "--family", "degeneration", "--grid", grid)
        assert (code, out, err) == (4, "", f"constraint violated: {message}\n")

    def test_epsilon_whose_complement_rounds_to_one_exits_4(self, capsys):
        # below about 1.1e-16, 1 - epsilon rounds to 1 and rho to |gamma|: the
        # scan would sit on the exceptional point, so epsilon itself is refused
        grid = '{"epsilon":{"start":1e-2,"stop":1e-17,"num":2,"scale":"log"}}'
        code, out, err = run(capsys, "sweep", "--family", "degeneration", "--grid", grid)
        assert (code, out, err) == (4, "", "error: epsilon = 1e-17 is too small: 1 - epsilon rounds to 1\n")

    def test_exceptional_point_beyond_1e154_takes_the_staircase_without_overflow(self, capsys):
        # the rank staircase squares the 1e200 matrix; its powers are taken
        # scaled by a power of two, so no overflow warning is raised
        code, out, err = run(capsys, "sweep", "--family", "pseudo2", "--grid", '{"rho":1e200,"gamma":1e200}')
        assert (code, err) == (0, "")
        assert out.splitlines()[1].endswith(",1")

    @pytest.mark.parametrize("family, grid, golden", [
        ("pt2", '{"gamma":{"start":0,"stop":2,"num":21},"rho":1}', "sweep_pt2_readme.csv"),
        # |gamma| = rho exactly at four of the 49 points
        ("pseudo2", '{"e":0.3,"gamma":{"start":-1.5,"stop":1.5,"num":7},"rho":{"start":0,"stop":1.5,"num":7},'
                    '"delta":0.4}', "sweep_pseudo2_crossing.csv"),
    ])
    def test_golden_bytes(self, capsys, family, grid, golden):
        code, out, _ = run(capsys, "sweep", "--family", family, "--grid", grid)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("family", ["pt2", "pseudo2"])
    def test_builds_no_spectrum_report(self, capsys, monkeypatch, family):
        built = []
        report = spectra.SpectrumReport
        monkeypatch.setattr(spectra, "SpectrumReport", lambda *a, **k: built.append(1) or report(*a, **k))
        # the five points with gamma = rho (0, 2/9, ..., 8/9) take the cluster path
        code, out, _ = run(capsys, "sweep", "--family", family,
                           "--grid", '{"gamma":{"start":0,"stop":2,"num":10},"rho":{"start":0,"stop":1,"num":10}}')
        assert code == 0 and len(out.splitlines()) == 101
        assert built == []
        spectra.classify_spectrum(np.eye(2))
        assert built == [1]


def count_payload(max_dim, reports):
    """The count payload that cmd_count once passed to json.dumps(payload, indent=2):
    the reference for its fixed-layout writer."""
    from ptlab.counting import table_columns
    return {
        "max_dim": max_dim,
        "rows": [{"kind": r.kind.value, "m": r.m, "n": r.n,
                  "matrix_dim": r.measured_matrix_dim, "orbit_dim": r.measured_operator_orbit_dim,
                  "total": r.total, "expected": r.expected, "match": r.match} for r in reports],
        "columns": {str(dim): list(vals) for dim, vals in table_columns(reports).items()},
        "all_match": all(r.match for r in reports),
    }


def count_csv(reports):
    """count --format csv as the csv module writes it, the match flag as 0 or 1:
    the reference for cmd_count's fixed-layout CSV writer."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "m", "n", "matrix_dim", "orbit_dim", "total", "expected", "match"])
    writer.writerows([r.kind.value, r.m, r.n, r.measured_matrix_dim, r.measured_operator_orbit_dim,
                      r.total, r.expected, int(r.match)] for r in reports)
    return out.getvalue()


class TestCount:
    def test_exit_zero_and_columns(self, capsys):
        code, out, _ = run(capsys, "count", "--max-dim", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"]["2"] == [3, 4, 6, 6]
        assert payload["columns"]["3"] == [6, 9, 13, 15]
        assert payload["all_match"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "count", "--max-dim", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,m,n,matrix_dim,orbit_dim,total,expected,match"
        assert all(row.split(",")[-1] == "1" for row in lines[1:])

    def test_max_dim_bounds(self, capsys):
        code, _, _ = run(capsys, "count", "--max-dim", "1")
        assert code == 2

    def test_mismatch_exits_5_listing_rows(self, capsys, monkeypatch):
        # corrupt one measured row to exercise the gate
        import dataclasses

        import ptlab.cli as cli_mod
        from ptlab.counting import TableRow, table1_report

        real = table1_report(2)
        broken = [dataclasses.replace(r, total=r.total + 1, match=False)
                  if r.kind is TableRow.HERMITIAN else r for r in real]
        monkeypatch.setattr(cli_mod, "table1_report", lambda max_dim: broken)
        code, out, err = run(capsys, "count", "--max-dim", "2")
        assert code == 5
        assert "mismatch" in err and "hermitian" in err
        payload = count_payload(2, broken)
        assert payload["all_match"] is False and not all(row["match"] for row in payload["rows"])
        assert out == json.dumps(payload, indent=2) + "\n"
        code, out, _ = run(capsys, "count", "--max-dim", "2", "--format", "csv")
        assert code == 5 and out == count_csv(broken) and ",0\n" in out

    @pytest.mark.parametrize("max_dim", range(2, 9))
    def test_json_writer_is_json_dumps(self, capsys, max_dim):
        from ptlab.counting import table1_report
        code, out, _ = run(capsys, "count", "--max-dim", str(max_dim))
        assert code == 0
        assert out == json.dumps(count_payload(max_dim, table1_report(max_dim)), indent=2) + "\n"

    @pytest.mark.parametrize("max_dim", range(2, 9))
    def test_csv_writer_is_csv_module(self, capsys, max_dim):
        from ptlab.counting import table1_report
        code, out, _ = run(capsys, "count", "--max-dim", str(max_dim), "--format", "csv")
        assert code == 0
        assert out == count_csv(table1_report(max_dim))

    def test_out_file_has_no_trailing_newline(self, tmp_path, capsys):
        from ptlab.counting import table1_report
        target = tmp_path / "table.json"
        assert run(capsys, "count", "--max-dim", "4", "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == json.dumps(count_payload(4, table1_report(4)), indent=2).encode("utf-8")

    def test_output_is_seed_free(self, capsys, monkeypatch):
        """count reads neither --seed (still accepted by the shared parser) nor
        PTLAB_SEED, so a malformed PTLAB_SEED is no error either."""
        code, expected, _ = run(capsys, "count", "--max-dim", "8")
        assert code == 0
        for seed in ("1", "2"):
            assert run(capsys, "count", "--max-dim", "8", "--seed", seed)[:2] == (0, expected)
        for env in ("7", "x"):
            monkeypatch.setenv("PTLAB_SEED", env)
            assert run(capsys, "count", "--max-dim", "8")[:2] == (0, expected)


class TestConvert:
    def test_pt_to_pseudo_catalog_point(self, tmp_path, capsys):
        # delta = 0: the resulting operator is the diagonal signature itself
        H = write_matrix(tmp_path, "h.json", np.array([[1.5, 1j * 0.4], [1j * 0.4, -1.5 + 0j]]) + 0.2 * np.eye(2))
        P = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
        code, out, _ = run(capsys, "convert", "--direction", "pt-to-pseudo", "--operator", P, "--matrix", H)
        assert code == 0
        payload = json.loads(out)
        assert payload["hermitian"] and payload["involutory"] and payload["target_kind_satisfied"]
        Q = document_to_matrix(payload["Q"])
        np.testing.assert_allclose(Q, np.diag([1.0, -1.0]), atol=1e-9)

    def test_miss_prints_strict_json(self, tmp_path, capsys):
        """A miss's residuals are null, not Infinity, so RFC 8259 parsers read
        its stdout."""
        H = write_matrix(tmp_path, "h.json", REAL4)
        P = write_matrix(tmp_path, "p.json", np.eye(4))
        code, out, _ = run(capsys, "convert", "--direction", "pt-to-pseudo", "--operator", P, "--matrix", H)
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["Q"] is None and payload["note"] == "no Hermitian involution exists in the constrained family"
        assert payload["residuals"] == {"structure": None, "involution": None, "intertwining": None}

    def test_source_kind_failure_exits_3(self, tmp_path, capsys):
        H = write_matrix(tmp_path, "h.json", np.diag([1j, 0.0]))
        P = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
        code, _, _ = run(capsys, "convert", "--direction", "pt-to-pseudo", "--operator", P, "--matrix", H)
        assert code == 3

    def test_degenerate_case_exit_zero_with_flag(self, tmp_path, capsys):
        g, r, d = 1.0, 2.0, np.pi / 3
        Hm = np.array([[g, r * np.exp(1j * d)], [-r * np.exp(-1j * d), -g]])
        H = write_matrix(tmp_path, "h.json", Hm)
        P = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
        code, out, _ = run(capsys, "convert", "--direction", "pseudo-to-pt", "--operator", P, "--matrix", H)
        assert code == 0
        payload = json.loads(out)
        assert payload["degenerate"] is True
        assert not payload["target_kind_satisfied"]

    def test_determinism(self, tmp_path, capsys, monkeypatch):
        """No direction reads a seed: --seed is accepted and ignored, and a
        malformed PTLAB_SEED is no error."""
        H = write_matrix(tmp_path, "h.json", np.diag([1.0, -1.0]))
        P = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
        for direction in ("pt-to-pseudo", "pseudo-to-pt", "genpt-to-pseudo"):
            argv = ("convert", "--direction", direction, "--operator", P, "--matrix", H)
            code, expected, _ = run(capsys, *argv, "--seed", "1")
            assert code == 0 and json.loads(expected)["target_kind_satisfied"]
            assert run(capsys, *argv, "--seed", "2")[:2] == (0, expected)
            with monkeypatch.context() as mp:
                mp.setenv("PTLAB_SEED", "x")
                assert run(capsys, *argv)[:2] == (0, expected)

    def test_pseudo_to_pt_output_is_seed_free(self, tmp_path, capsys):
        H = write_matrix(tmp_path, "h.json", np.diag([0.3 + 0.7j, 0.3 - 0.7j]))
        P = write_matrix(tmp_path, "p.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
        outputs = []
        for seed in ("1", "2"):
            code, out, _ = run(capsys, "convert", "--direction", "pseudo-to-pt",
                               "--operator", P, "--matrix", H, "--seed", seed)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        np.testing.assert_allclose(np.abs(document_to_matrix(json.loads(outputs[0])["Q"])), [[0, 1], [1, 0]],
                                   rtol=0, atol=1e-12)


REAL4 = [[-1, 1, 1, 1], [-1, 3, -1, -1], [-5, 1, 5, 2], [0, 0, 0, 3]]  # V diag(1, 2, 3, 4) inv(V), V unimodular
MIXED6 = [[3, -4, 6, 4, 4, -4], [-6, 5, 6, 4, -2, -3], [4, -4, 7, 4, 4, -4],  # -1, 3, 1 +- 2i, -2 +- i
          [-4, 4, -10, -5, -4, 3], [-12, 12, 0, 0, -9, 2], [-2, 2, 0, 0, -2, -1]]
JORDAN2 = [[1.5, 1.0], [0.0, 1.5]]
OVERFLOW = [[1.0, 1e160j], [1e160j, -1.0]]  # squares of its entries overflow in the Frobenius norm


def readme_operands(tmp_path):
    """H0.json and P0.json, built as the README builds them."""
    paths = []
    for family, params, key in (("pt2", '{"e":0,"gamma":2,"rho":1,"delta":0.3}', "hamiltonian"),
                                ("parity", '{"m":1,"n":1}', "parity")):
        full = tmp_path / f"{family}.json"
        assert main(["construct", "--family", family, "--params", params, "--out", str(full)]) == 0
        path = tmp_path / f"{key}0.json"
        path.write_text(json.dumps(json.loads(full.read_text(encoding="utf-8"))["matrices"][key]), encoding="utf-8")
        paths.append(str(path))
    return paths


def golden_argv(name, tmp_path):
    """Command line of the classify/convert/count run whose stdout is tests/golden/<name>."""
    H0, P0 = readme_operands(tmp_path)
    P = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
    return {
        "classify_readme.json": ["classify", "--matrix", H0, "--operator", P0, "--kind", "pt"],
        "classify_real4.json": ["classify", "--matrix", write_matrix(tmp_path, "real4.json", REAL4)],
        "classify_mixed6.json": ["classify", "--matrix", write_matrix(tmp_path, "mixed6.json", MIXED6)],
        "classify_jordan2.json": ["classify", "--matrix", write_matrix(tmp_path, "jordan2.json", JORDAN2)],
        "classify_overflow.json": ["classify", "--matrix", write_matrix(tmp_path, "overflow.json", OVERFLOW),
                                   "--operator", P, "--kind", "pt"],
        "convert_readme.json": ["convert", "--direction", "pt-to-pseudo", "--operator", P0, "--matrix", H0],
        "count_max8.json": ["count", "--max-dim", "8"],
        "count_max4.csv": ["count", "--max-dim", "4", "--format", "csv"],
    }[name]


class TestGoldenClassifyConvert:
    """stdout captured before the eigenvector route of the metric and witness
    solvers existed: the metric block must not move.  convert's Q was
    recaptured when witness_space moved onto the cluster frame; it is the
    same certified Hermitian involution to within 1e-15 entrywise, with
    smaller residuals.  It was recaptured again when PT -> pseudo began to
    return the closed-form involution on one tree without the screen: Q
    moved by 1 ulp, its signed zeros became 0.0, and the structure residual
    went to 0.0.  The count tables were captured while the variety rank
    still came from a finite-difference derivative."""

    @pytest.mark.parametrize("name", ["classify_readme.json", "classify_real4.json", "classify_mixed6.json",
                                      "classify_jordan2.json", "classify_overflow.json", "convert_readme.json",
                                      "count_max8.json", "count_max4.csv"])
    def test_golden_bytes(self, tmp_path, capsys, name):
        code, out, err = run(capsys, *golden_argv(name, tmp_path))
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text(encoding="utf-8")



COUNT_HASHES = json.loads((GOLDEN / "count_stdout.sha256.json").read_text(encoding="utf-8"))


class TestCountStdoutHashes:
    """sha256 of count's stdout for every --max-dim and both formats, captured
    before the rank table was shared across dimensions and splits."""

    @pytest.mark.parametrize("command", sorted(COUNT_HASHES))
    def test_stdout_sha256(self, capsys, command):
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == COUNT_HASHES[command]

class TestJordan:
    def test_chain_extraction(self, tmp_path, capsys):
        H = write_matrix(tmp_path, "h.json", np.array([[0.0, 1j], [0.0, 0.0]]))
        code, out, _ = run(capsys, "jordan", "--matrix", H, "--eigenvalue", "0")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["vectors"]) == 2
        assert max(payload["chain_residuals"]) < 1e-10

    def test_simple_eigenvalue_exits_3(self, tmp_path, capsys):
        H = write_matrix(tmp_path, "h.json", np.diag([1.0, 2.0]))
        code, _, _ = run(capsys, "jordan", "--matrix", H, "--eigenvalue", "1")
        assert code == 3

    def test_bad_eigenvalue_string_exits_2(self, tmp_path, capsys):
        H = write_matrix(tmp_path, "h.json", np.diag([1.0, 2.0]))
        code, _, _ = run(capsys, "jordan", "--matrix", H, "--eigenvalue", "x")
        assert code == 2


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        code, out, _ = run(capsys, "count", "--max-dim", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["all_match"] is True


class TestInProcessRuns:
    ARGVS = [
        ["sweep", "--family", "pt2", "--grid", '{"gamma":{"start":0,"stop":2,"num":5},"rho":1}'],
        ["count", "--max-dim", "3", "--format", "csv"],
        ["sweep", "--family", "pseudo2", "--grid", '{"gamma":1,"rho":{"start":0,"stop":2,"num":4}}',
         "--tol-rel", "1e-6"],
        ["sweep", "--family", "pt2", "--grid", '{"rho":NaN}'],
        ["count", "--max-dim", "9"],
        ["sweep", "--family", "degeneration", "--grid", '{"gamma":2}'],
    ]

    def test_parser_built_once(self, capsys):
        build_parser.cache_clear()
        parser = build_parser()
        help_text = parser.format_help()
        run(capsys, *self.ARGVS[0])
        assert build_parser() is parser
        assert parser.format_help() == help_text

    def test_consecutive_calls_match_separate_ones(self, capsys):
        build_parser.cache_clear()
        separate = []
        for argv in self.ARGVS:
            build_parser.cache_clear()
            separate.append(run(capsys, *argv))
        consecutive = [run(capsys, *argv) for argv in self.ARGVS + self.ARGVS[::-1]]
        assert consecutive == separate + separate[::-1]
        assert [code for code, _, _ in separate] == [0, 0, 0, 3, 2, 0]
