"""CLI: round trips, exit codes, determinism, document format."""

import json
import pathlib

import numpy as np
import pytest

from ptlab.cli import build_parser, document_to_matrix, main, matrix_to_document

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
        monkeypatch.setattr(cli_mod, "table1_report", lambda max_dim, tol, seed: broken)
        code, _, err = run(capsys, "count", "--max-dim", "2")
        assert code == 5
        assert "mismatch" in err and "hermitian" in err


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

    def test_determinism(self, tmp_path, capsys):
        Hm = np.array([[1.7, 1j * 0.9], [1j * 0.9, -0.3]])
        H = write_matrix(tmp_path, "h.json", Hm)
        P = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "convert", "--direction", "pt-to-pseudo",
                               "--operator", P, "--matrix", H, "--seed", "7")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_env_seed(self, tmp_path, capsys, monkeypatch):
        Hm = np.array([[1.7, 1j * 0.9], [1j * 0.9, -0.3]])
        H = write_matrix(tmp_path, "h.json", Hm)
        P = write_matrix(tmp_path, "p.json", np.diag([1.0, -1.0]))
        monkeypatch.setenv("PTLAB_SEED", "11")
        code, out_env, _ = run(capsys, "convert", "--direction", "pt-to-pseudo", "--operator", P, "--matrix", H)
        monkeypatch.delenv("PTLAB_SEED")
        code2, out_flag, _ = run(capsys, "convert", "--direction", "pt-to-pseudo",
                                 "--operator", P, "--matrix", H, "--seed", "11")
        assert code == code2 == 0
        assert out_env == out_flag


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
