import json
import os

import numpy as np
import pytest

from mobiusdual.cli import main
from mobiusdual.specfile import load_model_text

DATA = os.path.join(os.path.dirname(__file__), "data")


def spec(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:]]
    return header, rows


class TestCheck:
    def test_admissible_cube_all_mobius_true(self, capsys):
        code, out, err = run(capsys, "check", "--input", spec("two_cube.spec"))
        assert code == 0
        header, rows = parse_table(out)
        verdicts = {row[0]: row[1] for row in rows}
        assert verdicts["mobius_down"] == "true"
        assert verdicts["mobius_up"] == "true"
        assert verdicts["weak_down"] == "true"
        assert verdicts["weak_up"] == "true"
        assert verdicts["strong_stochastic"] == "true"

    def test_strong_fixture_separates_notions(self, capsys):
        code, out, err = run(
            capsys, "check", "--input", spec("strong_not_mobius.spec")
        )
        assert code == 0
        verdicts = {row[0]: row[1] for row in parse_table(out)[1]}
        assert verdicts["strong_stochastic"] == "true"
        assert verdicts["mobius_down"] == "false"
        assert verdicts["mobius_up"] == "false"

    def test_malformed_spec_exits_one_with_error_block(self, capsys):
        code, out, err = run(capsys, "check", "--input", spec("bad_row.spec"))
        assert code == 1
        block = json.loads(err)
        assert block["error"] == "NotStochastic"
        assert "row 0" in block["detail"]

    def test_missing_file_exits_one(self, capsys):
        code, out, err = run(capsys, "check", "--input", spec("nope.spec"))
        assert code == 1
        assert json.loads(err)["error"] == "IOError"

    def test_exact_mode_settles_boundary_verdict(self, capsys, tmp_path):
        # rate sum exactly 1: float noise sits near zero, rationals decide
        boundary = tmp_path / "boundary.spec"
        boundary.write_text(
            "[poset]\n"
            "states: 00 10 01 11\n"
            "cover: 00 10\ncover: 00 01\ncover: 10 11\ncover: 01 11\n"
            "\n"
            "[chain]\n"
            "row: 1/2 1/6 1/3 0\n"
            "row: 1/6 1/2 0 1/3\n"
            "row: 1/3 0 1/2 1/6\n"
            "row: 0 1/3 1/6 1/2\n"
        )
        code, out, err = run(
            capsys, "check", "--input", str(boundary), "--exact"
        )
        assert code == 0
        rows = {row[0]: row for row in parse_table(out)[1]}
        assert rows["mobius_down"][1] == "true"
        assert rows["mobius_down"][2] == "0"     # exactly zero, not noise
        assert rows["mobius_down"][4] == "0"     # exact arithmetic, no tolerance


class TestDual:
    @pytest.mark.parametrize("name", ["two_cube", "four_cube"])
    def test_dual_output_matches_golden_text(self, capsys, tmp_path, name):
        out_path = str(tmp_path / "dual.spec")
        code, _, _ = run(
            capsys, "dual", "--input", spec(f"{name}.spec"), "--output", out_path
        )
        assert code == 0
        text = open(out_path, encoding="utf-8").read()
        golden = open(spec(f"golden/{name}.dual.spec"), encoding="utf-8").read()
        assert text == golden

    def test_dual_output_reparses(self, capsys, tmp_path):
        out_path = str(tmp_path / "dual.spec")
        code, out, err = run(
            capsys, "dual", "--input", spec("two_cube.spec"), "--output", out_path
        )
        assert code == 0
        text = open(out_path, encoding="utf-8").read()
        loaded = load_model_text(text)
        assert loaded.kind == "chain"
        p_star = loaded.chain.P
        assert p_star[3, 3] == 1.0
        assert p_star[0, 0] == pytest.approx(1 - 0.8, abs=1e-12)

    def test_inadmissible_cube_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad_cube.spec"
        bad.write_text("[cube]\nd: 2\nalpha: 0.3 0.3\nbeta: 0.3 0.3\n")
        code, out, err = run(capsys, "dual", "--input", str(bad))
        assert code == 2
        block = json.loads(err)
        assert block["error"] == "PreconditionFailed"
        assert block["notion"] == "mobius_down"

    def test_up_direction(self, capsys, tmp_path):
        cube = tmp_path / "up.spec"
        cube.write_text("[cube]\nd: 2\nalpha: 0.1 0.1\nbeta: 0.1 0.1\nnu: delta_max\n")
        code, out, err = run(capsys, "dual", "--input", str(cube), "--direction", "up")
        assert code == 0
        assert "absorbing_state: 00" in out


class TestSep:
    def test_formula_column_matches_exact_curve(self, capsys):
        code, out, err = run(
            capsys, "sep", "--input", spec("three_cube.spec"), "--horizon", "50"
        )
        assert code == 0
        header, rows = parse_table(out)
        s_col = header.index("s")
        f_col = header.index("formula")
        t_col = header.index("tail")
        for row in rows:
            s, f, t = float(row[s_col]), float(row[f_col]), float(row[t_col])
            assert abs(s - f) <= 1e-10
            assert abs(s - t) <= 1e-10

    def test_chain_without_nu_exits_one(self, capsys, tmp_path):
        no_nu = tmp_path / "no_nu.spec"
        no_nu.write_text(
            "[poset]\nstates: x y\ncover: x y\n\n[chain]\nrow: 0.7 0.3\nrow: 0.4 0.6\n"
        )
        code, out, err = run(capsys, "sep", "--input", str(no_nu))
        assert code == 1


class TestEig:
    def test_cube_closed_form(self, capsys):
        code, out, err = run(capsys, "eig", "--input", spec("two_cube.spec"))
        assert code == 0
        values = [float(x) for x in out.splitlines() if not x.startswith("#")]
        assert values == pytest.approx([1.0, 0.6, 0.6, 0.2])
        assert "cube_closed_form" in out

    def test_dual_diagonal_for_explicit_chain(self, capsys, tmp_path):
        # serialize the admissible cube walk as a dense chain, then read the
        # eigenvalues off the dual's diagonal
        import mobiusdual as md
        from mobiusdual.specfile import serialize_chain

        params = md.CubeWalkParams(d=2, alpha=(0.15, 0.1), beta=(0.1, 0.05))
        nu = np.zeros(4)
        nu[0] = 1.0
        c = md.nearest_neighbor_walk(params, nu=nu)
        path = tmp_path / "chain.spec"
        path.write_text(serialize_chain(c))
        code, out, err = run(capsys, "eig", "--input", str(path))
        assert code == 0
        assert "dual_diagonal" in out
        values = [float(x) for x in out.splitlines() if not x.startswith("#")]
        expected = sorted(md.cube_eigenvalues(params.alpha, params.beta), reverse=True)
        assert values == pytest.approx(expected, abs=1e-12)


class TestCube:
    def test_full_report_sections(self, capsys):
        code, out, err = run(
            capsys, "cube", "--input", spec("two_cube.spec"), "--horizon", "30"
        )
        assert code == 0
        assert "admissible: true" in out
        assert "product_form_deviation" in out
        assert "eigenvalues" in out
        assert "nu_residual" in out
        assert "\tformula\t" in out

    def test_requires_cube_spec(self, capsys):
        code, out, err = run(capsys, "cube", "--input", spec("bad_row.spec"))
        assert code == 1


class TestAvail:
    def test_pipeline_report(self, capsys):
        code, out, err = run(
            capsys, "avail", "--input", spec("rates.spec"), "--multiplier", "2.0"
        )
        assert code == 0
        assert "uniformization_rate" in out
        assert "reversed_mobius_down" in out

    def test_group_moves_stop_at_monotonicity(self, capsys):
        code, out, err = run(
            capsys, "avail", "--input", spec("rates.spec"), "--multiplier", "2.0"
        )
        assert code == 0
        assert "pipeline stopped at: monotonicity" in out

    def test_single_move_regime_runs_to_completion(self, capsys):
        code, out, err = run(
            capsys, "avail", "--input", spec("rates_single.spec"),
            "--multiplier", "2.0",
        )
        assert code == 0
        assert "mean_absorption" in out
        assert "sst_bound_ok: true" in out

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(
            capsys, "avail", "--input", spec("rates.spec"), "--multiplier", "2.0"
        )
        code2, out2, _ = run(
            capsys, "avail", "--input", spec("rates.spec"), "--multiplier", "2.0"
        )
        assert code1 == code2 == 0
        assert out1 == out2


class TestSweep:
    def test_grid_runs_in_order(self, capsys, tmp_path):
        sweep = tmp_path / "sweep.spec"
        sweep.write_text(
            "[sweep]\nd: 3\nalpha: 0.04 0.05 2\nbeta: 0.04 0.05 2\nkappa: 0 0.02 2\n"
        )
        code, out, err = run(capsys, "sweep", "--input", str(sweep))
        assert code == 0
        header, rows = parse_table(out)
        assert len(rows) == 8
        assert header[:4] == ["alpha", "beta", "kappa", "status"]
        assert all(row[3] == "ok" for row in rows)
        # the untransformed walk is monotone everywhere on this grid; the
        # kappa > 0 points map out the boundary (verdicts may differ)
        for row in rows:
            if float(row[2]) == 0.0:
                assert row[4] == "true" and row[6] == "true"
            assert row[4] in ("true", "false")


class TestSimulate:
    def test_seeded_byte_identical(self, capsys):
        args = (
            "simulate", "--input", spec("three_cube.spec"),
            "--samples", "2000", "--seed", "5", "--horizon", "25",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_empirical_near_analytic(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--input", spec("two_cube.spec"),
            "--samples", "20000", "--seed", "3", "--horizon", "20",
        )
        assert code == 0
        header, rows = parse_table(out)
        t = header.index("tail")
        e = header.index("empirical")
        lo = header.index("band_lo")
        hi = header.index("band_hi")
        for row in rows:
            assert float(row[lo]) <= float(row[e]) <= float(row[hi])
        assert abs(float(rows[3][t]) - float(rows[3][e])) < 0.02


class TestExitCodes:
    def test_error_classes_partition_codes(self):
        from mobiusdual.errors import (
            LPFailure,
            NotIrreducible,
            NumericalFailure,
            SchemaError,
            SingularFundamentalMatrix,
            UpSetExplosion,
            exit_code,
        )

        assert exit_code(SchemaError("x")) == 1
        assert exit_code(NotIrreducible("x")) == 2
        assert exit_code(UpSetExplosion("x")) == 2
        assert exit_code(LPFailure("x")) == 3
        assert exit_code(SingularFundamentalMatrix("x")) == 3
        assert exit_code(NumericalFailure("x")) == 3


class TestOutputRouting:
    def test_env_prefix_for_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MOBIUSDUAL_OUTPUT_DIR", str(tmp_path))
        code, out, err = run(
            capsys, "eig", "--input", spec("two_cube.spec"), "--output", "eigs.txt"
        )
        assert code == 0
        assert (tmp_path / "eigs.txt").exists()

    def test_absolute_path_ignores_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MOBIUSDUAL_OUTPUT_DIR", str(tmp_path / "sub"))
        target = tmp_path / "direct.txt"
        code, out, err = run(
            capsys, "eig", "--input", spec("two_cube.spec"), "--output", str(target)
        )
        assert code == 0
        assert target.exists()
