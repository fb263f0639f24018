import glob
import json
import os
from fractions import Fraction
import subprocess
import sys

import numpy as np
import pytest

import mobiusdual as md
from mobiusdual import cli, convergence, errors, monotonicity
from mobiusdual.cli import COMMANDS, build_parser, main
from mobiusdual.errors import InputError, NegativeHoldingProbability, UpSetExplosion
from mobiusdual.poset import DENSE_CUBE_LIMIT
from mobiusdual.specfile import load_model, load_model_text, serialize_chain

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

    @pytest.mark.parametrize("body, command, field", [
        ("[poset]\nstates: a b\ncover: a b\ncover: b a\n\n[chain]\n"
         "row: 1 0\nrow: 0 1\n", "check", {"error": "CycleError", "witness": ["a", "b"]}),
        ("[poset]\nstates: a b\ncover: a b\n\n[chain]\nrow: 1 0\nrow: 0 1\n"
         "nu: delta_min\n", "sep", {"error": "NotIrreducible", "pair": ["a", "b"]}),
        ("[poset]\nstates: a b\ncover: a b\n\n[chain]\nrow: 0 1\nrow: 1 0\n"
         "nu: delta_min\n", "sep", {"error": "NotAperiodic", "period": 2}),
        ("[poset]\nstates: a b\nbogus line\n", "check", {"error": "SchemaError", "line": 3}),
    ])
    def test_error_block_fields_are_json_values(self, capsys, tmp_path, body, command, field):
        # integers are numbers and label pairs lists of label strings, not reprs
        path = tmp_path / "bad.spec"
        path.write_text(body)
        code, out, err = run(capsys, command, "--input", str(path))
        block = json.loads(err)
        assert code == block["exit"] and out == ""
        assert {key: block[key] for key in field} == field

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



class TestExactOnGeneratedKernels:
    """A kernel generated from rates carries no exact entries: an --exact run
    on it says so in the header instead of ignoring the flag silently."""

    NOTE = "# exact: not available for generated kernels; float verdicts"

    @pytest.mark.parametrize("command", ["check", "sep", "cube", "eig", "simulate", "dual"])
    def test_cube_spec_notes_float_verdicts(self, capsys, command):
        argv = (command, "--input", spec("two_cube.spec"))
        if command == "simulate":
            argv += ("--samples", "100")
        code, out, err = run(capsys, *argv, "--exact")
        assert code == 0, err
        assert self.NOTE in out.splitlines()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and self.NOTE not in out

    def test_rates_spec_notes_float_verdicts(self, capsys):
        code, out, err = run(capsys, "avail", "--input", spec("rates.spec"), "--exact")
        assert code == 0, err
        assert self.NOTE in out.splitlines()

    def test_sweep_notes_float_verdicts(self, capsys, tmp_path):
        path = tmp_path / "grid.spec"
        path.write_text("[sweep]\nd: 3\nalpha: 0.05 0.1 2\nbeta: 0.05 0.05 1\n")
        code, out, err = run(capsys, "sweep", "--input", str(path), "--exact")
        assert code == 0, err
        assert self.NOTE in out.splitlines()

    def test_exact_chain_has_no_note(self, capsys):
        code, out, err = run(
            capsys, "check", "--input", spec("strong_not_mobius.spec"), "--exact"
        )
        assert code == 0, err
        assert self.NOTE not in out


CHAIN_POSET = "[poset]\nstates: a b c\ncover: a b\ncover: b c\n\n[chain]\n"


class TestExactOnComputedReversal:
    """The time reversal of a kernel that is not reversible is computed in
    floats and carries no exact entries, so under --exact the dual's
    reversed-kernel precondition is still a float verdict, and the header
    says so."""

    NOTE = ("# exact: not available for the computed time reversal; "
            "float verdict on the reversed kernel")
    # not reversible (its stationary flows a -> c and c -> a differ); in
    # Fractions the worst entry of the reversal's down transform is 0, and
    # the float reversal computes it as -1.1e-16
    NEAR_BOUNDARY = CHAIN_POSET + (
        "row: 5/8 1/4 1/8\nrow: 1/4 1/4 1/2\nrow: 1/4 1/8 5/8\nnu: 1 0 0\n"
    )
    # the symmetric walk on the 2-cube, exactly balanced
    WALK = (
        "[poset]\nstates: 00 10 01 11\ncover: 00 10\ncover: 00 01\n"
        "cover: 10 11\ncover: 01 11\n\n[chain]\nrow: 3/5 1/5 1/5 0\n"
        "row: 1/5 3/5 0 1/5\nrow: 1/5 0 3/5 1/5\nrow: 0 1/5 1/5 3/5\n"
        "nu: 1 0 0 0\n"
    )

    @staticmethod
    def argv(command, path):
        extra = ("--samples", "100") if command == "simulate" else ()
        return (command, "--input", str(path), *extra)

    @pytest.mark.parametrize("command", ["dual", "sep", "eig", "simulate"])
    def test_near_boundary_chain_notes_float_reversal(self, capsys, tmp_path, command):
        path = tmp_path / "near.spec"
        path.write_text(self.NEAR_BOUNDARY)
        loaded = load_model(str(path))
        law = md.stationary(loaded.chain)
        rev = md.reverse(loaded.chain, law)
        assert rev.exact is None
        worst = monotonicity.mobius_monotone_down(rev, loaded.poset).worst_value
        assert -1e-15 < worst < 0
        code, out, err = run(capsys, *self.argv(command, path), "--exact")
        assert code == 0, err
        assert self.NOTE in out.splitlines()
        code, out, err = run(capsys, *self.argv(command, path))
        assert code == 0 and self.NOTE not in out

    @pytest.mark.parametrize("command", ["dual", "sep", "eig", "simulate"])
    def test_reversible_chain_has_no_note(self, capsys, tmp_path, command):
        path = tmp_path / "walk.spec"
        path.write_text(self.WALK)
        code, out, err = run(capsys, *self.argv(command, path), "--exact")
        assert code == 0, err
        assert self.NOTE not in out


class TestStationaryPath:
    """cube, avail and sep name the path that solved the stationary law."""

    SPECS = {
        "cube": "[cube]\nd: 6\nalpha: 0.06 0.05 0.07 0.06 0.05 0.07\n"
                "beta: 0.07 0.06 0.05 0.07 0.06 0.05\nnu: delta_min\n",
        "rates": "[rates]\nd: 6\npsi: pernode 0.03 0.05 0.04 0.03 0.05 0.04\n"
                 "phi: pernode 0.04 0.06 0.05 0.04 0.06 0.05\n",
        "rates_single": "[rates]\nd: 6\nmoves: single\n"
                        "psi: pernode 0.03 0.05 0.04 0.03 0.05 0.04\n"
                        "phi: pernode 0.04 0.06 0.05 0.04 0.06 0.05\n",
    }

    @pytest.mark.parametrize("command, name", [
        ("cube", "cube"),
        ("sep", "cube"),
        ("avail", "rates"),
        ("avail", "rates_single"),
    ])
    def test_reversible_models_use_detailed_balance(self, capsys, tmp_path,
                                                    monkeypatch, command, name):
        # the 6-cube has 7,828,354 up-sets: a small cap reaches the same
        # skipped strong row without enumerating 2^20 of them first
        monkeypatch.setattr(monotonicity, "UPSET_CAP", 1000)
        path = tmp_path / "model.spec"
        path.write_text(self.SPECS[name])
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 0, err
        lines = out.splitlines()
        at = lines.index("# stationary_path: detailed_balance")
        assert lines[at - 1].startswith("# stationary_residual: ")
        if command == "cube":
            assert ("# skipped: strong_stochastic (UpSetExplosion: more than "
                    "1000 up-sets)") in lines

    @pytest.mark.parametrize("command, name", [
        ("cube", "two_cube.spec"),
        ("avail", "rates_single.spec"),
        ("sep", "strong_not_mobius.spec"),
    ])
    def test_small_or_irreversible_chains_use_gth(self, capsys, command, name):
        code, out, err = run(capsys, command, "--input", spec(name))
        assert code == 0, err
        assert "# stationary_path: gth" in out.splitlines()


class TestStrongNoiseWitness:
    def test_true_walk_verdict_names_the_first_zero_margin(self, capsys, tmp_path):
        # the strong minimum of this walk is -2.2e-16 at 10100<=10111; every
        # margin within the tolerance of it is zero up to noise, and the
        # witness is the first of them, as for the Mobius rows
        path = tmp_path / "cube5.spec"
        path.write_text(
            "[cube]\nd: 5\nalpha: 0.05 0.06 0.04 0.05 0.03\n"
            "beta: 0.04 0.05 0.06 0.03 0.05\n"
        )
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 0, err
        rows = {row[0]: row for row in parse_table(out)[1]}
        strong = rows["strong_stochastic"]
        assert strong[1] == "true" and abs(float(strong[2])) < 1e-15
        assert strong[3] == "00000<=10000:{11111}"


class TestStrongSkipped:
    """A strong verdict past the up-set cap is a skipped row, not an exit 2."""

    @pytest.mark.parametrize("command", ["check", "cube"])
    def test_other_rows_are_reported(self, capsys, monkeypatch, tmp_path, command):
        def explode(*args, **kwargs):
            raise UpSetExplosion("more than 1048576 up-sets")

        monkeypatch.setattr(monotonicity, "strong_stochastic_monotone", explode)
        cube = tmp_path / "d6.spec"
        cube.write_text("[cube]\nd: 6\nalpha: " + "0.04 " * 6 + "\nbeta: " + "0.04 " * 6 + "\n")
        horizon = ("--horizon", "5") if command == "cube" else ()
        code, out, err = run(capsys, command, "--input", str(cube), *horizon)
        assert code == 0 and err == ""
        assert (
            "# skipped: strong_stochastic (UpSetExplosion: more than 1048576 up-sets)"
            in out.splitlines()
        )
        lines = out.splitlines()
        start = lines.index("notion\tverdict\tworst_value\twitness\ttolerance")
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines[start + 1:start + 6]}
        assert list(rows) == [
            "mobius_down", "mobius_up", "weak_down", "weak_up", "strong_stochastic"
        ]
        assert rows["strong_stochastic"] == ["strong_stochastic", "skipped", "nan", "-", "1e-10"]
        assert all(rows[n][1] == "true" for n in ("mobius_down", "mobius_up", "weak_down"))

    def test_six_cube_reaches_the_real_cap(self, capsys, tmp_path):
        # the 6-cube has 7,828,354 up-sets; the enumeration stops at 2^20
        cube = tmp_path / "d6.spec"
        cube.write_text("[cube]\nd: 6\nalpha: " + "0.04 " * 6 + "\nbeta: " + "0.04 " * 6 + "\n")
        code, out, err = run(capsys, "check", "--input", str(cube))
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert (
            "# skipped: strong_stochastic (UpSetExplosion: more than 1048576 up-sets)"
            in lines
        )
        assert "strong_stochastic\tskipped\tnan\t-\t1e-10" in lines

    def test_no_note_below_the_cap(self, capsys):
        code, out, _ = run(capsys, "check", "--input", spec("two_cube.spec"))
        assert code == 0 and "skipped" not in out


def pool_spec(k):
    with open(os.path.join(DATA, os.pardir, os.pardir, "perfbench", "pool.json")) as fh:
        return json.load(fh)["posets"][k]["spec"]


BOUNDARY_POSET = (
    "[poset]\nstates: 11 01 10 00\n"
    "cover: 00 10\ncover: 00 01\ncover: 10 11\ncover: 01 11\n\n[chain]\n"
)


class TestExactSums:
    """--exact refuses a [chain] whose exact rows or nu do not sum to 1."""

    def test_decimal_pool_rows_are_refused(self, capsys, tmp_path):
        text = pool_spec(1)
        path = tmp_path / "pool1.spec"
        path.write_text(text)
        code, out, err = run(capsys, "check", "--input", str(path), "--exact")
        assert code == 1 and out == ""
        block = json.loads(err)
        assert block["error"] == "InexactSum" and block["exit"] == 1
        states = next(ln for ln in text.splitlines() if ln.startswith("states:")).split()[1:]
        rows = [ln.split()[1:] for ln in text.splitlines() if ln.startswith("row:")]
        sums = [sum(Fraction(v) for v in row) for row in rows]
        first = next(k for k, total in enumerate(sums) if total != 1)
        assert block["row"] == states[first]
        assert block["exact_sum"] == str(sums[first])
        assert str(sums[first]) in block["detail"]

    def test_float_run_is_unchanged(self, capsys, tmp_path):
        path = tmp_path / "pool1.spec"
        path.write_text(pool_spec(1))
        code, out, _ = run(capsys, "check", "--input", str(path))
        assert code == 0
        verdicts = {row[0]: row[1] for row in parse_table(out)[1]}
        assert verdicts["weak_down"] == verdicts["strong_stochastic"] == "true"

    def test_first_row_in_file_order_is_named(self, capsys, tmp_path):
        # the file lists 11 first, the enumeration 00; both rows are off by
        # less than the row tolerance
        path = tmp_path / "rows.spec"
        path.write_text(
            BOUNDARY_POSET + "row: 0.5 0.2 0.3 1e-13\nrow: 0.3 0.5 0 0.2\n"
            "row: 0.3 0 0.5 0.2\nrow: 0.1 0.1 0.1 0.7000000000000001\n"
        )
        code, _, err = run(capsys, "check", "--input", str(path), "--exact")
        assert code == 1
        block = json.loads(err)
        assert block["row"] == "11"
        assert block["exact_sum"] == "10000000000001/10000000000000"

    def test_explicit_nu_is_checked(self, capsys, tmp_path):
        rows = "row: 1/2 1/6 1/3 0\nrow: 1/6 1/2 0 1/3\nrow: 1/3 0 1/2 1/6\nrow: 0 1/3 1/6 1/2\n"
        path = tmp_path / "nu.spec"
        path.write_text(BOUNDARY_POSET + rows + "nu: 0.25 0.25 0.25 0.2500000000001\n")
        code, _, err = run(capsys, "dual", "--input", str(path), "--exact")
        assert code == 1
        block = json.loads(err)
        assert block["row"] == "nu"
        assert block["exact_sum"] == "10000000000001/10000000000000"
        path.write_text(BOUNDARY_POSET + rows + "nu: 0.1 0.2 0.3 0.4\n")
        code, out, err = run(capsys, "check", "--input", str(path), "--exact")
        assert code == 0 and err == ""


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

    def test_explicit_cube_nu_is_indexed_by_mask(self, capsys, tmp_path):
        # entry k of a [cube] nu vector is the mass of mask k: entry 3 is
        # state 110 (coordinates 1 and 2 set), not 001 as in an order by
        # weight
        cube = tmp_path / "cube.spec"
        cube.write_text(
            "[cube]\nd: 3\nalpha: 0.02 0.05 0.08\nbeta: 0.03 0.06 0.04\n"
            "nu: 1/2 0 0 1/2 0 0 0 0\n"
        )
        code, out, err = run(capsys, "sep", "--input", str(cube), "--horizon", "5")
        assert code == 0
        header, rows = parse_table(out)
        s = np.array([float(row[header.index("s")]) for row in rows])
        walk = md.nearest_neighbor_walk(
            md.CubeWalkParams(d=3, alpha=(0.02, 0.05, 0.08), beta=(0.03, 0.06, 0.04))
        )
        law = md.stationary(walk)

        def curve_from(state):
            nu = np.zeros(walk.size)
            nu[walk.poset.index((0, 0, 0))] = nu[walk.poset.index(state)] = 0.5
            return md.separation_curve(walk.with_nu(nu), law, 5).values

        assert np.abs(s - curve_from((1, 1, 0))).max() <= 1e-15
        assert np.abs(s - curve_from((0, 0, 1))).max() > 1e-2

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
        # the closed form reads neither tolerance, so the header names none
        assert not any(ln.startswith("# tolerances:") for ln in out.splitlines())
        code, flagged, err = run(
            capsys, "eig", "--input", spec("two_cube.spec"),
            "--tolerance-row", "0.5", "--tolerance-mono", "0.3", "--direction", "up",
        )
        assert code == 0, err
        assert flagged == out

    def test_cube_builds_no_walk_and_solves_no_law(self, capsys, monkeypatch):
        from mobiusdual import cli, cube

        calls = []

        def spy(module, name):
            original = getattr(module, name)

            def recording(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)

        for module in (cli, cube):
            spy(module, "nearest_neighbor_walk")
        spy(cli, "stationary")
        code, out, err = run(capsys, "eig", "--input", spec("four_cube.spec"))
        assert code == 0, err
        assert calls == []
        params = load_model(spec("four_cube.spec")).cube
        values = [float(x) for x in out.splitlines() if not x.startswith("#")]
        assert values == pytest.approx(
            convergence.cube_eigenvalues(params.alpha, params.beta), abs=1e-15
        )

    def test_cube_refuses_what_the_walk_refuses(self, capsys, tmp_path):
        # a walk that cannot hold is refused when its spec is read, by every
        # command that reads one, past the dense limit too
        negative = tmp_path / "negative.spec"
        negative.write_text("[cube]\nd: 2\nalpha: 0.6 0.6\nbeta: 0.1 0.1\n")
        with pytest.raises(NegativeHoldingProbability):
            load_model(str(negative))
        over = tmp_path / "cube14.spec"
        rates = " ".join(["0.5"] * (DENSE_CUBE_LIMIT + 1))
        over.write_text(f"[cube]\nd: {DENSE_CUBE_LIMIT + 1}\nalpha: {rates}\nbeta: {rates}\n")
        for path, detail in (
            (negative, "holding probability at state (0, 0) is -0.19999999999999996"),
            (over, f"holding probability at state {(0,) * 14!r} is -6.0"),
        ):
            for command in ("check", "dual", "sep", "eig", "cube", "avail", "simulate"):
                code, out, err = run(capsys, command, "--input", str(path))
                assert (code, out) == (1, ""), command
                assert json.loads(err) == {"error": "NegativeHoldingProbability",
                                           "exit": 1, "detail": detail}, command
        # eig reads no kernel, so it refuses only past the subset enumeration
        big = tmp_path / "cube21.spec"
        rates = " ".join(["0.01"] * 21)
        big.write_text(f"[cube]\nd: 21\nalpha: {rates}\nbeta: {rates}\n")
        code, out, err = run(capsys, "eig", "--input", str(big))
        block = json.loads(err)
        assert code == block["exit"] == 1 and out == ""
        assert block["error"] == "DimensionTooLarge"
        assert block["detail"] == "cube dimension must be in [1, 20]"

    def test_eig_reaches_past_the_dense_limit(self, capsys, tmp_path):
        d = DENSE_CUBE_LIMIT + 1
        rates = " ".join(["0.01"] * d)
        path = tmp_path / "cube.spec"
        path.write_text(f"[cube]\nd: {d}\nalpha: {rates}\nbeta: {rates}\n")
        code, out, err = run(capsys, "eig", "--input", str(path))
        assert code == 0, err
        assert len([x for x in out.splitlines() if not x.startswith("#")]) == 2**d

    def test_dual_diagonal_for_explicit_chain(self, capsys, tmp_path):
        # serialize the admissible cube walk as a dense chain, then read the
        # eigenvalues off the dual's diagonal
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
        assert "# tolerances: row=9.9999999999999998e-13 mono=1e-10" in out.splitlines()
        values = [float(x) for x in out.splitlines() if not x.startswith("#")]
        expected = sorted(md.cube_eigenvalues(params.alpha, params.beta), reverse=True)
        assert values == pytest.approx(expected, abs=1e-12)

    def test_up_dual_is_lower_triangular(self, capsys, tmp_path):
        # an up dual moves down the enumeration; its diagonal is the spectrum
        # all the same
        params = md.CubeWalkParams(d=3, alpha=(0.05, 0.1, 0.08), beta=(0.07, 0.04, 0.1))
        path = tmp_path / "chain.spec"
        path.write_text(serialize_chain(md.nearest_neighbor_walk(params)))
        values = {}
        for direction in ("down", "up"):
            code, out, err = run(
                capsys, "eig", "--input", str(path), "--direction", direction
            )
            assert code == 0, err
            assert "dual_diagonal" in out
            values[direction] = [
                float(x) for x in out.splitlines() if not x.startswith("#")
            ]
        assert values["up"] == pytest.approx(values["down"], abs=1e-12)
        expected = sorted(md.cube_eigenvalues(params.alpha, params.beta), reverse=True)
        assert values["up"] == pytest.approx(expected, abs=1e-12)

    def test_dual_moving_both_ways_is_refused(self, capsys, tmp_path, monkeypatch):
        # the down dual of a birth-death chain on a < b < c moves both up and
        # down the order (Diaconis and Fill 1990): no triangle to read
        path = tmp_path / "birth_death.spec"
        path.write_text(
            "[poset]\nstates: a b c\ncover: a b\ncover: b c\n\n"
            "[chain]\nrow: 0.6 0.4 0\nrow: 0.3 0.4 0.3\nrow: 0 0.4 0.6\n"
            "nu: delta_min\n"
        )
        orders = []
        move_order = convergence.move_order
        monkeypatch.setattr(
            convergence, "move_order",
            lambda rows, cols: orders.append(move_order(rows, cols)) or orders[-1],
        )
        code, out, err = run(capsys, "eig", "--input", str(path))
        assert code == 2
        block = json.loads(err)
        assert block["error"] == "PreconditionFailed"
        assert "dual is not triangular" in block["detail"]
        assert orders == [None]


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

    def test_dimension_above_dense_limit_is_a_typed_error(self, capsys, tmp_path):
        d = DENSE_CUBE_LIMIT + 1
        big = tmp_path / "cube.spec"
        rates = " ".join(["0.01"] * d)
        big.write_text(f"[cube]\nd: {d}\nalpha: {rates}\nbeta: {rates}\nnu: delta_min\n")
        code, out, err = run(capsys, "cube", "--input", str(big))
        assert code == 1
        assert json.loads(err)["error"] == "DimensionTooLarge"
        assert "Traceback" not in err


class TestAvail:
    @pytest.mark.parametrize("multiplier", ["nan", "inf"])
    def test_non_finite_multiplier_is_an_input_error(self, capsys, multiplier):
        code, out, err = run(
            capsys, "avail", "--input", spec("rates_single.spec"),
            "--multiplier", multiplier,
        )
        assert code == 1
        block = json.loads(err)
        assert block["error"] == "InputError"
        assert "finite" in block["detail"]

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
        # per-node rates with single moves make the chain a cube walk, whose
        # reports and dual are read off its flip rates
        assert "# dual_path: closed_form" in out.splitlines()
        # the header, then the notion table, then the curve after a blank line
        header, rows = parse_table(out.split("\n\n")[0])
        assert header[0] == "notion"
        assert [float(row[2]) for row in rows] == [0.0] * 4

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(
            capsys, "avail", "--input", spec("rates.spec"), "--multiplier", "2.0"
        )
        code2, out2, _ = run(
            capsys, "avail", "--input", spec("rates.spec"), "--multiplier", "2.0"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    @staticmethod
    def assert_too_large(capsys, tmp_path, moves):
        big = tmp_path / "rates.spec"
        big.write_text(f"[rates]\nd: {DENSE_CUBE_LIMIT + 1}\nmoves: {moves}\n"
                       "psi: power 0.5\nphi: power 2\n")
        code, out, err = run(capsys, "avail", "--input", str(big))
        assert code == 1
        block = json.loads(err)
        assert block["error"] == "DimensionTooLarge"
        # refused while the spec is parsed, at the line of d
        assert block["line"] == 2 and "stage" not in block
        assert "Traceback" not in err

    def test_dimension_above_dense_limit_is_a_typed_error(self, capsys, tmp_path):
        self.assert_too_large(capsys, tmp_path, "all")

    def test_walk_shaped_dimension_above_dense_limit(self, capsys, tmp_path):
        # a single-move power network is walk-shaped: it is refused the same way
        self.assert_too_large(capsys, tmp_path, "single")

    def test_computed_reversal_reports(self, capsys, tmp_path):
        # the law spans 300 orders of magnitude, so the balance certificate
        # fails and the reversed rows are read off the computed reversal
        path = tmp_path / "unbalanced.spec"
        path.write_text("[rates]\nd: 2\nmoves: all\n"
                        "psi: table\npsi[0]: 1\npsi[1]: 1\npsi[2]: 1\npsi[3]: 1e150\n"
                        "phi: table\nphi[0]: 1e150\nphi[1]: 1\nphi[2]: 1\nphi[3]: 1\n")
        code, out, err = run(capsys, "avail", "--input", str(path), "--multiplier", "2")
        assert code == 0, err
        assert "# stationary_path: gth" in out.splitlines()
        assert "# sst_bound_ok: true" in out.splitlines()
        header, rows = parse_table(out.split("\n\n")[0])
        assert header == list(cli.NOTION_COLUMNS)
        assert rows == [
            ["mobius_down", "true", "-5e-151", "00,10", "1e-10"],
            ["mobius_up", "true", "-5e-151", "10,00", "1e-10"],
            ["reversed_mobius_down", "true", "-5.0000000000000007e-151", "00,10", "1e-10"],
            ["reversed_mobius_up", "true", "-5.5511151231257827e-17", "10,00", "1e-10"],
        ]

    def test_tolerance_mono_reaches_every_verdict(self, capsys):
        code, out, err = run(
            capsys, "avail", "--input", spec("rates_single.spec"),
            "--multiplier", "2.0", "--tolerance-mono", "1e-9",
        )
        assert code == 0
        header, rows = parse_table(out.split("\n\n")[0])
        assert header[0] == "notion"
        assert len(rows) == 4
        assert all(float(row[4]) == 1e-9 for row in rows)


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

    @pytest.mark.parametrize("line, bad", [
        ("d: x", "'x'"),
        ("d: 0", "'0'"),
        ("d: 3 4", "'3 4'"),
        ("alpha: 0.04 0.05 x", "'x'"),
        ("alpha: 0.04 0.05 0.1", "'0.1'"),
        ("alpha: 0.04 0.05 0", "'0'"),
        ("alpha: 0.04 0.05 -2", "'-2'"),
    ])
    def test_bad_integers_are_schema_errors(self, capsys, tmp_path, line, bad):
        lines = ["[sweep]", "d: 3", "alpha: 0.04 0.05 2", "beta: 0.04 0.05 2"]
        at = 1 if line.startswith("d:") else 2
        lines[at] = line
        sweep = tmp_path / "sweep.spec"
        sweep.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "sweep", "--input", str(sweep))
        assert code == 1 and out == ""
        block = json.loads(err)
        assert block["error"] == "SchemaError"
        assert block["line"] == at + 1
        assert block["detail"].endswith(f"must be a positive integer, got {bad}")

    def test_verdict_and_dual_agree_at_loose_tolerance(self, capsys, tmp_path):
        # at --tolerance-mono 0.2 the dual's preconditions are decided at 0.2
        # too, so a true reversed-kernel verdict never sits beside a failed
        # dual; points that pass only thanks to the loose tolerance give a
        # dual with negative mass, reported in the status column
        sweep = tmp_path / "sweep.spec"
        sweep.write_text(
            "[sweep]\nd: 3\nalpha: 0.02 0.08 3\nbeta: 0.02 0.08 3\nkappa: 0 0.02 3\n"
        )
        code, out, err = run(
            capsys, "sweep", "--input", str(sweep), "--tolerance-mono", "0.2"
        )
        assert code == 0
        assert "mono=0.20000000000000001" in out
        header, rows = parse_table(out)
        assert len(rows) == 27
        for row in rows:
            assert (row[4] == "true") == (row[6] == "true"), row
        assert {"ok", "NumericalFailure"} <= {row[3] for row in rows}
        assert any(row[3] == "ok" and row[4] == "false" for row in rows)

    def test_row_tolerance_is_honoured(self, capsys, tmp_path):
        # the walk's rows sum to 1 only within rounding, as check reports
        sweep = tmp_path / "sweep.spec"
        sweep.write_text("[sweep]\nd: 3\nalpha: 0.1 0.1 1\nbeta: 0.05 0.05 1\n")
        rows = {}
        for tol in ("1e-12", "0"):
            code, out, _ = run(capsys, "sweep", "--input", str(sweep), "--tolerance-row", tol)
            assert code == 0
            rows[tol] = parse_table(out)[1]
        assert rows["1e-12"][0][3:5] == ["ok", "true"]
        assert rows["0"][0][3:] == ["NotStochastic", "-", "nan", "false"]


def notion_rows(out):
    """The five rows of the notion table in check or cube output."""
    lines = out.splitlines()
    start = lines.index("notion\tverdict\tworst_value\twitness\ttolerance") + 1
    return [ln.split("\t") for ln in lines[start:start + 5]]


def library_rows(chain):
    """The notion rows of ``chain`` from the five library reports, the
    strong one ``skipped`` past the up-set cap."""
    zm = md.zeta_mobius(chain.poset)
    reports = [
        monotonicity.mobius_monotone_down(chain, zm),
        monotonicity.mobius_monotone_up(chain, zm),
        monotonicity.weak_monotone(chain, zm, "down"),
        monotonicity.weak_monotone(chain, zm, "up"),
    ]
    try:
        reports.append(monotonicity.strong_stochastic_monotone(chain))
    except UpSetExplosion:
        return cli._report_rows(reports) + [
            ["strong_stochastic", "skipped", "nan", "-", "1e-10"]]
    return cli._report_rows(reports)


class TestCubeTransforms:
    @pytest.mark.parametrize("command", ["check", "cube"])
    def test_no_transform_on_a_walk(self, capsys, monkeypatch, command):
        # the verdict rows and the dual read the walk's flip rates
        def refuse(*args, **kwargs):
            raise AssertionError("mobius_transform called")

        monkeypatch.setattr(monotonicity, "mobius_transform", refuse)
        code, out, err = run(capsys, command, "--input", spec("four_cube.spec"))
        assert code == 0, err
        assert len(notion_rows(out)) == 5
        if command == "cube":
            lines = out.splitlines()
            assert "# direction: down" in lines
            assert "# absorbing_state: 1111" in lines
            assert "# dual_path: closed_form" in lines


class TestNotionTable:
    """check and cube print the notion rows exactly as the library
    reports them."""

    @pytest.mark.parametrize("command", ["check", "cube"])
    @pytest.mark.parametrize("name", ["two_cube.spec", "three_cube.spec",
                                      "four_cube.spec"])
    def test_cube_specs(self, capsys, command, name):
        code, out, err = run(capsys, command, "--input", spec(name))
        assert code == 0, err
        walk = md.nearest_neighbor_walk(load_model(spec(name)).cube)
        assert notion_rows(out) == library_rows(walk)

    @pytest.mark.parametrize("total", [0.6, 1.2])
    @pytest.mark.parametrize("command", ["check", "cube"])
    def test_eight_cube_walk(self, capsys, tmp_path, command, total):
        w = np.random.default_rng(8).uniform(0.5, 1.5, 16)
        w *= total / w.sum()
        alpha, beta = (" ".join(repr(float(v)) for v in half) for half in (w[:8], w[8:]))
        path = tmp_path / "cube8.spec"
        path.write_text(f"[cube]\nd: 8\nalpha: {alpha}\nbeta: {beta}\n")
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 0, err
        rows = notion_rows(out)
        assert rows == library_rows(md.nearest_neighbor_walk(load_model(str(path)).cube))
        assert [r[1] for r in rows] == [str(total <= 1).lower()] * 4 + ["skipped"]


class TestCubeRowTolerance:
    @pytest.mark.parametrize("command", ["check", "sep"])
    def test_walk_validated_at_the_row_tolerance(self, capsys, tmp_path, command):
        # these walk rows sum to 1 only within rounding
        path = tmp_path / "cube.spec"
        path.write_text("[cube]\nd: 3\nalpha: 0.1 0.1 0.1\nbeta: 0.05 0.05 0.05\n")
        assert run(capsys, command, "--input", str(path))[0] == 0
        code, _, err = run(capsys, command, "--input", str(path), "--tolerance-row", "0")
        assert code == 1 and json.loads(err)["error"] == "NotStochastic"


class TestUsageErrors:
    """Usage errors are input errors: exit 1 with a JSON block."""

    @pytest.mark.parametrize("argv, detail", [
        (("check",), "required: --input"),
        (("dual", "--input", "x.spec", "--direction", "sideways"), "invalid choice"),
        ((), "required: command"),
        (("simulate", "--input", spec("two_cube.spec"), "--samples", "0"),
         "samples must be >= 1"),
        (("check", "--input", spec("two_cube.spec"), "--horizon", "5"),
         "unrecognized arguments: --horizon 5"),
        (("avail", "--input", spec("rates.spec"), "--tolerance", "1e-3"),
         "unrecognized arguments: --tolerance 1e-3"),
    ])
    def test_exit_one_with_error_block(self, capsys, argv, detail):
        code, out, err = run(capsys, *argv)
        block = json.loads(err)
        assert code == block["exit"] == 1 and out == ""
        assert block["error"] == "InputError" and detail in block["detail"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0
        assert "--input" in capsys.readouterr().out


RATES = b"[rates]\nd: 2\nphi: power 2\n"
WALK = b"[cube]\nd: 2\nalpha: 0.1 0.1\nbeta: 0.1 0.1\nnu: delta_min\n"
GRID = b"[sweep]\nd: 2\nalpha: 0.01 0.02 3\nbeta: 0.01 0.02 2\n"


class TestMalformedSpecs:
    """A spec that cannot be read as numbers, values or text is a
    SchemaError, at its line where one is known, never a traceback."""

    @pytest.mark.parametrize("command, body, line", [
        ("avail", RATES + b"psi: power 0.5\nmoves:\n", 5),
        ("avail", RATES + b"psi:\n", 4),
        ("avail", RATES + b"psi: power\n", 4),
        ("avail", RATES + b"psi: power 0.5\npsi[1]:\n", 5),
        ("cube", WALK.replace(b"alpha: 0.1", b"alpha: 1e400"), 3),
        ("check", b"[poset]\nstates: a b\ncover: a b\n\n[chain]\n"
                  b"row: 1e400 0.5\nrow: 0.5 0.5\n", 6),
        ("avail", RATES + b"psi: power 1e400\n", 4),
        ("avail", RATES + b"psi: power 0.5\npsi[1]: 1e400\n", 5),
        ("sweep", GRID.replace(b"0.02 3", b"1e400 3"), 3),
        ("cube", WALK.replace(b"nu:", b"# caf\xe9\nnu:"), 5),
        ("sweep", b"# caf\xe9\n" + GRID, 1),
        ("check", b"[chain]\nposet_file: model.spec\nrow: 1\n", 2),
    ], ids=["moves", "family", "power_base", "mask_value", "cube_rate",
            "chain_row", "power_overflow", "mask_overflow", "sweep_grid",
            "spec_bytes", "sweep_bytes", "poset_file_self"])
    def test_schema_error_block(self, capsys, tmp_path, command, body, line):
        path = tmp_path / "model.spec"
        path.write_bytes(body)
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.count("\n") == 1
        block = json.loads(err)
        assert block["error"] == "SchemaError" and block["line"] == line


# The flags each command reads besides --input and --output; every other
# flag is a usage error.
VERDICT_FLAGS = ("--tolerance-row", "--tolerance-mono", "--exact")
CURVE_FLAGS = ("--direction", "--horizon", "--stop-below")
COMMAND_FLAGS = {
    "check": VERDICT_FLAGS,
    "dual": ("--direction", *VERDICT_FLAGS),
    "sep": (*CURVE_FLAGS, *VERDICT_FLAGS),
    "eig": ("--direction", *VERDICT_FLAGS),
    "cube": (*CURVE_FLAGS, *VERDICT_FLAGS),
    "avail": (*CURVE_FLAGS, "--multiplier", "--tolerance-mono", "--exact"),
    "sweep": VERDICT_FLAGS,
    "simulate": ("--direction", "--horizon", "--seed", "--samples", *VERDICT_FLAGS),
}
FLAG_VALUES = {
    "--input": "model.spec", "--output": "out.txt", "--direction": "up",
    "--horizon": "7", "--seed": "3", "--samples": "9",
    "--tolerance-row": "1e-09", "--tolerance-mono": "1e-08", "--exact": None,
    "--multiplier": "2.5", "--stop-below": "0.001",
}


class TestSizeRefusals:
    """User-given sizes are refused as typed input errors before anything is
    allocated.  Each case runs in a child process whose address space is
    capped, so a size that slipped through would fail there, not exhaust
    the host."""

    # the child caps its own address space (2 GiB) before it imports the CLI
    CAPPED = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from mobiusdual.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")

    @classmethod
    def run_capped(cls, *argv):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", cls.CAPPED, *argv], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1 and done.stdout == "", done.stderr
        assert "Traceback" not in done.stderr
        block = json.loads(done.stderr)
        assert block["exit"] == 1
        return block

    @pytest.mark.parametrize("psi", [
        "psi: power 0.5",
        "psi: pernode " + " ".join(["0.5"] * 40),
        "psi: table\npsi[0]: 1",
    ])
    def test_rates_dimension(self, tmp_path, psi):
        path = tmp_path / "rates.spec"
        path.write_text(f"[rates]\nd: 40\n{psi}\nphi: power 2\n")
        block = self.run_capped("avail", "--input", str(path))
        assert block["error"] == "DimensionTooLarge" and block["line"] == 2
        assert f"[1, {DENSE_CUBE_LIMIT}]" in block["detail"]

    def test_simulate_samples(self):
        block = self.run_capped("simulate", "--input", spec("two_cube.spec"),
                                "--samples", "10000000000")
        assert block["error"] == "InputError"
        assert block["detail"] == (f"samples must be <= {convergence.MAX_SAMPLES}, "
                                   "got 10000000000")

    @pytest.mark.parametrize("alpha, beta", [
        (2, 10000000000),
        (1001, 1000),       # each axis is within the bound, the grid is not
    ])
    def test_sweep_points(self, tmp_path, alpha, beta):
        from mobiusdual.specfile import MAX_SWEEP_POINTS

        path = tmp_path / "sweep.spec"
        path.write_text(f"[sweep]\nd: 3\nalpha: 0.01 0.1 {alpha}\n"
                        f"beta: 0.01 0.1 {beta}\n")
        block = self.run_capped("sweep", "--input", str(path))
        assert block["error"] == "DimensionTooLarge" and block["line"] == 4
        assert str(MAX_SWEEP_POINTS) in block["detail"]


class TestCountRefusals:
    """--horizon and --samples out of range are refused before any model
    is loaded, with the library's error classes and details."""

    HORIZON = f"horizon must be in [0, {convergence.MAX_HORIZON}]"

    @pytest.mark.parametrize("command, flag, value, error, detail", [
        ("sep", "--horizon", "-1", "HorizonTooLarge", HORIZON),
        ("cube", "--horizon", "-1", "HorizonTooLarge", HORIZON),
        ("avail", "--horizon", "20000000", "HorizonTooLarge", HORIZON),
        ("simulate", "--horizon", "-1", "HorizonTooLarge", HORIZON),
        ("simulate", "--samples", "20000000", "InputError",
         f"samples must be <= {convergence.MAX_SAMPLES}, got 20000000"),
        ("simulate", "--samples", "0", "InputError", "samples must be >= 1"),
    ])
    def test_refused_before_loading(self, capsys, monkeypatch, command, flag,
                                    value, error, detail):
        def refuse(*args, **kwargs):
            raise AssertionError("load_model called")

        monkeypatch.setattr(cli, "load_model", refuse)
        model = spec("rates.spec" if command == "avail" else "two_cube.spec")
        code, out, err = run(capsys, command, "--input", model, flag, value)
        block = json.loads(err)
        assert code == block["exit"] == 1 and out == ""
        assert block["error"] == error and block["detail"] == detail

    @pytest.mark.parametrize("command", ["sep", "cube", "simulate"])
    def test_bounds_are_admitted(self, capsys, command):
        argv = [command, "--input", spec("two_cube.spec"), "--horizon", "0"]
        if command == "simulate":
            argv += ["--samples", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err


class TestFlagContract:
    """Each command accepts --input, --output and the flags it reads."""

    @staticmethod
    def accepts(command, flag):
        return flag in ("--input", "--output") or flag in COMMAND_FLAGS[command]

    @pytest.mark.parametrize("flag", list(FLAG_VALUES))
    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_pair(self, command, flag):
        value = FLAG_VALUES[flag]
        argv = [command, "--input", "model.spec"]
        if flag != "--input":
            argv += [flag] if value is None else [flag, value]
        if not self.accepts(command, flag):
            with pytest.raises(InputError, match=f"unrecognized arguments: {flag}"):
                build_parser().parse_args(argv)
            return
        args = build_parser().parse_args(argv)
        parsed = getattr(args, flag[2:].replace("-", "_"))
        assert parsed is True if value is None else str(parsed) == value

    def test_fifty_five_accepted_pairs(self):
        pairs = [(c, f) for c in COMMAND_FLAGS for f in FLAG_VALUES if self.accepts(c, f)]
        assert len(COMMAND_FLAGS) * len(FLAG_VALUES) == 88
        assert len(pairs) == 55

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_lists_only_the_command_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        words = capsys.readouterr().out.split()
        listed = {f for f in FLAG_VALUES if f in words}
        assert listed == {f for f in FLAG_VALUES if self.accepts(command, f)}


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
        assert exit_code(SingularFundamentalMatrix("x")) == 3
        assert exit_code(NumericalFailure("x")) == 3


def _error_classes(cls=errors.MobiusDualError):
    """``cls`` and every class below it."""
    return [cls] + [sub for c in cls.__subclasses__() for sub in _error_classes(c)]


# A value for every field some error class declares, and the JSON keys and
# values the error block writes for it.
FIELD_VALUES = {
    "line": (3, {"line": 3}),
    "field": ("alpha", {"field": "alpha"}),
    "row": ("a", {"row": "a"}),
    "exact_sum": ("7/6", {"exact_sum": "7/6"}),
    "witness": (("a", (0, 1)), {"witness": ["a", "01"]}),
    "pair": (((1, 0), "b"), {"pair": ["10", "b"]}),
    "period": (2, {"period": 2}),
    "report": (
        md.MonotonicityReport("mobius_down", False, -0.25, None, 1e-12),
        {"notion": "mobius_down", "worst_value": "-0.25"},
    ),
}


class TestErrorFields:
    """Each error class declares the fields it keeps, and the JSON error
    block writes exactly those that are set, plus the pipeline stage."""

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
    def test_block_holds_the_declared_fields(self, cls):
        exc = cls("boom", **{name: FIELD_VALUES[name][0] for name in cls.fields})
        want = {"error": cls.__name__, "exit": errors.exit_code(exc), "detail": "boom"}
        for name in cls.fields:
            want.update(FIELD_VALUES[name][1])
        assert json.loads(cli._error_block(exc)) == want
        exc.stage = "dual"
        assert json.loads(cli._error_block(exc)) == {**want, "stage": "dual"}

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
    def test_unset_fields_are_none_and_left_out(self, cls):
        exc = cls("boom")
        assert all(getattr(exc, name) is None for name in cls.fields)
        assert json.loads(cli._error_block(exc)) == {
            "error": cls.__name__, "exit": errors.exit_code(exc), "detail": "boom"}

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
    def test_undeclared_keyword_is_a_type_error(self, cls):
        for name in ("bogus", *FIELD_VALUES.keys() - set(cls.fields)):
            with pytest.raises(TypeError):
                cls("boom", **{name: FIELD_VALUES.get(name, (1,))[0]})

    def test_fields_are_declared_where_the_package_sets_them(self):
        declared = {c.__name__: c.fields for c in _error_classes() if c.fields}
        assert declared == {
            "DimensionTooLarge": ("line",),
            "InexactSum": ("row", "exact_sum"),
            "SchemaError": ("line", "field"),
            "CycleError": ("witness",),
            "NotIrreducible": ("pair",),
            "NotAperiodic": ("period",),
            "PreconditionFailed": ("report",),
        }


# Runs each argv list of argv[2] (JSON) through main in one process, with
# scipy unimportable when argv[1] is "blocked", and prints [exit code or
# uncaught exception, stdout, stderr] per run as one JSON line.
CLI_DRIVER = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from mobiusdual.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = repr(exc)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


class TestImport:
    @staticmethod
    def run_fresh(code, *args):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", code, *args], env=env, capture_output=True,
            text=True, check=True,
        )
        return done.stdout.strip().splitlines()[-1]

    def test_cli_import_leaves_scipy_unloaded(self):
        last = self.run_fresh(
            "import sys, mobiusdual.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        assert last == "[]"

    def test_simulate_never_imports_scipy_stats(self):
        last = self.run_fresh(
            "import sys\n"
            "from mobiusdual.cli import main\n"
            f"code = main(['simulate', '--input', {spec('two_cube.spec')!r}, "
            "'--samples', '500', '--seed', '3', '--horizon', '10'])\n"
            "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        assert last == "0 []"

    def test_every_command_gives_the_same_output_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: with scipy unimportable every
        # command prints what it prints with scipy installed
        sweep = tmp_path / "sweep.spec"
        sweep.write_text("[sweep]\nd: 3\nalpha: 0.02 0.08 2\nbeta: 0.02 0.08 2\n"
                         "kappa: 0 0.01 2\n")
        inputs = sorted(glob.glob(os.path.join(DATA, "*.spec"))) + [str(sweep)]
        runs = [[name, "--input", path] for name, *_ in COMMANDS for path in inputs]
        blocked, present = (
            json.loads(self.run_fresh(CLI_DRIVER, side, json.dumps(runs)))
            for side in ("blocked", "present")
        )
        assert blocked == present
        assert {argv[0] for argv, (code, _, _) in zip(runs, blocked) if code == 0} == {
            name for name, *_ in COMMANDS
        }

    def test_check_and_cube_never_import_scipy(self):
        last = self.run_fresh(
            "import sys\n"
            "from mobiusdual.cli import main\n"
            f"codes = [main(['check', '--input', {spec('strong_not_mobius.spec')!r}]), "
            f"main(['cube', '--input', {spec('three_cube.spec')!r}])]\n"
            "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        assert last == "[0, 0] []"


CUBE_3 = """[cube]
d: 3
alpha: 0.05 0.07 0.03
beta: 0.04 0.08 0.02
"""

CHAIN_2 = """[poset]
states: 00 10 01 11
cover: 00 10
cover: 00 01
cover: 10 11
cover: 01 11

[chain]
row: 0.7 0.1 0.2 0
row: 0.15 0.65 0 0.2
row: 0.25 0 0.65 0.1
row: 0 0.25 0.15 0.6
"""

MODELS = {
    "cube_stationary": CUBE_3 + "nu: stationary\n",
    "chain_stationary": CHAIN_2 + "nu: stationary\n",
    "chain_no_nu": CHAIN_2,
}


class TestStationaryOnce:
    """Each command solves for the stationary law once, also when the spec's
    ``nu: stationary`` needs it before the command does."""

    @pytest.mark.parametrize("command, model", [
        ("sep", "cube_stationary"),
        ("dual", "cube_stationary"),
        ("cube", "cube_stationary"),
        ("simulate", "cube_stationary"),
        ("sep", "chain_stationary"),
        ("dual", "chain_stationary"),
        ("simulate", "chain_stationary"),
        ("eig", "chain_stationary"),
        ("eig", "chain_no_nu"),
    ])
    def test_one_solve(self, capsys, monkeypatch, tmp_path, command, model):
        from mobiusdual import cli

        calls = []

        def counted(chain):
            calls.append(chain)
            return md.stationary(chain)

        monkeypatch.setattr(cli, "stationary", counted)
        path = tmp_path / "model.spec"
        path.write_text(MODELS[model])
        samples = ("--samples", "200") if command == "simulate" else ()
        code, _, err = run(capsys, command, "--input", str(path), *samples)
        assert code == 0, err
        assert len(calls) == 1


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


SPECS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(DATA, "*.spec")))
SWEEP = "[sweep]\nd: 3\nalpha: 0.04 0.05 2\nbeta: 0.04 0.05 2\nkappa: 0 0.02 2\n"


def header_facts(out):
    """The ``# key: value`` header lines after ``# mobiusdual <command>``,
    as (key, value) pairs in order."""
    lines = [ln[2:] for ln in out.splitlines() if ln.startswith("# ")]
    assert lines[0].startswith("mobiusdual ")
    facts = [ln.split(": ", 1) for ln in lines[1:]]
    assert all(len(f) == 2 and f[0] for f in facts), lines
    return [tuple(f) for f in facts]


def dual_block(out):
    """The seven dual lines of a command's header, from ``# direction:``."""
    lines = out.splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith("# direction: "))
    return lines[at:at + 7]


def dual_output_block(capsys, path, *flags):
    """The header that ``dual --output`` writes, without ``# dual chain``
    and after any exact note."""
    code, out, err = run(capsys, "dual", "--input", str(path), *flags)
    assert code == 0, err
    lines = out.splitlines()
    at = lines.index("# dual chain")
    return lines[at + 1:lines.index("[poset]")]


class TestOneFormat:
    """Every command but dual prints one ``key: value`` fact per header line,
    and a dual's facts as ``dual --output`` writes them."""

    VARIANTS = ((), ("--direction", "up"), ("--exact",))

    @pytest.mark.parametrize("command", ["check", "sep", "eig", "cube", "avail",
                                         "simulate"])
    @pytest.mark.parametrize("name", SPECS)
    def test_header_lines_are_unique_facts(self, capsys, command, name):
        extra = {"avail": ("--multiplier", "2"), "simulate": ("--samples", "200")}
        takes_direction = "--direction" in {c[0]: c[3] for c in COMMANDS}[command]
        for variant in self.VARIANTS:
            if variant[:1] == ("--direction",) and not takes_direction:
                continue
            code, out, err = run(capsys, command, "--input", spec(name),
                                 *extra.get(command, ()), *variant)
            if code != 0:
                assert out == ""
                continue
            keys = [k for k, _ in header_facts(out)]
            assert len(keys) == len(set(keys)), keys

    def test_sweep_header(self, capsys, tmp_path):
        path = tmp_path / "sweep.spec"
        path.write_text(SWEEP)
        code, out, err = run(capsys, "sweep", "--input", str(path))
        assert code == 0, err
        assert [k for k, _ in header_facts(out)] == ["input", "tolerances", "d"]

    @pytest.mark.parametrize("command", ["sep", "cube", "simulate"])
    @pytest.mark.parametrize("name", ["two_cube.spec", "three_cube.spec",
                                      "four_cube.spec"])
    @pytest.mark.parametrize("flags", [(), ("--exact",)])
    def test_dual_block_is_the_dual_output_header(self, capsys, command, name,
                                                  flags):
        samples = ("--samples", "200") if command == "simulate" else ()
        code, out, err = run(capsys, command, "--input", spec(name),
                             *samples, *flags)
        assert code == 0, err
        assert dual_block(out) == dual_output_block(capsys, spec(name), *flags)

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_eig_dual_block_on_a_chain(self, capsys, tmp_path, direction):
        params = md.CubeWalkParams(d=3, alpha=(0.05, 0.1, 0.08),
                                   beta=(0.07, 0.04, 0.1))
        path = tmp_path / "chain.spec"
        path.write_text(serialize_chain(md.nearest_neighbor_walk(params)))
        flags = ("--direction", direction)
        code, out, err = run(capsys, "eig", "--input", str(path), *flags)
        assert code == 0, err
        # eig gives the chain the stationary law as nu; so does the spec here
        with_nu = tmp_path / "with_nu.spec"
        with_nu.write_text(path.read_text() + "nu: stationary\n")
        assert dual_block(out) == dual_output_block(capsys, with_nu, *flags)
        keys = [k for k, _ in header_facts(out)]
        assert keys.index("source") < keys.index("stationary_path") < keys.index(
            "direction")

    def test_avail_dual_block(self, capsys):
        code, out, err = run(capsys, "avail", "--input", spec("rates_single.spec"),
                             "--multiplier", "2")
        assert code == 0, err
        report = md.availability_pipeline(
            load_model(spec("rates_single.spec")).rates, multiplier=2.0,
            single_moves_only=True,
        )
        text = md.specfile.serialize_dual(report.dual, report.chain.poset)
        assert dual_block(out) == text.splitlines()[1:8]

    def test_sep_without_a_dual_says_why(self, capsys):
        code, out, err = run(capsys, "sep", "--input", spec("strong_not_mobius.spec"))
        assert code == 0, err
        facts = dict(header_facts(out))
        assert facts["skipped"].startswith("dual (PreconditionFailed: ")
        assert "direction" not in facts
        header, rows = parse_table(out)
        assert {row[header.index("tail")] for row in rows} == {"nan"}

    def test_cube_without_a_dual_prints_no_curve(self, capsys):
        code, out, err = run(capsys, "cube", "--input", spec("two_cube.spec"),
                             "--direction", "up")
        assert code == 0, err
        facts = dict(header_facts(out))
        assert facts["skipped"].startswith("dual (PreconditionFailed: ")
        assert "horizon" not in facts
        assert len(notion_rows(out)) == 5 and "\n\n" not in out

    def test_skipped_reasons_share_one_line(self, capsys, tmp_path, monkeypatch):
        # a small cap skips the strong row of the 6-cube; the up dual of a
        # walk from delta_min fails its initial-law precondition
        monkeypatch.setattr(monotonicity, "UPSET_CAP", 1000)
        path = tmp_path / "cube.spec"
        path.write_text(TestStationaryPath.SPECS["cube"])
        code, out, err = run(capsys, "cube", "--input", str(path),
                             "--direction", "up")
        assert code == 0, err
        skipped = [v for k, v in header_facts(out) if k == "skipped"]
        assert len(skipped) == 1
        assert skipped[0].startswith(
            "strong_stochastic (UpSetExplosion: more than 1000 up-sets); "
            "dual (PreconditionFailed: ")

    @pytest.mark.parametrize("command, flags", [
        ("sep", ()), ("cube", ()), ("simulate", ("--samples", "200")),
        ("avail", ("--multiplier", "2")),
    ])
    def test_header_order(self, capsys, command, flags):
        name = "rates_single.spec" if command == "avail" else "three_cube.spec"
        code, out, err = run(capsys, command, "--input", spec(name), *flags,
                             "--exact")
        assert code == 0, err
        keys = [k for k, _ in header_facts(out)]
        assert keys[:4] == ["input", "model", "tolerances", "exact"]
        assert keys.index("stationary_path") < keys.index("direction")
        assert keys[-1] == "horizon"
        tables = out.split("\n\n")
        assert len(tables) == (2 if command in ("cube", "avail") else 1)
        assert parse_table(tables[-1])[0] == list(cli.CURVE_COLUMNS)


class TestKeyRuleBlocks:
    """A repeated or stray key, or a [cube] rate line of the wrong length,
    is a SchemaError block with its line and key."""

    @pytest.mark.parametrize("command, body, line, field", [
        ("check", "[poset]\nstates: a b\nstates: a b\n", 3, "states"),
        ("cube", WALK.decode() + "d: 3\n", 6, "d"),
        ("avail", RATES.decode() + "psi[3]: 1\npsi[0b11]: 7\n", 5, "psi[0b11]"),
        ("cube", WALK.decode() + "alpha[0]: 0.5\n", 6, "alpha[0]"),
        ("sweep", GRID.decode() + "d: 2\n", 5, "d"),
        ("avail", "[rates]\nd: 2\npsi: pernode 0.1\nphi: power 2\n", 3, "psi"),
        ("check", "[cube]\nd: 2\nalpha: 0.1\nbeta: 0.1 0.1\n", 3, "alpha"),
        ("check", "[cube]\nd: 2\nalpha: 0.1 0.1\nbeta: 0.1 0.1 0.1\n", 4, "beta"),
        ("check", "[cube]\nd: 2\nalpha: 0.1\nbeta: 0.1\n", 3, "alpha"),
    ], ids=["states", "cube_d", "mask", "subscript", "sweep_d", "pernode",
            "short_alpha", "long_beta", "alpha_first"])
    def test_block_carries_line_and_field(self, capsys, tmp_path, command, body,
                                          line, field):
        path = tmp_path / "model.spec"
        path.write_text(body)
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 1 and out == ""
        block = json.loads(err)
        assert block["error"] == "SchemaError"
        assert (block["line"], block["field"]) == (line, field)


class TestPreconditionDetail:
    """The worst value in a failed dual's message is the block's worst_value."""

    @pytest.mark.parametrize("name, flags", [
        ("two_cube.spec", ("--direction", "up")),
        ("strong_not_mobius.spec", ()),
    ])
    def test_detail_number_is_worst_value(self, capsys, name, flags):
        code, out, err = run(capsys, "dual", "--input", spec(name), *flags)
        block = json.loads(err)
        assert code == 2 and block["error"] == "PreconditionFailed"
        assert block["detail"].endswith(f"(worst {block['worst_value']})")

    def test_skipped_line_prints_the_same_value(self, capsys):
        code, out, _ = run(capsys, "sep", "--input", spec("two_cube.spec"),
                           "--direction", "up")
        assert code == 0
        assert ("# skipped: dual (PreconditionFailed: nu/pi is not "
                "up-Mobius monotone (worst -4))\n") in out
