"""Each benchmark check accepts a genuine result and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q

Genuine results come from the same library calls the worker makes, on small
instances (d = 4 cubes and networks), so a check that passes anything fails
here.
"""

import contextlib
import io
import os
import shutil

import numpy as np
import pytest

import checks
import worker
import workloads
import mobiusdual as md
from mobiusdual import cli
from mobiusdual.specfile import load_model

HORIZON = 40
ROOT = os.path.dirname(workloads.HERE)


@pytest.fixture
def out_dir():
    path = os.path.join(workloads.HERE, "out", f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def corrupt(res, key, fn):
    """Deep-enough copy of a result dict with one entry replaced by fn(entry)."""
    out = dict(res)
    out[key] = fn(res[key])
    return out


@pytest.fixture(scope="module")
def cube():
    alpha, beta = workloads.walk_rates(np.random.default_rng(7), 4)
    params = md.CubeWalkParams(d=4, alpha=tuple(alpha), beta=tuple(beta))
    res = worker._cube_walk(md, params, {"horizon": HORIZON})
    ref = checks.CubeReference(checks.cube_walk_kernel(alpha, beta),
                               checks.cube_product_law(alpha, beta), alpha + beta, HORIZON)
    return ref, res, alpha, beta


def test_cube_walk_genuine(cube):
    ref, res, *_ = cube
    assert checks.check_cube_walk(ref, res) == []


def _bump(vec, i, factor):
    vec = np.array(vec, dtype=float)
    vec[i] *= factor
    return vec


def _dual_with(res, fn):
    dual = dict(res["dual"])
    dual["P_star"] = fn(np.array(res["dual"]["P_star"]))
    return corrupt(res, "dual", lambda _: dual)


def _move(P, x, src, dst, amount):
    P[x, src] -= amount
    P[x, dst] += amount
    return P


def test_perturbed_stationary_law_rejected(cube):
    ref, res, *_ = cube
    bad = corrupt(res, "pi", lambda pi: _bump(pi, 3, 1 + 1e-6))
    assert any("stationary law" in p for p in checks.check_cube_walk(ref, bad))


def test_dual_row_moved_downward_rejected(cube):
    ref, res, *_ = cube
    elements = list(res["elements"])
    x, up = elements.index((0, 1, 0, 0)), elements.index((0, 1, 1, 0))
    down = elements.index((0, 0, 0, 0))
    bad = _dual_with(res, lambda P: _move(P, x, up, down, min(P[x, up], 1e-3)))
    problems = checks.check_cube_walk(ref, bad)
    assert any("upward-neighbour" in p for p in problems)
    assert any("residuals" in p for p in problems)


def test_dual_diagonal_off_spectrum_rejected(cube):
    ref, res, *_ = cube
    elements = list(res["elements"])
    x, up = elements.index((1, 0, 0, 0)), elements.index((1, 1, 0, 0))
    bad = _dual_with(res, lambda P: _move(P, x, x, up, 1e-4))
    assert any("1 - s_gamma" in p for p in checks.check_cube_walk(ref, bad))


def test_curve_and_tail_shift_rejected(cube):
    ref, res, *_ = cube
    bad = corrupt(res, "curve", lambda c: _bump(c, 5, 1 + 1e-6))
    problems = checks.check_cube_walk(ref, bad)
    assert any("inclusion-exclusion" in p for p in problems)
    assert any("absorption tail" in p for p in problems)
    bad = corrupt(res, "formula", lambda f: _bump(f, 5, 1 + 1e-6))
    assert any("closed-form separation" in p for p in checks.check_cube_walk(ref, bad))
    bad = corrupt(res, "eigenvalues", lambda e: _bump(e, 2, 1 + 1e-6))
    assert any("eigenvalues" in p for p in checks.check_cube_walk(ref, bad))


def test_flipped_mobius_verdict_and_witness_rejected(cube):
    ref, res, *_ = cube
    notion, verdict, worst, witness = res["reports"][0]
    bad = corrupt(res, "reports", lambda r: [(notion, not verdict, worst, witness)] + r[1:])
    assert any("verdict" in p for p in checks.check_cube_walk(ref, bad))
    bad = corrupt(res, "reports", lambda r: [(notion, verdict, worst - 1e-3, witness)] + r[1:])
    problems = checks.check_cube_walk(ref, bad)
    assert any("reference minimum" in p for p in problems)
    assert any("from mu" in p for p in problems)


def test_mu_entry_matches_the_dense_transform(cube):
    ref, *_ = cube
    t = checks.cube_mobius_transform(ref.P, 4, "up")
    assert checks.mu_entry(ref.P, 4, 5, 3, "up") == pytest.approx(t[5, 3], abs=1e-15)
    t = checks.cube_mobius_transform(ref.rev, 4, "down")
    assert checks.mu_entry(ref.rev, 4, 2, 11, "down") == pytest.approx(t[2, 11], abs=1e-15)


@pytest.fixture(scope="module")
def networks():
    rng = np.random.default_rng(3)
    out = {}
    for name in ("single", "group"):
        psi, phi = rng.uniform(0.02, 0.08, 4), rng.uniform(0.02, 0.08, 4)
        rates = md.RateFunctions(d=4, psi=md.pernode_family(4, psi),
                                 phi=md.pernode_family(4, phi))
        loaded = type("Loaded", (), {"rates": rates, "rates_single_moves": name == "single"})
        res = worker._availability(md, loaded, {"multiplier": 2.0, "horizon": HORIZON})
        P, rate = checks.availability_kernel(psi, phi, name == "single", 2.0)
        ref = checks.CubeReference(P, checks.availability_law(psi, phi), (psi + phi) / rate,
                                   HORIZON, rate=rate)
        out[name] = (ref, res, psi, phi)
    return out


def test_availability_genuine(networks):
    for ref, res, *_ in networks.values():
        assert checks.check_availability(ref, res) == []
    assert networks["single"][1]["stopped_at"] is None


def test_availability_corruptions_rejected(networks):
    ref, res, *_ = networks["single"]
    assert checks.check_availability(ref, corrupt(res, "rate", lambda r: r * 1.001))
    bad = corrupt(res, "P", lambda P: _move(np.array(P), 0, 0, 1, 1e-6))
    assert any("kernel" in p for p in checks.check_availability(ref, bad))
    bad = corrupt(res, "stopped_at", lambda _: "monotonicity")
    assert checks.check_availability(ref, bad)
    ref, res, *_ = networks["group"]
    bad = corrupt(res, "pi", lambda pi: _bump(pi, 0, 1 + 1e-6))
    assert any("stationary law" in p for p in checks.check_availability(ref, bad))


def _fixture_reference(name):
    path = os.path.join(ROOT, workloads.FIXTURE_DIR, f"{name}.spec")
    with open(path, encoding="utf-8") as fh:
        ref = checks.PosetReference.from_spec(checks.parse_spec_text(fh.read()))
    return ref, worker._check_model(md, load_model(path))


@pytest.mark.parametrize("name", workloads.FIXTURES)
def test_verdict_tables(name):
    ref, res = _fixture_reference(name)
    weak = workloads.load_pool()["fixtures"][name]
    assert checks.check_notions(ref, res["reports"], weak) == []
    for k, (notion, verdict, worst, w) in enumerate(res["reports"]):
        flipped = list(res["reports"])
        flipped[k] = (notion, not verdict, worst, w)
        assert checks.check_notions(ref, flipped, weak), notion


def test_strong_reference_is_an_independent_enumeration():
    ref, res = _fixture_reference("strong_not_mobius")
    assert len(ref.upsets) == 6           # the 2-cube has six up-sets
    strong = res["reports"][4]
    assert strong[0] == "strong_stochastic" and strong[1] is True
    assert strong[2] == pytest.approx(ref.strong_min, abs=1e-15)


def test_sweep_points():
    assert checks.check_sweep_point((0.1, 0.2, 0.0), ("ok", True, 0.0, True)) == []
    assert checks.check_sweep_point((0.1, 0.2, 0.0), ("ok", False, 0.0, True))
    assert checks.check_sweep_point((0.1, 0.3, 0.0), ("ok", False, -0.2, False)) == []
    assert checks.check_sweep_point((0.1, 0.3, 0.0), ("ok", False, -0.1, False))
    assert checks.check_sweep_point((0.1, 0.3, 0.01), ("InsufficientMass", False, 0, False))
    for point in ((0.05, 0.06, 0.01), (0.04, 0.25, 0.012), (0.2, 0.1, 0.005)):
        row = worker._sweep_point(md, *point)["row"]
        assert checks.check_sweep_point(point, row) == [], point
        status, verdict, worst, dual_ok = row
        assert checks.check_sweep_point(point, (status, not verdict, worst, dual_ok))
        assert checks.check_sweep_point(point, (status, verdict, worst + 1e-6, dual_ok))


def test_monte_carlo_band():
    alpha, beta = workloads.walk_rates(np.random.default_rng(5), 4)
    loaded = type("Loaded", (), {"cube": md.CubeWalkParams(d=4, alpha=tuple(alpha),
                                                           beta=tuple(beta))})
    res = worker._simulate(md, loaded, {"samples": 4000, "sim_seed": 1, "horizon": HORIZON})
    assert checks.check_simulation(res, alpha + beta) == []
    eps = checks.dkw_epsilon(4000)
    bad = corrupt(res, "empirical", lambda e: np.clip(np.asarray(e) + 1.5 * eps, 0, 1))
    assert any("DKW" in p for p in checks.check_simulation(bad, alpha + beta))


def test_cli_outputs_against_library(cube, out_dir):
    ref, res, alpha, beta = cube
    spec = workloads._write(out_dir, "cube4.spec", workloads.cube_spec(alpha, beta))
    sep = run_cli(["sep", "--input", spec, "--horizon", str(HORIZON)])
    assert checks.check_sep_output(sep, res) == []
    assert checks.check_sep_output(sep.replace("\t1\t1\t1\t", "\t1\t0.5\t1\t", 1), res)
    dual_path = os.path.join(out_dir, "dual.spec")
    run_cli(["dual", "--input", spec, "--output", dual_path])
    with open(dual_path, encoding="utf-8") as fh:
        dual = fh.read()
    assert checks.check_dual_output(dual, res) == []
    bad = _dual_with(res, lambda P: _move(P, 0, 0, 1, 1e-9))
    assert checks.check_dual_output(dual, bad)
    check = run_cli(["check", "--input", spec])
    lib = worker._check_model(md, load_model(spec))
    assert checks.check_check_output(check, lib) == []
    assert checks.check_check_output(check.replace("true", "false", 1), lib)

    sim = run_cli(["simulate", "--input", spec, "--samples", "4000", "--seed", "1",
                   "--horizon", str(HORIZON)])
    loaded = type("Loaded", (), {"cube": md.CubeWalkParams(d=4, alpha=tuple(alpha),
                                                           beta=tuple(beta))})
    lib = worker._simulate(md, loaded, {"samples": 4000, "sim_seed": 2, "horizon": HORIZON})
    assert checks.check_simulate_output(sim, lib)        # another seed, another tail
    lib = worker._simulate(md, loaded, {"samples": 4000, "sim_seed": 1, "horizon": HORIZON})
    assert checks.check_simulate_output(sim, lib) == []


def test_avail_and_sweep_outputs_against_library(networks, out_dir):
    for name, (ref, res, psi, phi) in networks.items():
        moves = "single" if name == "single" else "all"
        spec = workloads._write(out_dir, f"{name}.spec",
                          f"[rates]\nd: 4\nmoves: {moves}\npsi: pernode {workloads._floats(psi)}\n"
                          f"phi: pernode {workloads._floats(phi)}\n")
        text = run_cli(["avail", "--input", spec, "--multiplier", "2.0",
                        "--horizon", str(HORIZON)])
        assert checks.check_avail_output(text, res) == []
        bad = corrupt(res, "reports", lambda r: [(r[0][0], not r[0][1]) + tuple(r[0][2:])]
                      + list(r[1:]))
        assert checks.check_avail_output(text, bad)
        assert checks.check_avail_output(text, corrupt(res, "pi", lambda p: _bump(p, 1, 1.01)))
    spec = workloads._write(out_dir, "sweep.spec",
                      "[sweep]\nd: 3\nalpha: 0.05 0.3 2\nbeta: 0.05 0.3 2\nkappa: 0 0.01 2\n")
    text = run_cli(["sweep", "--input", spec])
    grid = [(a, b, k) for a in (0.05, 0.3) for b in (0.05, 0.3) for k in (0.0, 0.01)]
    lib = {"rows": [(pt, worker._sweep_point(md, *pt)["row"]) for pt in grid]}
    assert checks.check_sweep_output(text, lib) == []
    for point, row in lib["rows"]:
        assert checks.check_sweep_point(point, row) == []
    flipped = {"rows": [(pt, (s, not v, w, ok)) for pt, (s, v, w, ok) in lib["rows"]]}
    assert checks.check_sweep_output(text, flipped)
