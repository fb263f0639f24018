"""The benchmark's three workloads: seeded inputs, reference results, CLI commands.

A workload writes its spec files into the run directory, names the models the
worker loads (``specs``) and the parameters of its library pass (``job``),
lists its CLI commands, and checks each library operation and CLI output
against references built by :mod:`checks` without the program.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE_DIR = os.path.join("tests", "data")
FIXTURES = ("two_cube", "three_cube", "strong_not_mobius")
POOL_PATH = os.path.join(HERE, "pool.json")
HORIZON = 200
MULTIPLIER = 2.0



@dataclass
class CliCommand:
    """One CLI call; ``check(text, lib)`` compares its output with the library
    results of the same round (``lib`` maps operation label to result)."""

    argv: list
    check: object
    output: str | None = None


def _floats(values):
    return " ".join(repr(float(v)) for v in values)


def _write(out_dir, name, text):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def cube_spec(alpha, beta):
    return (f"[cube]\nd: {len(alpha)}\nalpha: {_floats(alpha)}\n"
            f"beta: {_floats(beta)}\nnu: delta_min\n")


def walk_rates(rng, d):
    """Per-coordinate rates drawn around 0.25/d, so sum(alpha+beta) is about 1/2."""
    return 0.25 / d * rng.uniform(0.7, 1.3, d), 0.25 / d * rng.uniform(0.7, 1.3, d)


class CubeWalk:
    """Nonsymmetric nearest-neighbour walk on {0,1}^10 from delta_min."""

    def __init__(self, seed, out_dir):
        self.alpha, self.beta = walk_rates(np.random.default_rng([seed, 1]), 10)
        spec = _write(out_dir, "cube10.spec", cube_spec(self.alpha, self.beta))
        dual_out = os.path.join(out_dir, "dual10.spec")
        self.specs = {"cube": spec}
        self.job = {"horizon": HORIZON}
        self.cli = [
            CliCommand(["sep", "--input", spec, "--horizon", str(HORIZON)],
                       lambda text, lib: checks.check_sep_output(text, lib["cube"])),
            CliCommand(["dual", "--input", spec, "--output", dual_out],
                       lambda text, lib: checks.check_dual_output(text, lib["cube"]),
                       output=dual_out),
        ]

    def build_references(self):
        a, b = self.alpha, self.beta
        self.ref = checks.CubeReference(checks.cube_walk_kernel(a, b),
                                        checks.cube_product_law(a, b), a + b, HORIZON)

    def check(self, label, res):
        return checks.check_cube_walk(self.ref, res)


class UnreliableNet:
    """Two 10-node availability networks with per-node rates in [0.02, 0.08]:
    single moves (dual and curves) and group moves (stops at monotonicity)."""

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([seed, 2])
        self.rates = {}
        self.specs = {}
        self.cli = []
        for name, moves in (("single", "single"), ("group", "all")):
            psi, phi = rng.uniform(0.02, 0.08, 10), rng.uniform(0.02, 0.08, 10)
            self.rates[name] = (psi, phi)
            path = _write(out_dir, f"net_{name}.spec",
                          f"[rates]\nd: 10\nmoves: {moves}\n"
                          f"psi: pernode {_floats(psi)}\nphi: pernode {_floats(phi)}\n")
            self.specs[name] = path
            self.cli.append(CliCommand(
                ["avail", "--input", path, "--multiplier", repr(MULTIPLIER),
                 "--horizon", str(HORIZON)],
                lambda text, lib, name=name: checks.check_avail_output(text, lib[name])))
        self.job = {"multiplier": MULTIPLIER, "horizon": HORIZON}

    def build_references(self):
        self.refs = {}
        for name, (psi, phi) in self.rates.items():
            P, rate = checks.availability_kernel(psi, phi, name == "single", MULTIPLIER)
            self.refs[name] = checks.CubeReference(
                P, checks.availability_law(psi, phi), (psi + phi) / rate, HORIZON, rate=rate)

    def check(self, label, res):
        return checks.check_availability(self.refs[label], res)


def load_pool():
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class SmallModels:
    """Verdict tables of models with at most 32 states, a 216-point sweep of
    3-cube walks, and a Monte Carlo run on the dual of a d=8 walk."""

    POOL_PICKS = 3
    SAMPLES = 20000
    GRID = 6

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([seed, 3])
        pool = load_pool()
        self.texts = {}
        self.specs = {}
        self.weak = {}
        for name in FIXTURES:
            path = os.path.join(FIXTURE_DIR, f"{name}.spec")
            self.specs[name] = path
            self.weak[name] = pool["fixtures"][name]
        picks = rng.choice(len(pool["posets"]), self.POOL_PICKS, replace=False)
        for k in picks:
            entry = pool["posets"][int(k)]
            name = f"pool{int(k)}"
            self.texts[name] = entry["spec"]
            self.specs[name] = _write(out_dir, f"{name}.spec", entry["spec"])
            self.weak[name] = {"weak_down": entry["weak_down"], "weak_up": entry["weak_up"]}
        for d in (4, 5):
            self.texts[f"cube{d}"] = cube_spec(*walk_rates(rng, d))
            self.specs[f"cube{d}"] = _write(out_dir, f"cube{d}.spec", self.texts[f"cube{d}"])
        self.check_models = list(self.specs)
        self.sim_alpha, self.sim_beta = walk_rates(rng, 8)
        self.specs["sim"] = _write(out_dir, "sim8.spec", cube_spec(self.sim_alpha, self.sim_beta))
        sweep_text, self.points = self._sweep(rng)
        sweep_path = _write(out_dir, "sweep.spec", sweep_text)
        self.sweep_labels = [(f"sweep:{a!r}:{b!r}:{k!r}", (a, b, k)) for a, b, k in self.points]
        self.job = {"check_models": self.check_models, "sweep_points": self.points,
                    "samples": self.SAMPLES, "sim_seed": seed, "horizon": HORIZON}
        pool_name = f"pool{int(picks[0])}"
        self.cli = [
            CliCommand(["check", "--input", self.specs["strong_not_mobius"]],
                       lambda text, lib: checks.check_check_output(text, lib["strong_not_mobius"])),
            CliCommand(["check", "--input", self.specs[pool_name]],
                       lambda text, lib: checks.check_check_output(text, lib[pool_name])),
            CliCommand(["check", "--input", self.specs["cube5"]],
                       lambda text, lib: checks.check_check_output(text, lib["cube5"])),
            CliCommand(["sweep", "--input", sweep_path],
                       lambda text, lib: checks.check_sweep_output(
                           text, {"rows": [(pt, lib[lbl]["row"]) for lbl, pt in self.sweep_labels]})),
            CliCommand(["simulate", "--input", self.specs["sim"], "--samples", str(self.SAMPLES),
                        "--seed", str(seed), "--horizon", str(HORIZON)],
                       lambda text, lib: checks.check_simulate_output(text, lib["simulate"])),
        ]

    def _sweep(self, rng):
        """A seeded (alpha, beta, kappa) grid; kappa stays below every rate so
        each g+ move is feasible, and no kappa = 0 point sits within 1e-6 of
        the admissibility boundary 3(alpha + beta) = 1."""
        while True:
            a0, a1 = rng.uniform(0.02, 0.05), rng.uniform(0.2, 0.3)
            b0, b1 = rng.uniform(0.02, 0.05), rng.uniform(0.2, 0.3)
            k1 = rng.uniform(0.005, 0.015)
            alphas = np.linspace(a0, a1, self.GRID)
            betas = np.linspace(b0, b1, self.GRID)
            if np.abs(3 * (alphas[:, None] + betas[None, :]) - 1).min() > 1e-6:
                break
        kappas = np.linspace(0.0, k1, self.GRID)
        text = (f"[sweep]\nd: 3\nalpha: {a0!r} {a1!r} {self.GRID}\n"
                f"beta: {b0!r} {b1!r} {self.GRID}\nkappa: 0.0 {k1!r} {self.GRID}\n")
        points = [(float(a), float(b), float(k)) for a in alphas for b in betas for k in kappas]
        return text, points

    def build_references(self):
        self.refs = {}
        for name in self.check_models:
            text = self.texts.get(name)
            if text is None:
                with open(self.specs[name], encoding="utf-8") as fh:
                    text = fh.read()
            self.refs[name] = checks.PosetReference.from_spec(checks.parse_spec_text(text))
        for d in (4, 5):
            # a cube has a unique minimum and maximum, on which weak up/down
            # monotonicity coincide with the Mobius notions
            ref = self.refs[f"cube{d}"]
            self.weak[f"cube{d}"] = {
                f"weak_{s}": ref.transform_min[f"mobius_{s}"] >= -checks.TOL_MONO
                for s in ("down", "up")}
        self.points_by_label = dict(self.sweep_labels)

    def check(self, label, res):
        if label in self.refs:
            return checks.check_notions(self.refs[label], res["reports"], self.weak[label])
        if label == "simulate":
            return checks.check_simulation(res, self.sim_alpha + self.sim_beta)
        return checks.check_sweep_point(self.points_by_label[label], res["row"])


WORKLOADS = {
    "cube_walk": CubeWalk,
    "unreliable_net": UnreliableNet,
    "small_models": SmallModels,
}
