"""The benchmark tracer (perfbench/spans.py) against the package it wraps.

The tracer names package functions and reads their arguments, so renaming a
traced function or changing what a count reads breaks the benchmark; this
runs a small traced d=3 pass so that the tests catch it first.
"""

import importlib
import importlib.util
import os

import numpy as np

import mobiusdual as md
from mobiusdual import duality, monotonicity

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_records_spans_and_counts():
    spans = load_spans()
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(f"mobiusdual.{module_name}")
        for name in names:
            assert callable(getattr(module, name)), f"{module_name}.{name}"
    original = md.build_ssd
    params = md.CubeWalkParams(d=3, alpha=(0.1, 0.08, 0.12), beta=(0.09, 0.11, 0.1))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert md.build_ssd is not original and duality.build_ssd is not original
        c = md.nearest_neighbor_walk(params, nu=np.eye(8)[0])
        law = md.stationary(c)
        zm = md.zeta_mobius(c.poset)
        md.mobius_monotone_down(c, zm)
        md.mobius_monotone_up(c, zm)
        md.weak_monotone(c, zm, "down")
        md.strong_stochastic_monotone(c)
        dual = md.build_ssd(c, law, zm)
        md.verify_duality(md.build_link(law, zm), c, dual)
        curve = md.separation_curve(c, law, 20)
        md.absorption_tail(dual, 20)
        md.cube_separation_formula(params.alpha, params.beta, 5)
    finally:
        tracer.uninstall()
    assert md.build_ssd is original and duality.build_ssd is original
    assert curve.horizon == 20
    called = {s["name"] for s in tracer.spans}
    assert {
        "cube.nearest_neighbor_walk", "chain.stationary", "poset.zeta_mobius",
        "monotonicity.mobius_monotone_down", "monotonicity.mobius_monotone_up",
        "monotonicity.weak_monotone", "monotonicity.strong_stochastic_monotone",
        "monotonicity.enumerate_up_sets", "duality.build_ssd", "duality.build_link",
        "duality.verify_duality", "convergence.separation_curve",
        "convergence.absorption_tail", "convergence.cube_separation_formula",
    } <= called
    assert all(s["end"] >= s["start"] for s in tracer.spans)
    times = spans.self_times(tracer.spans)
    assert set(times) <= set(spans.TIME_METRICS)
    assert tracer.counts["lp_solves"] == c.size
    assert tracer.counts["upsets"] == len(monotonicity.enumerate_up_sets(c.poset))
    assert tracer.counts["dual_nnz"] == int((abs(dual.P_star) > 1e-12).sum())
    assert tracer.counts["kernel_nnz"] == int((c.P != 0).sum())
