"""Analysis process of the benchmark: imports mobiusdual and runs library passes.

    python3 perfbench/worker.py JOB_JSON

The worker times its own set-up (importing ``mobiusdual`` and
``mobiusdual.cli`` and loading the job's spec files) from its first line,
sends it, then serves requests read from stdin until told to quit.  Messages
are pickles in both directions, exchanged with the benchmark's own parent
process only:

    -> ("pass", traced)   <- ("pass", seconds, ops, states, spans, counts)
    -> ("rss",)           <- ("rss", peak resident KiB of this process)
    -> ("quit",)

``ops`` is a list of (label, result dict or None, error text or None).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


def _report(r):
    return (r.notion, bool(r.verdict), float(r.worst_value), r.witness)


def _dual(dual):
    return {"nu_star": dual.nu_star, "P_star": dual.P_star,
            "absorbing": dual.absorbing_index}


def _cube_walk(md, p, job):
    horizon = job["horizon"]
    nu = np.zeros(2**p.d)
    nu[0] = 1.0
    c = md.nearest_neighbor_walk(p, nu=nu)
    law = md.stationary(c)
    zm = md.zeta_mobius(c.poset)
    reports = (md.mobius_monotone_down(c, zm), md.mobius_monotone_up(c, zm))
    dual = md.build_ssd(c, law, zm, direction="down")
    curve = md.separation_curve(c, law, horizon)
    tail = md.absorption_tail(dual, curve.horizon)
    formula = [md.cube_separation_formula(p.alpha, p.beta, n)
               for n in range(curve.horizon + 1)]
    eig = md.cube_eigenvalues(p.alpha, p.beta)
    return {
        "P": c.P, "elements": c.poset.elements, "pi": law.pi,
        "reports": [_report(r) for r in reports], "dual": _dual(dual),
        "curve": curve.values, "tail": tail.tail, "formula": formula,
        "eigenvalues": eig,
    }


def cube_walk_pass(md, models, job):
    p = models["cube"].cube
    return [("cube", 2**p.d, lambda: _cube_walk(md, p, job))]


def _availability(md, loaded, job):
    rep = md.availability_pipeline(
        loaded.rates, multiplier=job["multiplier"], horizon=job["horizon"],
        single_moves_only=loaded.rates_single_moves,
    )
    return {
        "P": rep.chain.P, "elements": rep.chain.poset.elements, "pi": rep.law.pi,
        "rate": rep.rate, "reports": [_report(r) for r in rep.reports],
        "stopped_at": rep.stopped_at,
        "dual": _dual(rep.dual) if rep.dual is not None else None,
        "curve": rep.curve.values if rep.curve is not None else None,
        "tail": rep.tail.tail if rep.tail is not None else None,
    }


def unreliable_net_pass(md, models, job):
    return [(name, 2**models[name].rates.d,
             lambda name=name: _availability(md, models[name], job))
            for name in ("single", "group")]


def _check_model(md, loaded):
    """The verdict table of ``mobiusdual check`` through the library."""
    from mobiusdual import monotonicity as mono

    if loaded.kind == "cube":
        chain = md.nearest_neighbor_walk(loaded.cube)
    else:
        chain = md.Chain(poset=loaded.chain.poset, P=loaded.chain.P)
    zm = md.zeta_mobius(chain.poset)
    reports = (
        mono.mobius_monotone_down(chain, zm),
        mono.mobius_monotone_up(chain, zm),
        mono.weak_monotone(chain, zm, "down"),
        mono.weak_monotone(chain, zm, "up"),
        mono.strong_stochastic_monotone(chain),
    )
    return {"reports": [_report(r) for r in reports]}


def _sweep_point(md, a, b, k):
    """One point of ``mobiusdual sweep`` on the 3-cube through the library."""
    from mobiusdual import monotonicity as mono
    from mobiusdual.errors import MobiusDualError

    params = md.CubeWalkParams(d=3, alpha=(a,) * 3, beta=(b,) * 3)
    chain = md.axis_transformed_walk(params, k) if k > 0 else md.nearest_neighbor_walk(params)
    nu = np.zeros(8)
    nu[0] = 1.0
    chain = chain.with_nu(nu)
    law = md.stationary(chain)
    zm = md.zeta_mobius(chain.poset)
    rep = mono.mobius_monotone_down(md.reverse(chain, law), zm)
    try:
        md.build_ssd(chain, law, zm, direction="down")
        dual_ok = True
    except MobiusDualError:
        dual_ok = False
    return {"row": ("ok", bool(rep.verdict), float(rep.worst_value), dual_ok)}


def _simulate(md, loaded, job):
    p = loaded.cube
    nu = np.zeros(2**p.d)
    nu[0] = 1.0
    c = md.nearest_neighbor_walk(p, nu=nu)
    law = md.stationary(c)
    zm = md.zeta_mobius(c.poset)
    dual = md.build_ssd(c, law, zm, direction="down")
    sim = md.simulate_absorption(dual, job["samples"], job["sim_seed"],
                                 horizon=job["horizon"])
    tail = md.absorption_tail(dual, job["horizon"])
    return {"tail": tail.tail, "empirical": sim.tail, "samples": sim.samples}


def small_models_pass(md, models, job):
    ops = [(name, 2**models[name].cube.d if models[name].kind == "cube"
            else models[name].chain.size,
            lambda name=name: _check_model(md, models[name]))
           for name in job["check_models"]]
    ops += [(f"sweep:{a!r}:{b!r}:{k!r}", 8,
             lambda a=a, b=b, k=k: _sweep_point(md, a, b, k))
            for a, b, k in job["sweep_points"]]
    ops.append(("simulate", 2**models["sim"].cube.d,
                lambda: _simulate(md, models["sim"], job)))
    return ops


PASSES = {
    "cube_walk": cube_walk_pass,
    "unreliable_net": unreliable_net_pass,
    "small_models": small_models_pass,
}


def run_pass(md, models, job):
    """Run every operation of one pass; an exception fails that operation only."""
    out = []
    states = 0
    for label, size, op in PASSES[job["workload"]](md, models, job):
        states += size
        try:
            out.append((label, op(), None))
        except Exception:      # reported to the parent as a failed operation
            out.append((label, None, traceback.format_exc(limit=3)))
    return out, states


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    import mobiusdual as md
    import mobiusdual.cli  # noqa: F401  (part of the measured set-up)
    from mobiusdual.specfile import load_model

    models = {name: load_model(path) for name, path in job["specs"].items()}
    setup = time.perf_counter() - T0
    from spans import Tracer

    inp, out = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr        # stdout carries the pickled replies only

    def send(msg):
        pickle.dump(msg, out, protocol=pickle.HIGHEST_PROTOCOL)
        out.flush()

    send(("setup", setup))
    while True:
        msg = pickle.load(inp)
        if msg[0] == "quit":
            return
        if msg[0] == "rss":
            send(("rss", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
            continue
        tracer = Tracer() if msg[1] else None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            ops, states = run_pass(md, models, job)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        send(("pass", elapsed, ops, states,
              tracer.spans if tracer else None, tracer.counts if tracer else None))


if __name__ == "__main__":
    main()
