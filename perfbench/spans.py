"""In-memory span tracing of mobiusdual's public functions, from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper wherever
the package binds it (its defining module, the package namespace and every
module that imported it by name), so internal calls are seen too.  Each call
records a span (id, parent id, name, start, end); the spans stay in memory
until the caller writes them out.  Counts are derived from the calls' inputs
and outputs only, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# Spans recorded per module; the per-layer metric of a function is its self
# time.  mobius_monotone_down/up share one metric.
TRACED = {
    "chain": ("stationary", "reverse", "validate_chain"),
    "poset": ("cube_poset", "zeta_mobius", "build_poset"),
    "monotonicity": (
        "mobius_monotone_down", "mobius_monotone_up", "function_mobius_monotone",
        "weak_monotone", "strong_stochastic_monotone", "enumerate_up_sets",
    ),
    "duality": ("build_ssd", "build_link", "verify_duality"),
    "convergence": (
        "separation_curve", "absorption_tail", "cube_separation_formula",
        "simulate_absorption",
    ),
    "cube": ("nearest_neighbor_walk",),
    "availability": ("availability_generator", "uniformize", "availability_pipeline"),
    "specfile": ("load_model", "serialize_dual"),
}

METRIC_ALIAS = {
    "monotonicity.mobius_monotone_down": "monotonicity.mobius_monotone",
    "monotonicity.mobius_monotone_up": "monotonicity.mobius_monotone",
}

CLI_COMMANDS = ("check", "dual", "sep", "avail", "sweep", "simulate")

TIME_METRICS = tuple(
    sorted({METRIC_ALIAS.get(f"{mod}.{fn}", f"{mod}.{fn}") + "_s"
            for mod, fns in TRACED.items() for fn in fns})
) + ("cli.import_s",) + tuple(f"cli.{c}_s" for c in CLI_COMMANDS)

COUNT_METRICS = ("upsets", "lp_solves", "dual_nnz", "sim_transitions", "kernel_nnz", "states")


def _count(name, args, result):
    """(counter, amount) for the calls that carry a count, else None."""
    if name == "monotonicity.enumerate_up_sets":
        return "upsets", len(result)
    if name == "monotonicity.weak_monotone":
        return "lp_solves", int(args[1].C.shape[0])
    if name == "duality.build_ssd":
        return "dual_nnz", int((abs(result.P_star) > 1e-12).sum())
    if name == "convergence.simulate_absorption":
        return "sim_transitions", int(round(float(result.tail.sum()) * result.samples))
    if name == "cube.nearest_neighbor_walk":
        return "kernel_nnz", int((result.P != 0).sum())
    return None


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._originals = []

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body, as a child of the open span."""
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "parent": parent, "name": name,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            counted = _count(name, args, result)
            if counted is not None:
                key, amount = counted
                tracer.counts[key] = tracer.counts.get(key, 0) + amount
            return result

        return wrapper

    def install(self):
        """Wrap every traced function in every mobiusdual namespace that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mobiusdual" or n.startswith("mobiusdual.")]
        for mod_name, names in TRACED.items():
            module = sys.modules[f"mobiusdual.{mod_name}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._originals.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._originals):
            setattr(ns, attr, original)
        self._originals.clear()


def self_times(spans):
    """{metric name: total self time} from a list of spans of one process."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        name = METRIC_ALIAS.get(s["name"], s["name"]) + "_s"
        own = s["end"] - s["start"] - child.get(s["id"], 0.0)
        out[name] = out.get(name, 0.0) + own
    return out


def write_spans(path, spans, source):
    with open(path, "a", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(s, source=source)) + "\n")
