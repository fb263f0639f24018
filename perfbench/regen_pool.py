"""Regenerate pool.json: the random posets of the small_models workload and
the stored weak-monotonicity verdicts the benchmark checks against.

    PYTHONPATH=src python3 perfbench/regen_pool.py

Weak monotonicity is decided by one linear program per state; the benchmark
has no independent way to decide it, so the verdicts are recorded here from
mobiusdual's ``weak_monotone`` and every later run must reproduce them.  The
posets (10 to 18 elements, at least two minimal elements, at most 4000
up-sets) and their kernels come from a fixed generator seed, so rerunning
this script reproduces the file unless the program's verdicts changed.
"""

import json
import os

import numpy as np

from mobiusdual import monotonicity as mono
from mobiusdual.chain import Chain
from mobiusdual.errors import UpSetExplosion
from mobiusdual.poset import zeta_mobius
from mobiusdual.specfile import load_model, load_model_text

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = ("two_cube", "three_cube", "strong_not_mobius")
POOL_SIZE = 24
GENERATOR_SEED = 20110103


def random_poset_spec(rng):
    n = int(rng.integers(10, 19))
    minima = int(rng.integers(2, 4))
    labels = [f"s{i}" for i in range(n)]
    covers = []
    for i in range(minima, n):
        below = rng.choice(i, size=min(i, int(rng.integers(1, 4))), replace=False)
        covers += [(labels[int(j)], labels[i]) for j in sorted(below)]
    hold = rng.choice([0.0, 0.5, 0.9])
    if rng.random() < 0.5:       # independent rows: rarely monotone
        moves = rng.dirichlet(np.ones(n), size=n)
    else:                        # a shared row: monotone in the weak orders
        moves = np.tile(rng.dirichlet(np.ones(n)), (n, 1))
    rows = hold * np.eye(n) + (1 - hold) * moves
    rows = rows / rows.sum(axis=1, keepdims=True)
    lines = ["[poset]", "states: " + " ".join(labels)]
    lines += [f"cover: {a} {b}" for a, b in covers]
    lines += ["", "[chain]"]
    lines += ["row: " + " ".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def weak_verdicts(loaded):
    if loaded.kind == "cube":
        from mobiusdual.cube import nearest_neighbor_walk
        chain = nearest_neighbor_walk(loaded.cube)
    else:
        chain = Chain(poset=loaded.chain.poset, P=loaded.chain.P)
    zm = zeta_mobius(chain.poset)
    return {f"weak_{s}": bool(mono.weak_monotone(chain, zm, s).verdict)
            for s in ("down", "up")}


def main():
    rng = np.random.default_rng(GENERATOR_SEED)
    fixtures = {
        name: weak_verdicts(load_model(os.path.join("tests", "data", f"{name}.spec")))
        for name in FIXTURES
    }
    posets = []
    while len(posets) < POOL_SIZE:
        text = random_poset_spec(rng)
        loaded = load_model_text(text)
        try:
            upsets = len(mono.enumerate_up_sets(loaded.poset, cap=4000))
        except UpSetExplosion:
            continue
        posets.append(dict(spec=text, upsets=upsets, **weak_verdicts(loaded)))
    with open(os.path.join(HERE, "pool.json"), "w", encoding="utf-8") as fh:
        json.dump({"fixtures": fixtures, "posets": posets}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
