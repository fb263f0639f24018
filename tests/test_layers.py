"""Where a walk's structure is read: only ``cube.py`` does arithmetic on
its rates, and each layer function chooses between the walk's operator and
the dense path at most once."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mobiusdual")
# cube.py owns the rates; cli.py reads a spec's own rates for the header,
# eig and the formula column
RATE_READERS = {"cube.py", "cli.py"}
RATE_FIELDS = {"alpha", "beta", "rates"}
# the functions that test a chain's or a dual's ``flips``, per module
BRANCHES = {
    "chain.py": {"stationary"},
    "convergence.py": {"separation_curve", "absorption_tail", "simulate_absorption"},
    "duality.py": {"build_ssd"},
    "monotonicity.py": {"_mobius_report", "weak_monotone"},
}


def modules():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read())


def operator_tests(tree):
    """{function: its number of ``x.flips is None`` and ``x.flips is not
    None`` tests}, over the functions that have one."""
    counts = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            n = sum(isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute)
                    and node.left.attr == "flips"
                    and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                    for node in ast.walk(fn))
            if n:
                counts[fn.name] = n
    return counts


def test_only_cube_and_cli_read_walk_rates():
    reads = [(name, node.lineno, node.attr)
             for name, tree in modules() if name not in RATE_READERS
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in RATE_FIELDS]
    assert reads == []


def test_each_layer_tests_the_operator_once():
    for name, tree in modules():
        counts = operator_tests(tree)
        assert set(counts) == BRANCHES.get(name, set()), name
        assert set(counts.values()) <= {1}, (name, counts)
