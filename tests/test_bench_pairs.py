import glob
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tools"))
from bench_pairs import parse_seeds, summarise, untracked  # noqa: E402


def run(side, seed, analysis, failed=0, workload="cube_walk"):
    return {"side": side, "workload": workload, "seed": seed, "result": {
        "correct": True, "attempted": 4, "failed": failed, "exit": 0,
        "metrics": {"analysis_s": {"value": analysis, "unit": "s"}}}}


class TestSummarise:
    def test_pairs_medians_and_parent_spread(self):
        runs = [run("parent", 1, 1.0), run("change", 1, 0.5),
                run("change", 2, 1.2), run("parent", 2, 1.1),
                run("parent", 3, 1.4), run("change", 3, 1.4),
                run("parent", 4, 1.2), run("change", 4, 0.9, failed=1)]
        entry = summarise(runs)["cube_walk"]
        assert entry["seeds"] == [1, 2, 3, 4]
        assert entry["failed_operations"] == {"parent": 0, "change": 1}
        assert entry["attempted_operations"] == {"parent": 16, "change": 16}
        metric = entry["analysis_s"]
        assert metric["median_parent"] == pytest.approx(1.15)
        assert metric["median_change"] == pytest.approx(1.05)
        assert metric["relative_median_change"] == pytest.approx(-0.1 / 1.15)
        # inclusive quartiles of 1.0, 1.1, 1.2, 1.4: 1.075 and 1.25
        assert metric["parent_iqr"] == pytest.approx(0.175)
        assert metric["resolved"] is False     # |1.05 - 1.15| < 0.175
        assert metric["change_lower_in_pairs"] == 2     # a tie counts for neither
        assert metric["pairs"] == 4

    def test_a_shift_beyond_the_parent_spread_is_resolved(self):
        runs = [run(side, seed, value) for seed, (a, b) in
                enumerate(((1.0, 0.7), (1.1, 0.8), (1.2, 0.9), (1.4, 1.3)), 1)
                for side, value in (("parent", a), ("change", b))]
        metric = summarise(runs)["cube_walk"]["analysis_s"]
        # medians 1.15 and 0.85 lie 0.3 apart, beyond the parent's 0.175
        assert metric["resolved"] is True
        ties = [run(side, seed, 1.0) for seed in (1, 2) for side in ("parent", "change")]
        assert summarise(ties)["cube_walk"]["analysis_s"]["resolved"] is False

    def test_unpaired_run_is_left_out(self):
        runs = [run("parent", 1, 1.0), run("change", 1, 0.5), run("parent", 2, 9.0)]
        metric = summarise(runs)["cube_walk"]["analysis_s"]
        assert metric["pairs"] == 1
        assert metric["median_parent"] == 1.0


def test_seed_range():
    assert parse_seeds("801-804") == [801, 802, 803, 804]


def test_untracked_files_are_found_under_the_given_paths(tmp_path):
    subprocess.run(("git", "init", "-q", str(tmp_path)), check=True)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "new.py").write_text("")
    (tmp_path / "notes.txt").write_text("")
    assert untracked(str(tmp_path), ["src", "perfbench"]) == ["src/new.py"]
    assert untracked(str(tmp_path), ["perfbench"]) == []


def metric_blocks(node, names):
    """The summary blocks of the end-to-end metrics ``names``, at any depth
    (a file may hold several batches)."""
    for key, value in node.items():
        if key in names:
            yield value
        elif isinstance(value, dict):
            yield from metric_blocks(value, names)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))), ids=os.path.basename
)
def test_every_bench_summary_uses_one_schema(path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    with open(path, encoding="utf-8") as fh:
        blocks = list(metric_blocks(json.load(fh)["summary"], names))
    assert blocks
    for block in blocks:
        assert not {"parent_median", "change_median", "relative_change_of_median"} & set(block)
        for key in ("median_parent", "median_change", "relative_median_change"):
            assert type(block[key]) in (int, float), key
        # files written before the field was recorded lack it
        assert type(block.get("resolved", False)) is bool
        lower, pairs = block["change_lower_in_pairs"], block["pairs"]
        assert type(lower) is int and type(pairs) is int and 0 <= lower <= pairs
