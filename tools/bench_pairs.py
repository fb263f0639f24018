"""Run perfbench in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py --parent HEAD~1 --label my_change \\
        --change-note "what the change does" --seeds 801-810 \\
        --out BENCH_my_change.json

Each side is the tree of one commit, extracted with ``git archive`` into
its own temporary directory, so no worktree is registered in the
repository.  The change side is the working tree: a ``git stash create``
snapshot of its tracked files, staged or not, or HEAD when nothing is
modified.  A snapshot is not on any branch, so the output records, for
each side, the tree hashes of ``src`` and of the benchmark's paths, which
can be compared with the commit the change lands as.  Untracked files are
not in a snapshot; the script stops when it finds any under those
directories.  The command, run length and workloads are those of the
repository's ``BENCHMARK.json``.
For every seed and workload one run is made per side, one at a time, with
the parent first on odd seeds and the change first on even ones.

The output holds one summary per workload and metric (``median_parent``,
``median_change``, ``relative_median_change``, ``parent_iqr``,
``resolved``, ``change_lower_in_pairs`` and ``pairs``), the failed and
attempted operation counts per side, and the raw result line of every
run.  With ``--traced-seed N``, one run per side and workload with
``--trace 1`` on seed N follows the pairs; its result lines, per-layer
self times included, go under ``traced`` and into no summary.  The file
is rewritten after each run, so an interrupted batch keeps what it has.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def git(*args, cwd):
    return subprocess.run(("git", *args), cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def untracked(repo, paths):
    """Untracked files under ``paths``, which a snapshot would leave out."""
    status = git("status", "--porcelain", "--untracked-files=all", "--", *paths,
                 cwd=repo)
    return [line[3:] for line in status.splitlines() if line.startswith("?? ")]


def trees(repo, commit, paths):
    """The tree hash of each of ``paths`` in ``commit``."""
    return {path: git("rev-parse", f"{commit}:{path}", cwd=repo) for path in paths}


def extract(repo, commit, dest):
    """Write the tree of ``commit`` into the new directory ``dest``."""
    os.makedirs(dest)
    archive = subprocess.Popen(("git", "archive", commit), cwd=repo,
                               stdout=subprocess.PIPE)
    subprocess.run(("tar", "-x", "-C", dest), stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {commit} failed")


def run_once(root, command, workload, seed, seconds, trace=0):
    """One benchmark run in ``root``; its last stdout line, parsed, with the
    exit code (an unparsable or failed run counts as failed)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        (*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)),
        cwd=root, env=env, text=True, capture_output=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                  "stderr": done.stderr[-2000:]}
    result["exit"] = done.returncode
    return result


def summarise(runs):
    """Per workload: operation counts per side, and per metric the medians,
    the parent's interquartile range and the pairwise comparison.  A pair
    is the two runs of one (workload, seed).  A metric is ``resolved`` when
    its medians differ by more than the parent's interquartile range."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = {s: p for s, p in by_seed.items() if set(p) == set(SIDES)}
        entry = {
            "seeds": sorted(pairs),
            "failed_operations": {
                side: sum(r["result"].get("failed") or 0 for r in mine
                          if r["side"] == side) for side in SIDES},
            "failed_runs": {
                side: sum(1 for r in mine if r["side"] == side and (
                    r["result"]["exit"] != 0 or not r["result"].get("correct")))
                for side in SIDES},
            "attempted_operations": {
                side: sum(r["result"].get("attempted") or 0 for r in mine
                          if r["side"] == side) for side in SIDES},
        }
        names = dict.fromkeys(n for p in pairs.values() for side in SIDES
                              for n in p[side].get("metrics", {}))
        for name in names:
            both = [(p["parent"]["metrics"][name]["value"],
                     p["change"]["metrics"][name]["value"]) for p in pairs.values()
                    if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
            if not both:
                continue
            parent = [a for a, _ in both]
            change = [b for _, b in both]
            median_parent = statistics.median(parent)
            median_change = statistics.median(change)
            q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                         if len(parent) > 1 else parent * 3)
            entry[name] = {
                "median_parent": median_parent,
                "median_change": median_change,
                "relative_median_change": (median_change - median_parent) / median_parent,
                "parent_iqr": q3 - q1,
                "resolved": abs(median_change - median_parent) > q3 - q1,
                "change_lower_in_pairs": sum(b < a for a, b in both),
                "pairs": len(both),
            }
        summary[workload] = entry
    return summary


def write(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def parse_seeds(text):
    first, last = (int(x) for x in text.split("-", 1))
    return list(range(first, last + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--label", required=True)
    parser.add_argument("--change-note", default="", help="what the change does")
    parser.add_argument("--seeds", required=True, help="FIRST-LAST")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--traced-seed", type=int,
                        help="seed of one traced run per side and workload")
    args = parser.parse_args(argv)

    repo = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    command, seconds = bench["command"], bench["run_seconds"]
    paths = ["src", *bench["paths"]]
    missing = untracked(repo, paths)
    if missing:
        sys.exit("untracked files would be left out of the change side: "
                 + ", ".join(missing))
    snapshot = git("stash", "create", cwd=repo)
    commits = {
        "parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}", cwd=repo),
        "change": snapshot or git("rev-parse", "HEAD", cwd=repo),
    }
    seeds = parse_seeds(args.seeds)
    doc = {
        "label": args.label,
        "change": args.change_note,
        "commits": commits,
        "change_source": ("git stash create snapshot of the working tree, on no "
                          "branch" if snapshot else "HEAD"),
        "trees": {side: trees(repo, commits[side], paths) for side in SIDES},
        "command": " ".join(command) + " --workload <workload> --seed <seed> "
                   f"--seconds {seconds} --trace 0",
        "protocol": "each side runs from a git archive of its commit in its own "
                    "directory; runs one at a time; for each (workload, seed) the "
                    "parent runs first on odd seeds and the change first on even seeds",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                f"{platform.python_version()}",
        "summary": {},
        "runs": [],
    }
    workdir = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        roots = {}
        for side in SIDES:
            roots[side] = os.path.join(workdir, side)
            extract(repo, commits[side], roots[side])
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for workload in (w["name"] for w in bench["workloads"]):
                for side in order:
                    result = run_once(roots[side], command, workload, seed, seconds)
                    doc["runs"].append({"side": side, "workload": workload,
                                        "seed": seed, "result": result})
                    doc["summary"] = summarise(doc["runs"])
                    write(doc, args.out)
                    print(f"{workload} seed {seed} {side}: exit {result['exit']}, "
                          f"failed {result.get('failed')}", flush=True)
        if args.traced_seed is not None:
            doc["traced"] = {"seed": args.traced_seed}
            for workload in (w["name"] for w in bench["workloads"]):
                for side in SIDES:
                    doc["traced"].setdefault(workload, {})[side] = run_once(
                        roots[side], command, workload, args.traced_seed, seconds,
                        trace=1)
                    write(doc, args.out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
