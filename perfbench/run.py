"""Benchmark of mobiusdual on three workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload cube_walk --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds ``src/mobiusdual`` and
``tests/data``.  One run:

1. writes the workload's inputs, generated from ``--seed``, under
   ``perfbench/out/``;
2. starts fresh interpreters one after another, each importing mobiusdual
   and mobiusdual.cli and loading the specs (``setup_s`` is their median);
   the last one stays on as the analysis process;
3. runs one untimed warm-up library pass;
4. runs rounds (one library pass in the analysis process, then the CLI
   commands one at a time as fresh ``python -m mobiusdual.cli`` processes)
   while the next round still fits in ``--seconds``, and at least two;
5. checks every operation against references computed without the program.

Every process started here is pinned to one BLAS/OpenMP thread.  With
``--trace 1`` each round instead runs an untraced library pass, a traced
library pass and traced CLI commands, and the per-layer metrics are printed.
The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time

import spans as sp

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_INTERPRETERS = 3
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 1
CLI_TIMEOUT_S = 120


class Worker:
    """The analysis process (perfbench/worker.py) and its pickle pipe."""

    def __init__(self, job_path):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self.setup_s = self.recv()[1]
        except RuntimeError:
            self.close()
            raise

    def send(self, *msg):
        pickle.dump(msg, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()

    def recv(self):
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError("the analysis process ended unexpectedly") from None

    def close(self):
        try:
            self.send("quit")
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Bench:
    def __init__(self, workload, job_path, run_dir):
        self.wl = workload
        self.job_path = job_path
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.worker = None
        self.command_times = []

    def _record(self, label, problems, counted):
        if problems:
            self.problems += [f"{label}: {p}" for p in problems]
        if counted:
            self.attempted += 1
            self.failed += bool(problems)

    @staticmethod
    def _checked(check, *args):
        try:
            return check(*args)
        except Exception as exc:      # a malformed result fails its check
            return [f"check raised {type(exc).__name__}: {exc}"]

    def start(self):
        """Fresh interpreters one at a time; the last becomes the worker."""
        times = []
        for k in range(SETUP_INTERPRETERS):
            worker = Worker(self.job_path)
            times.append(worker.setup_s)
            if k < SETUP_INTERPRETERS - 1:
                worker.close()
            else:
                self.worker = worker
        return times

    def library_pass(self, traced=False, counted=True):
        self.worker.send("pass", traced)
        _, elapsed, ops, states, spans, counts = self.worker.recv()
        lib = {}
        for label, res, error in ops:
            if error is not None:
                self._record(label, [error.strip().splitlines()[-1]], counted)
                continue
            problems = self._checked(self.wl.check, label, res)
            self.wrong += bool(problems)
            self._record(label, problems, counted)
            lib[label] = res
        return elapsed, lib, states, spans, counts

    def cli_pass(self, lib, traced=False):
        total = 0.0
        spans, counts = [], {}
        self.command_times.append([])
        for k, cmd in enumerate(self.wl.cli):
            label = "cli " + " ".join(cmd.argv[:1])
            trace_path = os.path.join(self.run_dir, f"cli{k}.json")
            if traced:
                argv = [sys.executable, os.path.join(HERE, "tracecli.py"), trace_path, "--"]
            else:
                argv = [sys.executable, "-m", "mobiusdual.cli"]
            start = time.perf_counter()
            proc = subprocess.run(argv + cmd.argv, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            self.command_times[-1].append(time.perf_counter() - start)
            total += self.command_times[-1][-1]
            if proc.returncode != 0:
                self._record(label, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"], True)
                continue
            text = proc.stdout
            if cmd.output is not None:
                with open(cmd.output, encoding="utf-8") as fh:
                    text = fh.read()
                os.remove(cmd.output)
            problems = self._checked(cmd.check, text, lib)
            self.wrong += bool(problems)
            self._record(label, problems, True)
            if traced:
                with open(trace_path, encoding="utf-8") as fh:
                    record = json.load(fh)
                spans.append((cmd.argv[0], record["spans"]))
                for key, value in record["counts"].items():
                    counts[key] = counts.get(key, 0) + value
        return total, spans, counts

    def timed(self, seconds):
        lib_times, cli_times = [], []
        start = time.perf_counter()
        while True:
            elapsed, lib, *_ = self.library_pass()
            lib_times.append(elapsed)
            cli_times.append(self.cli_pass(lib)[0])
            done = time.perf_counter() - start
            rounds = len(cli_times)
            if rounds >= MIN_ROUNDS and done + done / rounds > seconds:
                return lib_times, cli_times

    def traced(self, seconds):
        plain, traced, layer = [], [], {}
        counts = {"states": 0}
        span_path = os.path.join(self.run_dir, "spans.jsonl")
        start = time.perf_counter()
        while True:
            rnd = len(plain)
            plain.append(self.library_pass()[0])
            elapsed, lib, states, lib_spans, lib_counts = self.library_pass(traced=True)
            traced.append(elapsed)
            counts["states"] += states
            _, cli_spans, cli_counts = self.cli_pass(lib, traced=True)
            groups = [(f"library round {rnd}", lib_spans)]
            groups += [(f"cli {name} round {rnd}", s) for name, s in cli_spans]
            for source, group in groups:
                sp.write_spans(span_path, group, source)
                for key, value in sp.self_times(group).items():
                    layer[key] = layer.get(key, 0.0) + value
            for part in (lib_counts, cli_counts):
                for key, value in part.items():
                    counts[key] = counts.get(key, 0) + value
            done = time.perf_counter() - start
            rounds = len(plain)
            if rounds >= MIN_TRACED_ROUNDS and done + done / rounds > seconds:
                break
        metrics = {name: {"value": layer.get(name, 0.0) / rounds, "unit": "s"}
                   for name in sp.TIME_METRICS}
        metrics.update({name: {"value": counts.get(name, 0) / rounds, "unit": "count"}
                        for name in sp.COUNT_METRICS})
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
        return metrics, {"rounds": rounds, "untraced_analysis_s": plain,
                         "traced_analysis_s": traced, "spans": span_path}


def calibrate():
    """Fixed BLAS, memory-bound and pure-Python loops, to tell host drift from
    program drift."""
    import numpy as np

    a = np.random.default_rng(0).random((512, 512))
    start = time.perf_counter()
    for _ in range(8):
        a = a @ a
        a /= np.abs(a).max()
    blas = time.perf_counter() - start
    big = np.ones(4_000_000)
    start = time.perf_counter()
    for _ in range(10):
        big = big.copy()
    memory = time.perf_counter() - start
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    return {"blas_s": blas, "memory_s": memory, "python_s": time.perf_counter() - start}


def main():
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cube_walk", "unreliable_net", "small_models"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (os.path.join("src", "mobiusdual", "__init__.py"), os.path.join("tests", "data")):
        if not os.path.exists(needed):
            sys.stderr.write(f"run from the root of a mobiusdual checkout: {needed} is missing\n")
            return 2
    os.environ.update(THREAD_PINS)           # before numpy loads, here and in children
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = "src" + (os.pathsep + path if path else "")
    import workloads                         # loads numpy: after the pins

    run_dir = os.path.join("perfbench", "out", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    job_path = os.path.join(run_dir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(dict(workload=args.workload, specs=workload.specs, **workload.job), fh)

    calibration = {"before": calibrate()}
    bench = Bench(workload, job_path, run_dir)
    try:
        setup_times = bench.start()
        workload.build_references()
        bench.library_pass(counted=False)                       # warm-up
        if args.trace:
            metrics, detail = bench.traced(args.seconds)
        else:
            lib_times, cli_times = bench.timed(args.seconds)
            bench.worker.send("rss")
            rss_kib = bench.worker.recv()[1]
            metrics = {
                "analysis_s": {"value": statistics.median(lib_times), "unit": "s"},
                "cli_s": {"value": statistics.median(cli_times), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MiB"},
            }
            detail = {"analysis_s": lib_times, "cli_s": cli_times, "setup_s": setup_times,
                      "cli_command_s": bench.command_times}
    finally:
        if bench.worker is not None:
            bench.worker.close()
    calibration["after"] = calibrate()

    record = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
              "detail": detail, "calibration": calibration,
              "wall_s": time.perf_counter() - started, "problems": bench.problems[:50]}
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": bench.wrong == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
