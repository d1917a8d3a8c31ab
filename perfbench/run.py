#!/usr/bin/env python3
"""treestop benchmark: config -> stopper.txt -> valuation.csv, timed from outside.

    python3 perfbench/run.py --workload put-k50k --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  Each measured run is one ``treestop train``
followed by one ``treestop evaluate``, each in a fresh child process that
loads the checkout's ``src/``.  Wall time is taken around the child and peak
RSS from ``os.wait4`` of that child alone.  Runs repeat until ``--seconds``
is used up; medians are reported.  Every run's outputs are checked: pinned
fingerprints for the default seed, and for every seed run-to-run identity,
v_test <= v_max and v_test within tolerance of the published value.

``--trace 1`` adds traced runs (perfbench/trace_child.py) and reports the
per-layer metrics instead.  See perfbench/README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it,
starting with '#', are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench_tmp"
DEFAULT_SEED = 0
SETUP_SAMPLES = 12
MIN_TRACED_RUNS = 2          # two traced runs let counters be compared
HARD_LIMIT_S = 170.0         # every child is killed past this point of a run
PINNED_NUMPY_MAJOR = "2"     # the bytes contract holds per numpy major version


@dataclass(frozen=True)
class Workload:
    config: str
    reference: float         # published v_test the acceptance tests compare with
    tolerance: float         # absolute
    pinned: dict             # fingerprints for DEFAULT_SEED


WORKLOADS = {
    "put-k50k": Workload("put-k50k.cfg", 6.068, 0.15, {
        "stopper_hash": "52024c8eeaf3",
        "stopper_sha256": "48427e8dfef477e84c6412ebcd00e11d8380487f0ae6f8d757c9257495005e32",
        "valuation_sha256": "c95d00ac87a1a27e9b2b41d0f62ecdb92ec15b2ad51dc3c02e0bf74147a77d14",
        "v_test": "6.02017100274", "se": "0.0303432288204", "v_max": "11.195821768",
    }),
    "maxcall-d5": Workload("maxcall-d5.cfg", 26.061, 0.03 * 26.061, {
        "stopper_hash": "ec77ec1ea53a",
        "stopper_sha256": "468a42af81143ef959211e3820968b5171a81968264aab5081bc5d7c1fa412cb",
        "valuation_sha256": "2249c7208244cabeb8d2bcae6e2b0fac76f44d1ae4d54b2af57729eb51d6ed87",
        "v_test": "26.0473364434", "se": "0.0279399857807", "v_max": "37.8616462756",
    }),
    "barrier-d8": Workload("barrier-d8.cfg", 51.467, 0.03 * 51.467, {
        "stopper_hash": "e4d3d4a7755d",
        "stopper_sha256": "e208ec1fc0d008dafa3e55b938a18403c5112569becde2c143b21927bfe2893e",
        "valuation_sha256": "19c354c56b50d9db9e1d523491c4fec0b3e40c4d6a5e66385838f636b9dd795e",
        "v_test": "51.3245553135", "se": "0.0573136029043", "v_max": "57.4538392274",
    }),
}

END_TO_END = [("setup_s", "s"), ("train_s", "s"), ("eval_s", "s"), ("wall_s", "s"),
              ("train_peak_rss_mb", "MB"), ("eval_peak_rss_mb", "MB")]

# (metric, unit, span statistic, span or counter name)
PER_LAYER = [
    ("cli.self_s", "s", "self", "cli.main"),
    ("ensemble.generate_gbm_s", "s", "total", "ensemble.generate_gbm"),
    # make_ensemble's self time: augment_barrier, and building the GBM spec
    ("ensemble.augment_barrier_s", "s", "self", "ensemble.make_ensemble"),
    ("ensemble.path_bytes", "bytes", "count", "ensemble.path_bytes"),
    ("reward.features.train_s", "s", "total", "reward.features.train"),
    ("reward.features.apply_s", "s", "total", "reward.features.apply"),
    ("reward.reward_s", "s", "total", "reward.reward"),
    ("cart.removal_s", "s", "total", "cart.removal"),
    ("cart.removal_rows_in", "count", "count", "cart.removal_rows_in"),
    ("cart.removal_rows_out", "count", "count", "cart.removal_rows_out"),
    ("cart.grow_s", "s", "total", "cart.grow"),
    ("cart.tree_nodes", "count", "count", "cart.tree_nodes"),
    ("cart.predict.loo_s", "s", "total", "cart.predict.loo"),
    ("cart.predict_rows.loo", "count", "count", "cart.predict_rows.loo"),
    ("cart.predict.apply_s", "s", "total", "cart.predict.apply"),
    ("cart.predict_rows.apply", "count", "count", "cart.predict_rows.apply"),
    ("stopper.train_s", "s", "total", "stopper.train"),
    ("stopper.train.self_s", "s", "self", "stopper.train"),
    ("stopper.apply_s", "s", "total", "stopper.apply"),
    ("stopper.apply.self_s", "s", "self", "stopper.apply"),
    ("stopper.parse_s", "s", "total", "stopper.parse"),
    ("stopper.content_hash_s", "s", "total", "stopper.content_hash"),
    ("stopper.content_hash_calls", "count", "calls", "stopper.content_hash"),
    ("valuation.value_of_rule_s", "s", "total", "valuation.value_of_rule"),
    ("valuation.v_max_s", "s", "total", "valuation.v_max"),
]
TRACE_OVERHEAD = ("trace.overhead_s", "s")
COUNT_UNITS = ("count", "bytes")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def workload_seeds(seed: int) -> dict:
    """Config seeds of one benchmark seed; DEFAULT_SEED gives the package defaults."""
    return {"seed_train": 1001 + 10000 * seed, "seed_test": 2002 + 10000 * seed,
            "seed_bagging": 3003 + 10000 * seed}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@dataclass
class Outcome:
    code: int
    wall_s: float
    peak_rss_mb: float


def run_child(argv, cwd: Path, log: Path, kill_at: float) -> Outcome:
    """Run one child to completion; time it and read its own peak RSS."""
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(kill_at - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(out: Path) -> dict:
    """Hashes and headline values of one run's stopper.txt and valuation.csv."""
    rows = {}
    for line in (out / "valuation.csv").read_text().splitlines()[2:]:
        kind, value, se, _seed, stopper_hash, _delta = line.split(",")
        rows[kind] = (value, se, stopper_hash)
    nodes = sum(int(line.split()[1].split("=")[1])
                for line in (out / "stopper.txt").read_text().splitlines()
                if line.startswith("tree nodes="))
    return {"stopper_hash": rows["v_test"][2],
            "stopper_sha256": sha256(out / "stopper.txt"),
            "valuation_sha256": sha256(out / "valuation.csv"),
            "v_test": rows["v_test"][0], "se": rows["v_test"][1],
            "v_max": rows["v_max"][0], "tree_nodes": nodes}


class Bench:
    """One benchmark invocation: its runs, their output checks and the tallies."""

    def __init__(self, name: str, seed: int, seconds: float, work: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.started = time.monotonic()
        self.kill_at = self.started + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict | None = None     # fingerprint every later run must repeat
        seeds = workload_seeds(seed)
        self.cli_args = ["--config", str(HERE / "workloads" / self.workload.config)]
        for key, value in seeds.items():
            self.cli_args += ["--set", f"{key}={value}"]

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"# FAIL {text}", flush=True)

    def setup_samples(self) -> list[float]:
        walls = []
        for i in range(SETUP_SAMPLES):
            res = run_child([sys.executable, "-m", "treestop.cli", "--help"], self.work,
                            self.work / "setup.log", self.kill_at)
            if res.code != 0:
                self.problem(f"setup sample {i} exited {res.code}")
            walls.append(res.wall_s)
        return walls

    def commands(self, traced: bool, cwd: Path):
        def cli(step, *rest):
            head = [sys.executable, "-m", "treestop.cli"]
            if traced:
                head = [sys.executable, str(HERE / "trace_child.py"), str(cwd / f"{step}.json")]
            return head + [step, *self.cli_args, *rest, "--out", "out"]
        return cli("train"), cli("evaluate", "--stopper", "out/stopper.txt")

    def run_once(self, index: int, traced: bool):
        """One train + evaluate run; returns (outcomes, fingerprint, traces) or None."""
        self.attempted += 1
        cwd = self.work / f"run{index}"
        cwd.mkdir()
        outcomes, traces = [], []
        for step, argv in zip(("train", "evaluate"), self.commands(traced, cwd)):
            res = run_child(argv, cwd, cwd / f"{step}.log", self.kill_at)
            if res.code != 0:
                tail = (cwd / f"{step}.log").read_text(errors="replace")[-2000:]
                print(tail, file=sys.stderr)
                self.failed += 1
                self.problem(f"run {index}: {step} exited {res.code}")
                return None
            outcomes.append(res)
            if traced:
                traces.append(json.loads((cwd / f"{step}.json").read_text()))
        try:
            fp = fingerprint(cwd / "out")
        except (OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.problem(f"run {index}: unreadable outputs: {exc!r}")
            return None
        shutil.rmtree(cwd)
        if not self.check(index, fp):
            self.failed += 1
        return outcomes, fp, traces

    def check(self, index: int, fp: dict) -> bool:
        """Output gate of one run: pinned bytes, repeatability, value bounds."""
        ok = True
        w = self.workload
        if self.first is None:
            self.first = fp
            if self.seed == DEFAULT_SEED and numpy_version().split(".")[0] == PINNED_NUMPY_MAJOR:
                for key, want in w.pinned.items():
                    if fp[key] != want:
                        ok = False
                        self.problem(f"run {index}: {key} {fp[key]} != pinned {want}")
        elif fp != self.first:
            ok = False
            diff = sorted(k for k in fp if fp[k] != self.first[k])
            self.problem(f"run {index}: outputs differ from run 0 in {diff}")
        v_test, v_max = float(fp["v_test"]), float(fp["v_max"])
        if not v_test <= v_max:
            ok = False
            self.problem(f"run {index}: v_test {v_test} > v_max {v_max}")
        if abs(v_test - w.reference) > w.tolerance:
            ok = False
            self.problem(f"run {index}: v_test {v_test} outside {w.reference} +- {w.tolerance:.4g}")
        return ok

    def time_left(self, last_run_s: float) -> bool:
        """Whether one more run as long as the last still ends within --seconds."""
        return time.monotonic() - self.started + last_run_s <= self.seconds


def numpy_version() -> str:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "?"


def report(name: str, unit: str, values) -> float:
    """Print median, quartiles and sample count; return the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    print(f"# {name:28s} median {med:.10g} {unit}  q1 {q1:.10g}  q3 {q3:.10g}  n={len(values)}")
    return med


def measure(bench: Bench) -> dict:
    """Untraced runs until --seconds is used up; end-to-end metrics."""
    setup = bench.setup_samples()
    bench.started = time.monotonic()
    rows, last = [], 0.0
    while not rows or bench.time_left(last):
        got = bench.run_once(len(rows), traced=False)
        if got is None:
            break
        train, evaluate = got[0]
        rows.append((train, evaluate))
        last = train.wall_s + evaluate.wall_s
    if not rows:
        raise BenchError("no run completed")
    series = {
        "setup_s": setup,
        "train_s": [t.wall_s for t, _ in rows],
        "eval_s": [e.wall_s for _, e in rows],
        "wall_s": [t.wall_s + e.wall_s for t, e in rows],
        "train_peak_rss_mb": [t.peak_rss_mb for t, _ in rows],
        "eval_peak_rss_mb": [e.peak_rss_mb for _, e in rows],
    }
    return {name: {"value": report(name, unit, series[name]), "unit": unit}
            for name, unit in END_TO_END}


def span_stats(trace: dict) -> dict:
    """Total time, self time and call count per span name of one command."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = {}
    for (name, start, end, _), child in zip(spans, covered):
        total, self_s, calls = stats.get(name, (0.0, 0.0, 0))
        stats[name] = (total + end - start, self_s + end - start - child, calls + 1)
    return stats


def layer_metrics(bench: Bench, traces) -> dict:
    """Per-layer values of one traced run (train and evaluate summed)."""
    values = {name: 0 for name, *_ in PER_LAYER}
    for trace in traces:
        stats = span_stats(trace)
        roots = sum(end - start for _, start, end, parent in trace["spans"] if parent < 0)
        self_sum = sum(s for _, s, _ in stats.values())
        if abs(self_sum - roots) > 1e-6 * max(roots, 1.0):
            bench.problem(f"trace bug: span self times sum to {self_sum}, command took {roots}")
        for name, _, kind, key in PER_LAYER:
            if kind == "count":
                values[name] += trace["counts"].get(key, 0)
            elif key in stats:
                values[name] += stats[key][{"total": 0, "self": 1, "calls": 2}[kind]]
    return values


def trace(bench: Bench) -> dict:
    """Untraced and traced runs alternately; per-layer metrics and self-checks."""
    untraced, traced, layers, absent = [], [], [], set()
    index, last = 0, 0.0
    while index <= MIN_TRACED_RUNS or bench.time_left(last):
        # one untraced run, MIN_TRACED_RUNS traced ones, then alternate
        is_traced = index > 0 and (index <= MIN_TRACED_RUNS or index % 2 == 0)
        got = bench.run_once(index, traced=is_traced)
        index += 1
        if got is None:
            break
        outcomes, fp, traces = got
        last = sum(o.wall_s for o in outcomes)
        if not is_traced:
            untraced.append(last)
            continue
        traced.append(last)
        layers.append(layer_metrics(bench, traces))
        nodes = layers[-1]["cart.tree_nodes"]
        if nodes and nodes != fp["tree_nodes"]:
            bench.problem(f"trace bug: grow built {nodes} nodes, stopper.txt holds {fp['tree_nodes']}")
        absent.update(a for t in traces for a in t["absent"])
    if not traced:
        raise BenchError("no traced run completed")
    if absent:
        print(f"# absent (reported as 0): {', '.join(sorted(absent))}")
    metrics = {}
    for name, unit, *_ in PER_LAYER:
        values = [row[name] for row in layers]
        value = report(name, unit, values)
        if unit in COUNT_UNITS:
            if len(set(values)) > 1:
                bench.problem(f"trace bug: count {name} drifts across traced runs: {values}")
            value = values[0]
        metrics[name] = {"value": value, "unit": unit}
    overhead = [t - statistics.median(untraced) for t in traced]
    metrics[TRACE_OVERHEAD[0]] = {"value": report(*TRACE_OVERHEAD, overhead),
                                  "unit": TRACE_OVERHEAD[1]}
    return metrics


def environment() -> dict:
    cpu = "?"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "?")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy_version(), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "treestop" / "cli.py").is_file():
        print(f"error: no treestop sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"env {json.dumps(environment())}", flush=True)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    bench = Bench(args.workload, args.seed, args.seconds, work)
    try:
        metrics = trace(bench) if args.trace else measure(bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass   # another run still uses it
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
