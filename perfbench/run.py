#!/usr/bin/env python3
"""Benchmark of cyclic-lrc: three workloads, output checks, per-layer traces.

Run from the root of a checkout (``src/cyclic_lrc`` must be there):

    python3 perfbench/run.py --workload verify-heavy --seed 1 --seconds 36 --trace 0

Workloads (closed loops, one client, one process at a time):

  verify-heavy   ``cyclic-lrc verify`` on the ex-3.2 [12, 6, 5] code over
                 GF(13), one fresh CLI process per pass.
  sweep-box      ``cyclic-lrc sweep --verify --qmax 13 --nmax 24 --budget
                 1048576`` for each of the five schemes, one process each.
  data-path      seeded encode_systematic + repair_erasure steps over eight
                 codes, every repair plan built in set-up.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``pass_s`` (median wall seconds of one pass: verify_s, sweep_s of a round
of the five schemes, data-path pass of 400 steps), ``setup_s`` (median
spawn-to-ready time of the workload's set-up, repeated throughout the run)
and ``peak_rss_mb``.  With ``--trace 1`` it carries the per-layer metrics,
from spans that ``spans.py`` wraps around the package's public functions,
plus the tracing overhead.  Every output is checked outside the timed region;
``attempted``/``failed`` count the checked operations.  Details, spans and
the environment stamp are written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 32  # spread over the run, so no one phase of the machine sets the median
DATA_WORKERS = 5
MIN_PASSES = 2  # a median of one pass would be one sample of a noisy machine
DEADLINE_S = 170.0  # every child is killed by then; the contract allows 180

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("us_p50", "us_p99")):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("share") or name.endswith("ratio"):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong output of the program)."""


class Child:
    def __init__(self, spawn_ns: int, wall_s: float, returncode: int, stdout: bytes):
        self.spawn_ns = spawn_ns
        self.wall_s = wall_s
        self.returncode = returncode
        self.stdout = stdout

    def result(self) -> dict:
        if self.returncode != 0:
            raise BenchError(f"worker exited {self.returncode}")
        return json.loads(self.stdout.decode().strip().splitlines()[-1])


class Bench:
    def __init__(self, args, root: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.root = root
        self.started = time.perf_counter()
        self.work = root / ".bench_work" / args.workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.spans_path = self.work / f"spans-seed{args.seed}.jsonl"
        if self.spans_path.exists():
            self.spans_path.unlink()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tally = checks.Tally()
        self.setup_s: list[float] = []
        self.human: dict[str, object] = {}
        self.traced_pass_s: list[float] = []
        self.plain_pass_s: list[float] = []
        self.overhead_ratios: list[float] = []  # traced over untraced, per adjacent pair
        self.trace_passes = 0
        self.data_rates: dict = {}
        self._traced_processes = 0

    # -- children ----------------------------------------------------------

    def run(self, argv: list[str]) -> Child:
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("out of time")
        spawn_ns = time.monotonic_ns()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, env=self.env,
                                  cwd=self.root, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv[1:3]} exceeded the {DEADLINE_S:.0f} s deadline") from None
        return Child(spawn_ns, time.perf_counter() - t0, proc.returncode, proc.stdout)

    def worker(self, *args: str, spans: bool = False) -> Child:
        argv = [sys.executable, str(HERE / "worker.py"), *args, "--seed", str(self.seed),
                "--work", str(self.work)]
        if spans:
            argv += ["--spans", str(self.spans_path), "--trace-id", self.next_trace_id()]
        return self.run(argv)

    def next_trace_id(self) -> str:
        """A trace id no other traced process of this run uses."""
        self._traced_processes += 1
        return f"{self.workload}/{self.seed}/{self._traced_processes}"

    def cli(self, args: list[str], traced: bool) -> Child:
        """One CLI process; traced runs call ``cyclic_lrc.cli.main`` through
        worker.py so spans can be installed first."""
        self.pace_setup()
        if not traced:
            return self.run([sys.executable, "-m", "cyclic_lrc.cli", *args])
        return self.run([sys.executable, str(HERE / "worker.py"), "cli", str(self.spans_path),
                         str(time.monotonic_ns()), self.next_trace_id(), *args])

    def ready(self, child: Child) -> dict:
        out = child.result()
        self.setup_s.append((out["ready_ns"] - child.spawn_ns) / 1e9)
        return out

    def setup_target(self, share: float) -> int:
        """Set-ups due once ``share`` of the run is over; a traced run needs
        only the first, which writes the input files."""
        return 1 if self.trace else max(1, math.ceil(SETUP_SAMPLES * share))

    def pace_setup(self, final: bool = False) -> None:
        """Time the workload's set-up alone, in fresh processes, as many times
        as are due by now, so the samples spread evenly over the run.  The
        first one also writes the input files."""
        share = 1.0 if final else min(1.0, (time.perf_counter() - self.started) / self.seconds)
        while len(self.setup_s) < self.setup_target(share):
            self.ready(self.worker("setup", self.workload))

    def time_left(self) -> float:
        """Seconds of the run left for passes, after the set-ups still due."""
        due = self.setup_target(1.0) - len(self.setup_s)
        setup_left = max(0, due) * statistics.median(self.setup_s) if self.setup_s else 0.0
        return self.seconds - (time.perf_counter() - self.started) - setup_left

    def record_pairs(self, pairs: list[tuple[float, float]]) -> None:
        """Untraced and traced pass times, one pair of adjacent passes each."""
        self.plain_pass_s = [plain for plain, _ in pairs]
        self.traced_pass_s = [traced for _, traced in pairs]
        self.overhead_ratios = [traced / plain for plain, traced in pairs]
        self.trace_passes = len(pairs)

    def loop(self, one_pass, min_passes: int = MIN_PASSES) -> list:
        """Closed loop: ``min_passes`` passes, then another only while the
        median pass so far still fits in the time left."""
        values, walls = [], []
        while len(walls) < min_passes or statistics.median(walls) <= self.time_left():
            t0 = time.perf_counter()
            values.append(one_pass())
            walls.append(time.perf_counter() - t0)
        self.pace_setup(final=True)
        return values


# -- workloads -------------------------------------------------------------------


def verify_heavy(b: Bench) -> float:
    b.pace_setup()
    argv = ["verify", str(b.work / "code.json")]
    reference: list[bytes] = []

    def one(traced: bool) -> float:
        child = b.cli(argv, traced)
        b.tally.record(checks.check_verify(child.returncode, child.stdout,
                                           reference[0] if reference else None))
        if not reference:
            reference.append(child.stdout)
        return child.wall_s

    if not b.trace:
        walls = b.loop(lambda: one(False))
        b.human["verify_s"] = f"median of {len(walls)} processes, {_fmt(walls)}"
        return statistics.median(walls)
    # an untraced process, then a traced one, pair after pair
    pairs = b.loop(lambda: (one(False), one(True)), 1)
    b.record_pairs(pairs)
    return statistics.median(b.plain_pass_s)


def sweep_box(b: Bench) -> float:
    from cyclic_lrc.constructions import ALL_SCHEMES

    b.pace_setup()
    expected = {s: checks.expected_sweep_rows(s) for s in ALL_SCHEMES}
    box = ["--qmax", str(checks.SWEEP_QMAX), "--nmax", str(checks.SWEEP_NMAX),
           "--budget", str(checks.SWEEP_BUDGET)]

    def unit(scheme: str, traced: bool) -> float:
        child = b.cli(["sweep", "--scheme", scheme, "--verify", *box], traced)
        for problems in checks.check_sweep(child.returncode, child.stdout, expected[scheme]):
            b.tally.record(problems)
        return child.wall_s

    if b.trace:
        # one round, each scheme swept untraced and then traced
        pairs = [(unit(s, False), unit(s, True)) for s in ALL_SCHEMES]
        b.overhead_ratios = [traced / plain for plain, traced in pairs]
        b.plain_pass_s = [sum(plain for plain, _ in pairs)]
        b.traced_pass_s = [sum(traced for _, traced in pairs)]
        b.trace_passes = 1
        return b.plain_pass_s[0]
    rounds = b.loop(lambda: sum(unit(s, False) for s in ALL_SCHEMES))
    b.human["sweep_s"] = f"median of {len(rounds)} rounds of the five schemes, {_fmt(rounds)}"
    return statistics.median(rounds)


def data_path(b: Bench) -> float:
    # Python processes differ in speed from one start to the next, so the
    # untraced run uses several workers in turn and no single process sets
    # its median.  A traced run uses one worker, which alternates untraced
    # and traced passes.
    b.pace_setup()
    if b.trace:
        outs = [b.ready(b.worker("data-path", "--seconds", str(b.time_left()), spans=True))]
    else:
        outs = []
        for workers_left in range(DATA_WORKERS, 0, -1):
            b.pace_setup()
            seconds = str(max(0.0, b.time_left()) / workers_left)
            outs.append(b.ready(b.worker("data-path", "--seconds", seconds)))
        b.pace_setup(final=True)
    passes = [p for out in outs for p in out["pass_s"]]
    repair_ns = sorted(ns for out in outs for ns in out["repair_ns"])
    b.data_rates = {
        "encode_symbols_per_s":
            sum(out["encode_symbols"] for out in outs) / (sum(out["encode_ns"] for out in outs) / 1e9),
        "repair_per_s": len(repair_ns) / (sum(repair_ns) / 1e9),
        "repair_us_p50": _quantile(repair_ns, 0.50) / 1e3,
        "repair_us_p99": _quantile(repair_ns, 0.99) / 1e3,
        "repair_samples": len(repair_ns),
    }
    for out in outs:
        b.tally.merge(out["tally"])
    b.human.update({k: round(v, 2) for k, v in b.data_rates.items()})
    b.human["data_pass_s"] = f"median of {len(passes)} passes in {len(outs)} processes"
    if b.trace:
        b.record_pairs(list(zip(passes, outs[0]["traced_pass_s"])))
    return statistics.median(passes)


WORKLOADS = {
    "verify-heavy": verify_heavy,
    "sweep-box": sweep_box,
    "data-path": data_path,
}


# -- reporting -------------------------------------------------------------------


def _quantile(sorted_values: list[float], share: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "] s"


def environment(root: Path) -> dict:
    """Where a result was measured, so results from other machines are not
    compared with it."""
    env = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_rev": None,
        "git_dirty": None,
    }
    if (root / ".git").exists():
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                                capture_output=True, text=True)
        if rev.returncode == 0:
            env["git_rev"] = rev.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def _version(dist: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def trace_extras(overhead: float, passes: int, rates: dict) -> dict[str, float]:
    """Per-layer metrics measured by the benchmark rather than by spans: the
    tracing overhead (median over adjacent pairs of passes of traced over
    untraced wall time) and the data-path
    rates, timed per call in the untraced passes of the traced run."""
    return {
        "trace.overhead_ratio": overhead,
        "trace.passes": float(passes),
        "cyclic.encode_systematic.symbols_per_s": rates.get("encode_symbols_per_s", 0.0),
        "repair.repair_erasure.per_s": rates.get("repair_per_s", 0.0),
        "repair.repair_erasure.us_p50": rates.get("repair_us_p50", 0.0),
        "repair.repair_erasure.us_p99": rates.get("repair_us_p99", 0.0),
        "repair.repair_erasure.samples": float(rates.get("repair_samples", 0)),
    }


def layer_report(b: Bench) -> dict[str, float]:
    loaded = spans.load(b.spans_path)
    traced_wall = sum(b.traced_pass_s) / b.trace_passes
    metrics = spans.layer_metrics(loaded, b.trace_passes, traced_wall)
    plain = statistics.median(b.plain_pass_s)
    overhead = statistics.median(b.overhead_ratios)
    metrics.update(trace_extras(overhead, b.trace_passes, b.data_rates))

    print(f"layers, per traced pass ({b.trace_passes} traced, wall {traced_wall:.3f} s; "
          f"untraced {plain:.3f} s; overhead x{metrics['trace.overhead_ratio']:.3f}):")
    totals = spans.LayerTotals(spans.pass_spans(loaded))
    print(f"  {'span':44s} {'calls':>10s} {'incl s':>10s} {'self s':>10s} {'share':>7s}")
    for name in sorted(totals.calls, key=lambda n: -totals.total_s.get(n, 0.0)):
        incl = totals.total_s.get(name, 0.0) / b.trace_passes
        print(f"  {name:44s} {totals.calls[name] / b.trace_passes:10.1f} {incl:10.4f} "
              f"{totals.self_s[name] / b.trace_passes:10.4f} {incl / traced_wall:7.1%}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cyclic-lrc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cyclic_lrc" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/cyclic_lrc", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    b = Bench(args, root)
    try:
        pass_s = WORKLOADS[args.workload](b)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if b.trace:
        metrics = layer_report(b)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "pass_s": pass_s,
            "setup_s": statistics.median(b.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        b.human["setup_s"] = f"median of {len(b.setup_s)} set-ups, {_fmt(b.setup_s)}"
    env = environment(root)
    t = b.tally
    b.human["failed_ratio"] = f"{t.failed_ratio:.6f} ({t.failed} failed / {t.attempted} attempted)"
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in b.human.items():
        print(f"  {name} = {value}")
    for problem in t.problems:
        print(f"  problem: {problem}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": t.failed == 0 and t.attempted > 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, human=b.human, problems=t.problems)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
