"""Benchmark of gln-invariants.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (figure, arthur-sweep, consistency or invariants; see
BENCHMARK.json) in this process against the program under ``src/``, checks
every output, prints each metric with its unit and, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 1 when an output is wrong and 2 when there is no program
to run.

``--trace 0`` measures the end-to-end metrics untraced, at the CLI's default
worker count (os.cpu_count()).  Whole passes over the workload's requests
run until the next would end further past ``--seconds`` than stopping now
falls short of it; at least one.

``--trace 1`` gives the per-layer metrics: one untraced pass at the default
worker count, one untraced pass with 1 worker, and one traced pass whose
sweep chunks run inline (see spans.py); tracing overhead is traced / untraced
1-worker time - 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spans
import workloads

SETUP_SAMPLES = 15
POOL_START_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
_E2E = "cases_per_s on "
_INV = "latency on invariants"
PER_LAYER = {
    "partitions.enumerate_s": ("s", _E2E + "figure, arthur-sweep"),
    "partitions.objects_s": ("s", _E2E + "consistency"),
    "decay.scan_s": ("s", _E2E + "arthur-sweep; " + _INV),
    "decay.sort_s": ("s", _E2E + "consistency; " + _INV),
    "arthur.build_s": ("s", _E2E + "consistency; " + _INV),
    "arthur.expand_s": ("s", _E2E + "consistency"),
    "arthur.character_s": ("s", _E2E + "consistency; " + _INV),
    "arthur.invariants_s": ("s", _E2E + "consistency; " + _INV),
    "segments.build_s": ("s", _E2E + "consistency; " + _INV),
    "segments.character_s": ("s", _E2E + "consistency; " + _INV),
    "segments.wavefront_s": ("s", _E2E + "consistency; " + _INV),
    "rationals.render_s": ("s", _E2E + "figure; " + _INV),
    "rationals.parse_s": ("s", _INV),
    "bounds.exponents_s": ("s", _INV),
    "verify.chunk_s": ("s", _E2E + "figure, arthur-sweep, consistency"),
    "verify.merge_s": ("s", _E2E + "figure, arthur-sweep"),
    "verify.render_s": ("s", _E2E + "figure"),
    "cli.argparse_s": ("s", _INV),
    "cli.parse_s": ("s", _INV),
    "cli.render_s": ("s", _INV),
    spans.ROOT: ("s", "none: the benchmark's own calling code"),
    "partitions.enumerated": ("count", _E2E + "figure, arthur-sweep"),
    "decay.scan_cuts": ("count", _E2E + "arthur-sweep; " + _INV),
    "rationals.fraction_objects": ("count", _E2E + "consistency; " + _INV),
    "verify.chunks": ("count", _E2E + "figure, arthur-sweep, consistency"),
    "verify.ipc_bytes": ("bytes", _E2E + "figure, arthur-sweep"),
    "cli.output_bytes": ("bytes", _E2E + "figure; " + _INV),
    "verify.pool_start_s": ("s", _E2E + "figure, arthur-sweep"),
    "verify.parallel_speedup": ("ratio", _E2E + "figure, arthur-sweep, consistency"),
    "trace.overhead": ("ratio", "none: the cost of tracing itself"),
}


class Runner:
    """Makes the timed calls, checks every output and counts operations."""

    def __init__(self, requests: list[workloads.Request]):
        self.requests = requests
        self.attempted = 0
        self.failed = 0

    def call(self, index: int, threads: int, tracer=None) -> tuple[float, object]:
        request = self.requests[index]
        self.attempted += 1
        start = time.perf_counter()
        if tracer is not None:
            tracer.enter(spans.ROOT)
        try:
            output = request.call(threads)
        except Exception:  # a crash is a failed operation, not the end of the run
            self.fail(request, traceback.format_exc())
            return time.perf_counter() - start, None
        finally:
            if tracer is not None:
                tracer.exit()
        elapsed = time.perf_counter() - start
        reason = request.check(output)
        if reason is not None:
            self.fail(request, reason)
        return elapsed, output

    def fail(self, request: workloads.Request, reason: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {request.label}: {reason}", file=sys.stderr)

    def run_pass(self, threads: int, tracer=None) -> list[float]:
        latencies = []
        for index in range(len(self.requests)):
            elapsed, output = self.call(index, threads, tracer)
            latencies.append(elapsed)
            if tracer is not None and output is not None:
                tracer.counts["cli.output_bytes"] += self.requests[index].nbytes(output)
        return latencies

    def warm_up(self, count: int, threads: int) -> None:
        for i in range(count):
            self.call(i % len(self.requests), threads)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (a pool
    worker): getrusage gives the children's maximum, not their sum."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_seconds(samples: int) -> float:
    """Median wall time of fresh interpreters that import the CLI and build
    its parser, the start-up every ``glninv`` call pays.  One unmeasured
    start first, so byte-compilation of a fresh checkout is not counted."""
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    argv = [sys.executable, "-c", "import gln_invariants.cli as c; c.build_parser()"]
    times = []
    for i in range(samples + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=workloads.ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def _noop() -> None:
    return None


def pool_start_seconds(threads: int, samples: int) -> float:
    """Median time for a pool of the program's kind (the default start
    method, as verify._map_chunks uses) to start, run one no-op and stop."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        with multiprocessing.get_context().Pool(threads) as pool:
            pool.apply(_noop)
            pool.close()
            pool.join()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(name: str, runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """A request's latency is the median of its latencies over the passes;
    throughput is the cases of one pass over the sum of those medians."""
    threads = workloads.default_threads()
    runner.warm_up(workloads.WARMUP[name], threads)
    passes: list[list[float]] = []
    start = time.perf_counter()
    last = 0.0
    # whole passes, while one more as long as the last would end nearer to
    # ``seconds`` than stopping now does
    while not passes or time.perf_counter() - start + last / 2 < seconds:
        begun = time.perf_counter()
        passes.append(runner.run_pass(threads))
        last = time.perf_counter() - begun
    # after the peak RSS: the fresh interpreters are children too
    rss = peak_rss_mb()
    setup = setup_seconds(SETUP_SAMPLES)
    latencies = sorted(1000.0 * statistics.median(per) for per in zip(*passes))
    cases = sum(r.cases for r in runner.requests)
    if len(latencies) > 1:
        p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    else:
        p99 = latencies[0]
    values = {
        "setup_s": setup,
        "cases_per_s": cases / (sum(latencies) / 1000.0),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": p99,
        "peak_rss_mb": rss,
    }
    metrics = {key: (values[key], unit) for key, unit in END_TO_END_UNITS.items()}
    above = len(latencies) - 1 - int(0.99 * (len(latencies) - 1))
    notes = [
        f"{threads} workers; {len(passes)} passes of {len(latencies)} requests, "
        f"{cases} cases per pass",
        f"latency over {len(latencies)} requests ({above} above p99); setup_s is the "
        f"median of {SETUP_SAMPLES} fresh interpreters",
    ]
    return metrics, notes


def traced(name: str, runner: Runner) -> tuple[dict, list[str]]:
    threads = workloads.default_threads()
    runner.warm_up(workloads.WARMUP[name], threads)
    wall_default = sum(runner.run_pass(threads))
    wall_single = sum(runner.run_pass(1))
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        wall_traced = sum(runner.run_pass(threads, tracer))
    finally:
        installation.restore()
    values = tracer.metrics()
    values["verify.pool_start_s"] = pool_start_seconds(threads, POOL_START_SAMPLES)
    values["verify.parallel_speedup"] = wall_single / wall_default
    values["trace.overhead"] = wall_traced / wall_single - 1.0
    metrics = {key: (values[key], unit) for key, (unit, _) in PER_LAYER.items()}
    notes = [
        f"untraced pass: {wall_default:.3f} s at {threads} workers, {wall_single:.3f} s "
        f"at 1 worker; traced pass: {wall_traced:.3f} s with chunks inline",
    ]
    return metrics, notes


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = workloads.import_program()
    # the CLI's default worker count, whatever the caller's environment says
    os.environ.pop(pkg.cli.THREADS_ENV_VAR, None)
    workdir = workloads.ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workloads.WORKLOADS[args.workload](pkg, args.seed, workdir))
        # The benchmark's inputs (1,000 JSON documents for invariants) are not
        # in a real glninv process; keep the collector from traversing them.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, notes = traced(args.workload, runner)
        else:
            metrics, notes = end_to_end(args.workload, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for key, (value, unit) in metrics.items():
        print(f"{args.workload}  {key} = {value:.6g} {unit}")
    print(f"{args.workload}  failure_rate = {runner.failed / max(1, runner.attempted):.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    for note in notes:
        print(f"{args.workload}  {note}")
    correct = runner.failed == 0 and runner.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
