"""Record the benchmark baseline of the current checkout in one command.

    python3 bench/baseline.py [--out PATH]

For each workload in BENCHMARK.json: ten untraced runs of bench/run.py, each
with its own seed (1, 2, ...), then two traced runs with seed 1.  Prints the median and
quartiles of every end-to-end metric with its spread (interquartile range
over median) against the bound in BENCHMARK.json, every per-layer metric of
the first traced run, and whether the exact counters repeated across the
two traced runs.  Writes all of it, with the machine's CPU count, CPU model
and Python version, as JSON to ``--out`` (default: stdout only).

Exits 1 when a run fails or reports a wrong output, or an exact counter
differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, plus its wall time as ``run_s``."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    return {**json.loads(lines[-1]), "run_s": time.perf_counter() - start}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_s": [r["run_s"] for r in results],
            "end_to_end": {},
        }
        ok &= all(r["correct"] for r in results)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            entry["end_to_end"][name] = summarize(values, bound)
            s = entry["end_to_end"][name]
            flag = "" if s["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"{workload:13s} {name:15s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f} "
                  f"(bound {bound}){flag}", flush=True)
        print(f"{workload:13s} failure_rate    {entry['failed']} of {entry['attempted']}; "
              f"runs took {min(entry['run_s']):.1f}..{max(entry['run_s']):.1f} s", flush=True)
        first, second = run_once(workload, 1, seconds, 1), run_once(workload, 1, seconds, 1)
        ok &= first["correct"] and second["correct"]
        repeated = {
            name: first["metrics"][name]["value"] == second["metrics"][name]["value"]
            for name in spans.COUNTERS
        }
        ok &= all(repeated.values())
        entry["per_layer"] = {
            name: {**metric, "moves": run.PER_LAYER[name][1]}
            for name, metric in first["metrics"].items()
        }
        entry["counters_repeat"] = repeated
        entry["traced_run_s"] = [first["run_s"], second["run_s"]]
        for name, metric in entry["per_layer"].items():
            value = metric["value"]
            note = ""
            if name in repeated:
                note = "  repeats exactly" if repeated[name] else "  DIFFERS between runs"
            print(f"{workload:13s}   {name:28s} {value:14.6g}{note}", flush=True)
        report["workloads"][workload] = entry
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
