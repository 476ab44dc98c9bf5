"""Self-tests of the benchmark: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

pkg = workloads.import_program()


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [2, 5] (which holds b [3, 4]) and c [6, 9]
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert tracer.self_s == {"root": 4.0, "a": 2.0, "b": 1.0, "c": 3.0}
    assert sum(tracer.self_s.values()) == 10.0


def test_wrapped_call_and_excluded_time_are_not_double_counted():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")
    with tracer.span("outer"):  # [0, 8]
        inner()  # [1, 2]
        with tracer.excluded():  # [4, 7]
            pass
    assert tracer.self_s == {"outer": 4.0, "inner": 1.0}


def _figure_text() -> str:
    sink = workloads.HashSink(keep=True)
    assert workloads.cli_call(pkg, ["figure", "--N", str(workloads.FIGURE_N), "--threads", "1"],
                              sink) == 0
    return sink.text()


def test_figure_gate_catches_one_corrupted_byte():
    data = _figure_text().encode("utf-8")
    rows = workloads.FIGURE_ROWS

    def gate(blob: bytes):
        return workloads.figure_gate(hashlib.sha256(blob).hexdigest(), blob.count(b"\n"), rows)

    assert gate(data) is None
    middle = len(data) // 2
    flipped = bytes([data[middle] ^ 0x01])
    assert gate(data[:middle] + flipped + data[middle + 1:]) is not None
    assert gate(data[:-1]) is not None


def _responses(count: int, directory: Path, seed: int = 3) -> list[tuple[dict, dict]]:
    out = []
    for i, rep in enumerate(workloads.invariants_inputs(seed)[:count]):
        path = directory / f"rep{i}.json"
        path.write_text(json.dumps(rep), encoding="utf-8")
        sink = workloads.HashSink(keep=True)
        assert workloads.cli_call(pkg, ["invariants", "--input", str(path)], sink) == 0
        out.append((rep, json.loads(sink.text())))
    return out


def _t_field(rep: dict, response: dict) -> dict:
    return response["t"] if "summands" in rep else response["langlands_reading"]["t"]


def test_invariants_gate_catches_a_wrong_t(tmp_path):
    pairs = _responses(40, tmp_path)
    kinds = {
        "segments" if "segments" in rep
        else "twisted" if any(s["x"] != "0" for s in rep["summands"]) else "arthur"
        for rep, _ in pairs
    }
    assert kinds == {"segments", "twisted", "arthur"}
    for rep, response in pairs:
        assert workloads.invariants_gate(rep, response) is None
        wrong = copy.deepcopy(response)
        _t_field(rep, wrong)["num"] += 1
        assert "t" in workloads.invariants_gate(rep, wrong)
        wrong = copy.deepcopy(response)
        wrong["wavefront"] = wrong["wavefront"][::-1] + [1]
        assert workloads.invariants_gate(rep, wrong) is not None


def test_same_seed_gives_byte_identical_inputs():
    def blob(seed: int) -> bytes:
        return json.dumps(workloads.invariants_inputs(seed)).encode("utf-8")

    assert blob(7) == blob(7)
    assert blob(7) != blob(8)
    sizes = [
        sum(s["rho"]["dim"] * s["a"] * s["d"] for s in rep["summands"]) if "summands" in rep
        else sum(seg["rho"]["dim"] for seg in rep["segments"])
        for rep in workloads.invariants_inputs(7)
    ]
    assert max(sizes) <= workloads.INVARIANTS_MAX_N
    # parts and segment lengths are drawn up to the room left, not only short ones
    longest = max(
        max(s["d"] for s in rep["summands"]) if "summands" in rep
        else max(workloads.expected_invariants(rep)["partition"])
        for rep in workloads.invariants_inputs(7)
    )
    assert longest > 10 * math.isqrt(workloads.INVARIANTS_MAX_N)


def test_own_arithmetic_matches_known_values():
    assert workloads.own_partition_counts(50)[50] == workloads.FIGURE_ROWS
    assert workloads.own_dual([3, 1]) == [2, 1, 1]
    assert workloads.consistency_cases() == 20_824 + workloads.CONSISTENCY_RANDOM
    # Speh rho[1][2] on GL_2: character (1/2, -1/2), t = 1
    assert workloads.scan_t([(1, 2, 1), (-1, 2, 1)], 2) == (1, 1)


def _traced_counts(directory: Path) -> dict:
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        with tracer.span(spans.ROOT):
            summary = pkg.verify.verify_uncertainty_arthur(30, threads=2)
            _responses(5, directory)
    finally:
        installation.restore()
    assert summary.count == workloads.own_partition_counts(30)[30]
    return dict(tracer.counts)


def test_counters_repeat_and_wrappers_are_restored(tmp_path):
    originals = (pkg.verify.partition_tuples, pkg.partitions.Partition.__dict__["__init__"],
                 pkg.cli.main)
    first, second = _traced_counts(tmp_path), _traced_counts(tmp_path)
    assert first == second
    assert first["partitions.enumerated"] == workloads.own_partition_counts(30)[30]
    assert first["verify.chunks"] >= 2 and first["verify.ipc_bytes"] > 0
    assert first["decay.scan_cuts"] > 0 and first["rationals.fraction_objects"] > 0
    assert originals == (pkg.verify.partition_tuples,
                         pkg.partitions.Partition.__dict__["__init__"], pkg.cli.main)


def test_exits_nonzero_without_a_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_what_run_py_reports():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(run.PER_LAYER) == set(spans.SPANS) | {spans.ROOT} | set(spans.COUNTERS) | {
        "verify.pool_start_s", "verify.parallel_speedup", "trace.overhead"}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
