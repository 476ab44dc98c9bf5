"""The benchmark's four workloads, their seeded inputs and correctness gates.

A workload is a list of requests.  Each request is one call into the
program's public API or CLI, made in-process; only that call is timed.  Its
output then goes through the workload's gate, which recomputes the expected
answer with the benchmark's own integer code (or a pinned digest) and never
with the code under test.

Inputs come only from the seed, and generating them is not timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FIGURE_N = 50
FIGURE_ROWS = 204_226
FIGURE_SHA256 = "d1eebec8b88bef16c0e515bba2a1185b96f9dc68eed36df6808c56f25360dc5f"

ARTHUR_NS = tuple(range(2, 51))

# Exhaustive budget: multisets of 1..3 summands over 3 * 4 * 4 = 48 shapes.
CONSISTENCY_SUMMANDS, CONSISTENCY_DIM, CONSISTENCY_A, CONSISTENCY_D = 3, 3, 4, 4
CONSISTENCY_RANDOM = 2000

INVARIANTS_BATCH = 1000
# A single summand with d = 3,000,000 does not finish today (the program
# materialises lists of length N), and a throughput workload cannot time a
# hang; N stays at or below this cap until that robustness defect is fixed.
INVARIANTS_MAX_N = 2000
INVARIANTS_WARMUP = 50


@dataclass
class Request:
    """One timed call.  ``call(threads)`` returns the output; ``check(output)``
    returns None when it is right and a reason when it is not."""

    label: str
    cases: int
    call: Callable[[int], object]
    check: Callable[[object], Optional[str]]
    # bytes the call wrote to stdout
    nbytes: Callable[[object], int] = lambda output: 0


def import_program():
    """Import the package from the checkout's ``src``; SystemExit(2) when the
    checkout holds no program."""
    if not (SRC / "gln_invariants" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gln_invariants.cli  # noqa: F401

    return sys.modules["gln_invariants"]


# ---------------------------------------------------------------------------
# the benchmark's own integer arithmetic, independent of the program


def own_partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) by the parts-at-most-k table, not the pentagonal recurrence."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            table[total] += table[total - part]
    return table


def own_dual(parts: list[int]) -> list[int]:
    if not parts:
        return []
    counts = [0] * (max(parts) + 2)
    for p in parts:
        counts[p] += 1
    dual, at_least = [], 0
    for j in range(max(parts), 0, -1):
        at_least += counts[j]
        dual.append(at_least)
    return dual[::-1]


def reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def own_scan(values: list[tuple[int, int]], n: int) -> tuple[int, int]:
    """Exact max over cuts 1..n-1 of 2*sigma_i/(i(n-i)) for the multiset of
    rationals given as (numerator, count) over the common denominator of the
    caller's choosing; returns (2*sigma, i(n-i)) unreduced, without the
    common denominator."""
    best_num, best_den = 0, 0
    sigma, i = 0, 0
    for value, count in sorted(values, reverse=True):
        for _ in range(count):
            sigma += value
            i += 1
            if i == n:
                break
            num, den = 2 * sigma, i * (n - i)
            if best_den == 0 or num * best_den > best_num * den:
                best_num, best_den = num, den
    return best_num, best_den


def common_scale(values: list[tuple[int, int, int]]) -> tuple[dict[int, int], int]:
    """A multiset of rationals (num, den, count) as {scaled value: count}
    over one common denominator ``unit``."""
    unit = 1
    for _, den, _ in values:
        unit = unit * den // math.gcd(unit, den)
    merged: dict[int, int] = {}
    for num, den, count in values:
        merged[num * (unit // den)] = merged.get(num * (unit // den), 0) + count
    return merged, unit


def scan_t(values: list[tuple[int, int, int]], n: int) -> tuple[int, int]:
    """t for a multiset of rationals (num, den, count), reduced."""
    merged, unit = common_scale(values)
    num, den = own_scan(list(merged.items()), n)
    return reduced(num, den * unit)


def rat_text(num: int, den: int) -> str:
    num, den = reduced(num, den)
    return str(num) if den == 1 else f"{num}/{den}"


# ---------------------------------------------------------------------------
# figure


class HashSink:
    """Stand-in for stdout that keeps only a sha256, a byte count and the
    number of newlines; ``keep`` also keeps the text."""

    def __init__(self, keep: bool = False):
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.lines = 0
        self.parts: Optional[list[str]] = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.nbytes += len(data)
        self.lines += text.count("\n")
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts or ())


def figure_gate(digest: str, lines: int, expected_rows: int) -> Optional[str]:
    """The header plus ``expected_rows`` rows, byte-identical to the pin."""
    if lines - 1 != expected_rows:
        return f"figure has {lines - 1} rows, expected {expected_rows}"
    if digest != FIGURE_SHA256:
        return f"figure sha256 {digest} differs from the pinned {FIGURE_SHA256}"
    return None


def cli_call(pkg, argv: list[str], sink: HashSink) -> int:
    with redirect_stdout(sink):
        return pkg.cli.main(argv)


def figure_requests(pkg, seed: int, workdir: Path) -> list[Request]:
    # The figure has no free input: every seed asks for the same dataset.
    counted = pkg.partition_count(FIGURE_N)

    def call(threads: int):
        sink = HashSink()
        code = cli_call(pkg, ["figure", "--N", str(FIGURE_N), "--threads", str(threads)], sink)
        return code, sink

    def check(output) -> Optional[str]:
        code, sink = output
        if code != 0:
            return f"figure exited {code}"
        if counted != FIGURE_ROWS:
            return f"partition_count({FIGURE_N}) = {counted}, expected {FIGURE_ROWS}"
        return figure_gate(sink.sha.hexdigest(), sink.lines, FIGURE_ROWS)

    return [Request(f"figure N={FIGURE_N}", FIGURE_ROWS, call, check, nbytes=_sink_bytes)]


def _sink_bytes(output) -> int:
    return output[1].nbytes


# ---------------------------------------------------------------------------
# arthur-sweep


def arthur_requests(pkg, seed: int, workdir: Path) -> list[Request]:
    """One request: the whole sweep, as acceptance criterion 2 runs it, with
    N in a seeded order."""
    counts = own_partition_counts(max(ARTHUR_NS))
    order = list(ARTHUR_NS)
    random.Random(seed).shuffle(order)

    def call(threads: int):
        return [pkg.verify.verify_uncertainty_arthur(n, threads=threads) for n in order]

    def check(summaries) -> Optional[str]:
        for n, summary in zip(order, summaries):
            if summary.count != counts[n]:
                return f"N={n}: checked {summary.count}, expected {counts[n]}"
            if summary.failures:
                return f"N={n}: {len(summary.failures)} failures"
        return None

    cases = sum(counts[n] for n in order)
    return [Request(f"verify_uncertainty_arthur N={ARTHUR_NS[0]}..{ARTHUR_NS[-1]}", cases,
                    call, check)]


# ---------------------------------------------------------------------------
# consistency


def consistency_cases() -> int:
    shapes = CONSISTENCY_DIM * CONSISTENCY_A * CONSISTENCY_D
    exhaustive = sum(math.comb(shapes + k - 1, k) for k in range(1, CONSISTENCY_SUMMANDS + 1))
    return exhaustive + CONSISTENCY_RANDOM


def consistency_requests(pkg, seed: int, workdir: Path) -> list[Request]:
    expected = consistency_cases()
    budget = pkg.ConsistencyBudget(
        max_summands=CONSISTENCY_SUMMANDS,
        max_dim=CONSISTENCY_DIM,
        max_a=CONSISTENCY_A,
        max_d=CONSISTENCY_D,
    )
    random_seed = random.Random(seed).randrange(2**31)

    def call(threads: int):
        return pkg.verify.verify_consistency(
            budget, random_cases=CONSISTENCY_RANDOM, seed=random_seed, threads=threads
        )

    def check(summary) -> Optional[str]:
        if summary.count != expected:
            return f"checked {summary.count} representations, expected {expected}"
        if summary.failures:
            return f"{len(summary.failures)} failures"
        return None

    return [Request(f"verify_consistency seed={random_seed}", expected, call, check)]


# ---------------------------------------------------------------------------
# invariants


def _stratified_sizes(rng: random.Random, count: int) -> list[int]:
    """Log-uniform N in [2, INVARIANTS_MAX_N], one draw per quantile stratum,
    so that every seed gets the same size profile with different values."""
    span = math.log(INVARIANTS_MAX_N / 2)
    return [
        min(INVARIANTS_MAX_N, int(2 * math.exp(span * (i + rng.random()) / count)))
        for i in range(count)
    ]


def _log_uniform(rng: random.Random, room: int) -> int:
    """A part or segment length in [1, room], log-uniform: mostly small,
    with a few as large as the room left."""
    return min(room, int(math.exp(rng.random() * math.log(room + 1))))


def _label(rng: random.Random, index: int, dims: dict) -> dict:
    dim = dims.setdefault(f"r{index}", rng.choice((1, 1, 1, 2, 3)))
    return {"id": f"r{index}", "dim": dim}


def gen_unitary(rng: random.Random, n: int, twisted: bool) -> dict:
    """Summands of total dimension exactly n; with ``twisted``, at least one
    +/- twist pair with a denominator in 3..20 when n allows one."""
    summands, dims, left, index = [], {}, n, 0
    want_pair = twisted
    while left > 0:
        index += 1
        rho = _label(rng, index, dims)
        if rho["dim"] > left:
            rho = {"id": f"u{index}", "dim": 1}
            dims[rho["id"]] = 1
        room = left // rho["dim"]
        pair = (want_pair or rng.random() < 0.3) and twisted and room >= 2
        if pair:
            room //= 2
        d = _log_uniform(rng, room)
        a = rng.randint(1, max(1, min(4, room // d))) if rng.random() < 0.3 else 1
        if pair:
            den = rng.randint(3, 20)
            num = rng.randint(1, (den - 1) // 2)
            for sign in ("", "-"):
                summands.append({"rho": rho, "a": a, "d": d, "x": f"{sign}{num}/{den}"})
            left -= 2 * rho["dim"] * a * d
            want_pair = False
        else:
            summands.append({"rho": rho, "a": a, "d": d, "x": "0"})
            left -= rho["dim"] * a * d
    return {"summands": summands}


def gen_multisegment(rng: random.Random, n: int) -> dict:
    segments, dims, left, index = [], {}, n, 0
    while left > 0:
        index += 1
        rho = _label(rng, rng.randint(1, 4), dims)
        if rho["dim"] > left:
            rho = {"id": f"u{index}", "dim": 1}
            dims[rho["id"]] = 1
        room = left // rho["dim"]
        length = _log_uniform(rng, room)
        den = rng.choice((1, 2, 2, 3, 4))
        start = rng.randint(-3 * den, 3 * den)
        segments.append({
            "rho": rho,
            "a": rat_text(start, den),
            "b": rat_text(start + (length - 1) * den, den),
        })
        left -= rho["dim"] * length
    return {"segments": segments}


def invariants_inputs(seed: int) -> list[dict]:
    """The batch: 35% Arthur-type, 35% twisted unitarizable, 30%
    multisegments, each class with its own stratified size profile, in a
    seeded order."""
    rng = random.Random(seed)
    arthur = round(0.35 * INVARIANTS_BATCH)
    twisted = round(0.35 * INVARIANTS_BATCH)
    multi = INVARIANTS_BATCH - arthur - twisted
    batch = [gen_unitary(rng, n, False) for n in _stratified_sizes(rng, arthur)]
    batch += [gen_unitary(rng, n, True) for n in _stratified_sizes(rng, twisted)]
    batch += [gen_multisegment(rng, n) for n in _stratified_sizes(rng, multi)]
    rng.shuffle(batch)
    return batch


def _parse_rat(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return reduced(int(num), int(den or 1))


def expected_invariants(rep: dict) -> dict:
    """What a correct response must hold, from the benchmark's own integer
    code: N, the Arthur-SL2 (or Zelevinsky partition), its dual, g, t and the
    character."""
    if "summands" in rep:
        blocks = [(s["d"], s["rho"]["dim"] * s["a"]) for s in rep["summands"]]
        twists = [_parse_rat(s["x"]) for s in rep["summands"]]
        # the string x + (d-1)/2, x + (d-3)/2, ..., x + (1-d)/2 over a
        # denominator of 2 * den
        chars = [
            (2 * xn + k * xd, 2 * xd, mult)
            for (d, mult), (xn, xd) in zip(blocks, twists)
            for k in range(d - 1, -d, -2)
        ]
        arthur_type = all(xn == 0 for xn, _ in twists)
    else:
        blocks, chars = [], []
        for seg in rep["segments"]:
            an, ad = _parse_rat(seg["a"])
            bn, bd = _parse_rat(seg["b"])
            length = (bn * ad - an * bd) // (ad * bd) + 1
            blocks.append((length, seg["rho"]["dim"]))
            # midpoint (a + b)/2 with multiplicity dim * length
            chars.append((an * bd + bn * ad, 2 * ad * bd, seg["rho"]["dim"] * length))
        arthur_type = None
    n = sum(d * mult for d, mult in blocks)
    parts = sorted((d for d, mult in blocks for _ in range(mult)), reverse=True)
    merged, unit = common_scale(chars)
    out = {
        "N": n,
        "partition": parts,
        "wavefront": own_dual(parts),
        "g": reduced(sum(mult * d * (d - 1) for d, mult in blocks), n * (n - 1)),
        "t": scan_t(chars, n),
        "character": [
            rat_text(v, unit) for v in sorted(merged, reverse=True) for _ in range(merged[v])
        ],
        "arthur_type": arthur_type,
    }
    if arthur_type:
        d1 = parts[0]
        closed = (0, 1) if d1 == 1 else reduced(d1 - 1, n - parts.count(d1))
        if closed != out["t"]:
            raise AssertionError("closed form and scan disagree inside the benchmark")
    return out


def invariants_gate(rep: dict, response: dict) -> Optional[str]:
    want = expected_invariants(rep)
    if "summands" in rep:
        got_t = response.get("t") or {}
        got_chars = response.get("character")
        got_parts = response.get("arthur_sl2")
        if response.get("arthur_type") != want["arthur_type"]:
            return "arthur_type differs"
    else:
        reading = response.get("langlands_reading") or {}
        got_t = reading.get("t") or {}
        got_chars = reading.get("character")
        got_parts = response.get("partition")
    got_g = response.get("g") or {}
    checks = (
        ("N", response.get("N"), want["N"]),
        ("partition", got_parts, want["partition"]),
        ("wavefront", response.get("wavefront"), want["wavefront"]),
        ("g", (got_g.get("num"), got_g.get("den")), want["g"]),
        ("t", (got_t.get("num"), got_t.get("den")), want["t"]),
        ("character", got_chars, want["character"]),
    )
    for field, got, expected in checks:
        if got != expected:
            return f"{field}: got {str(got)[:80]}, expected {str(expected)[:80]}"
    return None


def invariants_requests(pkg, seed: int, workdir: Path) -> list[Request]:
    requests = []
    for i, rep in enumerate(invariants_inputs(seed)):
        path = workdir / f"rep{i:04d}.json"
        path.write_text(json.dumps(rep), encoding="utf-8")
        argv = ["invariants", "--input", str(path)]

        def call(threads: int, argv=argv):
            sink = HashSink(keep=True)
            code = cli_call(pkg, argv, sink)
            return code, sink

        def check(output, rep=rep) -> Optional[str]:
            code, sink = output
            if code != 0:
                return f"invariants exited {code}"
            try:
                response = json.loads(sink.text())
            except ValueError as exc:
                return f"response is not JSON: {exc}"
            return invariants_gate(rep, response)

        requests.append(
            Request(f"invariants {path.name}", 1, call, check, nbytes=_sink_bytes)
        )
    return requests


WORKLOADS = {
    "figure": figure_requests,
    "arthur-sweep": arthur_requests,
    "consistency": consistency_requests,
    "invariants": invariants_requests,
}

# Requests run untimed before the first pass.  The figure's first call in a
# process is about 15% slower than the next ones and would skew a median of a
# few passes; the sweeps' passes are too long to repeat, so they get none.
WARMUP = {"figure": 1, "arthur-sweep": 0, "consistency": 0, "invariants": INVARIANTS_WARMUP}


def default_threads() -> int:
    """The CLI's default worker count with no environment override."""
    return os.cpu_count() or 1
