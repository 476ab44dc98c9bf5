"""Exhaustive verification sweeps and figure-dataset generation.

Every check here is an exact statement about rationals or partitions: the
uncertainty inequalities g <= t and t^2 <= g are tested by integer
cross-multiplication, the closed-form decay parameter is compared against the
full prefix-sum scan on every case (an exact maximum over every cut, taken
block by block), and the two classification routes to the
GK-dimension, wavefront set and character are compared as exact equalities.
Floats appear only in CSV rendering columns.

Sweeps split the partition stream into chunks processed independently (worker
processes when ``threads > 1``); summaries merge as a commutative monoid, so
results are independent of the chunking.  The figure's workers render their
chunks' CSV rows from integers, grouped by GK-dimension; the parent writes
the groups in increasing GK-dimension, chunk by chunk, which is the sorted
row order without a comparison sort of the rows.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from typing import IO, Iterable, Iterator, Optional, Sequence

from .arthur import ArthurSummand, UnitaryRep
from .decay import _max_ratio_blocks, decay_t, decay_t_arthur
from .partitions import (
    Partition,
    dual_partition,
    orbit_dim,
    partition_count,
    partition_tuples,
)
from .rationals import InputError, check_positive_int, ratio_decimal
from .segments import SupercuspidalLabel

MAX_SWEEP_N = 60
"""Largest N that ``verify_uncertainty_arthur``, ``figure_rows`` and
``write_figure_csv`` accept.  Each holds all p(N) partitions of N in memory:
p(60) = 966,467 tuples (``figure --N 60`` peaks near 330 MB on one thread,
its rendered rows included, and near 330 MB in the parent plus 270 MB in each
worker on two), where p(100) = 190,569,292 would need about 200 times as
much.  The partition stream itself (``partition_tuples``) is not capped."""

FIGURE_CSV_HEADER = (
    "partition,d_gk,g_num,g_den,t_num,t_den,g_float,t_float,sqrt_g_float,lower_ok,upper_ok"
)


@dataclass(frozen=True, slots=True)
class InvariantReport:
    """Bundled invariants of one representation (or one Arthur-SL2 partition)."""

    arthur_sl2: Partition
    wavefront: Partition
    d_gk: Fraction
    g: Fraction
    t: Fraction
    lower_ok: bool
    upper_ok: bool
    maximizers: frozenset[int]
    note: str = ""


@dataclass(slots=True)
class SweepSummary:
    """Outcome of a verification sweep; empty ``failures`` means the checked
    statements held on every case.  ``min_gap_lower`` is the least value of
    t - g and ``min_gap_upper`` the least slack in the upper bound actually
    checked (g - t^2 for Arthur sweeps)."""

    N: Optional[int]
    count: int = 0
    failures: list[InvariantReport] = field(default_factory=list)
    min_gap_lower: Optional[Fraction] = None
    min_gap_upper: Optional[Fraction] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "SweepSummary") -> "SweepSummary":
        def _min(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        return SweepSummary(
            N=self.N if self.N == other.N else None,
            count=self.count + other.count,
            failures=self.failures + other.failures,
            min_gap_lower=_min(self.min_gap_lower, other.min_gap_lower),
            min_gap_upper=_min(self.min_gap_upper, other.min_gap_upper),
        )


def _fold(N: Optional[int], worker, jobs: list, threads: int) -> SweepSummary:
    """Merge the summaries the worker returns for each job into one."""
    return reduce(SweepSummary.merge, _map_chunks(worker, jobs, threads), SweepSummary(N=N))


def report_for_rep(pi: UnitaryRep) -> InvariantReport:
    """Invariants plus uncertainty-bound verdicts for one representation."""
    a_sl2 = pi.arthur_sl2()
    g = pi.non_genericity()
    result = decay_t(pi.character())
    t = result.t
    return InvariantReport(
        arthur_sl2=a_sl2,
        wavefront=dual_partition(a_sl2),
        d_gk=pi.gk_dim(),
        g=g,
        t=t,
        lower_ok=g <= t,
        upper_ok=t * t <= g,
        maximizers=result.maximizers,
    )


def arthur_rep_from_partition(a: Partition | Iterable[int]) -> UnitaryRep:
    """The untwisted representation over dimension-1 labels whose Arthur-SL2
    is the given partition: one summand rho_i[1][d_i] per part."""
    parts = a.parts if isinstance(a, Partition) else tuple(sorted(a, reverse=True))
    return UnitaryRep(
        ArthurSummand(SupercuspidalLabel(f"rho{i}", 1), 1, d)
        for i, d in enumerate(parts, start=1)
    )


def report_for_arthur_partition(a: Partition | Iterable[int]) -> InvariantReport:
    return report_for_rep(arthur_rep_from_partition(a))


# ---------------------------------------------------------------------------
# chunked execution


def _map_chunks(worker, jobs: list, threads: int) -> Iterator:
    if threads > 1 and len(jobs) > 1:
        import multiprocessing  # here: only a pool needs it, and it adds ~10 ms to every start
        with multiprocessing.get_context().Pool(min(threads, len(jobs))) as pool:
            yield from pool.imap(worker, jobs)
    else:
        for job in jobs:
            yield worker(job)


def _chunked(seq: Iterable, size: int) -> Iterator[list]:
    it = iter(seq)
    while True:
        block = list(itertools.islice(it, size))
        if not block:
            return
        yield block


def _chunk_size(total: int, threads: int, floor: int = 2000) -> int:
    per = math.ceil(total / max(1, 4 * threads))
    return max(floor, per)


# ---------------------------------------------------------------------------
# Arthur-type uncertainty sweep


def _scan_two_xi(a_parts: Sequence[int], n: int) -> tuple[int, int]:
    """Full prefix-sum scan of the character attached to a partition of n
    (parts non-increasing): each part d gives the doubled entries d-1, d-3,
    ..., 1-d.  Their run-length blocks at unit 2 are built in O(d1), d1 the
    largest part, and ``decay._max_ratio_blocks`` takes the exact maximum
    over every cut, comparing at most the two end cuts of each block, on
    which the ratio is convex or decreasing.  Returns the unreduced
    (num, den) of the maximum ratio, the value decay_t gives."""
    d1 = a_parts[0]
    # after the suffix sums, e[k] counts the parts k, k+2, k+4, ...: the
    # multiplicity of the doubled values k-1 and 1-k
    e = [0] * (d1 + 2)
    for d in a_parts:
        e[d] += 1
    for k in range(d1 - 1, 0, -1):
        e[k] += e[k + 2]
    top = [(k - 1, e[k]) for k in range(d1, 1, -1) if e[k]]
    middle = [(0, e[1])] if e[1] else []
    return _max_ratio_blocks(top + middle + [(-v, mult) for v, mult in reversed(top)], 2)


def check_sweep_n(N: int, sweep: str) -> None:
    """Reject an N outside 2..MAX_SWEEP_N for ``sweep`` (named in the
    message), before any partition is enumerated."""
    if N < 2:
        raise ValueError(f"{sweep} requires N >= 2")
    if N > MAX_SWEEP_N:
        raise InputError(
            "N", f"must be at most {MAX_SWEEP_N}, as every partition of N is held in memory"
        )


def _partition_stats(parts: tuple[int, ...], n: int) -> tuple[int, int, int, int]:
    """Integer invariants of the Arthur-type representation whose Arthur-SL2
    is ``parts`` (a partition of n): s = sum of d(d-1), so g = s/(n(n-1));
    the sum of d^2, so d_GK = (n^2 - sum)/2; and the closed-form t as an
    unreduced (numerator, denominator)."""
    sq = 0
    for d in parts:
        sq += d * d
    d1 = parts[0]
    if d1 == 1:
        return sq - n, sq, 0, 1
    return sq - n, sq, d1 - 1, n - parts.count(d1)


def _arthur_chunk(job) -> SweepSummary:
    n, chunk = job
    nn1 = n * (n - 1)
    failures = []
    min_low = None  # (num, den) of t - g
    min_up = None  # (num, den) of g - t^2
    for parts in chunk:
        s, _, tn, td = _partition_stats(parts, n)
        scan_n, scan_d = _scan_two_xi(parts, n)
        notes = []
        if scan_n * td != tn * scan_d:
            notes.append("closed-form t differs from prefix-sum scan")
        lower_ok = s * td <= tn * nn1
        upper_ok = tn * tn * nn1 <= s * td * td
        if notes or not lower_ok or not upper_ok:
            report = report_for_arthur_partition(parts)
            failures.append(_failure_report(report, notes, lower_ok, upper_ok, "t^2 <= g"))
            continue
        low = (tn * nn1 - s * td, td * nn1)
        if min_low is None or low[0] * min_low[1] < min_low[0] * low[1]:
            min_low = low
        up = (s * td * td - tn * tn * nn1, nn1 * td * td)
        if min_up is None or up[0] * min_up[1] < min_up[0] * up[1]:
            min_up = up
    return SweepSummary(
        N=n,
        count=len(chunk),
        failures=failures,
        min_gap_lower=None if min_low is None else Fraction(*min_low),
        min_gap_upper=None if min_up is None else Fraction(*min_up),
    )


def _failure_report(
    report: InvariantReport, notes: list[str], lower_ok: bool, upper_ok: bool, upper: str
) -> InvariantReport:
    """``report`` noting each failed cross-check in ``notes`` and each failed
    bound, the upper one stated as ``upper``."""
    if not lower_ok:
        notes.append("lower bound g <= t failed")
    if not upper_ok:
        notes.append(f"upper bound {upper} failed")
    return replace(report, note="; ".join(notes))


def verify_uncertainty_arthur(N: int, threads: int = 1) -> SweepSummary:
    """Check g <= t and t^2 <= g for every partition of N, with t computed by
    the closed form and cross-checked against the full scan on every case.
    N must lie in 2..MAX_SWEEP_N."""
    check_sweep_n(N, "sweep")
    size = _chunk_size(partition_count(N), threads)
    jobs = [(N, chunk) for chunk in _chunked(partition_tuples(N), size)]
    return _fold(N, _arthur_chunk, jobs, threads)


# ---------------------------------------------------------------------------
# figure dataset


@dataclass(frozen=True, slots=True)
class FigureRow:
    partition: tuple[int, ...]
    d_gk: int
    g: Fraction
    t: Fraction
    lower_ok: bool
    upper_ok: bool


def _figure_columns(n: int, s: int, sq: int, tn: int, td: int) -> tuple[int, str, bool]:
    """(d_GK, the CSV columns after the partition, whether both bounds hold)
    for a partition of n with the ``_partition_stats`` (s, sq, tn, td):
    g = s/(n(n-1)) and t = tn/td, each reduced by gcd."""
    nn1 = n * (n - 1)
    lower_ok = s * td <= tn * nn1
    upper_ok = tn * tn * nn1 <= s * td * td
    d_gk = (n * n - sq) // 2
    k = math.gcd(s, nn1)
    gn, gd = s // k, nn1 // k
    k = math.gcd(tn, td)
    tn, td = tn // k, td // k
    tail = ",%d,%d,%d,%d,%d,%s,%s,%.12f,%s,%s\n" % (
        d_gk,
        gn,
        gd,
        tn,
        td,
        ratio_decimal(gn, gd),
        ratio_decimal(tn, td),
        math.sqrt(gn / gd),
        "true" if lower_ok else "false",
        "true" if upper_ok else "false",
    )
    return d_gk, tail, lower_ok and upper_ok


def _figure_chunk(job) -> tuple[str, dict[int, tuple[int, int]], int, int]:
    """The CSV rows of one chunk of partitions of n.  Returns (text, spans,
    row count, rows violating a bound): ``text`` holds the chunk's rows by
    increasing d_GK, in enumeration order within one d_GK, and ``spans``
    maps each d_GK to the (start, end) of its rows in ``text``.  One string
    per chunk, not one per d_GK: freed mid-sized strings stay in the
    parent's heap after a call, and the next pool's forked workers count
    them in their RSS.  Rows share their columns after the partition with
    every row of equal ``_partition_stats`` (8,060 distinct among the
    204,226 partitions of 50), so those are rendered once per chunk."""
    n, chunk = job
    rendered: dict[tuple[int, int, int, int], tuple[int, str, bool]] = {}
    lines: dict[int, list[str]] = {}
    violations = 0
    for parts in chunk:
        stats = _partition_stats(parts, n)
        row = rendered.get(stats)
        if row is None:
            row = rendered[stats] = _figure_columns(n, *stats)
        d_gk, tail, ok = row
        if not ok:
            violations += 1
        lines.setdefault(d_gk, []).append("+".join(map(str, parts)) + tail)
    rows, spans, at = [], {}, 0
    for d_gk in sorted(lines):
        group = lines[d_gk]
        size = sum(map(len, group))
        spans[d_gk] = (at, at + size)
        at += size
        rows += group
    return "".join(rows), spans, len(chunk), violations


def figure_rows(N: int) -> list[FigureRow]:
    """One row per partition of N, sorted by GK-dimension and then by the
    canonical enumeration order.  All fields exact; the verdicts compare
    ``Fraction``s.  N must lie in 2..MAX_SWEEP_N."""
    check_sweep_n(N, "figure")
    rows = []
    for parts in partition_tuples(N):
        s, sq, tn, td = _partition_stats(parts, N)
        g, t = Fraction(s, N * (N - 1)), Fraction(tn, td)
        rows.append(FigureRow(parts, (N * N - sq) // 2, g, t, g <= t, t * t <= g))
    rows.sort(key=lambda r: r.d_gk)
    return rows


def write_figure_csv(N: int, out: IO[str], threads: int = 1) -> tuple[int, int]:
    """Write the figure dataset (the rows of ``figure_rows``) as CSV with LF
    endings; returns (row count, number of rows violating a bound).

    Workers render their chunks' rows grouped by d_GK; the groups are
    written in increasing d_GK and, within one d_GK, in job order.  Chunks
    follow enumeration order, so no sort of the rows is needed and the
    output is byte-identical across runs and thread counts.  N must lie in
    2..MAX_SWEEP_N.
    """
    check_sweep_n(N, "figure")
    size = _chunk_size(partition_count(N), threads)
    jobs = [(N, chunk) for chunk in _chunked(partition_tuples(N), size)]
    texts, spans, counts, violations = zip(*_map_chunks(_figure_chunk, jobs, threads))
    out.write(FIGURE_CSV_HEADER + "\n")
    for d_gk in sorted(set().union(*spans)):
        for text, span in zip(texts, spans):
            if d_gk in span:
                start, end = span[d_gk]
                out.write(text[start:end])
    return sum(counts), sum(violations)


# ---------------------------------------------------------------------------
# unitarizable uncertainty sweep


def _unitary_groups(
    N: int, twist_grid: Sequence[Fraction]
) -> list[tuple[int, int, Fraction]]:
    groups = []
    for a in range(1, N + 1):
        for d in range(1, N // a + 1):
            groups.append((a, d, Fraction(0)))
            if 2 * a * d <= N:
                for y in twist_grid:
                    groups.append((a, d, y))
    return groups


def _group_weight(group: tuple[int, int, Fraction]) -> int:
    a, d, y = group
    return a * d if y == 0 else 2 * a * d


def _unitary_cases(
    N: int, twist_grid: Sequence[Fraction], max_summands: int
) -> Iterator[tuple[tuple[int, int, Fraction], ...]]:
    groups = _unitary_groups(N, twist_grid)

    def rec(start: int, remaining: int, used: int, acc: list):
        if remaining == 0:
            yield tuple(acc)
            return
        if used == max_summands:
            return
        for k in range(start, len(groups)):
            w = _group_weight(groups[k])
            if w <= remaining:
                acc.append(groups[k])
                yield from rec(k, remaining - w, used + 1, acc)
                acc.pop()

    yield from rec(0, N, 0, [])


def _rep_from_groups(case: Sequence[tuple[int, int, Fraction]]) -> UnitaryRep:
    summands = []
    for i, (a, d, y) in enumerate(case, start=1):
        rho = SupercuspidalLabel(f"rho{i}", 1)
        if y == 0:
            summands.append(ArthurSummand(rho, a, d))
        else:
            summands.append(ArthurSummand(rho, a, d, y))
            summands.append(ArthurSummand(rho, a, d, -y))
    return UnitaryRep(summands)


def _unitary_chunk(job) -> SweepSummary:
    n, chunk = job
    two_over_n = Fraction(2, n)
    failures = []
    min_low = None
    min_up = None
    for case in chunk:
        pi = _rep_from_groups(case)
        g = pi.non_genericity()
        t = decay_t(pi.character()).t
        notes = []
        if pi.is_arthur_type and t != decay_t_arthur(pi.arthur_sl2()):
            notes.append("closed-form t differs from prefix-sum scan")
        lower_ok = g <= t
        shifted = t - two_over_n
        if shifted < 0:
            shifted = Fraction(0)
        upper_ok = shifted * shifted <= g
        if notes or not lower_ok or not upper_ok:
            report = report_for_rep(pi)
            failures.append(
                _failure_report(report, notes, lower_ok, upper_ok, "(t - 2/N)^2 <= g")
            )
            continue
        low = t - g
        if min_low is None or low < min_low:
            min_low = low
        up = g - shifted * shifted
        if min_up is None or up < min_up:
            min_up = up
    return SweepSummary(
        N=n, count=len(chunk), failures=failures, min_gap_lower=min_low, min_gap_upper=min_up
    )


def verify_uncertainty_unitary(
    N: int,
    twist_grid: Sequence[Fraction],
    max_summands: int = 3,
    threads: int = 1,
) -> SweepSummary:
    """Check g <= t and t <= sqrt(g) + 2/N (exactly, as (t - 2/N)^2 <= g when
    t > 2/N) over all unitarizable shapes of total dimension N built from
    untwisted summands and +/- twisted pairs over dimension-1 labels, with at
    most ``max_summands`` summand groups and twists drawn from the grid."""
    if N < 2:
        raise ValueError("sweep requires N >= 2")
    check_positive_int(max_summands, "max_summands")
    grid = [Fraction(y) for y in twist_grid]
    for y in grid:
        if not 0 < y < Fraction(1, 2):
            raise InputError("twist_grid", f"values must lie strictly in (0, 1/2), got {y}")
    cases = list(_unitary_cases(N, grid, max_summands))
    jobs = [(N, chunk) for chunk in _chunked(cases, _chunk_size(len(cases), threads, 200))]
    return _fold(N, _unitary_chunk, jobs, threads)


# ---------------------------------------------------------------------------
# two-route consistency sweep


@dataclass(frozen=True, slots=True)
class ConsistencyBudget:
    """Limits for the exhaustive summand sweep; each is a positive integer
    (``max_total_dim`` may be None, for no cap)."""

    max_summands: int = 4
    max_dim: int = 3
    max_a: int = 4
    max_d: int = 4
    max_total_dim: Optional[int] = None

    def __post_init__(self):
        for name in ("max_summands", "max_dim", "max_a", "max_d"):
            check_positive_int(getattr(self, name), name)
        if self.max_total_dim is not None:
            check_positive_int(self.max_total_dim, "max_total_dim")


def _consistency_shapes(budget: ConsistencyBudget) -> list[tuple[int, int, int]]:
    return [
        (dim, a, d)
        for dim in range(1, budget.max_dim + 1)
        for a in range(1, budget.max_a + 1)
        for d in range(1, budget.max_d + 1)
    ]


def _rep_from_specs(specs: Sequence[tuple[int, int, int, int, int, int]]) -> UnitaryRep:
    # specs: (label_group, dim, a, d, x_num, x_den); +/- twisted pairs share a
    # label group so they sit on the same cuspidal line
    summands = []
    for group, dim, a, d, xn, xd in specs:
        summands.append(
            ArthurSummand(SupercuspidalLabel(f"rho{group}", dim), a, d, Fraction(xn, xd))
        )
    return UnitaryRep(summands)


def _check_consistency_rep(pi: UnitaryRep) -> list[str]:
    notes = []
    m_zel = pi.zelevinsky_data()
    wavefront = m_zel.wavefront()
    d_gk = pi.gk_dim()
    if d_gk != m_zel.gk_dim():
        notes.append("GK-dimension differs between Arthur and Zelevinsky routes")
    if d_gk != Fraction(orbit_dim(wavefront), 2):
        notes.append("GK-dimension differs from half the wavefront orbit dimension")
    if dual_partition(pi.arthur_sl2()) != wavefront:
        notes.append("wavefront differs between Arthur and Zelevinsky routes")
    if pi.character() != pi.langlands_data().character():
        notes.append("character differs between Arthur and Langlands routes")
    return notes


def _consistency_failure(pi: UnitaryRep, notes: list[str]) -> InvariantReport:
    a_sl2 = pi.arthur_sl2()
    report = InvariantReport(
        arthur_sl2=a_sl2,
        wavefront=dual_partition(a_sl2),
        d_gk=pi.gk_dim(),
        g=pi.non_genericity() if pi.N >= 2 else Fraction(0),
        t=decay_t(pi.character()).t if pi.N >= 2 else Fraction(0),
        lower_ok=True,
        upper_ok=True,
        maximizers=frozenset(),
        note="; ".join(notes),
    )
    return report


def _consistency_exhaustive_chunk(job) -> SweepSummary:
    """Check the slice [start, stop) of the summand multisets within the budget."""
    budget, start, stop = job
    shapes = _consistency_shapes(budget)
    combos = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(len(shapes)), k)
        for k in range(1, budget.max_summands + 1)
    )
    cases = []
    for combo in itertools.islice(combos, start, stop):
        specs = [(g,) + shapes[i] + (0, 1) for g, i in enumerate(combo, start=1)]
        if budget.max_total_dim is not None:
            if sum(dim * a * d for _, dim, a, d, _, _ in specs) > budget.max_total_dim:
                continue
        cases.append(specs)
    return _consistency_random_chunk((budget.max_total_dim, cases))


def _consistency_random_chunk(job) -> SweepSummary:
    """Check each case, given by its summand specs, by both routes."""
    n, cases = job
    failures = []
    for specs in cases:
        pi = _rep_from_specs(specs)
        notes = _check_consistency_rep(pi)
        if notes:
            failures.append(_consistency_failure(pi, notes))
    return SweepSummary(N=n, count=len(cases), failures=failures)


def _random_case_specs(
    budget: ConsistencyBudget, random_cases: int, seed: int
) -> list[list[tuple[int, int, int, int, int, int]]]:
    rng = random.Random(seed)
    cases = []
    attempts = 0
    while len(cases) < random_cases:
        attempts += 1
        if attempts > 2000 * max(1, random_cases):
            raise ValueError(
                "the total-dimension cap leaves too few admissible random cases"
            )
        slots = rng.randint(1, budget.max_summands)
        specs: list[tuple[int, int, int, int, int, int]] = []
        group = 0
        while slots > 0:
            group += 1
            dim = rng.randint(1, budget.max_dim)
            a = rng.randint(1, budget.max_a)
            d = rng.randint(1, budget.max_d)
            if slots >= 2 and rng.random() < 0.5:
                num = rng.randint(1, 9)
                specs.append((group, dim, a, d, num, 20))
                specs.append((group, dim, a, d, -num, 20))
                slots -= 2
            else:
                specs.append((group, dim, a, d, 0, 1))
                slots -= 1
        if budget.max_total_dim is not None:
            if sum(dim * a * d for _, dim, a, d, _, _ in specs) > budget.max_total_dim:
                continue
        cases.append(specs)
    return cases


def verify_consistency(
    budget: ConsistencyBudget = ConsistencyBudget(),
    random_cases: int = 10000,
    seed: int = 0,
    threads: int = 1,
) -> SweepSummary:
    """Compare the Arthur route (Arthur-SL2, its dual, the string character)
    against the Zelevinsky/Langlands route (multisegment partition, wavefront,
    midpoint character) as exact equalities.

    Runs exhaustively over all summand multisets within the budget (twists
    zero), then over ``random_cases`` sampled cases that also include +/-
    twisted pairs.
    """
    if random_cases < 0:
        raise InputError("random_cases", "must be a non-negative integer")
    shapes = _consistency_shapes(budget)
    total = sum(
        math.comb(len(shapes) + k - 1, k) for k in range(1, budget.max_summands + 1)
    )
    size = _chunk_size(total, threads)
    jobs: list = []
    for start in range(0, total, size):
        jobs.append((budget, start, min(start + size, total)))

    summary = _fold(budget.max_total_dim, _consistency_exhaustive_chunk, jobs, threads)
    cases = _random_case_specs(budget, random_cases, seed)
    size = _chunk_size(len(cases), threads, 500)
    rjobs = [(budget.max_total_dim, chunk) for chunk in _chunked(cases, size)]
    return summary.merge(_fold(budget.max_total_dim, _consistency_random_chunk, rjobs, threads))
