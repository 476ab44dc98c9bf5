"""Exhaustive verification sweeps and figure-dataset generation.

Every check here is an exact statement about rationals or partitions.
``report_for_rep`` judges one representation: g <= t and the upper bound of
its class, ``decay.shifted_decay``.  The partition sweeps (Arthur and
figure) state both bounds in integers through ``_arthur_gaps`` and read one
checked stream, ``_tallies`` (its docstring gives the bookkeeping), which
cross-checks the closed-form decay parameter on every partition against
the exact maximum over every cut, ``_scan_two_xi`` (its docstring proves
which cuts it may skip).  ``_arthur_chunk`` judges each bound class once;
``_figure_chunk`` and ``write_figure_csv`` give the figure's labels and row
order.  The consistency sweep compares the two classification routes to
the GK-dimension, wavefront set and character as exact equalities.  Floats
appear only in CSV rendering columns.

Every sweep counts its cases first with ``_case_count``, which rejects more
than ``MAX_SWEEP_CASES``, and cuts their ranks ``range(count)`` into chunks
with ``_sweep``, mapping a worker over them (a ``concurrent.futures``
process pool when ``threads > 1``); a failed chunk raises ``SweepError``.
Each worker enumerates its own run from the case at its first rank, so the
parent builds none: the partitions of N (Arthur and figure), the
unitarizable cases by weight profile, and the consistency budget's summand
multisets followed by its seeded random sample, redrawn from the seed.
Every chunk checks its stream with ``_check_rank_count``.  Summaries merge
as a monoid, so results are independent of the chunking.  Each failure row
is the ``report_for_rep`` of its representation, the report ``glninv
invariants`` prints, with a note naming the failed checks.

A unitarizable or consistency case is a tuple of shared summand groups: group
i (from 1) is one ``(dim, a, d, x_num, x_den)`` summand over the label rho{i},
or a +/- twisted pair, and ``_rep_from_case`` builds it (or a partition).
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, partial, reduce
from typing import IO, Iterable, Iterator, Optional, Sequence

from .arthur import ArthurSummand, UnitaryRep
from .decay import CharacterList, decay_t, decay_t_arthur, shifted_decay
from .partitions import Partition, as_parts, dual_partition, orbit_dim, partition_tuples
from .rationals import InputError, check_positive_int, parse_rat, ratio_decimal, read_at
from .segments import SupercuspidalLabel

MAX_SWEEP_CASES = 1_000_000
"""Most cases a sweep checks, counted before any is built (``verify-unitary
--N 60 --max-summands 6`` would ask for 1,629,922,443).  Only the figure's
rendered rows are held in memory; p(60) = 966,467 <= MAX_SWEEP_CASES <
p(61), so the partition sweeps stop at N = 60 (``figure --N 60`` peaks near
240 MB).  The partition stream itself
(``partition_tuples``) is not capped."""

MAX_INPUT_N = 100_000
"""Largest total dimension N of a representation: ``cli.parse_rep`` rejects
a larger input, and ``verify_uncertainty_unitary`` a larger N before it
builds a summand group.  ``invariants`` builds the Arthur-SL2 and the
character as lists of length N (a Speh input with d = 100,000 took 2.5-3.1 s
and 58 MB on a 2-vCPU Xeon), so without a cap a 62-byte input with
``"dim": 1000000000`` asks for 10^9 parts."""

SCAN_MISMATCH = "closed-form t differs from prefix-sum scan"
"""The note of a case whose closed-form t the exact cut scan contradicts."""

FIGURE_CSV_HEADER = (
    "partition,d_gk,g_num,g_den,t_num,t_den,g_float,t_float,sqrt_g_float,lower_ok,upper_ok"
)


@dataclass(frozen=True, slots=True)
class InvariantReport:
    """Bundled invariants of one representation (or one Arthur-SL2 partition).
    At N = 1, where g and t are undefined, g, t and both verdicts are None."""

    arthur_sl2: Partition
    wavefront: Partition
    d_gk: Fraction
    character: CharacterList
    g: Optional[Fraction]
    t: Optional[Fraction]
    lower_ok: Optional[bool]
    upper_ok: Optional[bool]
    maximizers: frozenset[int]
    note: str = ""


@dataclass(slots=True)
class SweepSummary:
    """Outcome of a verification sweep; empty ``failures`` means the checked
    statements held on every case.  ``min_gap_lower`` is the least value of
    t - g and ``min_gap_upper`` the least slack g - shifted_decay(t)^2 in
    the upper bound of each case's class: g - t^2 for Arthur type and
    g - (t - 2/N)_+^2 otherwise."""

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
            return min((x for x in (a, b) if x is not None), default=None)

        return SweepSummary(
            N=self.N if self.N == other.N else None,
            count=self.count + other.count,
            failures=self.failures + other.failures,
            min_gap_lower=_min(self.min_gap_lower, other.min_gap_lower),
            min_gap_upper=_min(self.min_gap_upper, other.min_gap_upper),
        )


class SweepError(RuntimeError):
    """A sweep chunk failed: its worker raised, or the worker pool broke (a
    worker died, or its result could not be unpickled)."""


def report_for_rep(pi: UnitaryRep) -> InvariantReport:
    """Invariants plus uncertainty-bound verdicts for one representation of
    any dimension N: ``lower_ok`` is g <= t and ``upper_ok`` the bound of its
    class, shifted_decay(t)^2 <= g, which is t <= sqrt(g) for Arthur type and
    t <= sqrt(g) + 2/N otherwise.  At N = 1 there are no bounds to check."""
    a_sl2 = pi.arthur_sl2()
    xi = pi.character()
    g = t = lower_ok = upper_ok = None
    maximizers = frozenset()
    if pi.N >= 2:
        g = pi.non_genericity()
        result = decay_t(xi)
        t, maximizers = result.t, result.maximizers
        shifted = shifted_decay(t, pi.N, pi.is_arthur_type)
        lower_ok, upper_ok = g <= t, shifted * shifted <= g
    return InvariantReport(
        arthur_sl2=a_sl2,
        wavefront=dual_partition(a_sl2),
        d_gk=pi.gk_dim(),
        character=xi,
        g=g,
        t=t,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        maximizers=maximizers,
    )


_ZERO = Fraction(0)


@cache
def _label(i: int, dim: int) -> SupercuspidalLabel:
    """The label rho{i} on GL_dim, one object for every case that uses it; i
    is at most the number of summand groups of a case."""
    return SupercuspidalLabel(f"rho{i}", dim)


def _rep_from_case(case) -> UnitaryRep:
    return UnitaryRep(
        ArthurSummand(_label(i, dim), a, d, Fraction(xn, xd) if xn else _ZERO)
        for i, group in enumerate(case, start=1)
        for dim, a, d, xn, xd in group
    )


def _case_dim(case) -> int:
    return sum(dim * a * d for group in case for dim, a, d, _, _ in group)


def _case_count(sizes: Iterable[int], field: str) -> int:
    """The total of a sweep's case counts ``sizes``; InputError naming
    ``field`` at the first running total above MAX_SWEEP_CASES, so the rest of
    ``sizes`` is never drawn."""
    total = 0
    for size in sizes:
        if (total := total + size) > MAX_SWEEP_CASES:
            raise InputError(field, f"the sweep would check more than {MAX_SWEEP_CASES} cases")
    return total


def arthur_rep_from_partition(a: Partition | Iterable[int]) -> UnitaryRep:
    """The untwisted representation over dimension-1 labels whose Arthur-SL2
    is the given partition: one summand rho_i[1][d_i] per part."""
    return _rep_from_case(tuple(((1, 1, d, 0, 1),) for d in as_parts(a)))


def report_for_arthur_partition(a: Partition | Iterable[int]) -> InvariantReport:
    return report_for_rep(arthur_rep_from_partition(a))


# ---------------------------------------------------------------------------
# chunked execution


def _chunk_size(total: int, threads: int, floor: int) -> int:
    return max(floor, math.ceil(total / max(1, 4 * threads)))


def _sweep(worker, key, ranks: range, threads: int, floor: int) -> Iterator:
    """``worker((key, chunk))``, in order, for the case ranks ``ranks`` cut into
    ranges of at least ``floor``, ~4 per thread; a worker builds its cases."""
    check_positive_int(threads, "threads")
    size = _chunk_size(len(ranks), threads, floor)
    jobs = [(key, ranks[start : start + size]) for start in range(0, len(ranks), size)]
    return _map_chunks(worker, jobs, threads)


def _partition_counts(N: int) -> list[list[int]]:
    """ways[m][k], the partitions of m with parts at most k <= m, row by row
    for m = 0..N; stops early after the first row whose total p(m) = ways[m][m]
    passes MAX_SWEEP_CASES."""
    ways = [[1]]
    while len(ways) <= N and ways[-1][-1] <= MAX_SWEEP_CASES:
        m = len(ways)
        runs = (ways[m - k][min(k, m - k)] for k in range(1, m + 1))  # first part k
        ways.append(list(itertools.accumulate(runs, initial=0)))
    return ways


def partition_ranks(N: int) -> range:
    """``range(p(N))``, the ranks of the partitions of N in the order of
    ``partition_tuples``; InputError for N < 2 or p(N) > MAX_SWEEP_CASES."""
    check_positive_int(N, "N")
    total = _case_count([_partition_counts(N)[-1][-1]], "N")
    check_sweep_n(N)
    return range(total)


def _ranked_partitions(job) -> Iterator[tuple[int, ...]]:
    """The partitions of n at ``ranks``, enumerated from the one at the first
    rank.  The counting table locates it part by part: split ``rest`` into
    parts at most k, the first part j = k, k - 1, ... runs for
    ways[rest - j][min(j, rest - j)] ranks."""
    n, ranks = job
    ways, rank, rest, start = _partition_counts(n), ranks.start, n, []
    while rest:
        j = min(start[-1], rest) if start else rest
        while rank >= (run := ways[rest - j][min(j, rest - j)]):
            rank -= run
            j -= 1
        start.append(j)
        rest -= j
    return itertools.islice(partition_tuples(n, start), len(ranks))


def _tallies(job) -> Iterator:
    """(parts, i, sq, tn, td, scan_ok) for each partition of n at the ranks
    of ``job`` = (n, ranks), from ``_ranked_partitions(job)``: i is the
    position of the first part that changed (0 for the first), so parts[:i]
    is the previous partition's; sq the sum of d^2; tn/td > 0 the unreduced
    closed form t = (d1 - 1)/(n - c[d1]) (0/1 when d1 = 1), c[k] the number
    of parts k; and scan_ok whether ``_scan_two_xi`` agrees with it.

    The first partition is counted; each later q rewrites only the tail of
    its predecessor p from i, p's last part above 1: p[i] and p's trailing
    ones leave, and q's tail is m = len(q) - i parts, m - 1 copies of
    v = q[i] and the last part r <= v.  The scan resumes at ``top``, the
    highest level at or below d1 whose count changed.  The last partition
    is recounted, and a count that drifted raises, as does a partition the
    counts cannot take (an index out of range) and a run without one
    partition per rank (a run that skipped a partition can leave the counts
    right)."""
    n, ranks = job
    c, sq, p, count = [0] * (n + 2), 0, None, 0
    saved = [None] * (n + 2)  # the scan's state after each level
    for count, q in enumerate(_ranked_partitions(job), start=1):
        if p is None:
            for d in q:
                c[d] += 1
                sq += d * d
            top, i = q[0], 0
        else:
            ones = c[1]
            i = len(p) - ones - 1
            top = p[i]
            c[top] -= 1
            c[1] = 0
            try:  # q is shorter than p's kept prefix, or holds a part above n + 1
                v, r, m = q[i], q[-1], len(q) - i
                c[v] += m - 1
                c[r] += 1
            except IndexError as exc:
                raise RuntimeError(f"part counts drifted from the partition stream at {q}") from exc
            sq += (m - 1) * v * v + r * r - top * top - ones
            if not i:
                top = v
        d1 = q[0]
        if top == d1:
            saved[d1 + 1] = (0, 0, d1 - 1, n - 1, 0, 0)
        tn, td = (d1 - 1, n - c[d1]) if d1 > 1 else (0, 1)
        scan_n, scan_d = _scan_two_xi(c, n, top, saved)
        yield q, i, sq, tn, td, scan_n * td == tn * scan_d
        p = q
    if p is not None:
        recount = [0] * (n + 2)
        for d in p:
            recount[d] += 1
        if recount != c or sum(d * d for d in p) != sq:
            raise RuntimeError(f"part counts drifted from the partition stream at {p}")
    _check_rank_count(count, ranks)


def _ignore_sigint() -> None:
    """Pool worker initializer: ignore SIGINT, which Ctrl-C sends to the whole
    process group, so the pool does not break under it and the parent ends
    the sweep.  The worker starts with SIGINT held (``_held``) until here."""
    import signal  # here: only a pool worker needs it

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGINT])


def _held(call, *args, **kwargs):
    """``call(*args, **kwargs)`` with SIGINT held in this thread and in the
    processes and threads it starts; one that arrives meanwhile is taken on
    return."""
    import signal  # here: only a pool needs it

    held = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        return call(*args, **kwargs)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _map_chunks(worker, jobs: list, threads: int) -> Iterator:
    """``worker(job)`` for each job in order, in a pool of at most one process
    per CPU when there are several threads and jobs; a failure raises
    SweepError naming the job.  SIGINT is held while the workers start, so
    none dies of it, and while the pool shuts down, so a second one cannot
    stop the shutdown halfway."""
    pool = None
    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: only a pool needs it
        pool = ProcessPoolExecutor(
            min(threads, len(jobs), os.cpu_count() or 1), initializer=_ignore_sigint
        )
    done = 0
    try:
        for result in map(worker, jobs) if pool is None else _held(pool.map, worker, jobs):
            yield result
            done += 1
    except Exception as exc:
        key = jobs[done][0]
        where = repr(key) if isinstance(key, ConsistencyBudget) else f"N={key}"
        raise SweepError(f"sweep chunk {done + 1} of {len(jobs)} ({where}) failed: "
                         f"{type(exc).__name__}: {exc}") from exc
    finally:
        if pool is not None:
            _held(pool.shutdown, cancel_futures=True)  # the jobs not yet started


# ---------------------------------------------------------------------------
# Arthur-type uncertainty sweep


def _scan_two_xi(c: Sequence[int], n: int, top: int, saved: list) -> tuple[int, int]:
    """Exact maximum of 2*sigma_i/(2*i*(n-i)) over every cut 1 <= i <= n-1
    of the character attached to a partition of n with c[k] parts k: each
    part d gives the doubled entries d-1, d-3, ..., 1-d.  Returns the
    unreduced (num, den) of the maximum ratio, the value decay_t gives, with
    den > 0 when n >= 2.

    The doubled value k-1 >= 0 has multiplicity e[k], the number of parts
    k, k+2, k+4, ..., carried down from k = d1 (the greatest part) in one
    pass.  The character is negation-symmetric and sums to 0, so
    sigma_{n-i} = sigma_i: the cuts past (n + e[1])/2 >= n/2, the end of the
    zero block, mirror earlier ones.  The zero block (level 1) cannot raise
    the maximum either, so only the positive blocks, levels d1 down to 2,
    are scanned.  With i positive entries, 2i + e[1] = n, so
    i <= (n - 1)/2 and w_{i+1} >= w_i for w_j = j*(n-j): the zero block's
    first cut has the sigma of cut i and a w at least as large, so it cannot
    beat cut i, the last positive block's end, which was compared (or cut 1,
    the seed); its last cut, n - i, mirrors cut i, an equal ratio and not a
    greater one.  For [1^n] no level is scanned and the seed (0, 2(n - 1))
    is the maximum.  On a block after cut i0, sigma_i = alpha + v*i with
    alpha = sigma_{i0} - v*i0, the earlier entries' excess over v, so
    alpha >= 0 as the values decrease; as 1/(i(n-i)) = (1/i + 1/(n-i))/n,
    the ratio is proportional to alpha/i + beta/(n-i), beta = alpha + v*n,
    and beta >= 0 as v > 0: convex, so its maximum over the block is at the
    block's first or last cut, and only those are compared, in integers.

    The pass resumes at level ``top`` from saved[top + 1] and stores in
    saved[k] its state after level k >= 2: (the cut i before the next
    block, sigma_i, the best (s, w) so far, e[k], e[k+1]).  That state reads
    only the counts at levels k and above, so saved[top + 1] still holds for
    a partition whose counts changed at top and below.  The caller seeds
    saved[d1 + 1] = (0, 0, d1 - 1, n - 1, 0, 0), cut 1 as the first
    block's first cut, for a pass from top = d1."""
    i, sigma, best_s, best_w, above, above2 = saved[top + 1]
    for k in range(top, 1, -1):
        mult = c[k] + above2  # e[k]
        above, above2 = mult, above
        if mult:
            v = k - 1
            if i:  # the first block's first cut is the seed
                j = i + 1
                s = sigma + v
                w = j * (n - j)
                if s * best_w > best_s * w:
                    best_s, best_w = s, w
            if mult > 1:
                j = i + mult
                s = sigma + v * mult
                w = j * (n - j)
                if s * best_w > best_s * w:
                    best_s, best_w = s, w
            i += mult
            sigma += v * mult
        saved[k] = i, sigma, best_s, best_w, above, above2
    return 2 * best_s, 2 * best_w


def check_sweep_n(N: int) -> None:
    """Reject an N that is not an integer from 2 to MAX_INPUT_N, before any case."""
    check_positive_int(N, "N")
    if N < 2:
        raise InputError("N", "must be at least 2")
    if N > MAX_INPUT_N:
        raise InputError(
            "N", f"must be at most {MAX_INPUT_N}, the cap on a representation's total dimension"
        )


def _arthur_gaps(n: int, s: int, tn: int, td: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """t - g and g - t^2, each an unreduced (num, den) with den > 0, for
    g = s/(n(n-1)) and t = tn/td (td > 0): g <= t holds iff the first num is
    >= 0, and t^2 <= g iff the second is."""
    nn1 = n * (n - 1)
    return (tn * nn1 - s * td, td * nn1), (s * td * td - tn * tn * nn1, nn1 * td * td)


def _check_rank_count(count: int, ranks: range) -> None:
    """Raise unless a chunk's case stream gave ``count`` = one case per rank
    of ``ranks``: a stream that ran short would otherwise shrink the sweep's
    count and fail nothing."""
    if count != len(ranks):
        raise RuntimeError(f"enumerated {count} cases for the {len(ranks)} ranks "
                           f"from {ranks.start}")


def _arthur_chunk(job) -> SweepSummary:
    """Check both bounds and the closed-form t against its scan on each
    partition of n at the ranks of ``job`` = (n, ranks), from ``_tallies``.

    The bounds read only the class (sq, tn, td) of a row, and few rows
    start one: 8,060 of the 204,226 partitions of 50 in one chunk, 8,416
    over the eight chunks of a 2-thread sweep.  ``passed`` holds the classes
    whose bounds held on a row whose scan agreed; a later row of such a
    class whose scan agrees is counted and nothing else: its gaps are those
    of the earlier row, so it is neither a failure nor a new least gap.
    Every other row is judged in full, so a row whose scan disagrees is
    reported every time and never adds its class."""
    n = job[0]
    failures = []
    checked = 0
    min_low = None  # (num, den) of t - g
    min_up = None  # (num, den) of g - t^2
    passed = set()
    for parts, _, sq, tn, td, scan_ok in _tallies(job):
        checked += 1
        key = sq, tn, td
        if scan_ok and key in passed:
            continue
        low, up = _arthur_gaps(n, sq - n, tn, td)
        if not scan_ok or low[0] < 0 or up[0] < 0:
            report = report_for_arthur_partition(parts)
            failures.append(_failure_report(report, scan_ok, low[0] >= 0, up[0] >= 0, True))
            continue
        if min_low is None or low[0] * min_low[1] < min_low[0] * low[1]:
            min_low = low
        if min_up is None or up[0] * min_up[1] < min_up[0] * up[1]:
            min_up = up
        passed.add(key)
    return SweepSummary(
        N=n,
        count=checked,
        failures=failures,
        min_gap_lower=None if min_low is None else Fraction(*min_low),
        min_gap_upper=None if min_up is None else Fraction(*min_up),
    )


def _failure_report(
    report: InvariantReport, scan_ok: bool, lower_ok: bool, upper_ok: bool, arthur_type: bool
) -> InvariantReport:
    """``report`` with a note naming each failed check: the closed-form t
    against its scan, the lower bound and the upper bound of its class."""
    notes = [] if scan_ok else [SCAN_MISMATCH]
    if not lower_ok:
        notes.append("lower bound g <= t failed")
    if not upper_ok:
        notes.append(f"upper bound {'t^2' if arthur_type else '(t - 2/N)^2'} <= g failed")
    return replace(report, note="; ".join(notes))


def verify_uncertainty_arthur(N: int, threads: int = 1) -> SweepSummary:
    """Check g <= t and t^2 <= g for every partition of N, with t computed by
    the closed form and cross-checked against the full scan on every case.
    N must be at least 2, with p(N) <= MAX_SWEEP_CASES."""
    chunks = _sweep(_arthur_chunk, N, partition_ranks(N), threads, 2000)
    return reduce(SweepSummary.merge, chunks, SweepSummary(N=N))


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


def _figure_columns(n: int, sq: int, tn: int, td: int) -> tuple[int, str, bool]:
    """(d_GK, the CSV columns after the partition, whether both bounds hold)
    for a partition of n with sum of d^2 ``sq`` and closed-form t = tn/td:
    d_GK = (n^2 - sq)/2 and g = s/(n(n-1)), s = sq - n the sum of d(d-1),
    with g and t each reduced by gcd."""
    s = sq - n
    (low, _), (up, _) = _arthur_gaps(n, s, tn, td)
    lower_ok, upper_ok = low >= 0, up >= 0
    nn1 = n * (n - 1)
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


def _figure_chunk(job) -> tuple[str, dict[int, tuple[int, int]], int, int, Counter]:
    """The CSV rows of one chunk of partitions of n.  Returns (text, spans,
    row count, failing rows, failed checks): ``text`` holds the chunk's rows
    by increasing d_GK, in enumeration order within one d_GK, and ``spans``
    maps each d_GK to the (start, end) of its rows in ``text``.  One string
    per chunk, not one per d_GK: freed mid-sized strings stay in the
    parent's heap after a call, and the next pool's forked workers count
    them in their RSS.  A row fails when it violates a bound or when the
    exact cut scan contradicts its closed-form t (``_tallies`` runs it on
    every row); ``failed`` counts the rows failing each of the two checks.

    Rows share their columns after the partition with every row of equal
    (sq, tn, td) from ``_tallies`` (8,060 distinct among the 204,226
    partitions of 50), so those are rendered once per chunk.  Labels are
    built from prefixes: pre[j] is the label of parts[:j] followed by "+".
    A partition keeps its predecessor's parts[:i] (``_tallies``' i; the
    chunk's first partition has i = 0), so its label is pre[i] and its
    tail, m - 1 copies of "v+" and then r, and pre[i + 1..i + m - 1] is
    refreshed on the way; only when v > 1, as a tail of ones never holds a
    later change position."""
    n = job[0]
    digits = [str(k) for k in range(n + 1)]
    plus = [d + "+" for d in digits]
    pre = [""] * n
    # (sq, tn, td) -> (the list of its d_GK's rows, its columns, both bounds hold)
    rendered: dict[tuple[int, int, int], tuple[list[str], str, bool]] = {}
    lines: dict[int, list[str]] = {}
    count = failing = 0
    failed: Counter = Counter()
    for parts, i, sq, tn, td, scan_ok in _tallies(job):
        count += 1
        head = pre[i]
        if parts[i] == 1:
            label = head + "1+" * (len(parts) - i - 1) + "1"
        else:
            for j in range(i + 1, len(parts)):
                head = pre[j] = head + plus[parts[j - 1]]
            label = head + digits[parts[-1]]
        key = sq, tn, td
        row = rendered.get(key)
        if row is None:
            if sq < n:  # a partition has sum of d^2 >= sum of d = n
                raise RuntimeError(f"part counts drifted from the partition stream at {parts}")
            d_gk, tail, ok = _figure_columns(n, sq, tn, td)
            row = rendered[key] = lines.setdefault(d_gk, []), tail, ok
        group, tail, ok = row
        if not (ok and scan_ok):
            failing += 1
            if not ok:
                failed["rows violate a bound"] += 1
            if not scan_ok:
                failed["rows: " + SCAN_MISMATCH] += 1
        group.append(label + tail)
    rows, spans, at = [], {}, 0
    for d_gk in sorted(lines):
        group = lines[d_gk]
        size = sum(map(len, group))
        spans[d_gk] = (at, at + size)
        at += size
        rows += group
    return "".join(rows), spans, count, failing, failed


def figure_rows(N: int) -> list[FigureRow]:
    """One row per partition of N, sorted by GK-dimension and then by the
    canonical enumeration order.  All fields exact; the verdicts compare
    ``Fraction``s.  N must be at least 2, with p(N) <= MAX_SWEEP_CASES."""
    partition_ranks(N)
    rows = []
    for parts in partition_tuples(N):
        sq = sum(d * d for d in parts)
        g, t = Fraction(sq - N, N * (N - 1)), decay_t_arthur(parts)
        rows.append(FigureRow(parts, (N * N - sq) // 2, g, t, g <= t, t * t <= g))
    rows.sort(key=lambda r: r.d_gk)
    return rows


def write_figure_csv(N: int, out: IO[str], threads: int = 1,
                     failed: Optional[Counter] = None) -> tuple[int, int]:
    """Write the figure dataset (the rows of ``figure_rows``) as CSV with LF
    endings; returns (row count, failing rows).  A row fails when it
    violates a bound or when the exact cut scan contradicts its closed-form
    t; ``failed``, when given, gains the number of rows failing each check,
    keyed by a phrase that follows that number ("rows violate a bound").

    Workers render their chunks' rows grouped by d_GK; the groups are
    written in increasing d_GK and, within one d_GK, in chunk order.  Chunks
    follow enumeration order, so no sort of the rows is needed and the
    output is byte-identical across runs and thread counts.  N must be at
    least 2, with p(N) <= MAX_SWEEP_CASES.
    """
    chunks = _sweep(_figure_chunk, N, partition_ranks(N), threads, 2000)
    texts, spans, counts, failing, checks = zip(*chunks)
    out.write(FIGURE_CSV_HEADER + "\n")
    for d_gk in sorted(set().union(*spans)):
        for text, span in zip(texts, spans):
            if d_gk in span:
                start, end = span[d_gk]
                out.write(text[start:end])
    if failed is not None:
        for chunk_checks in checks:
            failed.update(chunk_checks)
    return sum(counts), sum(failing)


# ---------------------------------------------------------------------------
# unitarizable uncertainty sweep


def _divisors(m: int) -> list[int]:
    return sorted({a for b in range(1, math.isqrt(m) + 1) if m % b == 0 for a in (b, m // b)})


def _unitary_profiles(N: int, twist_grid: Sequence[Fraction], max_summands: int) -> Iterator:
    """(profile, its case count) for each weight profile of the unitarizable
    cases, heaviest weight first: a tuple of (the summand groups of weight w,
    j) for j >= 1 groups of each weight w, with sum j * w = N and sum j <=
    max_summands.  A walk builds each weight's groups once, so its cases share
    them; j of m groups make C(m + j - 1, j) multisets."""
    twists = [(y.numerator, y.denominator) for y in twist_grid]

    @cache
    def groups(w: int) -> list[tuple]:  # rho[a][w/a], and +/- rho[a][w/2a] per twist
        return [((1, a, w // a, 0, 1),) for a in _divisors(w)] + [
            ((1, a, w // 2 // a, yn, yd), (1, a, w // 2 // a, -yn, yd))
            for a in (() if w % 2 else _divisors(w // 2)) for yn, yd in twists]

    def walk(rest: int, k: int, top: int, profile: tuple, size: int) -> Iterator:
        if rest == 0:
            yield profile, size
        elif k:  # at most k more groups, each of weight <= top; the heaviest has k * w >= rest
            for w in range(min(top, rest), -(-rest // k) - 1, -1):
                for j in range(1, min(k, rest // w) + 1):
                    yield from walk(rest - j * w, k - j, w - 1, profile + ((groups(w), j),),
                                    size * math.comb(len(groups(w)) + j - 1, j))

    return walk(N, min(max_summands, N), N, (), 1)


def _unitary_cases(N: int, twist_grid: Sequence[Fraction], max_summands: int,
                   start: int = 0) -> Iterator[tuple]:
    """The unitarizable cases from rank ``start`` on; the profiles before the
    one holding that rank are skipped by their case counts."""
    for profile, size in _unitary_profiles(N, twist_grid, max_summands):
        if start < size:
            combos = (itertools.combinations_with_replacement(groups, j) for groups, j in profile)
            for combo in itertools.islice(itertools.product(*combos), start, None):
                yield tuple(itertools.chain.from_iterable(combo))
        start = max(0, start - size)


def _unitary_chunk(twist_grid: Sequence[Fraction], max_summands: int, job) -> SweepSummary:
    """Judge each case at the ranks of ``job`` by its ``report_for_rep``;
    Arthur-type cases also cross-check the closed-form t against its scan."""
    n, ranks = job
    failures, count, min_low, min_up = [], 0, None, None
    cases = _unitary_cases(n, twist_grid, max_summands, ranks.start)
    for count, case in enumerate(itertools.islice(cases, len(ranks)), start=1):
        pi = _rep_from_case(case)
        report = report_for_rep(pi)
        g, t, arthur_type = report.g, report.t, pi.is_arthur_type
        scan_ok = not arthur_type or t == decay_t_arthur(report.arthur_sl2)
        if not (scan_ok and report.lower_ok and report.upper_ok):
            failures.append(
                _failure_report(report, scan_ok, report.lower_ok, report.upper_ok, arthur_type)
            )
            continue
        shifted = shifted_decay(t, n, arthur_type)
        low, up = t - g, g - shifted * shifted
        if min_low is None or low < min_low:
            min_low = low
        if min_up is None or up < min_up:
            min_up = up
    _check_rank_count(count, ranks)
    return SweepSummary(N=n, count=count, failures=failures,
                        min_gap_lower=min_low, min_gap_upper=min_up)


def verify_uncertainty_unitary(
    N: int,
    twist_grid: Sequence[Fraction | int | str],
    max_summands: int = 3,
    threads: int = 1,
) -> SweepSummary:
    """Check each case's ``report_for_rep`` verdicts, g <= t and the upper
    bound of its class: t <= sqrt(g) (exactly, t^2 <= g) for Arthur type and
    t <= sqrt(g) + 2/N (exactly, (t - 2/N)^2 <= g when t > 2/N) for the
    twisted cases.  The cases are all unitarizable shapes of total dimension
    N built from untwisted summands and +/- twisted pairs over dimension-1
    labels, with at most ``max_summands`` summand groups and twists drawn
    from the grid (``parse_rat`` values: no float); the Arthur-type ones also
    cross-check the closed-form t.  A budget of more than MAX_SWEEP_CASES
    cases is rejected."""
    check_sweep_n(N)
    check_positive_int(max_summands, "max_summands")
    grid = list(dict.fromkeys(read_at("twist_grid", parse_rat, y) for y in twist_grid))  # 2/8 = 1/4
    for y in grid:
        if not 0 < y < Fraction(1, 2):
            raise InputError("twist_grid", f"values must lie strictly in (0, 1/2), got {y}")
    profiles = _unitary_profiles(N, grid, max_summands)
    count = _case_count((size for _, size in profiles), "max_summands")
    worker = partial(_unitary_chunk, tuple(grid), max_summands)
    chunks = _sweep(worker, N, range(count), threads, 200)
    return reduce(SweepSummary.merge, chunks, SweepSummary(N=N))


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

    def admits(self, case) -> bool:
        """Whether a case keeps to ``max_total_dim``."""
        return self.max_total_dim is None or _case_dim(case) <= self.max_total_dim


def _consistency_shapes(budget: ConsistencyBudget) -> list[tuple]:
    ranges = (range(1, n + 1) for n in (budget.max_dim, budget.max_a, budget.max_d))
    return [((dim, a, d, 0, 1),) for dim, a, d in itertools.product(*ranges)]


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
    return replace(report_for_rep(pi), note="; ".join(notes))


def _consistency_exhaustive_chunk(random_cases: int, seed: int, job) -> SweepSummary:
    """Check the cases at the ranks of ``job``: the summand multisets within the
    budget, counted before the total-dimension filter, then the seeded sample.
    The ranks consumed are counted before that filter, and must be all of
    ``job``'s."""
    budget, ranks = job
    shapes = _consistency_shapes(budget)
    multisets = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(shapes, k)
        for k in range(1, budget.max_summands + 1)
    )
    stream = itertools.chain(multisets, _random_cases(budget, random_cases, seed))
    ranked = itertools.islice(stream, ranks.start, ranks.stop)
    summary, consumed = _consistency_random_chunk(budget, ranked)
    _check_rank_count(consumed, ranks)
    return summary


def _consistency_random_chunk(budget: ConsistencyBudget, cases) -> tuple[SweepSummary, int]:
    """Check by both routes each case of ``cases`` that ``budget`` admits;
    returns (the summary, the number of cases consumed)."""
    failures, count, consumed = [], 0, 0
    for consumed, case in enumerate(cases, start=1):
        if budget.admits(case):
            count += 1
            pi = _rep_from_case(case)
            notes = _check_consistency_rep(pi)
            if notes:
                failures.append(_consistency_failure(pi, notes))
    return SweepSummary(N=budget.max_total_dim, count=count, failures=failures), consumed


def _random_cases(budget: ConsistencyBudget, random_cases: int, seed: int) -> Iterator[tuple]:
    """The seeded sample's admitted cases in draw order; InputError if too few."""
    rng = random.Random(seed)
    found = 0
    for draw in range(2000 * max(1, random_cases)):
        # give up at MAX_SWEEP_CASES draws under half the rate of one case in 2,000
        if found == random_cases or draw == MAX_SWEEP_CASES and 4000 * found < draw:
            break
        slots = rng.randint(1, budget.max_summands)
        groups = []
        while slots > 0:
            dim = rng.randint(1, budget.max_dim)
            a = rng.randint(1, budget.max_a)
            d = rng.randint(1, budget.max_d)
            if slots >= 2 and rng.random() < 0.5:
                num = rng.randint(1, 9)
                groups.append(((dim, a, d, num, 20), (dim, a, d, -num, 20)))
                slots -= 2
            else:
                groups.append(((dim, a, d, 0, 1),))
                slots -= 1
        case = tuple(groups)
        if budget.admits(case):
            found += 1
            yield case
    if found < random_cases:
        raise InputError("N", "the total-dimension cap leaves too few admissible random cases")


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
    twisted pairs.  A budget of more than MAX_SWEEP_CASES cases in all is
    rejected, naming ``max_summands`` when the exhaustive part alone exceeds it.
    """
    if isinstance(random_cases, bool) or not isinstance(random_cases, int) or random_cases < 0:
        raise InputError("random_cases", "must be a non-negative integer")
    shapes = budget.max_dim * budget.max_a * budget.max_d
    multisets = (math.comb(shapes + k - 1, k) for k in range(1, budget.max_summands + 1))
    total = _case_count(multisets, "max_summands")
    _case_count([total, random_cases], "random_cases")
    for _ in _random_cases(budget, random_cases, seed):  # raises before any check
        pass
    worker = partial(_consistency_exhaustive_chunk, random_cases, seed)
    chunks = _sweep(worker, budget, range(total + random_cases), threads, 2000)
    return reduce(SweepSummary.merge, chunks, SweepSummary(N=budget.max_total_dim))
