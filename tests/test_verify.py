import dataclasses
import hashlib
import io
import itertools
import math
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from gln_invariants.arthur import ArthurSummand, UnitaryRep
from gln_invariants.decay import (
    CharacterList, _max_ratio_scan, decay_t_arthur, expand_blocks, shifted_decay,
)
from gln_invariants.partitions import Partition, partition_count, partition_tuples
from gln_invariants import verify
from gln_invariants.rationals import InputError, rat_decimal
from gln_invariants.segments import Multisegment, Segment, SupercuspidalLabel

from conftest import doubled_blocks, fresh_scan, max_ratio_blocks, partitions_from
from gln_invariants.verify import (
    MAX_INPUT_N,
    MAX_SWEEP_CASES,
    ConsistencyBudget,
    FIGURE_CSV_HEADER,
    SweepSummary,
    figure_rows,
    partition_ranks,
    report_for_arthur_partition,
    report_for_rep,
    arthur_rep_from_partition,
    verify_consistency,
    verify_uncertainty_arthur,
    verify_uncertainty_unitary,
    write_figure_csv,
)


def test_single_row_reports():
    trivial = report_for_arthur_partition([1, 1, 1, 1])
    assert trivial.g == 0 and trivial.t == 0
    assert trivial.lower_ok and trivial.upper_ok

    row = report_for_arthur_partition([2, 2])
    assert row.g == Fraction(1, 3)
    assert row.t == Fraction(1, 2)
    assert row.lower_ok and row.upper_ok
    assert row.d_gk == 4
    assert row.wavefront == Partition([2, 2])

    char = report_for_arthur_partition([5])
    assert char.g == 1 and char.t == 1


def test_value_types_survive_pickling():
    # a sweep's failing summary is pickled back from its worker process; a
    # type that cannot be unpickled kills the pool's result thread, and the
    # sweep then waits forever
    rho = SupercuspidalLabel("r", 2)
    seg = Segment(rho, Fraction(-1, 2), Fraction(3, 2))
    pi = UnitaryRep([ArthurSummand(rho, 1, 2, Fraction(1, 5)),
                     ArthurSummand(rho, 1, 2, Fraction(-1, 5))])
    values = [
        Partition([2, 1]),
        seg,
        Multisegment([seg, Segment(rho, Fraction(1, 3), Fraction(1, 3))]),
        pi,
        CharacterList([Fraction(1, 2), 0, 0, Fraction(-1, 2)]),
        # built by the trusted integer constructors
        pi.langlands_data(),
        pi.langlands_data().segments[0],
        pi.character(),
        SweepSummary(N=4, count=1, failures=[report_for_arthur_partition([2, 2])],
                     min_gap_lower=Fraction(1, 6)),
    ]
    for value in values:
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value
        assert repr(back) == repr(value)
        assert not hasattr(value, "__dict__")
    for value in values[:-1]:  # all but the mutable SweepSummary are frozen
        assert hash(pickle.loads(pickle.dumps(value))) == hash(value)
        with pytest.raises(AttributeError):
            setattr(value, dataclasses.fields(value)[0].name, None)


def test_arthur_sweep_small():
    for n in range(2, 13):
        summary = verify_uncertainty_arthur(n)
        assert summary.ok
        assert summary.count == partition_count(n)
        assert summary.min_gap_lower == 0  # [1^N] and [N] are tight
        assert summary.min_gap_upper == 0


def test_arthur_sweep_thread_determinism():
    seq = verify_uncertainty_arthur(16, threads=1)
    par = verify_uncertainty_arthur(16, threads=2)
    assert seq.count == par.count == partition_count(16)
    assert seq.ok and par.ok
    assert seq.min_gap_lower == par.min_gap_lower
    assert seq.min_gap_upper == par.min_gap_upper


def test_partition_rank_lookup_matches_the_enumeration():
    for n in range(1, 31):
        every = list(partition_tuples(n))
        for rank, parts in enumerate(every):
            # the run from this rank, its first partition counted and the
            # next one's tail read from it
            run = checked_tallies((n, range(rank, min(rank + 2, len(every)))))
            assert [p for p, _ in run] == every[rank : rank + 2]


def checked_tallies(job, stream=None):
    """(parts, the resumed scan) for each partition of ``verify._tallies(job)``,
    with ``stream``, when given, in place of ``verify._ranked_partitions(job)``.
    A recorder around ``verify._scan_two_xi`` keeps the part counts c, the
    level ``top`` and the result of each scan, and each entry of the stream
    is checked against a recount of its partition: c, ``top``, the highest
    level at or below the greatest part whose count changed, the sum of
    d^2, ``i``, the position of the first part that differs from the
    previous partition (0 for the first), and the closed form
    (d1 - 1)/(n - c[d1]) (0/1 when d1 = 1), which the scan must match.
    After the run each resumed scan is compared with a fresh one,
    unreduced."""
    n = job[0]
    real_scan, real_partitions, calls, run = verify._scan_two_xi, verify._ranked_partitions, [], []

    def recorder(c, n, top, saved):
        scan = real_scan(c, n, top, saved)
        calls.append((list(c), top, scan))
        return scan

    verify._scan_two_xi = recorder
    if stream is not None:
        verify._ranked_partitions = lambda job: iter(stream)
    try:
        before = previous = None
        for parts, i, sq, tn, td, scan_ok in verify._tallies(job):
            (c, top, scan), = calls
            calls.clear()
            counts = [0] * (n + 2)
            for d in parts:
                counts[d] += 1
            assert (c, sq) == (counts, sum(d * d for d in parts)), parts
            changed = [k for k in range(1, parts[0] + 1) if before is None or counts[k] != before[k]]
            assert top == changed[-1], parts
            kept = 0 if before is None else next(j for j, (a, b) in enumerate(zip(previous, parts))
                                                 if a != b)
            assert i == kept, parts
            d1 = parts[0]
            assert (tn, td) == ((d1 - 1, n - counts[d1]) if d1 > 1 else (0, 1)), parts
            assert scan_ok and scan[0] * td == tn * scan[1], parts
            before, previous = counts, parts
            run.append((parts, scan))
    finally:
        verify._scan_two_xi, verify._ranked_partitions = real_scan, real_partitions
    for parts, scan in run:
        assert scan == fresh_scan(parts), parts
    return run


def test_tallies_and_resumed_scans_match_recounts():
    # every partition of n <= 40 in enumeration order; the resumed scan also
    # against the block scan of the full mirrored character
    for n in range(2, 41):
        for parts, (num, den) in checked_tallies((n, partition_ranks(n))):
            full_num, full_den = max_ratio_blocks(doubled_blocks(parts), 2)
            assert num * full_den == full_num * den, parts


@settings(max_examples=100, deadline=None)
@given(partitions_from(300))
def test_tallies_from_a_random_start_match_recounts(start):
    # 100 runs of a random partition of n <= 300, beyond the exhaustive
    # range and the rank table, and its next 5: 500 successors
    n = sum(start)
    stream = list(itertools.islice(partition_tuples(n, start), 6))
    run = checked_tallies((n, range(len(stream))), stream)
    assert [parts for parts, _ in run] == stream and stream[0] == start


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_partition_jobs_cover_the_enumeration_in_order(monkeypatch, threads):
    jobs = []
    monkeypatch.setattr(verify, "_map_chunks", lambda worker, js, threads: jobs.extend(js) or iter(()))
    for n in range(2, 41):
        jobs.clear()
        verify_uncertainty_arthur(n, threads=threads)
        shipped = [parts for job in jobs for parts in verify._ranked_partitions(job)]
        assert shipped == list(partition_tuples(n))
        assert all(key == n and type(ranks) is range for key, ranks in jobs)
        assert [r for _, ranks in jobs for r in ranks] == list(range(partition_count(n)))


def figure_labels(job):
    """The partition labels of ``verify._figure_chunk(job)``'s rows, in the
    order of its text."""
    text = verify._figure_chunk(job)[0]
    return [line.split(",", 1)[0] for line in text.splitlines()]


def joined_labels(partitions):
    """``"+".join`` labels of ``partitions`` (all of one n) in the figure's
    row order: by increasing d_GK = (n^2 - sum of d^2)/2, that is by
    decreasing sum of d^2, and in enumeration order within one d_GK."""
    ordered = sorted(partitions, key=lambda parts: -sum(d * d for d in parts))
    return ["+".join(map(str, parts)) for parts in ordered]


def test_figure_labels_from_prefixes_equal_joined_parts():
    # a chunk of three from every rank of n <= 30 starts inside runs of
    # equal parts and on tails of ones, and fills its prefixes from its own
    # first partition; then the whole of n = 50 in one chunk
    for n in range(2, 31):
        every = list(partition_tuples(n))
        for rank in range(len(every)):
            ranks = range(rank, min(rank + 3, len(every)))
            assert figure_labels((n, ranks)) == joined_labels(every[rank : rank + 3]), (n, rank)
    every = list(partition_tuples(50))
    assert figure_labels((50, range(len(every)))) == joined_labels(every)


@pytest.mark.parametrize("sweep, most, silent", [("arthur", 22, 416), ("figure", 16, 125)])
def test_a_partition_chunk_missing_any_one_partition_fails(monkeypatch, sweep, most, silent):
    # Without a count of its ranks a chunk missed 416 of the 4,506 drops for
    # n <= 22: the first or last partition of each n, and 374 inside the
    # run (for example (26), then (24, 2) without (25, 1)), where the part
    # counts of the partition after the gap came out right.  The closing
    # recount of the tallies passed, and the sweep reported one partition
    # fewer.  Only the count of ranks catches those.  Every other drop of
    # the Arthur sweep names drifted part counts, also the 27 (for n <= 22)
    # whose next partition is shorter than the kept prefix, which once raised
    # a bare IndexError; 5 figure drops for n <= 16 fail earlier, in
    # rendering, where a drifted sum of squares makes g negative and sqrt
    # raises ValueError.  The figure, about twice as slow per row, stops at
    # n = 16.  The rows after a gap can fail their checks; their reports are
    # not built
    run = {"arthur": verify_uncertainty_arthur,
           "figure": lambda n: write_figure_csv(n, io.StringIO())}[sweep]
    real, drop = verify._ranked_partitions, 0

    def skipping(job):  # the chunk's stream without the partition at index drop
        stream = real(job)
        return itertools.chain(itertools.islice(stream, drop), itertools.islice(stream, 1, None))

    monkeypatch.setattr(verify, "_ranked_partitions", skipping)
    monkeypatch.setattr(verify, "report_for_arthur_partition", lambda parts: parts)
    monkeypatch.setattr(verify, "_failure_report", lambda report, *verdicts: report)
    missed = 0
    for n in range(2, most + 1):
        for drop in range(partition_count(n)):
            with pytest.raises(verify.SweepError) as exc:
                run(n)
            message = str(exc.value)
            assert message.startswith(f"sweep chunk 1 of 1 (N={n}) failed: ")
            counted = message.endswith(f"enumerated {partition_count(n) - 1} cases for the "
                                       f"{partition_count(n)} ranks from 0")
            drifted = "RuntimeError: part counts drifted from the partition stream at " in message
            assert counted or drifted or sweep == "figure"
            missed += counted
    assert missed == silent


def test_unitary_chunk_missing_its_last_case_fails(monkeypatch, capsys):
    from gln_invariants.cli import EXIT_SWEEP, main

    real = verify._unitary_cases
    monkeypatch.setattr(verify, "_unitary_cases", lambda *args: list(real(*args))[:-1])
    with pytest.raises(verify.SweepError) as exc:
        verify_uncertainty_unitary(4, ["1/4"], threads=1)
    assert str(exc.value).endswith("failed: RuntimeError: enumerated 15 cases for the 16 "
                                   "ranks from 0")
    argv = ["verify-unitary", "--N", "4", "--twist-grid", "1/4", "--threads", "1"]
    assert main(argv) == EXIT_SWEEP
    assert capsys.readouterr().out == ""


def test_consistency_chunk_missing_its_last_case_fails(monkeypatch):
    # the ranks are counted before the total-dimension filter: 2 summand
    # multisets and 2 random cases, of which the stub draws only 1
    real = verify._random_cases
    monkeypatch.setattr(verify, "_random_cases", lambda budget, k, seed: real(budget, k - 1, seed))
    budget = ConsistencyBudget(max_summands=1, max_dim=1, max_a=2, max_d=1, max_total_dim=1)
    with pytest.raises(verify.SweepError) as exc:
        verify_consistency(budget, random_cases=2, threads=1)
    assert str(exc.value).endswith("failed: RuntimeError: enumerated 3 cases for the 4 ranks "
                                   "from 0")


@pytest.mark.parametrize("threads", [1, 2])
def test_partition_sweeps_ship_no_partitions(monkeypatch, threads):
    # a job is (N, a range of ranks): its worker enumerates the partitions
    shipped = []
    real = verify._map_chunks

    def recording(worker, jobs, threads):
        shipped.extend(jobs)
        return real(worker, jobs, threads)

    monkeypatch.setattr(verify, "_map_chunks", recording)
    assert verify_uncertainty_arthur(30, threads=threads).count == partition_count(30)
    assert write_figure_csv(30, io.StringIO(), threads=threads)[0] == partition_count(30)
    assert len(shipped) == 6  # p(30) = 5604 partitions make three jobs per sweep
    assert all(len(pickle.dumps(job)) < 100 for job in shipped)


def test_arthur_sweep_rejects_small_n():
    with pytest.raises(ValueError):
        verify_uncertainty_arthur(1)


def test_sweeps_holding_every_partition_are_capped():
    # p(61) = 1,121,505 partitions pass the case cap; so do those of any
    # larger N, counted without building a partition or a full table row
    figure_csv = lambda n: write_figure_csv(n, io.StringIO())  # noqa: E731
    for sweep in (verify_uncertainty_arthur, figure_rows, figure_csv):
        for n in (61, 100_000, 10**9):
            with pytest.raises(InputError) as err:
                sweep(n)
            assert err.value.field == "N"
            assert err.value.message == f"the sweep would check more than {MAX_SWEEP_CASES} cases"


def test_block_scan_matches_per_cut_oracle():
    # the doubled character as a count array over -(n-1)..n-1, expanded and
    # scanned at every cut
    for n in range(2, 31):
        for parts in partition_tuples(n):
            counts = [0] * (2 * n - 1)
            for d in parts:
                for v in range(d - 1, -d, -2):
                    counts[v + n - 1] += 1
            blocks = [(v, c) for v, c in zip(range(n - 1, -n, -1), reversed(counts)) if c]
            num, den, _ = _max_ratio_scan(expand_blocks(blocks), 2)
            scan_num, scan_den = fresh_scan(parts)
            assert scan_num * den == num * scan_den, parts


def assert_half_range_scan_is_exact(parts):
    # the half-range scan against the block scan of the full mirrored
    # character, and against the closed form t = (d1 - 1)/(n - a1)
    num, den = fresh_scan(parts)
    full_num, full_den = max_ratio_blocks(doubled_blocks(parts), 2)
    assert den > 0, parts
    assert num * full_den == full_num * den, parts
    assert Fraction(num, den) == decay_t_arthur(parts), parts


def test_half_range_scan_matches_the_full_block_scan():
    for n in range(2, 37):
        for parts in partition_tuples(n):
            assert_half_range_scan_is_exact(parts)


@pytest.mark.parametrize("n", [2, 3, 1000, MAX_INPUT_N])
def test_half_range_scan_on_edge_shapes(n):
    # [N] (t = 1), [1^N] (the all-zero character, t = 0), the two hooks next
    # to them and, for even N, the two-row [N/2, N/2] with no zero entry
    shapes = [(n,), (1,) * n, (n - 1, 1), (2,) + (1,) * (n - 2)]
    if n % 2 == 0:
        shapes.append((n // 2, n // 2))
    for parts in shapes:
        assert_half_range_scan_is_exact(tuple(sorted(parts, reverse=True)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(1, 10**4), st.integers(1, 100), min_size=1, max_size=12))
def test_half_range_scan_on_large_parts(multiplicities):
    # up to 12 distinct parts as large as 10^4, beyond the exhaustive range
    parts = tuple(d for d in sorted(multiplicities, reverse=True) for _ in range(multiplicities[d]))
    assume(sum(parts) >= 2)
    assert_half_range_scan_is_exact(parts)


def test_upper_gap_vanishes_along_hook_family():
    # empirical tightness of the square-root bound: along A = [d, 1^(N-d)]
    # the slack g - t^2 decreases to zero as d approaches N
    n = 50
    gaps = []
    for d in range(n // 2 + 1, n + 1):  # past the peak of the slack parabola
        row = report_for_arthur_partition([d] + [1] * (n - d))
        gaps.append(row.g - row.t * row.t)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] == 0


def test_arthur_gaps_match_the_reports_fractions():
    # the integer bounds of the Arthur sweep and the figure against the
    # report's t and g and its upper bound through shifted_decay
    for n in range(2, 21):
        for parts in partition_tuples(n):
            t = decay_t_arthur(parts)
            s = sum(d * (d - 1) for d in parts)
            low, up = verify._arthur_gaps(n, s, t.numerator, t.denominator)
            report = report_for_arthur_partition(parts)
            shifted = shifted_decay(report.t, n, True)
            assert low[1] > 0 and up[1] > 0
            assert Fraction(*low) == report.t - report.g, parts
            assert Fraction(*up) == report.g - shifted * shifted, parts
            assert (low[0] >= 0, up[0] >= 0) == (report.lower_ok, report.upper_ok)


def test_case_count_stops_at_the_first_total_past_the_cap():
    assert verify._case_count([], "f") == 0
    assert verify._case_count([MAX_SWEEP_CASES - 1, 1], "f") == MAX_SWEEP_CASES
    sizes = itertools.count()
    with pytest.raises(InputError) as exc:
        verify._case_count(sizes, "f")
    assert exc.value.field == "f"
    assert exc.value.message == f"the sweep would check more than {MAX_SWEEP_CASES} cases"
    assert next(sizes) == 1415  # 0 + 1 + ... + 1414 = 1,000,405 is the first total past it


def test_unitary_sweep_examples():
    grid = [Fraction(1, 4)]
    summary = verify_uncertainty_unitary(2, grid, max_summands=3)
    assert summary.ok
    # cases of total dimension 2: [1][1]+[1][1], [2][1], [1][2], and the
    # twisted pair (x = 1/4, a = d = 1)
    assert summary.count == 4

    with pytest.raises(ValueError):
        verify_uncertainty_unitary(4, [Fraction(1, 2)])
    with pytest.raises(ValueError):
        verify_uncertainty_unitary(4, [Fraction(0)])


def test_repeated_twists_are_checked_once():
    # 1/4 and 2/8 are one twist, given as a Fraction or as text: a repeat adds no case
    grids = ([Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 4), Fraction(2, 8)],
             [" 1/4", "2/8"])
    summaries = [verify_uncertainty_unitary(4, grid) for grid in grids]
    assert summaries[0].count == 16
    assert all(summary == summaries[0] for summary in summaries)


def test_unitary_sweep_small_grid():
    grid = [Fraction(k, 10) for k in (1, 2, 3, 4)]
    for n in range(2, 7):
        summary = verify_uncertainty_unitary(n, grid, max_summands=3)
        assert summary.ok
        assert summary.count > 0


def test_report_holds_each_case_to_the_bound_of_its_class():
    # oracle: t <= sqrt(g) for Arthur type and t <= sqrt(g) + 2/N otherwise,
    # squared as (t - s)^2 <= g when t > s
    grid = [Fraction(k, 10) for k in (1, 2, 3, 4)]
    above_sqrt_g = 0
    for n in range(2, 9):
        for case in verify._unitary_cases(n, grid, 3):
            pi = verify._rep_from_case(case)
            report = report_for_rep(pi)
            g, t = report.g, report.t
            s = 0 if pi.is_arthur_type else Fraction(2, n)
            assert report.upper_ok == (t <= s or (t - s) ** 2 <= g), case
            if not pi.is_arthur_type and t * t > g:
                above_sqrt_g += 1
    # on these the Arthur-type bound t^2 <= g fails: the shift is needed
    assert above_sqrt_g > 0


def test_unitary_sweep_verdict_is_its_report(monkeypatch):
    # a wrong upper bound in report_for_rep fails every case of the sweep,
    # and each failure row is the report that gave the verdict
    monkeypatch.setattr(verify, "shifted_decay", lambda t, n, arthur_type: t + 1)
    grid = [Fraction(1, 4)]
    summary = verify_uncertainty_unitary(4, grid, threads=1)
    reps = [verify._rep_from_case(case) for case in verify._unitary_cases(4, grid, 3)]
    assert summary.count == len(summary.failures) == len(reps)
    assert summary.min_gap_upper is None
    for pi, row in zip(reps, summary.failures):
        assert row.lower_ok is True and row.upper_ok is False
        bound = "t^2 <= g" if pi.is_arthur_type else "(t - 2/N)^2 <= g"
        assert row == dataclasses.replace(report_for_rep(pi), note=f"upper bound {bound} failed")


def test_consistency_small_budget():
    budget = ConsistencyBudget(max_summands=2, max_dim=2, max_a=2, max_d=2)
    summary = verify_consistency(budget, random_cases=200, seed=7)
    shapes = 2 * 2 * 2
    expected_exhaustive = shapes + shapes * (shapes + 1) // 2
    assert summary.count == expected_exhaustive + 200
    assert summary.ok


def test_consistency_total_dim_cap():
    budget = ConsistencyBudget(max_summands=2, max_dim=2, max_a=2, max_d=2, max_total_dim=3)
    summary = verify_consistency(budget, random_cases=50, seed=1)
    assert summary.ok
    # exhaustive part only counts cases within the cap
    uncapped = verify_consistency(
        ConsistencyBudget(max_summands=2, max_dim=2, max_a=2, max_d=2), random_cases=0
    )
    assert summary.count - 50 < uncapped.count


def test_budgets_must_admit_a_case():
    for field in ("max_summands", "max_dim", "max_a", "max_d", "max_total_dim"):
        with pytest.raises(InputError) as exc:
            ConsistencyBudget(**{field: 0})
        assert exc.value.field == field
    with pytest.raises(InputError) as exc:
        verify_consistency(ConsistencyBudget(max_summands=1), random_cases=-1)
    assert exc.value.field == "random_cases"
    with pytest.raises(InputError) as exc:
        verify_uncertainty_unitary(4, [Fraction(1, 4)], max_summands=0)
    assert exc.value.field == "max_summands"
    # the smallest budgets still check one case: shape (1,1,1), group (N,1,0)
    smallest = ConsistencyBudget(max_summands=1, max_dim=1, max_a=1, max_d=1, max_total_dim=1)
    assert verify_consistency(smallest, random_cases=0).count == 1
    assert verify_uncertainty_unitary(4, [], max_summands=1).count == 3  # [1][4], [2][2], [4][1]


def test_sweep_case_cap_is_the_partition_cap():
    # the partition sweeps count p(N) against the case cap: N = 60 is the
    # last N they accept
    assert len(partition_ranks(60)) == partition_count(60) <= MAX_SWEEP_CASES
    assert partition_count(61) > MAX_SWEEP_CASES
    assert len(verify._partition_counts(10**9)) == 62  # rows m = 0..61


def _oracle_unitary_cases(n, grid, max_summands):
    """Depth-first search over every summand group of weight up to n, by
    index: the multisets of groups of total weight n, at most max_summands."""
    groups = []
    for a in range(1, n + 1):
        for d in range(1, n // a + 1):
            groups.append(((1, a, d, 0, 1),))
            if 2 * a * d <= n:
                groups += [((1, a, d, y.numerator, y.denominator),
                            (1, a, d, -y.numerator, y.denominator)) for y in grid]
    weights = [verify._case_dim((group,)) for group in groups]

    def rec(start, remaining, used, acc):
        if remaining == 0:
            yield tuple(acc)
        elif used < max_summands:
            for k in range(start, len(groups)):
                if weights[k] <= remaining:
                    yield from rec(k, remaining - weights[k], used + 1, acc + [groups[k]])

    return rec(0, n, 0, [])


def test_unitary_case_count_matches_the_enumeration():
    for grid in ([], [Fraction(k, 10) for k in (1, 2, 3, 4)]):
        for n in range(1, 17):
            for k in range(1, 5):
                oracle = Counter(tuple(sorted(c)) for c in _oracle_unitary_cases(n, grid, k))
                cases = list(verify._unitary_cases(n, grid, k))
                assert Counter(tuple(sorted(c)) for c in cases) == oracle, (grid, n, k)
                sizes = (size for _, size in verify._unitary_profiles(n, grid, k))
                assert verify._case_count(sizes, "f") == len(cases), (grid, n, k)
                # a walk resumed at any rank continues the full walk
                for start in range(0, len(cases), 7):
                    rest = verify._unitary_cases(n, grid, k, start)
                    assert next(rest) == cases[start] and next(rest, None) == (
                        cases[start + 1] if start + 1 < len(cases) else None)
    grid = [Fraction(k, 10) for k in (1, 2, 3, 4)]
    sizes = (size for _, size in verify._unitary_profiles(60, grid, 3))
    assert verify._case_count(sizes, "f") == 377_684
    # the count stops once it passes the cap: 1,629,922,443 cases at 6 groups
    with pytest.raises(InputError):
        verify._case_count((size for _, size in verify._unitary_profiles(60, grid, 6)), "f")
    with pytest.raises(InputError) as exc:
        verify_uncertainty_unitary(60, grid, max_summands=6)
    assert exc.value.field == "max_summands"


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_unitary_jobs_are_ranks_whose_cases_cover_the_walk(monkeypatch, threads):
    # a job is (N, a range of ranks): its worker walks to its first case, so
    # the parent builds none
    shipped = []
    monkeypatch.setattr(verify, "_map_chunks",
                        lambda worker, jobs, threads: shipped.append((worker, jobs)) or iter(()))
    grid = [Fraction(k, 10) for k in (1, 2, 3, 4)]
    verify_uncertainty_unitary(12, grid, threads=threads)
    [(worker, jobs)] = shipped
    cases = list(verify._unitary_cases(12, grid, 3))
    assert len(jobs) > 1 and all(key == 12 and type(ranks) is range for key, ranks in jobs)
    assert [r for _, ranks in jobs for r in ranks] == list(range(len(cases)))
    assert all(len(pickle.dumps(job)) < 100 for job in jobs)
    checked = []
    real = verify._rep_from_case
    monkeypatch.setattr(verify, "_rep_from_case", lambda case: checked.append(case) or real(case))
    assert sum(worker(job).count for job in jobs) == len(cases)
    assert checked == cases


def test_pool_workers_ignore_sigint_and_the_parent_keeps_it():
    # two jobs at two threads run in a pool; each worker reports its SIGINT
    # handler and its blocked signals, and the parent's are left as they were
    import functools
    import signal

    def parent_state():
        return signal.getsignal(signal.SIGINT), signal.pthread_sigmask(signal.SIG_BLOCK, [])

    before = parent_state()
    handlers = verify._map_chunks(signal.getsignal, [signal.SIGINT] * 2, 2)
    assert list(handlers) == [signal.SIG_IGN] * 2
    blocked = functools.partial(signal.pthread_sigmask, signal.SIG_BLOCK)
    assert [signal.SIGINT in mask for mask in verify._map_chunks(blocked, [[], []], 2)] == [
        False, False]
    assert parent_state() == before


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_pool_has_at_most_one_worker_per_cpu(monkeypatch, cpus, workers):
    # 1,029 cases at --threads 5000 make six chunks of the 200 floor; the
    # stub pool starts no process and runs them inline
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            assert initializer is verify._ignore_sigint
            sizes.append(max_workers)

        def map(self, worker, jobs):
            return map(worker, jobs)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    grid = [Fraction(k, 10) for k in (1, 2, 3, 4)]
    summary = verify_uncertainty_unitary(10, grid, threads=5000)
    assert sizes == [workers]
    assert summary == verify_uncertainty_unitary(10, grid, threads=1)
    assert summary.count == 1029


def test_consistency_case_cap_counts_every_case_before_building_one(monkeypatch):
    monkeypatch.setattr(verify, "_sweep", lambda *args: iter(()))
    monkeypatch.setattr(verify, "_random_cases", lambda *args: [])
    default = ConsistencyBudget()  # 270,724 exhaustive cases
    verify_consistency(default, random_cases=MAX_SWEEP_CASES - 270_724)
    one_summand = ConsistencyBudget(max_summands=1, max_dim=100, max_a=100, max_d=100)
    verify_consistency(one_summand, random_cases=0)
    for budget, random_cases, field in [
        (default, MAX_SWEEP_CASES - 270_723, "random_cases"),
        (dataclasses.replace(one_summand, max_d=101), 0, "max_summands"),
        (ConsistencyBudget(max_summands=8, max_dim=4), 0, "max_summands"),
        (ConsistencyBudget(max_summands=10**9, max_dim=10**9), 0, "max_summands"),
    ]:
        with pytest.raises(InputError) as exc:
            verify_consistency(budget, random_cases=random_cases)
        assert exc.value.field == field


@pytest.mark.parametrize(
    "sweep, field",
    [
        (lambda: verify_uncertainty_arthur(2.5), "N"),
        (lambda: verify_uncertainty_arthur(True), "N"),
        (lambda: verify_uncertainty_arthur("7"), "N"),
        (lambda: figure_rows("7"), "N"),
        (lambda: write_figure_csv("7", io.StringIO()), "N"),
        (lambda: verify_uncertainty_unitary("7", []), "N"),
        (lambda: verify_uncertainty_unitary(3.0, []), "N"),
        (lambda: write_figure_csv(4.0, io.StringIO()), "N"),
        (lambda: verify_consistency(random_cases=2.5), "random_cases"),
        (lambda: verify_consistency(random_cases=True), "random_cases"),
        (lambda: verify_uncertainty_arthur(6, threads=0), "threads"),
        (lambda: verify_uncertainty_unitary(6, [], threads=-3), "threads"),
        (lambda: verify_consistency(threads=2.5), "threads"),
        (lambda: write_figure_csv(6, io.StringIO(), threads=True), "threads"),
        (lambda: verify_uncertainty_unitary(6, ["abc"]), "twist_grid"),
        (lambda: verify_uncertainty_unitary(6, [None]), "twist_grid"),
        (lambda: verify_uncertainty_unitary(6, [0.1]), "twist_grid"),
        (lambda: verify_uncertainty_unitary(6, [True]), "twist_grid"),
    ],
)
def test_sweep_arguments_are_checked_before_a_case_runs(sweep, field):
    with pytest.raises(InputError) as exc:
        sweep()
    assert exc.value.field == field


def test_cases_share_groups_of_integer_summands(monkeypatch):
    # within a chunk (each sweep here makes one) equal groups are one object,
    # shared by every case that holds them, and twists stay integer pairs
    # until _rep_from_case builds the summands
    seen = []
    real = verify._rep_from_case

    def recording(case):
        seen.append(case)
        return real(case)

    monkeypatch.setattr(verify, "_rep_from_case", recording)
    budget = ConsistencyBudget(max_summands=3, max_dim=2, max_a=2, max_d=2)
    for sweep in (lambda: verify_uncertainty_unitary(8, [Fraction(1, 4)], threads=1),
                  lambda: verify_consistency(budget, random_cases=0, threads=1)):
        seen.clear()
        sweep()
        groups = [group for case in seen for group in case]
        assert len({id(group) for group in groups}) == len(set(groups)) < len(groups)
    cases = seen + list(verify._random_cases(budget, 50, seed=2))
    for case in cases:
        for group in case:
            assert len(group) == 1 or (len(group) == 2 and group[0][3] == -group[1][3] > 0)
            assert all(type(v) is int for summand in group for v in summand)


def test_consistency_thread_determinism():
    budget = ConsistencyBudget(max_summands=2, max_dim=2, max_a=3, max_d=3)
    seq = verify_consistency(budget, random_cases=100, seed=3, threads=1)
    par = verify_consistency(budget, random_cases=100, seed=3, threads=2)
    assert seq.count == par.count
    assert seq.ok and par.ok


def test_consistency_over_several_chunks_is_thread_independent(monkeypatch):
    # 24 shapes give 2,924 summand multisets of up to 3 summands: with 600
    # random cases after them, two chunks at 1 and 2 threads
    jobs = []
    real = verify._map_chunks

    def counting(worker, chunk_jobs, threads):
        jobs.append(len(chunk_jobs))
        return real(worker, chunk_jobs, threads)

    monkeypatch.setattr(verify, "_map_chunks", counting)
    budget = ConsistencyBudget(max_summands=3, max_dim=2, max_a=3, max_d=4, max_total_dim=20)
    seq = verify_consistency(budget, random_cases=600, seed=5, threads=1)
    par = verify_consistency(budget, random_cases=600, seed=5, threads=2)
    assert jobs == [2, 2]
    assert (seq.count, seq.failures, seq.N) == (par.count, par.failures, par.N)
    assert seq.N == 20 and 600 < seq.count < 2924 + 600


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_consistency_jobs_are_ranks_of_one_stream(monkeypatch, threads):
    # a job is (budget, a range of ranks): the summand multisets, then the
    # random sample, which a worker redraws from the seed, so the parent
    # ships no case
    shipped = []
    monkeypatch.setattr(verify, "_map_chunks",
                        lambda worker, jobs, threads: shipped.append(jobs) or iter(()))
    budget = ConsistencyBudget(max_summands=3, max_dim=2, max_a=3, max_d=4, max_total_dim=20)
    verify_consistency(budget, random_cases=6000, seed=5, threads=threads)
    [jobs] = shipped
    assert len(jobs) > 1 and all(key == budget and type(ranks) is range for key, ranks in jobs)
    assert [r for _, ranks in jobs for r in ranks] == list(range(2924 + 6000))
    assert all(len(pickle.dumps(job)) < 200 for job in jobs)


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_consistency_chunks_check_the_one_chunk_order(monkeypatch, chunk):
    # 14 summand multisets, 10 of them within the cap, then 30 random cases:
    # chunks that start inside the sample redraw it up to their first rank
    checked = []
    real = verify._rep_from_case
    monkeypatch.setattr(verify, "_rep_from_case", lambda case: checked.append(case) or real(case))
    budget = ConsistencyBudget(max_summands=2, max_dim=1, max_a=2, max_d=2, max_total_dim=4)
    whole = verify_consistency(budget, random_cases=30, seed=4, threads=1)
    one_chunk, checked[:] = list(checked), []
    monkeypatch.setattr(verify, "_chunk_size", lambda total, threads, floor: chunk)
    summary = verify_consistency(budget, random_cases=30, seed=4, threads=1)
    assert checked == one_chunk and len(one_chunk) == whole.count == summary.count == 10 + 30
    assert one_chunk[10:] == list(verify._random_cases(budget, 30, seed=4))


def test_too_few_random_cases_raise_before_a_case_is_checked(monkeypatch):
    # one of the 125,000 shapes is admitted, and 2,000 draws miss it
    checked = []
    monkeypatch.setattr(verify, "_check_consistency_rep", lambda pi: checked.append(pi) or [])
    budget = ConsistencyBudget(max_summands=1, max_dim=50, max_a=50, max_d=50, max_total_dim=1)
    for threads in (1, 2):
        with pytest.raises(InputError) as exc:
            verify_consistency(budget, random_cases=1, seed=0, threads=threads)
        assert exc.value.field == "N"
    assert checked == []


def test_consistency_reports_a_gk_dimension_off_the_wavefront(monkeypatch):
    # the third GK route, half the wavefront orbit's dimension, is checked
    # on every case: an orbit dimension off by 2 fails each one.  Each row is
    # the invariants report of its representation plus the note: null g, t,
    # p and verdicts at N = 1, the real maximizers and verdicts at N >= 2
    from gln_invariants.cli import _report_json

    real = verify.orbit_dim
    monkeypatch.setattr(verify, "orbit_dim", lambda p: real(p) + 2)
    budget = ConsistencyBudget(max_summands=1, max_dim=1, max_a=2, max_d=2)
    summary = verify_consistency(budget, random_cases=3, seed=1)
    assert summary.count == 4 + 3 and len(summary.failures) == summary.count
    note = "GK-dimension differs from half the wavefront orbit dimension"
    cases = [(((1, a, d, 0, 1),),) for a in (1, 2) for d in (1, 2)]
    cases += verify._random_cases(budget, 3, seed=1)
    reps = [verify._rep_from_case(case) for case in cases]
    assert summary.failures == [dataclasses.replace(report_for_rep(pi), note=note) for pi in reps]
    rows = [_report_json(report) for report in summary.failures[:4]]
    assert rows[0] == {"arthur_sl2": [1], "wavefront": [1],
                       "d_gk": {"num": 0, "den": 1, "decimal": "0.000000000000"},
                       "g": None, "t": None, "p": None, "maximizers": [],
                       "lower_ok": None, "upper_ok": None, "note": note}
    speh = rows[1]  # [1][2] on GL_2: character (1/2, -1/2)
    assert (speh["arthur_sl2"], speh["maximizers"], speh["p"]) == ([2], [1], "infinite")
    assert (rows[2]["g"]["num"], rows[2]["t"]["num"]) == (0, 0)  # generic [2][1]
    assert rows[3]["maximizers"] == [2]  # [2][2] on GL_4: (1/2, 1/2, -1/2, -1/2)
    assert all(row["lower_ok"] is row["upper_ok"] is True for row in rows[1:])


def test_unitary_sweep_reports_a_closed_form_off_the_scan(monkeypatch):
    # every Arthur-type case cross-checks the closed form against the scan;
    # a wrong closed form fails each one, and each row is the invariants
    # report of its representation plus the note
    real = verify.decay_t_arthur
    monkeypatch.setattr(verify, "decay_t_arthur", lambda a: real(a) + 1)
    grid = [Fraction(1, 4)]
    summary = verify_uncertainty_unitary(4, grid, threads=1)
    reps = [verify._rep_from_case(case) for case in verify._unitary_cases(4, grid, 3)]
    arthur = [pi for pi in reps if pi.is_arthur_type]
    assert summary.count == len(reps) > len(arthur) > 0
    note = "closed-form t differs from prefix-sum scan"
    assert summary.failures == [dataclasses.replace(report_for_rep(pi), note=note) for pi in arthur]


def test_failed_random_consistency_chunk_names_its_budget(monkeypatch):
    # the one exhaustive case passes; the random pass's chunk then fails
    calls = []
    real = verify._check_consistency_rep

    def faulty(pi):
        calls.append(pi)
        if len(calls) > 1:
            raise ValueError("injected")
        return real(pi)

    monkeypatch.setattr(verify, "_check_consistency_rep", faulty)
    budget = ConsistencyBudget(max_summands=1, max_dim=1, max_a=1, max_d=1)
    with pytest.raises(verify.SweepError) as exc:
        verify_consistency(budget, random_cases=2, threads=1)
    assert str(exc.value) == (
        f"sweep chunk 1 of 1 ({budget!r}) failed: ValueError: injected"
    )
    assert "N=None" not in str(exc.value) and len(calls) == 2


def test_figure_counts_rows_violating_a_bound(monkeypatch, capsys):
    # no real partition violates a bound, so some (sum of d^2, t) pairs are
    # made to; a pair's verdict is rendered once per chunk but counts once
    # per row sharing it (5 rows of N = 19 share one)
    from gln_invariants.cli import EXIT_VIOLATION, main

    def stats(parts):
        return sum(d * d for d in parts), decay_t_arthur(parts)

    n = 19
    pair, rows = Counter(map(stats, partition_tuples(n))).most_common(1)[0]
    assert rows == 5
    failing = {pair, stats((4, 4))}
    real = verify._figure_columns

    def columns(n, sq, tn, td):
        d_gk, tail, ok = real(n, sq, tn, td)
        return d_gk, tail, ok and (sq, Fraction(tn, td)) not in failing

    monkeypatch.setattr(verify, "_figure_columns", columns)
    assert write_figure_csv(n, io.StringIO(), threads=1) == (partition_count(n), rows)
    assert main(["figure", "--N", "8", "--threads", "1"]) == EXIT_VIOLATION
    assert "1 rows violate a bound" in capsys.readouterr().err


def test_figure_rows_structure():
    n = 6
    rows = figure_rows(n)
    assert len(rows) == partition_count(n)
    assert rows[0].partition == (n,)  # character corner: d_GK = 0, t = 1
    assert rows[0].d_gk == 0 and rows[0].t == 1 and rows[0].g == 1
    assert rows[-1].partition == (1,) * n  # generic corner
    assert rows[-1].d_gk == n * (n - 1) // 2 and rows[-1].t == 0 and rows[-1].g == 0
    assert all(r.lower_ok and r.upper_ok for r in rows)
    d_gks = [r.d_gk for r in rows]
    assert d_gks == sorted(d_gks)
    for row in rows:
        # cross-check each row against the report computed via public routes
        report = report_for_rep(arthur_rep_from_partition(row.partition))
        assert (row.g, row.t) == (report.g, report.t)
        assert row.d_gk == report.d_gk


def test_figure_csv_deterministic_across_threads(tmp_path):
    buf1, buf2 = io.StringIO(), io.StringIO()
    count1, viol1 = write_figure_csv(12, buf1, threads=1)
    count2, viol2 = write_figure_csv(12, buf2, threads=2)
    assert count1 == count2 == partition_count(12)
    assert viol1 == viol2 == 0
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0] == FIGURE_CSV_HEADER
    assert len(lines) == count1 + 1


def test_figure_csv_row_format():
    buf = io.StringIO()
    write_figure_csv(4, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == FIGURE_CSV_HEADER
    # first row is the partition [4]: g = 1, t = 1
    assert lines[1] == "4,0,1,1,1,1,1.000000000000,1.000000000000,1.000000000000,true,true"
    row22 = next(line for line in lines if line.startswith("2+2,"))
    fields = row22.split(",")
    assert fields[1] == "4"  # d_gk
    assert (fields[2], fields[3]) == ("1", "3")  # g = 1/3
    assert (fields[4], fields[5]) == ("1", "2")  # t = 1/2


def figure_csv_oracle(n):
    """The figure CSV rendered row by row from ``figure_rows``: Fraction g
    and t, ``rat_decimal`` and a float square root of g.  Returns (text, row
    count, rows violating a bound)."""
    rows = figure_rows(n)
    out = [FIGURE_CSV_HEADER + "\n"]
    for row in rows:
        g, t = row.g, row.t
        out.append(
            "%s,%d,%d,%d,%d,%d,%s,%s,%.12f,%s,%s\n"
            % (
                "+".join(str(p) for p in row.partition),
                row.d_gk,
                g.numerator,
                g.denominator,
                t.numerator,
                t.denominator,
                rat_decimal(g),
                rat_decimal(t),
                math.sqrt(g.numerator / g.denominator),
                "true" if row.lower_ok else "false",
                "true" if row.upper_ok else "false",
            )
        )
    violations = sum(1 for r in rows if not (r.lower_ok and r.upper_ok))
    return "".join(out), len(rows), violations


@pytest.mark.parametrize("threads", [1, 2])
def test_full_figure_bytes_are_pinned(threads):
    buf = io.StringIO()
    assert write_figure_csv(50, buf, threads=threads) == (partition_count(50), 0)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == "d1eebec8b88bef16c0e515bba2a1185b96f9dc68eed36df6808c56f25360dc5f"


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("threads", [1, 2])
def test_figure_csv_matches_row_oracle(monkeypatch, threads, chunk):
    # chunk 7 splits every N into many chunks, so rows of one d_GK arrive
    # from many buckets; by default N <= 25 fits one chunk and N = 26..30
    # take two or three
    if chunk is not None:
        monkeypatch.setattr(verify, "_chunk_size", lambda total, threads, floor: chunk)
    for n in range(2, 31):
        text, count, violations = figure_csv_oracle(n)
        buf = io.StringIO()
        assert write_figure_csv(n, buf, threads=threads) == (count, violations)
        assert buf.getvalue() == text
