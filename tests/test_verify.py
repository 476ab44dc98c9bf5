import dataclasses
import io
import math
import pickle
from collections import Counter
from fractions import Fraction

import pytest

from gln_invariants.arthur import ArthurSummand, UnitaryRep
from gln_invariants.decay import CharacterList, _max_ratio_scan, expand_blocks
from gln_invariants.partitions import Partition, partition_count, partition_tuples
from gln_invariants import verify
from gln_invariants.rationals import InputError, rat_decimal
from gln_invariants.segments import Multisegment, Segment, SupercuspidalLabel
from gln_invariants.verify import (
    MAX_SWEEP_N,
    ConsistencyBudget,
    FIGURE_CSV_HEADER,
    SweepSummary,
    _scan_two_xi,
    figure_rows,
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
        Multisegment([seg, Segment(rho, 0, 0, twist=Fraction(1, 3))]),
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


def test_arthur_sweep_rejects_small_n():
    with pytest.raises(ValueError):
        verify_uncertainty_arthur(1)


def test_sweeps_holding_every_partition_are_capped():
    figure_csv = lambda n: write_figure_csv(n, io.StringIO())  # noqa: E731
    for sweep in (verify_uncertainty_arthur, figure_rows, figure_csv):
        with pytest.raises(InputError) as err:
            sweep(MAX_SWEEP_N + 1)
        assert err.value.field == "N"


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
            scan_num, scan_den = _scan_two_xi(parts, n)
            assert scan_num * den == num * scan_den, parts


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


def test_unitary_sweep_small_grid():
    grid = [Fraction(k, 10) for k in (1, 2, 3, 4)]
    for n in range(2, 7):
        summary = verify_uncertainty_unitary(n, grid, max_summands=3)
        assert summary.ok
        assert summary.count > 0


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


def test_consistency_thread_determinism():
    budget = ConsistencyBudget(max_summands=2, max_dim=2, max_a=3, max_d=3)
    seq = verify_consistency(budget, random_cases=100, seed=3, threads=1)
    par = verify_consistency(budget, random_cases=100, seed=3, threads=2)
    assert seq.count == par.count
    assert seq.ok and par.ok


def test_consistency_reports_a_gk_dimension_off_the_wavefront(monkeypatch):
    # the third GK route, half the wavefront orbit's dimension, is checked
    # on every case: an orbit dimension off by 2 fails each one
    real = verify.orbit_dim
    monkeypatch.setattr(verify, "orbit_dim", lambda p: real(p) + 2)
    budget = ConsistencyBudget(max_summands=1, max_dim=1, max_a=2, max_d=2)
    summary = verify_consistency(budget, random_cases=3, seed=1)
    assert summary.count == 4 + 3 and len(summary.failures) == summary.count
    for report in summary.failures:
        assert report.note == "GK-dimension differs from half the wavefront orbit dimension"


def test_figure_counts_rows_violating_a_bound(monkeypatch, capsys):
    # no real partition violates a bound, so some stats tuples are made to;
    # a tuple's verdict is rendered once per chunk but counts once per row
    # sharing it (5 rows of N = 19 share one)
    from gln_invariants.cli import EXIT_VIOLATION, main

    n = 19
    stats, rows = Counter(
        verify._partition_stats(p, n) for p in partition_tuples(n)
    ).most_common(1)[0]
    assert rows == 5
    failing = {stats, verify._partition_stats((4, 4), 8)}
    real = verify._figure_columns

    def columns(n, *row_stats):
        d_gk, tail, ok = real(n, *row_stats)
        return d_gk, tail, ok and row_stats not in failing

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


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("threads", [1, 2])
def test_figure_csv_matches_row_oracle(monkeypatch, threads, chunk):
    # chunk 7 splits every N into many chunks, so rows of one d_GK arrive
    # from many buckets; by default N <= 25 fits one chunk and N = 26..30
    # take two or three
    if chunk is not None:
        monkeypatch.setattr(verify, "_chunk_size", lambda total, threads: chunk)
    for n in range(2, 31):
        text, count, violations = figure_csv_oracle(n)
        buf = io.StringIO()
        assert write_figure_csv(n, buf, threads=threads) == (count, violations)
        assert buf.getvalue() == text
