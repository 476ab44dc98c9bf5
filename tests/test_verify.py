import io
from fractions import Fraction

import pytest

from gln_invariants.partitions import Partition, partition_count
from gln_invariants.rationals import InputError
from gln_invariants.verify import (
    ConsistencyBudget,
    FIGURE_CSV_HEADER,
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
