from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gln_invariants.decay import (
    CharacterList,
    _cut_scan,
    _max_ratio_scan,
    decay_t,
    decay_t_arthur,
    dominates,
    expand_blocks,
    maximizer_certificate,
    prefix_sums,
)
from gln_invariants.cli import _report_json
from gln_invariants.partitions import Partition, partition_tuples
from gln_invariants.verify import arthur_rep_from_partition, report_for_arthur_partition

from conftest import (
    half_range_argmax,
    is_negation_symmetric,
    max_ratio_blocks,
    max_ratio_scan,
    running_sum_dominates,
    unitary_reps,
)

H = Fraction(1, 2)


def rendered_p(parts):
    """p = 2/(1 - t) as ``glninv invariants`` renders it for the Arthur-type
    representation with Arthur-SL2 ``parts``: the one place p is derived."""
    return _report_json(report_for_arthur_partition(parts))["p"]


def test_prefix_sums_examples():
    assert prefix_sums([1, 2, 3]) == (1, 3, 6)
    assert prefix_sums([H, H, -H, -H]) == (H, 1, H, 0)
    assert prefix_sums([0, 0, 0]) == (0, 0, 0)


def test_dominates_examples():
    assert dominates([1, 2, 3], [1, 2, 3])
    assert dominates([1, 0], [0, 1])
    assert not dominates([0, 1], [1, 0])
    with pytest.raises(ValueError):
        dominates([1], [1, 2])


def test_character_list_sorting_and_symmetry():
    xi = CharacterList([-H, H, 0])
    assert list(xi) == [H, 0, -H]
    assert is_negation_symmetric(xi)
    assert not is_negation_symmetric(CharacterList([H, H, -H, H]))
    assert CharacterList([H, H]) != CharacterList([Fraction(1, 3)] * 2)


def naive_decay(values):
    """t and its maximizers by a plain prefix scan of the sorted Fractions,
    independent of the run-length form decay_t reads."""
    vals = sorted((Fraction(v) for v in values), reverse=True)
    n = len(vals)
    ratios = {i: Fraction(2 * sum(vals[:i]), i * (n - i)) for i in range(1, n)}
    best = max(ratios.values())
    return best, {i for i, r in ratios.items() if r == best}


def naive_certificate(values):
    vals = sorted((Fraction(v) for v in values), reverse=True)
    n = len(vals)
    ratios = {i: sum(vals[:i]) / (i * (n - i)) for i in range(1, n // 2 + 1)}
    best = max(ratios.values(), default=None)
    argmax = {i for i, r in ratios.items() if r == best}
    boundaries = {
        j for j in range(1, n + 1) if vals[j - 1] > 0 and (j == n or vals[j] != vals[j - 1])
    }
    return argmax, boundaries, not boundaries or argmax <= boundaries


rationals = st.one_of(
    st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12)), st.integers(-3, 3)
)


@st.composite
def rational_lists(draw):
    """Lists of length 1..40 over a small pool, so values repeat; a third of
    them symmetric under negation and a third one entry short of it."""
    pool = draw(st.lists(rationals, min_size=1, max_size=8))
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    shape = draw(st.sampled_from(("any", "symmetric", "one short of symmetric")))
    if shape != "any":
        half = values[: max(1, len(values) // 2)]
        values = half + [-v for v in half]
        if shape != "symmetric":
            values = values[1:]
    return draw(st.permutations(values))


@settings(max_examples=300)
@given(st.data())
def test_character_list_matches_sorted_fraction_oracle(data):
    values = data.draw(rational_lists())
    other = data.draw(st.one_of(st.permutations(values), rational_lists()))
    ordered = sorted(values, reverse=True)
    xi = CharacterList(values)
    assert list(xi) == ordered and list(xi.values) == ordered
    assert len(xi) == len(values)
    assert (xi == CharacterList(other)) == (sorted(values) == sorted(other))
    assert is_negation_symmetric(xi) == all(
        ordered[i] == -ordered[-1 - i] for i in range(len(ordered))
    )
    if len(values) >= 2:
        result = decay_t(xi)
        assert (result.t, set(result.maximizers)) == naive_decay(values)
        assert decay_t(values) == result
    else:
        with pytest.raises(ValueError):
            decay_t(xi)
    report = maximizer_certificate(xi)
    assert (report.argmax, report.block_boundaries, report.contained) == naive_certificate(values)


@st.composite
def ratio_blocks(draw):
    """Run-length blocks with distinct decreasing values in -30..30 and
    multiplicities 1..6, totals of either sign, with a unit 1..12."""
    values = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=8, unique=True))
    mults = draw(st.lists(st.integers(1, 6), min_size=len(values), max_size=len(values)))
    blocks = list(zip(sorted(values, reverse=True), mults))
    return blocks, draw(st.integers(1, 12))


@settings(max_examples=500)
@given(ratio_blocks())
def test_max_ratio_blocks_matches_per_cut_scan(case):
    blocks, unit = case
    num, den = max_ratio_blocks(blocks, unit)
    scan_num, scan_den, _ = _max_ratio_scan(expand_blocks(blocks), unit)
    if scan_den == 0:  # fewer than two entries: no cut
        assert (num, den) == (0, 0)
    else:
        assert num * scan_den == scan_num * den and den > 0


def test_max_ratio_blocks_decreasing_block_example():
    # values 1, -5, -5, -5: on the second block alpha = 6 but beta = 6 - 5*4 < 0,
    # so the ratio decreases there and its last cut is not compared; the
    # maximum is at cut 1
    num, den = max_ratio_blocks([(1, 1), (-5, 3)], 1)
    assert Fraction(num, den) == Fraction(2, 3)


@settings(max_examples=500)
@given(st.lists(st.integers(-10**6, 10**6), max_size=40), st.integers(1, 10**60))
def test_unit_free_scan_matches_the_per_cut_oracle(scaled, unit):
    # any order and sign: the scan never assumes its input sorted
    assert _max_ratio_scan(scaled, unit) == max_ratio_scan(scaled, unit)


@settings(max_examples=500)
@given(st.lists(st.integers(-10**6, 10**6), max_size=40))
def test_half_range_argmax_matches_its_oracle(scaled):
    # any order and sign for the shared kernel; the certificate reads the
    # same list as a character, scanned non-increasing
    assert _cut_scan(scaled, len(scaled) // 2 + 1)[2] == half_range_argmax(scaled)
    expected = half_range_argmax(sorted(scaled, reverse=True))
    assert maximizer_certificate(scaled).argmax == frozenset(expected)


@settings(max_examples=500)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12))
def test_dominates_matches_the_running_sum_loop(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    assert dominates(a, b) == running_sum_dominates(a, b)
    assert dominates(a, a) and running_sum_dominates(a, a)


wide_rationals = st.builds(Fraction, st.integers(-10**60, 10**60), st.integers(1, 10**60))


@settings(max_examples=100)
@given(st.lists(wide_rationals, min_size=2, max_size=12))
def test_scans_over_a_wide_unit_match_the_fraction_oracles(values):
    xi = CharacterList(values + [-v for v in values[1:]])
    result = decay_t(xi)
    assert (result.t, set(result.maximizers)) == naive_decay(list(xi))
    report = maximizer_certificate(xi)
    assert (report.argmax, report.block_boundaries, report.contained) == naive_certificate(
        list(xi)
    )


def test_decay_t_examples():
    tempered = decay_t([0] * 6)  # the character of Arthur-SL2 [1^6]
    assert tempered.t == 0
    assert rendered_p([1] * 6) == {"num": 2, "den": 1, "decimal": "2.000000000000"}

    half = decay_t([H, H, -H, -H])  # ratios 1/3, 1/2, 1/3
    assert half.t == H
    assert half.maximizers == {2}
    assert rendered_p([2, 2]) == {"num": 4, "den": 1, "decimal": "4.000000000000"}

    # N = 2: the single ratio is 2*sigma_1 / (1*(2-1))
    assert decay_t([Fraction(1, 4), -Fraction(1, 4)]).t == H
    assert decay_t([H, -H]).t == 1  # the d = 2 string, a character of GL_2

    with pytest.raises(ValueError):
        decay_t([Fraction(0)])


def test_decay_t_infinite_case():
    n = 5
    full = decay_t([Fraction(n - 1 - 2 * i, 2) for i in range(n)])  # Arthur-SL2 [5]
    assert full.t == 1
    assert rendered_p([n]) == "infinite"


def test_decay_t_arthur_examples():
    assert decay_t_arthur([1] * 7) == 0
    assert decay_t_arthur([7]) == 1
    assert decay_t_arthur(Partition([2, 2])) == H
    with pytest.raises(ValueError):
        decay_t_arthur([1])
    with pytest.raises(ValueError):
        decay_t_arthur([])


def test_formula_equivalence_small():
    for n in range(2, 13):
        for parts in partition_tuples(n):
            pi = arthur_rep_from_partition(parts)
            assert decay_t(pi.character()).t == decay_t_arthur(parts)


def test_t_zero_iff_trivial_arthur_sl2():
    for n in range(2, 13):
        for parts in partition_tuples(n):
            pi = arthur_rep_from_partition(parts)
            is_zero = decay_t(pi.character()).t == 0
            assert is_zero == (parts == (1,) * n)


@settings(max_examples=150)
@given(unitary_reps())
def test_t_in_unit_interval_for_unitarizable(pi):
    if pi.N < 2:
        return
    t = decay_t(pi.character()).t
    assert 0 <= t <= 1


@settings(max_examples=200)
@given(st.lists(st.integers(-8, 8), min_size=2, max_size=10))
def test_negation_reversal_invariance_for_sum_zero(values):
    # center the multiset so it sums to zero, as unitary central characters do
    total = sum(values)
    n = len(values)
    xs = [Fraction(v * n - total, n) for v in values]
    assert sum(xs) == 0
    flipped = [-v for v in xs]
    assert decay_t(xs).t == decay_t(flipped).t


def test_maximizer_certificate_examples():
    report = maximizer_certificate([H, H, -H, -H])
    assert report.argmax == {2}
    assert report.block_boundaries == {2}
    assert report.contained

    degenerate = maximizer_certificate([0] * 6)
    assert degenerate.contained and not degenerate.block_boundaries

    # partition [3,1,1,1] of 6: character (1, 0, 0, 0, 0, -1)
    xi = arthur_rep_from_partition([3, 1, 1, 1]).character()
    assert list(xi) == [1, 0, 0, 0, 0, -1]
    report = maximizer_certificate(xi)
    assert report.argmax == {1}
    assert report.block_boundaries == {1}
    assert report.contained


def test_maximizer_location_small():
    for n in range(2, 13):
        for parts in partition_tuples(n):
            xi = arthur_rep_from_partition(parts).character()
            assert maximizer_certificate(xi).contained


@settings(max_examples=300)
@given(
    st.integers(0, 50),
    st.integers(1, 50),
    st.integers(0, 50),
    st.integers(1, 50),
)
def test_ratio_mediant_inequality(a, b, c, d):
    f1, f2 = Fraction(a, b), Fraction(c, d)
    mediant = Fraction(a + c, b + d)
    assert max(f1, f2) >= mediant >= min(f1, f2)
