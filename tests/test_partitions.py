import itertools

import pytest
from hypothesis import given, settings

from gln_invariants.decay import decay_t_arthur
from gln_invariants.partitions import (
    Partition,
    dominance_leq,
    dual_partition,
    orbit_dim,
    partition_count,
    partition_tuples,
)
from gln_invariants.rationals import InputError
from gln_invariants.verify import arthur_rep_from_partition

from conftest import list_partitions_from, partitions_from


def dual_oracle(parts):
    """Transpose of the Young diagram, computed by filling a boolean grid."""
    rows = len(parts)
    cols = parts[0]
    grid = [[j < parts[i] for j in range(cols)] for i in range(rows)]
    return tuple(sum(1 for i in range(rows) if grid[i][j]) for j in range(cols))


def orbit_dim_oracle(parts):
    n = sum(parts)
    return n * n - sum(c * c for c in dual_oracle(parts))


def test_constructor_canonicalizes_and_validates():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    assert Partition([2, 2]).n == 4
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition([2, 0])
    with pytest.raises(ValueError):
        Partition([2, -1])
    for bad, field in (([True, 2], "parts[0]"), ([2, 1.0], "parts[1]"), ([2, "1"], "parts[1]")):
        with pytest.raises(InputError) as exc:
            Partition(bad)
        assert exc.value.field == field


def test_dual_examples():
    assert dual_partition(Partition([7])) == Partition([1] * 7)
    assert dual_partition(Partition([3, 1])) == (2, 1, 1)
    assert dual_partition(Partition([2, 2])) == (2, 2)


def test_dual_matches_transpose_oracle_and_is_involution():
    for n in range(1, 31):
        for parts in partition_tuples(n):
            p = Partition._from_sorted(parts)
            d = dual_partition(p)
            assert d.parts == dual_oracle(parts)
            assert d.n == n
            assert dual_partition(d) == p


def dual_per_column(parts):
    """The dual as computed column by column: one pass over all parts per
    column, O(d1 * len)."""
    return tuple(sum(1 for q in parts if q >= j) for j in range(1, parts[0] + 1))


def orbit_dim_per_column(parts):
    n = sum(parts)
    total = n * n
    for j in range(1, parts[0] + 1):
        c = sum(1 for q in parts if q >= j)
        total -= c * c
    return total


def test_dual_and_orbit_dim_match_per_column_oracle():
    for n in range(1, 21):
        for parts in partition_tuples(n):
            assert dual_partition(parts).parts == dual_per_column(parts)
            assert dual_partition(reversed(parts)).parts == dual_per_column(parts)
            assert orbit_dim(parts) == orbit_dim_per_column(parts)
            assert orbit_dim(reversed(parts)) == orbit_dim_per_column(parts)
            assert orbit_dim(Partition._from_sorted(parts)) == orbit_dim_per_column(parts)


def test_dominance_examples():
    assert dominance_leq(Partition([1, 1, 1, 1]), Partition([4]))
    assert dominance_leq(Partition([2, 2]), Partition([3, 1]))
    assert not dominance_leq(Partition([3, 3]), Partition([4, 1, 1]))
    assert not dominance_leq(Partition([4, 1, 1]), Partition([3, 3]))
    with pytest.raises(ValueError):
        dominance_leq(Partition([2]), Partition([3]))


def test_orbit_dim_examples():
    assert orbit_dim(Partition([1, 1, 1, 1])) == 0
    assert orbit_dim(Partition([4])) == 12
    assert orbit_dim(Partition([2, 1, 1])) == 6


def test_orbit_dim_even_nonnegative_and_matches_oracle():
    for n in range(1, 21):
        for parts in partition_tuples(n):
            val = orbit_dim(Partition._from_sorted(parts))
            assert val == orbit_dim_oracle(parts)
            assert val >= 0 and val % 2 == 0


def test_orbit_dim_monotone_under_dominance():
    for n in range(2, 16):
        ps = [Partition._from_sorted(t) for t in partition_tuples(n)]
        for p1 in ps:
            for p2 in ps:
                if dominance_leq(p1, p2):
                    assert orbit_dim(p1) <= orbit_dim(p2)


def test_dual_reverses_dominance():
    for n in range(2, 16):
        ps = [Partition._from_sorted(t) for t in partition_tuples(n)]
        duals = {p: dual_partition(p) for p in ps}
        for p1 in ps:
            for p2 in ps:
                if dominance_leq(p1, p2):
                    assert dominance_leq(duals[p2], duals[p1])


@pytest.mark.parametrize(
    "fn, args, field",
    [
        (decay_t_arthur, ([3, -1],), "parts[1]"),
        (dual_partition, ([2, 0],), "parts[1]"),
        (dual_partition, ([-1],), "parts[0]"),
        (dual_partition, ([2.5, 1],), "parts[0]"),
        (orbit_dim, ([1, 0],), "parts[1]"),
        (dominance_leq, ([3, -1], Partition([2])), "parts[1]"),
        (dominance_leq, (Partition([2]), [True, 1]), "parts[0]"),
        (arthur_rep_from_partition, ([2, "1"],), "parts[1]"),
        (Partition, ([],), "parts"),
        (lambda n: next(partition_tuples(n)), (True,), "n"),
        (lambda n: next(partition_tuples(n)), (2.0,), "n"),
        (lambda n: next(partition_tuples(n)), ("3",), "n"),
        (lambda n: next(partition_tuples(n)), (0,), "n"),
        # checked at the call, before the first partition is asked for
        (partition_tuples, (0,), "n"),
        (partition_tuples, (2.0,), "n"),
        (partition_tuples, (True,), "n"),
        (partition_tuples, (5, [9]), "start"),
    ],
)
def test_raw_parts_are_checked_like_a_partition(fn, args, field):
    # an iterable of parts passes the checks of Partition, not only a sort
    with pytest.raises(InputError) as exc:
        fn(*args)
    assert exc.value.field == field


def test_refinement_examples():
    assert dominance_leq(Partition([2, 2]), Partition([3, 1]))


def test_enumeration_order_n5():
    expected = [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert list(partition_tuples(5)) == expected


def test_enumeration_is_reverse_lexicographic_and_unique():
    for n in range(1, 16):
        seen = list(partition_tuples(n))
        assert len(set(seen)) == len(seen)
        for prev, cur in zip(seen, seen[1:]):
            assert prev > cur  # strictly decreasing in lexicographic order
        for parts in seen:
            assert sum(parts) == n
            assert all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def test_enumeration_resumes_from_any_start():
    for n in range(1, 21):
        every = list(partition_tuples(n))
        for rank, start in enumerate(every):
            assert list(partition_tuples(n, start)) == every[rank:]
            assert list(partition_tuples(n, list(start))) == every[rank:]


def test_successor_matches_the_list_oracle():
    # the sliced successor, which carries the count of trailing ones, against
    # the list-mutating one: every partition of n <= 40 in order, and the
    # next four from every start of n <= 30, whose trailing ones are counted
    for n in range(1, 41):
        assert list(partition_tuples(n)) == list(list_partitions_from([n])), n
    for n in range(1, 31):
        for start in partition_tuples(n):
            ahead = itertools.islice(partition_tuples(n, start), 5)
            assert list(ahead) == list(itertools.islice(list_partitions_from(start), 5)), start


@settings(max_examples=100, deadline=None)
@given(partitions_from(300))
def test_successor_from_a_random_start_matches_the_list_oracle(start):
    # beyond the exhaustive range: 100 random partitions of n <= 300 and the
    # 40 partitions after each
    n = sum(start)
    ahead = list(itertools.islice(partition_tuples(n, start), 41))
    assert ahead == list(itertools.islice(list_partitions_from(start), 41))
    assert ahead[0] == start


@pytest.mark.parametrize("part", [0, -2, 2.0, True])
def test_enumeration_checks_its_start(part):
    with pytest.raises(InputError) as exc:
        next(partition_tuples(5, (3, part, 1)))
    assert exc.value.field == "start"


@pytest.mark.parametrize("start", [(), (4,), (3, 3), (1, 4), (2, 1, 2)])
def test_enumeration_start_must_be_an_ordered_partition_of_n(start):
    with pytest.raises(InputError) as exc:
        next(partition_tuples(5, start))
    assert exc.value.field == "start"


def test_counts_match_recurrence_oracle():
    # frozen values, computed with an external recurrence before the build
    assert partition_count(5) == 7
    assert partition_count(30) == 5604
    assert partition_count(50) == 204226
    assert partition_count(60) == 966467
    for n in range(1, 61):
        assert sum(1 for _ in partition_tuples(n)) == partition_count(n)


def test_partition_equality_and_hash():
    assert Partition([2, 1]) == Partition([1, 2])
    assert hash(Partition([2, 1])) == hash(Partition([1, 2]))
    assert Partition([2, 1]) == (2, 1)
    assert hash(Partition([2, 1])) == hash((2, 1))
    assert str(Partition([3, 1, 1])) == "3+1+1"
