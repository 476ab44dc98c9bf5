import pytest

from gln_invariants.partitions import (
    Partition,
    dominance_leq,
    dual_partition,
    orbit_dim,
    partition_count,
    partition_tuples,
)


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
    assert str(Partition([3, 1, 1])) == "3+1+1"
