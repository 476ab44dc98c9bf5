"""Partition combinatorics.

Partitions of N parameterize nilpotent orbits of GL_N.  This module provides
the dual (conjugate) partition, the dominance order (the closure order on
orbits), orbit dimensions, and exhaustive enumeration in a fixed
reverse-lexicographic order (optionally resumed from any partition)
together with an independent counting recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .rationals import InputError, check_positive_int


@dataclass(frozen=True, slots=True, init=False)
class Partition:
    """Non-increasing tuple of positive integers; ``n`` is their sum.

    Constructors accept parts in any order and sort them.  Instances are
    immutable, equal to the tuple or list of their parts, and hash as the tuple.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        ps = list(parts)
        for i, p in enumerate(ps):
            check_positive_int(p, f"parts[{i}]")
        ps.sort(reverse=True)
        if not ps:
            raise InputError("parts", "must have at least one part")
        object.__setattr__(self, "parts", tuple(ps))

    @classmethod
    def _from_sorted(cls, parts: tuple[int, ...]) -> "Partition":
        """Trusted constructor: `parts` already sorted non-increasing and valid."""
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        return self

    @property
    def n(self) -> int:
        return sum(self.parts)

    def dual(self) -> "Partition":
        return dual_partition(self)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, (tuple, list)):
            return self.parts == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)


def as_parts(p: Partition | Iterable[int]) -> tuple[int, ...]:
    """The non-increasing parts of ``p``, an iterable checked as ``Partition`` does."""
    return p.parts if isinstance(p, Partition) else Partition(p).parts


def dual_partition(p: Partition | Iterable[int]) -> Partition:
    """Dual (conjugate) partition: the j-th part counts parts of p of size >= j.
    Built in O(len(p) + d1), d1 the first part, from the count of each part
    size and a running suffix sum of those counts."""
    parts = as_parts(p)
    counts = [0] * (parts[0] + 1)
    for q in parts:
        counts[q] += 1
    out = []
    at_least = 0
    for j in range(parts[0], 0, -1):
        at_least += counts[j]
        out.append(at_least)
    out.reverse()
    return Partition._from_sorted(tuple(out))


def dominance_leq(p1: Partition, p2: Partition) -> bool:
    """Dominance order: every prefix sum of p1 is <= the matching prefix sum of p2.

    This is the closure order on nilpotent orbits of GL_N.  Both partitions
    must have the same sum.
    """
    a, b = as_parts(p1), as_parts(p2)
    if sum(a) != sum(b):
        raise ValueError(f"dominance compares partitions of equal sum: {sum(a)} != {sum(b)}")
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True


def orbit_dim(p: Partition | Iterable[int]) -> int:
    """Dimension of the nilpotent orbit attached to p: N^2 minus the sum of the
    squares of the dual parts, read without the dual as the sum of
    (2k - 1) p_k over the parts p_1 >= p_2 >= ...: dual part j counts the
    parts >= j, so the squares add up min(p_i, p_k) over ordered pairs of
    parts, and p_k is the smaller with itself and, twice, with each of the
    k - 1 parts before it.  Always even and non-negative."""
    parts = as_parts(p)
    n = sum(parts)
    return n * n - sum((2 * i + 1) * q for i, q in enumerate(parts))


def partition_tuples(n: int, start: Optional[Iterable[int]] = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples, in reverse-lexicographic
    order: (n,) first, (1,...,1) last.  Each partition appears exactly once.

    With ``start`` (a partition of n, parts non-increasing), the tail of that
    order from ``start`` on.  The arguments are checked at the call, before
    the first partition is asked for."""
    check_positive_int(n, "n")
    parts = [n] if start is None else list(start)
    ordered = all(type(p) is int and p > 0 for p in parts) and parts == sorted(parts)[::-1]
    if not ordered or sum(parts) != n:
        raise InputError("start", f"must be a partition of {n}, parts non-increasing")
    return _partitions_from(tuple(parts))


def _partitions_from(p: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """``p`` (a checked partition) and every partition after it in
    reverse-lexicographic order.

    Each successor keeps p[:i], where i is the position of p's last part
    above 1, and is built by slicing: p[i] drops to v = p[i] - 1, and the
    ``ones`` trailing ones plus the unit taken from p[i] refill the tail as
    parts at most v, that is k more copies of v and a remainder r, with
    k, r = divmod(ones + 1, v); for v = 1 the tail is ones + 2 ones.  The
    count of trailing ones is carried from one partition to the next."""
    ones = p.count(1)
    while True:
        yield p
        i = len(p) - ones - 1
        if i < 0:
            return
        v = p[i] - 1
        if v == 1:
            p = p[:i] + (1,) * (ones + 2)
            ones += 2
        else:
            k, r = divmod(ones + 1, v)
            p = p[:i] + (v,) * (k + 1) + ((r,) if r else ())
            ones = 1 if r == 1 else 0


def partition_count(n: int) -> int:
    """Number of partitions of n via the pentagonal-number recurrence.

    Independent of :func:`partition_tuples`; the two are cross-checked in the
    test suite.
    """
    if n < 0:
        return 0
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]
