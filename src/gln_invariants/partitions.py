"""Partition combinatorics.

Partitions of N parameterize nilpotent orbits of GL_N.  This module provides
the dual (conjugate) partition, the dominance order (the closure order on
orbits), orbit dimensions, and exhaustive enumeration in a fixed
reverse-lexicographic order together with an independent counting recurrence.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Partition:
    """Non-increasing tuple of positive integers; ``n`` is their sum.

    Constructors accept parts in any order and sort them.  Instances are
    immutable and hashable.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        ps = sorted(parts, reverse=True)
        for p in ps:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"partition parts must be positive integers, got {p!r}")
        if not ps:
            raise ValueError("partition must have at least one part")
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

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

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


def dual_partition(p: Partition | Iterable[int]) -> Partition:
    """Dual (conjugate) partition: the j-th part counts parts of p of size >= j."""
    parts = p.parts if isinstance(p, Partition) else tuple(sorted(p, reverse=True))
    if not parts:
        raise ValueError("empty partition")
    out = []
    for j in range(1, parts[0] + 1):
        out.append(sum(1 for q in parts if q >= j))
    return Partition._from_sorted(tuple(out))


def dominance_leq(p1: Partition, p2: Partition) -> bool:
    """Dominance order: every prefix sum of p1 is <= the matching prefix sum of p2.

    This is the closure order on nilpotent orbits of GL_N.  Both partitions
    must have the same sum.
    """
    a = p1.parts if isinstance(p1, Partition) else tuple(sorted(p1, reverse=True))
    b = p2.parts if isinstance(p2, Partition) else tuple(sorted(p2, reverse=True))
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
    squares of the dual parts.  Always even and non-negative."""
    parts = p.parts if isinstance(p, Partition) else tuple(sorted(p, reverse=True))
    n = sum(parts)
    total = n * n
    for j in range(1, parts[0] + 1):
        c = sum(1 for q in parts if q >= j)
        total -= c * c
    return total


def partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples, in reverse-lexicographic
    order: (n,) first, (1,...,1) last.  Each partition appears exactly once."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    parts = [n]
    while True:
        yield tuple(parts)
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(parts) - i  # sum removed beyond the decremented part
        val = parts[i] - 1
        del parts[i:]
        parts.append(val)
        while rest > 0:
            c = val if val < rest else rest
            parts.append(c)
            rest -= c


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
