"""Matrix-coefficient decay from character data.

The decay rate of a unitarizable representation is encoded by
``t = 1 - 2/p`` where p is the L^p-integrability exponent.  It is computed
from the character multiset by maximizing ``2*sigma_i / (i(N-i))`` over the
prefix sums sigma_i of the non-increasing rearrangement.  For Arthur-type
data there is a closed form depending only on the largest entry of the
attached partition and its multiplicity; both routes are implemented and
cross-checked in the test suite, never trusted alone.

A character has one form, :class:`CharacterList`: integer run-length blocks
over one common denominator.  The scans read those integers; ``Fraction`` is
built only where a value leaves the API.  Two scans take the same exact
maximum over every cut: ``_max_ratio_scan`` visits each cut and also returns
the maximizers (``decay_t``), and ``_max_ratio_blocks`` visits at most the
two end cuts of each constant block, on which the ratio is convex or
decreasing (the Arthur sweep's cross-check).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .partitions import Partition
from .rationals import check_positive_int


def expand_blocks(blocks: Iterable[tuple]) -> list:
    """Run-length blocks (value, multiplicity) as the flat list of values."""
    out = []
    for value, mult in blocks:
        out.extend([value] * mult)
    return out


@dataclass(frozen=True, slots=True, init=False)
class CharacterList:
    """Multiset of rational twist exponents in integer-scaled run-length form:
    ``unit`` is the lcm of the value denominators and ``blocks`` holds one
    ``(value * unit, multiplicity)`` pair per distinct value, values
    decreasing.  Built from the values or from a mapping value -> multiplicity,
    where a multiplicity of 0 drops the value and any other multiplicity must
    be a positive integer, so every block has a positive multiplicity;
    iteration and ``values`` give the values non-increasing, as ``Fraction``s.

    The characters produced by the classification of the unitary dual are
    symmetric under negation; arbitrary multisets are accepted so the decay
    formula can be evaluated on any input.
    """

    unit: int
    blocks: tuple[tuple[int, int], ...]

    def __init__(self, values: Iterable[Fraction | int] | Mapping[Fraction | int, int]):
        if isinstance(values, Mapping):
            counts = {}
            for value, mult in values.items():
                if type(mult) is int and mult == 0:
                    continue
                check_positive_int(mult, f"multiplicity of {value}")
                counts[Fraction(value)] = mult
        else:
            counts = {Fraction(value): mult for value, mult in Counter(values).items()}
        unit = math.lcm(*(v.denominator for v in counts))
        blocks = sorted(
            ((v.numerator * (unit // v.denominator), mult) for v, mult in counts.items()),
            reverse=True,
        )
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def _from_scaled(cls, unit: int, counts: Mapping[int, int]) -> "CharacterList":
        """Trusted constructor: the values v/unit with multiplicity
        counts[v], every multiplicity a positive ``int``.  Dividing out
        gcd(unit, *values) leaves the lcm of the reduced denominators as the
        unit, the form the public constructor builds."""
        k = math.gcd(unit, *counts)
        self = object.__new__(cls)
        object.__setattr__(self, "unit", unit // k)
        object.__setattr__(
            self, "blocks", tuple(sorted(((v // k, m) for v, m in counts.items()), reverse=True))
        )
        return self

    @property
    def values(self) -> tuple[Fraction, ...]:
        unit = self.unit
        return tuple(expand_blocks((Fraction(v, unit), mult) for v, mult in self.blocks))

    def __len__(self) -> int:
        return sum(mult for _, mult in self.blocks)

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"CharacterList({list(self.values)})"

    def is_negation_symmetric(self) -> bool:
        return all(
            v == -w and mult == other
            for (v, mult), (w, other) in zip(self.blocks, reversed(self.blocks))
        )


@dataclass(frozen=True, slots=True)
class DecayResult:
    """t = 1 - 2/p together with the argmax index set of the defining maximum.

    For characters arising from the unitarizable classification, t lies in
    [0, 1] and t = 1 exactly when p is infinite.
    """

    t: Fraction
    p_is_infinite: bool
    maximizers: frozenset[int]

    @property
    def p(self) -> Fraction | None:
        """The integrability exponent 2/(1-t), or None when infinite."""
        if self.p_is_infinite:
            return None
        return 2 / (1 - self.t)


def prefix_sums(values: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Running sums sigma_i = a_1 + ... + a_i, one per index."""
    out = []
    total = Fraction(0)
    for v in values:
        total += Fraction(v)
        out.append(total)
    return tuple(out)


def dominates(a: Sequence[Fraction | int], b: Sequence[Fraction | int]) -> bool:
    """True iff b is dominated by a: every prefix sum of b is <= that of a."""
    if len(a) != len(b):
        raise ValueError(f"exponent lists must have equal length: {len(a)} != {len(b)}")
    sa = sb = Fraction(0)
    for x, y in zip(a, b):
        sa += Fraction(x)
        sb += Fraction(y)
        if sb > sa:
            return False
    return True


def _max_ratio_scan(scaled: Sequence[int], unit: int) -> tuple[int, int, list[int]]:
    """Exact maximum of 2*sigma_i(values)/(i*(n-i)) for values = scaled/unit.

    Scans every cut point 1 <= i <= n-1 with integer cross-multiplication.
    Returns an unreduced (numerator, denominator) pair for the maximum plus
    the full list of maximizing indices.
    """
    n = len(scaled)
    best_n = best_d = 0
    maximizers: list[int] = []
    sigma = 0
    for i in range(1, n):
        sigma += scaled[i - 1]
        num = 2 * sigma
        den = unit * i * (n - i)
        if not maximizers or num * best_d > best_n * den:
            best_n, best_d, maximizers = num, den, [i]
        elif num * best_d == best_n * den:
            maximizers.append(i)
    return best_n, best_d, maximizers


def _max_ratio_blocks(blocks: Sequence[tuple[int, int]], unit: int) -> tuple[int, int]:
    """Exact maximum of 2*sigma_i/(unit*i*(n-i)) over every cut 1 <= i <= n-1
    of the run-length ``blocks`` (value * unit, multiplicity), values
    decreasing and every multiplicity positive, as in ``CharacterList.blocks``.
    Returns an unreduced (numerator, denominator) pair; (0, 0) when n < 2,
    as ``_max_ratio_scan``.

    On a block that follows cut i0, sigma_i = alpha + v*i with
    alpha = sigma_{i0} - v*i0, so, as 1/(i(n-i)) = (1/i + 1/(n-i))/n, the
    ratio is proportional to alpha/i + beta/(n-i), where beta = alpha + v*n.
    Decreasing values make alpha the sum of the earlier entries' excess over
    v, so alpha >= 0: the ratio is convex on the block when beta >= 0 and
    decreasing when beta < 0.  Its maximum is therefore at the block's first
    cut, or at its last cut when beta >= 0 (checked in integers), and only
    those cuts are compared.
    """
    n = 0
    for _, mult in blocks:
        n += mult
    if n < 2:
        return 0, 0
    best_s, best_w = blocks[0][0], n - 1  # cut 1 seeds the maximum
    i = sigma = 0  # the cut before the block and its prefix sum
    for v, mult in blocks:
        j = i + 1
        if j < n:
            s = sigma + v
            w = j * (n - j)
            if s * best_w > best_s * w:
                best_s, best_w = s, w
        if mult > 1 and sigma + v * (n - i) >= 0:  # beta >= 0
            j = i + mult
            if j == n:
                j -= 1
            s = sigma + v * (j - i)
            w = j * (n - j)
            if s * best_w > best_s * w:
                best_s, best_w = s, w
        i += mult
        sigma += v * mult
    return 2 * best_s, unit * best_w


def decay_t(xi: CharacterList | Sequence[Fraction | int]) -> DecayResult:
    """t = max over 1 <= i <= N-1 of 2*sigma_i(xi) / (i(N-i)), exactly.

    ``xi`` is treated as a multiset, scanned in non-increasing order.
    Requires N >= 2.
    """
    if not isinstance(xi, CharacterList):
        xi = CharacterList(xi)
    if len(xi) < 2:
        raise ValueError("decay requires a character of length >= 2")
    num, den, maxima = _max_ratio_scan(expand_blocks(xi.blocks), xi.unit)
    t = Fraction(num, den)
    return DecayResult(t=t, p_is_infinite=(t == 1), maximizers=frozenset(maxima))


def decay_t_arthur(a: Partition | Iterable[int]) -> Fraction:
    """Closed form for Arthur-type data: t = (d1 - 1)/(N - a1) where d1 is the
    largest part and a1 its multiplicity; t = 0 when d1 = 1 and t = 1 when the
    partition is [N]."""
    parts = a.parts if isinstance(a, Partition) else tuple(sorted(a, reverse=True))
    if not parts:
        raise ValueError("empty partition")
    n = sum(parts)
    if n < 2:
        raise ValueError("decay requires N >= 2")
    d1 = parts[0]
    if d1 == 1:
        return Fraction(0)
    a1 = sum(1 for p in parts if p == d1)
    return Fraction(d1 - 1, n - a1)


@dataclass(frozen=True, slots=True)
class MaximizerReport:
    """Brute-force argmax locations versus the block-boundary candidates."""

    argmax: frozenset[int]
    block_boundaries: frozenset[int]
    contained: bool


def maximizer_certificate(xi: CharacterList | Sequence[Fraction | int]) -> MaximizerReport:
    """Certify that the maximum of sigma_i/(i(N-i)) over i <= N/2 occurs only at
    boundaries of the constant blocks of positive entries.

    The argmax set is computed by brute force; the boundary set is the running
    count s_j of the positive-value blocks of the sorted character.  The
    all-zero character (no positive block) is degenerate and passes by
    convention.
    """
    if not isinstance(xi, CharacterList):
        xi = CharacterList(xi)
    n = len(xi)
    unit = xi.unit
    scaled = expand_blocks(xi.blocks)
    best_n = best_d = 0
    argmax: list[int] = []
    sigma = 0
    for i in range(1, n // 2 + 1):
        sigma += scaled[i - 1]
        den = unit * i * (n - i)
        if not argmax or sigma * best_d > best_n * den:
            best_n, best_d, argmax = sigma, den, [i]
        elif sigma * best_d == best_n * den:
            argmax.append(i)

    boundaries = list(itertools.accumulate(mult for v, mult in xi.blocks if v > 0))
    contained = (not boundaries) or set(argmax) <= set(boundaries)
    return MaximizerReport(
        argmax=frozenset(argmax),
        block_boundaries=frozenset(boundaries),
        contained=contained,
    )
