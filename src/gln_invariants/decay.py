"""Matrix-coefficient decay from character data.

The decay rate of a unitarizable representation is encoded by
``t = 1 - 2/p`` where p is the L^p-integrability exponent.  It is computed
from the character multiset by maximizing ``2*sigma_i / (i(N-i))`` over the
prefix sums sigma_i of the non-increasing rearrangement.  For Arthur-type
data there is a closed form depending only on the greatest entry of the
attached partition and its multiplicity; both routes are implemented and
cross-checked in the test suite, never trusted alone.

A character has one form, :class:`CharacterList`: integer run-length blocks
over one common denominator.  The scans read those integers; ``Fraction`` is
built only where a value leaves the API.  ``_cut_scan`` compares the cuts
in integers, every cut for ``decay_t`` and the first half for
``maximizer_certificate``; the partition sweeps' cross-check,
``verify._scan_two_xi``, reads the same maximum from a partition's part
counts (its docstring says which cuts it compares and why).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .partitions import Partition, as_parts
from .rationals import parse_rat, read_at


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
    decreasing.  Built from the values, each read by ``parse_rat`` (values
    that read equal add up), so every block has a positive multiplicity;
    iteration and ``values`` give the values non-increasing, as
    ``Fraction``s.

    The characters produced by the classification of the unitary dual are
    symmetric under negation; arbitrary multisets are accepted so the decay
    formula can be evaluated on any input.
    """

    unit: int
    blocks: tuple[tuple[int, int], ...]

    def __init__(self, values: Iterable[Fraction | int | str]):
        counts: dict[Fraction, int] = {}
        for value in values:
            if type(value) is not Fraction:
                value = read_at("values", parse_rat, value)
            counts[value] = counts.get(value, 0) + 1
        unit = math.lcm(*(v.denominator for v in counts))
        self._store(unit, {v.numerator * (unit // v.denominator): m for v, m in counts.items()})

    @classmethod
    def _from_scaled(cls, unit: int, counts: Mapping[int, int]) -> "CharacterList":
        """Trusted constructor: the values v/unit with multiplicity
        counts[v], every multiplicity a positive ``int``."""
        self = object.__new__(cls)
        self._store(unit, counts)
        return self

    def _store(self, unit: int, counts: Mapping[int, int]) -> None:
        """Set the fields from the values v/unit with multiplicity counts[v].
        Dividing out gcd(unit, *values) leaves the lcm of the reduced
        denominators as the unit (the public constructor's unit is that lcm
        already)."""
        k = math.gcd(unit, *counts)
        object.__setattr__(self, "unit", unit // k)
        object.__setattr__(
            self, "blocks", tuple(sorted(((v // k, m) for v, m in counts.items()), reverse=True))
        )

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


@dataclass(frozen=True, slots=True)
class DecayResult:
    """t = 1 - 2/p together with the argmax index set of the defining maximum.

    For characters arising from the unitarizable classification, t lies in
    [0, 1] and t = 1 exactly when p is infinite.
    """

    t: Fraction
    maximizers: frozenset[int]


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
    return all(sb <= sa for sa, sb in zip(prefix_sums(a), prefix_sums(b)))


def _cut_scan(scaled: Sequence[int], stop: int) -> tuple[int, int, list[int]]:
    """The greatest sigma_i/w_i, w = i(n-i), over the cuts 1 <= i < stop of
    the n integers ``scaled``, compared as sigma_i * w_j against sigma_j * w_i:
    (sigma, w) at the first maximizer, and every maximizing cut."""
    n = len(scaled)
    best_s = best_w = 0
    maximizers: list[int] = []
    sigma = 0
    for i in range(1, stop):
        sigma += scaled[i - 1]
        w = i * (n - i)
        if not maximizers or sigma * best_w > best_s * w:
            best_s, best_w, maximizers = sigma, w, [i]
        elif sigma * best_w == best_s * w:
            maximizers.append(i)
    return best_s, best_w, maximizers


def _max_ratio_scan(scaled: Sequence[int], unit: int) -> tuple[int, int, list[int]]:
    """Exact maximum of 2*sigma_i(values)/(i*(n-i)) over every cut 1 <= i <=
    n-1 for values = scaled/unit, as an unreduced (numerator, denominator)
    pair, plus every maximizing index.  The common factor 2/unit cancels in
    the comparisons, so the unit (which may be huge) enters only the result.
    """
    best_s, best_w, maximizers = _cut_scan(scaled, len(scaled))
    return 2 * best_s, unit * best_w, maximizers


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
    return DecayResult(t=t, maximizers=frozenset(maxima))


def decay_t_arthur(a: Partition | Iterable[int]) -> Fraction:
    """The closed form for Arthur-type data whose Arthur-SL2 is the
    partition ``a`` of N: t = (d_1 - 1)/(N - a_1), with d_1 the greatest
    part and a_1 its multiplicity; t = 0 when every part is 1 and t = 1
    when the partition is [N].  The partition sweeps' workers take the same
    form from ``verify._tallies``."""
    parts = as_parts(a)
    n = sum(parts)
    if n < 2:
        raise ValueError("decay requires N >= 2")
    d1 = parts[0]
    return Fraction(d1 - 1, n - parts.count(d1)) if d1 > 1 else Fraction(0)


def shifted_decay(t: Fraction, n: int, arthur_type: bool) -> Fraction:
    """max(0, t - s), with s = 0 for Arthur type and s = 2/n otherwise: the
    uncertainty bound on GL_n is shifted_decay(t)^2 <= g, that is
    t <= sqrt(g) for Arthur type and t <= sqrt(g) + 2/n for the other
    unitarizable representations."""
    if not arthur_type:
        t -= Fraction(2, n)
    return t if t > 0 else Fraction(0)


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
    _, _, argmax = _cut_scan(expand_blocks(xi.blocks), len(xi) // 2 + 1)  # unit-free
    boundaries = list(itertools.accumulate(mult for v, mult in xi.blocks if v > 0))
    contained = (not boundaries) or set(argmax) <= set(boundaries)
    return MaximizerReport(
        argmax=frozenset(argmax),
        block_boundaries=frozenset(boundaries),
        contained=contained,
    )
