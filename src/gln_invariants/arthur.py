"""Unitarizable and Arthur-type representation data.

A unitarizable irreducible of GL_N is a sum of twisted summands
|.|^x rho[a][d]; twists are zero (Arthur type) or occur in +/- pairs with
0 < |x| < 1/2.  This module expands such data to its Langlands and Zelevinsky
multisegments, computes the a <-> d duality swap, the Arthur-SL2
partition, the character, the GK-dimension, and the normalized
non-genericity parameter g.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .decay import CharacterList
from .partitions import Partition
from .rationals import (
    InputError,
    check_positive_int,
    json_fields,
    json_list,
    parse_rat,
    rat_str,
    read_at,
)
from .segments import Multisegment, Segment, SupercuspidalLabel


@dataclass(frozen=True, slots=True)
class ArthurSummand:
    """One summand |.|^x rho[a][d]: a is the tempered-SL2 (Steinberg) length,
    d the Arthur-SL2 (Speh) length, x a twist with |x| < 1/2."""

    rho: SupercuspidalLabel
    a: int
    d: int
    x: Fraction = Fraction(0)

    def __post_init__(self):
        check_positive_int(self.a, "a")
        check_positive_int(self.d, "d")
        if type(self.x) is not Fraction:
            object.__setattr__(self, "x", Fraction(self.x))
        if 2 * abs(self.x.numerator) >= self.x.denominator:
            raise InputError(
                "x",
                "twist must lie strictly inside the open interval (-1/2, 1/2), "
                f"got {rat_str(self.x)}",
            )

    @property
    def dim(self) -> int:
        return self.rho.dim * self.a * self.d

    def to_json(self) -> dict:
        return {
            "rho": self.rho.to_json(),
            "a": self.a,
            "d": self.d,
            "x": rat_str(self.x),
        }

    @classmethod
    def from_json(cls, data) -> "ArthurSummand":
        rho, a, d = json_fields(data, "rho", "a", "d")
        return cls(
            read_at("rho", SupercuspidalLabel.from_json, rho),
            a,
            d,
            read_at("x", parse_rat, str(data.get("x", "0"))),
        )


def _summand_sort_key(s: ArthurSummand):
    return (-s.d, -s.a, s.rho.id, -s.x)


@dataclass(frozen=True, slots=True, init=False)
class UnitaryRep:
    """Sum of summands in the shape of the unitarizable classification.

    The default constructor enforces that twisted summands occur in +/- pairs
    with identical (rho, a, d); :meth:`unchecked` skips that pairing check and
    admits arbitrary augmented data, on which every formula here is still
    well-defined.
    """

    summands: tuple[ArthurSummand, ...]

    def __init__(self, summands: Iterable[ArthurSummand], *, _check_pairing: bool = True):
        ss = tuple(sorted(summands, key=_summand_sort_key))
        if not ss:
            raise InputError("summands", "representation needs at least one summand")
        dims = {}
        for s in ss:
            if dims.setdefault(s.rho.id, s.rho.dim) != s.rho.dim:
                raise InputError(
                    "summands", f"label {s.rho.id!r} used with inconsistent dimensions"
                )
        if _check_pairing:
            twisted = Counter((s.rho, s.a, s.d, s.x) for s in ss if s.x != 0)
            for (rho, a, d, x), mult in twisted.items():
                if twisted.get((rho, a, d, -x), 0) != mult:
                    raise InputError(
                        "summands",
                        f"twisted summand {rho.id}[{a}][{d}] with x={x} must be "
                        f"paired with the opposite twist -x"
                    )
        object.__setattr__(self, "summands", ss)

    @classmethod
    def unchecked(cls, summands: Iterable[ArthurSummand]) -> "UnitaryRep":
        """Admit arbitrary augmented data without the +/- pairing constraint."""
        return cls(summands, _check_pairing=False)

    def __len__(self) -> int:
        return len(self.summands)

    def __iter__(self) -> Iterator[ArthurSummand]:
        return iter(self.summands)

    def __repr__(self) -> str:
        body = " + ".join(
            f"|.|^{s.x} {s.rho.id}[{s.a}][{s.d}]" if s.x else f"{s.rho.id}[{s.a}][{s.d}]"
            for s in self.summands
        )
        return f"UnitaryRep({body})"

    @property
    def N(self) -> int:
        return sum(s.dim for s in self.summands)

    @property
    def is_arthur_type(self) -> bool:
        return all(s.x == 0 for s in self.summands)

    def langlands_data(self) -> Multisegment:
        """Expand to the Langlands multisegment: for each summand and each
        j = 1..d, the segment centered at x + (d-2j+1)/2 of length a.  With
        x = p/q, the endpoints are built as integers over the unit 2q."""
        segs = []
        for s in self.summands:
            q = s.x.denominator
            unit = 2 * q
            lo = 2 * s.x.numerator + (s.d - s.a) * q  # j = 1: x + (d-1)/2 - (a-1)/2
            span = (s.a - 1) * unit
            for _ in range(s.d):
                segs.append(Segment._from_ints(s.rho, lo, lo + span, unit))
                lo -= unit
        return Multisegment(segs)

    def az_dual(self) -> "UnitaryRep":
        """Aubert-Zelevinsky dual: swap a <-> d in every summand."""
        return UnitaryRep(
            (ArthurSummand(s.rho, s.d, s.a, s.x) for s in self.summands),
            _check_pairing=False,
        )

    def zelevinsky_data(self) -> Multisegment:
        """Zelevinsky multisegment: the Langlands data of the dual."""
        return self.az_dual().langlands_data()

    def arthur_sl2(self) -> Partition:
        """Partition with d repeated rho.dim * a times per summand."""
        parts = []
        for s in self.summands:  # canonical order: d non-increasing
            parts.extend([s.d] * (s.rho.dim * s.a))
        return Partition._from_sorted(tuple(parts))

    def gk_dim(self) -> Fraction:
        """Half of N^2 minus the sum of d^2 over the Arthur-SL2 entries."""
        n = self.N
        sq = sum(s.rho.dim * s.a * s.d * s.d for s in self.summands)
        return Fraction(n * n - sq, 2)

    def character(self) -> CharacterList:
        """Character multiset: for each augmented entry (x, d) the string
        x + (d-1)/2, x + (d-3)/2, ..., x + (1-d)/2.  Built in integers over
        the unit 2 lcm(twist denominators)."""
        unit = 2 * math.lcm(*{s.x.denominator for s in self.summands})
        half = unit // 2
        counts: dict[int, int] = {}
        for s in self.summands:
            mult = s.rho.dim * s.a
            x = s.x.numerator * (unit // s.x.denominator)
            for value in range(x + (s.d - 1) * half, x - s.d * half, -unit):
                counts[value] = counts.get(value, 0) + mult
        return CharacterList._from_scaled(unit, counts)

    def non_genericity(self) -> Fraction:
        """g = 1 - gk_dim / (N(N-1)/2), in [0, 1]; 0 for generic data and 1
        for a character.  Undefined for N = 1."""
        n = self.N
        if n < 2:
            raise ValueError("non-genericity needs N >= 2")
        total = sum(s.rho.dim * s.a * s.d * (s.d - 1) for s in self.summands)
        return Fraction(total, n * (n - 1))

    def to_json(self) -> dict:
        return {"summands": [s.to_json() for s in self.summands]}

    @classmethod
    def from_json(cls, data) -> "UnitaryRep":
        return cls(json_list(data, "summands", ArthurSummand.from_json))

