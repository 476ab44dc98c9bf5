"""Segments and multisegments over symbolic supercuspidal labels.

A segment <a,b>_rho is the set of twists |.|^a rho, ..., |.|^b rho with
b - a a non-negative integer.  Multisegments (multisets of segments) carry
both classifications of irreducible representations; only the label's
identity and ambient dimension enter any formula implemented here.

Endpoints are integers over a unit (``Segment.lo``/``hi`` over
``Segment.unit``), as characters are (``decay.CharacterList``): the
canonical order of a multisegment and its character are computed in
integers over the lcm of its segments' units, and ``Fraction`` is built only
where an endpoint or midpoint leaves the API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .decay import CharacterList
from .partitions import Partition, dual_partition
from .rationals import (
    InputError,
    check_positive_int,
    json_fields,
    json_list,
    parse_rat,
    rat_str,
    read_at,
)


@dataclass(frozen=True, slots=True)
class SupercuspidalLabel:
    """Opaque token for a supercuspidal building block on GL_dim."""

    id: str
    dim: int

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InputError("id", "must be a non-empty string")
        check_positive_int(self.dim, "dim")

    def to_json(self) -> dict:
        return {"id": self.id, "dim": self.dim}

    @classmethod
    def from_json(cls, data) -> "SupercuspidalLabel":
        return cls(*json_fields(data, "id", "dim"))


@dataclass(frozen=True, slots=True, init=False)
class Segment:
    """Normalized segment <a,b>_rho with unitary rho; b - a is an integer >= 0.

    The endpoints are stored as integers over one unit: a = lo/unit and
    b = hi/unit, with ``unit`` the reduced denominator of a (and so of b),
    which makes the stored form canonical.  ``a``, ``b`` and ``midpoint``
    are built as ``Fraction``s when read.
    """

    rho: SupercuspidalLabel
    unit: int
    lo: int
    hi: int

    def __init__(self, rho: SupercuspidalLabel, a, b):
        if type(a) is not Fraction:
            a = read_at("a", parse_rat, a)
        if type(b) is not Fraction:
            b = read_at("b", parse_rat, b)
        span = b - a
        if span.denominator != 1 or span < 0:
            raise InputError("b", f"b - a must be a non-negative integer, got {rat_str(span)}")
        object.__setattr__(self, "rho", rho)
        # b - a is an integer, so b has a's denominator
        object.__setattr__(self, "unit", a.denominator)
        object.__setattr__(self, "lo", a.numerator)
        object.__setattr__(self, "hi", b.numerator)

    @classmethod
    def _run(cls, rho: SupercuspidalLabel, lo: int, hi: int, unit: int,
             count: int) -> list["Segment"]:
        """Trusted constructor of ``count`` segments of one cuspidal line: the
        first is <lo/unit, hi/unit>_rho, where unit > 0 and hi - lo is a
        non-negative multiple of unit, and each next one is shifted down by
        1.  lo moves by the unit, so gcd(lo, unit) is the same for every
        segment and is divided out once."""
        k = math.gcd(lo, unit)
        unit, lo, hi = unit // k, lo // k, hi // k
        run = []
        for _ in range(count):
            self = object.__new__(cls)
            object.__setattr__(self, "rho", rho)
            object.__setattr__(self, "unit", unit)
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
            run.append(self)
            lo -= unit
            hi -= unit
        return run

    @property
    def a(self) -> Fraction:
        return Fraction(self.lo, self.unit)

    @property
    def b(self) -> Fraction:
        return Fraction(self.hi, self.unit)

    @property
    def length(self) -> int:
        return (self.hi - self.lo) // self.unit + 1

    @property
    def ambient_dim(self) -> int:
        return self.rho.dim * self.length

    @property
    def midpoint(self) -> Fraction:
        return Fraction(self.lo + self.hi, 2 * self.unit)

    def __repr__(self) -> str:
        return f"Segment({self.rho.id}[{self.rho.dim}], {self.a}, {self.b})"

    def to_json(self) -> dict:
        return {"rho": self.rho.to_json(), "a": rat_str(self.a), "b": rat_str(self.b)}

    @classmethod
    def from_json(cls, data) -> "Segment":
        rho, a, b = json_fields(data, "rho", "a", "b")
        return cls(read_at("rho", SupercuspidalLabel.from_json, rho), a, b)


def check_label_dims(items: Iterable, field: str) -> None:
    """Reject summands or segments (``items``) that give one label id two
    dimensions; the error names ``field``."""
    dims = {}
    for item in items:
        rho = item.rho
        if dims.setdefault(rho.id, rho.dim) != rho.dim:
            raise InputError(field, f"label {rho.id!r} used with inconsistent dimensions")


def _sort_canonical(segs: list[Segment]) -> None:
    """Sort by label, then a descending, then b descending, compared as
    integers over the lcm of the units: since `precedes` (tests/conftest.py)
    needs a1 < a2, no earlier segment can precede a later one."""
    unit = math.lcm(*{s.unit for s in segs})
    segs.sort(key=lambda s: (s.rho.id, -s.lo * (unit // s.unit), -s.hi * (unit // s.unit)))


@dataclass(frozen=True, slots=True, init=False)
class Multisegment:
    """Multiset of segments, stored in a canonical order where no earlier
    segment precedes a later one."""

    segments: tuple[Segment, ...]

    def __init__(self, segments: Iterable[Segment]):
        segs = list(segments)
        if not segs:
            raise InputError("segments", "multisegment must contain at least one segment")
        _sort_canonical(segs)
        check_label_dims(segs, "segments")
        object.__setattr__(self, "segments", tuple(segs))

    @classmethod
    def _from_checked(cls, segs: list[Segment]) -> "Multisegment":
        """Trusted constructor: a non-empty list of segments whose labels a
        constructor has already checked, only sorted into the canonical
        order (in place)."""
        _sort_canonical(segs)
        self = object.__new__(cls)
        object.__setattr__(self, "segments", tuple(segs))
        return self

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __repr__(self) -> str:
        return f"Multisegment({list(self.segments)})"

    @property
    def total_dim(self) -> int:
        return sum(s.ambient_dim for s in self.segments)

    def partition(self) -> Partition:
        """Segment lengths, each with the multiplicity of its label dimension."""
        parts = []
        for s in self.segments:
            parts.extend([s.length] * s.rho.dim)
        parts.sort(reverse=True)
        return Partition._from_sorted(tuple(parts))

    def wavefront(self) -> Partition:
        """Wavefront partition: the dual of :meth:`partition` (this multisegment
        read as Zelevinsky data)."""
        return dual_partition(self.partition())

    def gk_dim(self) -> Fraction:
        """GK-dimension (Zelevinsky reading): half of N^2 minus the sum of
        N_i * length_i^2; equals half the wavefront orbit dimension."""
        n = self.total_dim
        return Fraction(n * n - sum(s.rho.dim * s.length**2 for s in self.segments), 2)

    def character(self) -> CharacterList:
        """Character multiset (Langlands reading): each segment's midpoint with
        multiplicity N_i * length_i.  Cardinality equals total_dim.  Built in
        integers: the midpoint (lo + hi)/(2 unit) is scaled to 2 lcm(units)."""
        unit = 2 * math.lcm(*{s.unit for s in self.segments})
        counts: dict[int, int] = {}
        for s in self.segments:
            mid = (s.lo + s.hi) * (unit // (2 * s.unit))
            counts[mid] = counts.get(mid, 0) + s.ambient_dim
        return CharacterList._from_scaled(unit, counts)

    def is_tempered(self) -> bool:
        """Langlands reading: tempered mod center iff all midpoints coincide."""
        mids = {s.midpoint for s in self.segments}
        return len(mids) == 1

    def to_json(self) -> dict:
        return {"segments": [s.to_json() for s in self.segments]}

    @classmethod
    def from_json(cls, data) -> "Multisegment":
        return cls(json_list(data, "segments", Segment.from_json))

