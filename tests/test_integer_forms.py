"""The integer forms of segments and characters against ``Fraction`` oracles.

``Segment`` stores integer endpoints over a reduced unit, ``Multisegment``
orders its segments in integers over the lcm of their units, and both
character routes (``UnitaryRep.character`` and ``Multisegment.character``)
are built as scaled integers.  The oracles below are the ``Fraction``
computations those integer paths replaced; every property compares the two.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from gln_invariants.arthur import ArthurSummand, UnitaryRep
from gln_invariants.decay import CharacterList
from gln_invariants.segments import Multisegment, Segment, SupercuspidalLabel

from conftest import multisegments

R = SupercuspidalLabel("r", 1)


def segment_sort_key_oracle(s):
    """The canonical order: by label, then a descending, then b descending."""
    return (s.rho.id, -s.a, -s.b)


def langlands_oracle(pi):
    """(rho, a, b) of each Langlands segment of ``pi``, in canonical order:
    for each summand and each j = 1..d, the segment centered at
    x + (d-2j+1)/2 of length a."""
    segs = []
    for s in pi.summands:
        lo = Fraction(1 - s.a, 2)
        hi = Fraction(s.a - 1, 2)
        for j in range(1, s.d + 1):
            center = s.x + Fraction(s.d - 2 * j + 1, 2)
            segs.append(Segment(s.rho, center + lo, center + hi))
    return [(s.rho, s.a, s.b) for s in sorted(segs, key=segment_sort_key_oracle)]


def unitary_character_oracle(pi):
    """For each summand the string x + (d-1)/2, ..., x + (1-d)/2, each entry
    with multiplicity rho.dim * a."""
    counts = {}
    for s in pi.summands:
        mult = s.rho.dim * s.a
        for k in range(s.d - 1, -s.d, -2):
            value = s.x + Fraction(k, 2)
            counts[value] = counts.get(value, 0) + mult
    return CharacterList(counts)


def multisegment_character_oracle(m):
    """Each segment's midpoint with multiplicity rho.dim * length."""
    counts = {}
    for s in m.segments:
        mid = (s.a + s.b) / 2
        counts[mid] = counts.get(mid, 0) + s.ambient_dim
    return CharacterList(counts)


@st.composite
def twisted_reps(draw):
    """Unpaired summands whose twists have denominators 1..30, over labels
    shared between summands, so one cuspidal line mixes units."""
    dims = {"r1": draw(st.integers(1, 3)), "r2": 1}
    summands = []
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(sorted(dims)))
        den = draw(st.integers(1, 30))
        num = draw(st.integers(-((den - 1) // 2), (den - 1) // 2))
        summands.append(
            ArthurSummand(
                SupercuspidalLabel(name, dims[name]),
                draw(st.integers(1, 4)),
                draw(st.integers(1, 4)),
                Fraction(num, den),
            )
        )
    return UnitaryRep.unchecked(summands)


@settings(max_examples=300)
@given(twisted_reps())
def test_expansions_and_characters_match_fraction_oracles(pi):
    for rep in (pi, pi.az_dual()):
        m = rep.langlands_data()
        assert [(s.rho, s.a, s.b) for s in m] == langlands_oracle(rep)
        assert rep.character() == unitary_character_oracle(rep)
        assert m.character() == multisegment_character_oracle(m)
        assert rep.character() == m.character()


@settings(max_examples=300)
@given(multisegments())
def test_canonical_order_and_character_match_fraction_oracles(m):
    segs = list(m.segments)
    assert list(Multisegment(reversed(segs)).segments) == sorted(
        segs, key=segment_sort_key_oracle
    )
    assert m.character() == multisegment_character_oracle(m)


def test_integer_and_public_constructors_agree():
    public = Segment(R, Fraction(1, 2), Fraction(3, 2))
    for lo, hi, unit in ((1, 3, 2), (2, 6, 4), (10, 30, 20)):
        built = Segment._from_ints(R, lo, hi, unit)
        assert built == public and hash(built) == hash(public)
        assert (built.unit, built.lo, built.hi) == (2, 1, 3)
    whole = Segment(R, -2, 1, twist=0)
    assert Segment._from_ints(R, -4, 2, 2) == whole and whole.unit == 1
    assert whole.length == 4 and whole.midpoint == Fraction(-1, 2)

    values = {Fraction(1, 3): 2, Fraction(-1, 6): 1, Fraction(0): 3}
    public = CharacterList(values)
    for unit in (6, 12, 60):
        built = CharacterList._from_scaled(unit, {int(v * unit): m for v, m in values.items()})
        assert built == public and hash(built) == hash(public)
    assert CharacterList._from_scaled(4, {0: 2}) == CharacterList([0, 0])

