import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gln_invariants.arthur import ArthurSummand, UnitaryRep
from gln_invariants.partitions import Partition, orbit_dim
from gln_invariants.rationals import InputError
from gln_invariants.segments import Multisegment, Segment, SupercuspidalLabel

from conftest import is_linked, multisegments, precedes, segments

R1 = SupercuspidalLabel("r1", 1)
R2 = SupercuspidalLabel("r2", 2)


def seg(a, b, rho=R1):
    return Segment(rho, Fraction(a), Fraction(b))


def test_segment_validation_and_twist_folding():
    s = Segment(R1, 0, 2)
    assert s.length == 3 and s.ambient_dim == 3
    twist = Fraction(1, 2)  # |.|^x <a,b> is <a + x, b + x>
    t = Segment(R1, 0 + twist, 2 + twist)
    assert (t.a, t.b) == (Fraction(1, 2), Fraction(5, 2))
    assert (t.unit, t.lo, t.hi, t.length) == (2, 1, 5, 3)
    with pytest.raises(ValueError):
        Segment(R1, 0, Fraction(1, 2))  # b - a not an integer
    with pytest.raises(ValueError):
        Segment(R1, 2, 1)  # negative span


def test_linked_examples():
    assert is_linked(seg(0, 1), seg(1, 2))
    assert not is_linked(seg(0, 2), seg(1, 1))  # containment
    assert not is_linked(seg(0, 1), seg(0, 1, R2))  # different cuspidal lines
    assert not is_linked(seg(0, 1), seg(3, 4))  # union not a segment
    assert not is_linked(seg(0, 1), Segment(R1, Fraction(1, 2), Fraction(3, 2)))


def test_precedes_examples():
    assert precedes(seg(0, 1), seg(1, 2))
    assert not precedes(seg(1, 2), seg(0, 1))
    assert not precedes(seg(0, 1), seg(3, 4))  # a' > b + 1, not linked


@given(segments(), segments())
def test_precedes_implies_linked_and_is_asymmetric(s1, s2):
    if precedes(s1, s2):
        assert is_linked(s1, s2)
        assert not precedes(s2, s1)
    assert is_linked(s1, s2) == is_linked(s2, s1)
    assert not precedes(s1, s1)


def test_ordering_example_forces_swap():
    m = Multisegment([seg(0, 1), seg(1, 2)])
    assert m.segments == (seg(1, 2), seg(0, 1))
    single = Multisegment([seg(0, 3)])
    assert single.segments == (seg(0, 3),)


@settings(max_examples=200)
@given(multisegments())
def test_ordering_postcondition(m):
    out = m.segments
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert not precedes(out[i], out[j])


def test_partition_of_examples():
    # Speh data: single segment of length d over a label of dimension N/d
    d, n = 3, 12
    rho = SupercuspidalLabel("rho", n // d)
    speh = Multisegment([Segment(rho, Fraction(1 - d, 2), Fraction(d - 1, 2))])
    assert speh.partition() == Partition([d] * (n // d))
    assert speh.wavefront() == Partition([n // d] * d)
    assert speh.gk_dim() == Fraction(n * (n - d), 2)

    char = Multisegment([Segment(SupercuspidalLabel("rho", 5), 0, 0)])
    assert char.partition() == Partition([1] * 5)

    mixed = Multisegment([seg(0, 1), Segment(R2, 0, 0)])
    assert mixed.partition() == Partition([2, 1, 1])
    assert mixed.wavefront() == Partition([3, 1])


def test_gk_dim_examples():
    generic = Multisegment([seg(0, 0), seg(1, 1), seg(5, 5, R2)])  # all lengths 1
    n = generic.total_dim
    assert generic.gk_dim() == Fraction(n * (n - 1), 2)

    full = Multisegment([Segment(SupercuspidalLabel("rho", 1), 0, 6)])  # single dim-1 segment
    assert full.gk_dim() == 0


@settings(max_examples=200)
@given(multisegments())
def test_gk_dim_two_routes_and_partition_sum(m):
    assert m.partition().n == m.total_dim
    assert m.gk_dim() == Fraction(orbit_dim(m.wavefront()), 2)


@settings(max_examples=200)
@given(multisegments())
def test_gk_zero_iff_single_full_character_segment(m):
    is_char = (
        len(m.segments) == 1
        and m.segments[0].rho.dim == 1
        and m.segments[0].length == m.total_dim
    )
    assert (m.gk_dim() == 0) == is_char


def test_character_examples():
    k, dim = 3, 2
    rho = SupercuspidalLabel("rho", dim)
    tempered = Multisegment([Segment(rho, Fraction(1 - k, 2), Fraction(k - 1, 2))])
    assert list(tempered.character()) == [Fraction(0)] * (dim * k)

    two_half = Multisegment([seg(0, 1)])
    assert list(two_half.character()) == [Fraction(1, 2), Fraction(1, 2)]

    pair = Multisegment(
        [
            Segment(R2, Fraction(1, 2), Fraction(1, 2)),
            Segment(R2, Fraction(-1, 2), Fraction(-1, 2)),
        ]
    )
    assert list(pair.character()) == [Fraction(1, 2)] * 2 + [Fraction(-1, 2)] * 2


@settings(max_examples=200)
@given(multisegments())
def test_character_cardinality_and_sum(m):
    xi = m.character()
    assert len(xi) == m.total_dim
    expected = sum(s.ambient_dim * s.midpoint for s in m.segments)
    assert sum(xi.values, Fraction(0)) == expected


def test_tempered_examples():
    assert Multisegment([seg(0, 3)]).is_tempered()
    assert not Multisegment(
        [seg(Fraction(-1, 2), Fraction(-1, 2)), seg(Fraction(1, 2), Fraction(1, 2))]
    ).is_tempered()
    assert Multisegment([seg(0, 0), Segment(R2, 0, 0)]).is_tempered()


@settings(max_examples=100)
@given(multisegments())
def test_json_round_trip(m):
    data = json.loads(json.dumps(m.to_json()))
    assert Multisegment.from_json(data) == m


def test_label_dimension_consistency_checked():
    # one check, and one message, for the segments and the summands form
    other = SupercuspidalLabel("r1", 2)
    with pytest.raises(InputError) as seg_err:
        Multisegment([seg(0, 0), seg(1, 1, other)])
    with pytest.raises(InputError) as rep_err:
        UnitaryRep([ArthurSummand(R1, 1, 1), ArthurSummand(other, 1, 1)])
    assert (seg_err.value.field, rep_err.value.field) == ("segments", "summands")
    message = "label 'r1' used with inconsistent dimensions"
    assert seg_err.value.message == rep_err.value.message == message
