from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gln_invariants.bounds import (
    GenArthurParam,
    fixed_vector_exponent,
    genbound_exponent,
    hch_coefficient_exponent,
    p0_exponents,
    relative_exponents,
    speh_exponent,
)
from gln_invariants.partitions import Partition, partition_tuples
from gln_invariants.rationals import InputError
from gln_invariants.segments import Multisegment, Segment, SupercuspidalLabel

from conftest import multisegments

R1 = SupercuspidalLabel("rho", 1)


def generic_multisegment(n):
    return Multisegment([Segment(R1, i, i) for i in range(n)])


def speh_multisegment(k, dim):
    rho = SupercuspidalLabel("rho", dim)
    return Multisegment([Segment(rho, Fraction(1 - k, 2), Fraction(k - 1, 2))])


def test_fixed_vector_examples():
    n = 5
    gen = generic_multisegment(n)
    exp = fixed_vector_exponent(gen)
    assert exp.coeff == Fraction(n * (n - 1), 2)
    assert exp.epsilon_slack

    d, n = 2, 8
    speh = speh_multisegment(d, n // d)
    assert fixed_vector_exponent(speh).coeff == Fraction(n * (n - d), 2)

    char = Multisegment([Segment(R1, 0, 6)])
    assert fixed_vector_exponent(char).coeff == 0


@settings(max_examples=150)
@given(multisegments())
def test_fixed_vector_equals_gk_dim(m):
    assert fixed_vector_exponent(m).coeff == m.gk_dim()


def test_speh_exponent_examples():
    one = speh_exponent(1, 4, "absolute")
    assert one.coeff == Fraction(4 * 3, 2) and one.epsilon_slack

    rel = speh_exponent(2, 3, "relative")
    assert rel.coeff == 6 and not rel.epsilon_slack

    absolute = speh_exponent(2, 3, "absolute")
    assert absolute.coeff == 12

    with pytest.raises(ValueError):
        speh_exponent(2, 3, "other")
    with pytest.raises(ValueError):
        speh_exponent(0, 3)


@pytest.mark.parametrize(
    "func, args, field",
    [
        (speh_exponent, (1.5, 2), "k"),
        (speh_exponent, (True, 3), "k"),
        (speh_exponent, (0, 3), "k"),
        (speh_exponent, (2, 2.0), "n_rho"),
        (speh_exponent, (2, False, "relative"), "n_rho"),
        (p0_exponents, (2.5, None), "N"),
        (p0_exponents, (True, Fraction(4)), "N"),
        (p0_exponents, (0, None), "N"),
    ],
    ids=lambda v: (
        v.__name__ if callable(v) else ",".join(map(str, v)) if isinstance(v, tuple) else v
    ),
)
def test_exponent_sizes_must_be_positive_ints(func, args, field):
    # a float or a boolean would otherwise reach the arithmetic:
    # speh_exponent(1.5, 2).coeff was 2.25 and p0_exponents(2.5, None).coeff 0
    with pytest.raises(InputError) as exc:
        func(*args)
    assert exc.value.field == field


def test_speh_absolute_minus_relative_identity():
    for k in range(1, 11):
        for n in range(1, 11):
            diff = speh_exponent(k, n, "absolute").coeff - speh_exponent(k, n, "relative").coeff
            assert diff == Fraction(k * n * (n - 1), 2)


def test_relative_exponents_examples():
    sc = Multisegment([Segment(SupercuspidalLabel("rho", 3), 0, 0)])
    plain, weighted = relative_exponents(sc)
    assert plain.coeff == 0 and weighted.coeff == 0
    assert plain.epsilon_slack and weighted.epsilon_slack

    # Speh of length k=2 over a dimension-2 supercuspidal: N = 4,
    # d_GK = (16 - 2*4)/2 = 4 and the single factor has GK-dimension 1
    m = speh_multisegment(2, 2)
    assert m.gk_dim() == 4
    plain, weighted = relative_exponents(m)
    assert plain.coeff == 4 - 1
    assert weighted.coeff == 4 - 2 * 1


@st.composite
def wide_multisegments(draw):
    n = draw(st.integers(1, 6))
    segs = []
    for i in range(n):
        dim = draw(st.integers(1, 4))
        a = Fraction(draw(st.integers(-6, 6)), 2)
        length = draw(st.integers(1, 4))
        segs.append(Segment(SupercuspidalLabel(f"r{i}", dim), a, a + length - 1))
    return Multisegment(segs)


@settings(max_examples=300)
@given(wide_multisegments())
def test_relative_exponents_nonnegative(m):
    plain, weighted = relative_exponents(m)
    assert plain.coeff >= 0
    assert weighted.coeff >= 0
    assert plain.coeff >= weighted.coeff


def test_hch_examples():
    m = speh_multisegment(2, 2)  # N = 4
    assert hch_coefficient_exponent(m, m.wavefront()).coeff == 0
    assert hch_coefficient_exponent(m, Partition([1, 1, 1, 1])).coeff == m.gk_dim()

    gen = generic_multisegment(4)
    assert hch_coefficient_exponent(gen, Partition([4])).coeff == 0

    # orbits above the wavefront give negative exponents, returned as-is
    assert hch_coefficient_exponent(m, Partition([4])).coeff < 0

    with pytest.raises(ValueError):
        hch_coefficient_exponent(m, Partition([3]))


def test_an_orbit_is_read_in_any_partition_form():
    for n in range(1, 9):
        m = generic_multisegment(n)
        for parts in partition_tuples(n):
            orbit = Partition(parts)
            hch = hch_coefficient_exponent(m, orbit)
            p0 = p0_exponents(n, 4, orbit)
            for form in (list, lambda ps: ps[::-1], iter):
                assert hch_coefficient_exponent(m, form(parts)) == hch
                assert p0_exponents(n, 4, form(parts)) == p0
    gen = generic_multisegment(4)
    with pytest.raises(ValueError, match="orbit partition sums to 3, expected 4"):
        hch_coefficient_exponent(gen, [2, 1])
    with pytest.raises(ValueError, match="orbit partition sums to 3, expected 4"):
        p0_exponents(4, 4, [2, 1])
    with pytest.raises(InputError, match=r"^parts\[1\]: must be a positive integer$"):
        hch_coefficient_exponent(gen, [4, 0])


@settings(max_examples=150)
@given(multisegments())
def test_hch_vanishes_at_wavefront(m):
    assert hch_coefficient_exponent(m, m.wavefront()).coeff == 0


def test_genbound_examples():
    assert genbound_exponent(GenArthurParam(((5, 1),))).coeff == 0
    assert genbound_exponent(GenArthurParam(((2, 2),))).coeff == 3
    assert genbound_exponent(GenArthurParam(((1, 2), (2, 1)))).coeff == 4


def test_genbound_param_validation():
    with pytest.raises(ValueError):
        GenArthurParam(((0, 1),))
    with pytest.raises(ValueError):
        GenArthurParam(())
    param = GenArthurParam(((1, 2), (2, 1)))
    assert param.N == 4
    for bad, field in (
        (((2.7, True),), "summands[0].n"),
        (((2, True),), "summands[0].d"),
        (((3, 1.9),), "summands[0].d"),
        ((("3", 1),), "summands[0].n"),
        (((1, 1), (1, 0)), "summands[1].d"),
        ((), "summands"),
    ):
        with pytest.raises(InputError) as exc:
            GenArthurParam(bad)
        assert exc.value.field == field, bad


def test_p0_exponent_examples():
    n = 6
    assert p0_exponents(n, Fraction(2)).coeff == n * (n - 1)
    assert p0_exponents(n, None).coeff == 0
    assert p0_exponents(4, Fraction(4), orbit=Partition([1, 1, 1, 1])).coeff == 9
    # unitarizable variant clamps at the tempered end
    assert p0_exponents(n, Fraction(2), arthur_type=False).coeff == n * (n - 1)
    with pytest.raises(ValueError):
        p0_exponents(n, Fraction(3, 2))
    with pytest.raises(ValueError):
        p0_exponents(4, Fraction(4), orbit=Partition([3]))


def test_p0_exponent_monotone_in_p0():
    n = 5
    values = [p0_exponents(n, Fraction(p)).coeff for p in range(2, 30)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert p0_exponents(n, Fraction(10**6)).coeff > 0
