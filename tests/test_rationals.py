import decimal
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gln_invariants.arthur import ArthurSummand
from gln_invariants.bounds import p0_exponents
from gln_invariants.decay import CharacterList, decay_t, maximizer_certificate
from gln_invariants.rationals import InputError, parse_rat, rat_decimal, rat_str, ratio_decimal
from gln_invariants.segments import Segment, SupercuspidalLabel

RHO = SupercuspidalLabel("rho", 1)

# (reader, field, read): every place a rational enters a model, a character
# or a bound
RATIONAL_READERS = [
    ("ArthurSummand", "x", lambda v: ArthurSummand(RHO, 1, 1, v)),
    ("Segment", "a", lambda v: Segment(RHO, v, 1)),
    ("Segment", "b", lambda v: Segment(RHO, 0, v)),
    ("CharacterList", "values", lambda v: CharacterList([0, v])),
    ("decay_t", "values", lambda v: decay_t([Fraction(1, 2), v])),
    ("maximizer_certificate", "values", lambda v: maximizer_certificate([v, 0])),
    ("p0_exponents", "p0", lambda v: p0_exponents(4, v)),
]


def test_parse_and_render_round_trip():
    for text, value in [("1/2", Fraction(1, 2)), ("-3/4", Fraction(-3, 4)), ("7", 7)]:
        assert parse_rat(text) == value
        assert parse_rat(rat_str(parse_rat(text))) == value
    assert rat_str(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_rat("one half")
    with pytest.raises(ValueError):
        parse_rat("1/0")


# (text, value) for text parse_rat reads; the grammar is the same on every
# Python version
ACCEPTED_TEXTS = [
    ("0", 0),
    ("7", 7),
    ("-3/4", Fraction(-3, 4)),
    ("+3/4", Fraction(3, 4)),
    ("2/8", Fraction(1, 4)),
    ("007/010", Fraction(7, 10)),
    (" \t1/2\n", Fraction(1, 2)),
    ("0.25", Fraction(1, 4)),
    ("-1.5", Fraction(-3, 2)),
    ("1.", 1),
    (".5", Fraction(1, 2)),
    ("0.10000000000000000001", Fraction(10**19 + 1, 10**20)),
    ("1/" + "9" * 4300, Fraction(1, 10**4300 - 1)),
]

# texts outside the grammar: an exponent, '_', an inner space, a non-ASCII
# digit, a zero denominator, nothing, a bare sign, and an integer past
# Python's 4,300-digit limit
REJECTED_TEXTS = [
    "1e3", "1E3", "1e-100000000", "1.5e-3", "1_0/40", "1_000", "1 / 4", "1/ 4",
    "- 1", "\u0663/4", "1/\u0664", "1/0", "", "  ", "+", "-", "/4", "1/", ".", "1/2/3",
    "1.5/2", "1/-4", "0x10", "inf", "nan", "1" * 4301,
]


def test_rational_text_has_one_grammar():
    for text, value in ACCEPTED_TEXTS:
        assert parse_rat(text) == value, text
    for text in REJECTED_TEXTS:
        started = time.perf_counter()
        with pytest.raises(InputError) as err:
            parse_rat(text)
        assert time.perf_counter() - started < 1, text
        assert str(err.value) == f"not an exact rational: {text!r}"


@pytest.mark.parametrize(
    "field, read, value",
    [
        pytest.param(field, read, value, id=f"{reader}.{field}={value!r}")
        for reader, field, read in RATIONAL_READERS
        for value in (0.1, True, None, "abc")
        if not (field == "p0" and value is None)  # p0 = None means infinity
    ],
)
def test_every_rational_is_read_by_parse_rat(field, read, value):
    with pytest.raises(InputError) as err:
        read(value)
    assert err.value.field == field
    assert str(err.value) == f"{field}: not an exact rational: {value!r}"


def test_character_values_that_read_equal_add_up():
    xi = CharacterList(["1/2", Fraction(1, 2), "-1/2", Fraction(-1, 2)])
    assert len(xi) == 4
    assert (xi.unit, xi.blocks) == (2, ((1, 2), (-1, 2)))


def test_decimal_rendering():
    assert rat_decimal(Fraction(1, 3)) == "0.333333333333"
    assert rat_decimal(Fraction(2, 3)) == "0.666666666667"
    assert rat_decimal(Fraction(-1, 2)) == "-0.500000000000"
    assert rat_decimal(Fraction(5)) == "5.000000000000"
    # exact round-half-to-even on the scaled integer
    assert rat_decimal(Fraction(1, 20), digits=1) == "0.0"
    assert rat_decimal(Fraction(3, 20), digits=1) == "0.2"
    assert ratio_decimal(1, 8, 2) == "0.12"
    assert ratio_decimal(3, 8, 2) == "0.38"
    assert ratio_decimal(-5, 4, 1) == "-1.2"
    assert ratio_decimal(-7, 4, 1) == "-1.8"


def _decimal_oracle(num, den, digits):
    # |num|, den <= 10**20: a quotient that is not a tie at `digits` digits
    # lies at least 1/(2 * 10**digits * den) >= 10**-33 from one, and at 100
    # significant digits a quotient below 10**21 is off by under 10**-78, so
    # the division cannot move it onto the other side of a tie
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        q = decimal.Decimal(num) / decimal.Decimal(den)
        return format(q.quantize(decimal.Decimal(1).scaleb(-digits), decimal.ROUND_HALF_EVEN), "f")


@given(
    num=st.integers(-10**20, 10**20),
    den=st.integers(1, 10**20),
    digits=st.integers(1, 12),
)
@example(num=1, den=8, digits=2)
@example(num=-5, den=4, digits=1)
@example(num=3, den=8, digits=2)
@example(num=-1, den=10**13, digits=12)
@example(num=0, den=7, digits=3)
def test_ratio_decimal_matches_decimal_half_even(num, den, digits):
    assert ratio_decimal(num, den, digits) == _decimal_oracle(num, den, digits)
    assert rat_decimal(Fraction(num, den), digits) == ratio_decimal(num, den, digits)
