import decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gln_invariants.rationals import parse_rat, rat_decimal, rat_str, ratio_decimal


def test_parse_and_render_round_trip():
    for text, value in [("1/2", Fraction(1, 2)), ("-3/4", Fraction(-3, 4)), ("7", 7)]:
        assert parse_rat(text) == value
        assert parse_rat(rat_str(parse_rat(text))) == value
    assert rat_str(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_rat("one half")
    with pytest.raises(ValueError):
        parse_rat("1/0")


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
