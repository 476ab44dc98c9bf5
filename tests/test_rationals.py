from fractions import Fraction

import pytest

from gln_invariants.rationals import parse_rat, rat_decimal, rat_str


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
