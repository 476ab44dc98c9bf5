"""Exact rational parsing and rendering, and the input error the models raise.

Every invariant in this package is an exact rational number.  Characters
are integers over one common denominator (``decay.CharacterList``) and
segment endpoints integers over a unit (``segments.Segment``);
``fractions.Fraction`` is built at the API edge (parsing, rendering) and for
single rationals such as a twist or a GK-dimension.  Floats never enter a
computation; they appear only in rendering helpers for CSV/JSON output
columns.

The models (labels, summands, segments and their sums) check their own
fields and read their own JSON with the helpers below, so every input check
raises :class:`InputError` naming the offending field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable


class InputError(ValueError):
    """Input rejected; ``field`` names the offending location as a path such
    as ``summands[0].rho.dim`` ('' when the value itself is wrong)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
        self.message = message


def check_positive_int(value, field: str) -> None:
    """Reject anything but a positive ``int`` (a JSON boolean is not one)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(field, "must be a positive integer")


def read_at(path: str, reader: Callable, value):
    """``reader(value)``, with the field of any InputError moved under ``path``."""
    try:
        return reader(value)
    except InputError as exc:
        raise InputError(f"{path}.{exc.field}" if exc.field else path, exc.message) from None


def json_fields(data, *names: str) -> list:
    """The values of the required fields ``names`` of a JSON object."""
    if not isinstance(data, dict):
        raise InputError("", "expected a JSON object")
    for name in names:
        if name not in data:
            raise InputError(name, "missing required field")
    return [data[name] for name in names]


def json_list(data, name: str, reader: Callable) -> list:
    """Read the list field ``name`` item by item; errors name ``name[i]``."""
    (items,) = json_fields(data, name)
    if not isinstance(items, list):
        raise InputError(name, "expected a list")
    return [read_at(f"{name}[{i}]", reader, item) for i, item in enumerate(items)]


def parse_rat(text: str) -> Fraction:
    """Parse an exact rational from 'p/q' or 'p' (optionally signed)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InputError("", f"not an exact rational: {text!r}") from None


def rat_str(x: Fraction) -> str:
    """Render exactly: 'p/q', or just 'p' for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_decimal(x: Fraction, digits: int = 12) -> str:
    """Fixed-point decimal rendering of ``x`` with `digits` fractional digits
    (see :func:`ratio_decimal`)."""
    x = Fraction(x)
    return ratio_decimal(x.numerator, x.denominator, digits)


def ratio_decimal(num: int, den: int, digits: int = 12) -> str:
    """Fixed-point decimal rendering of num/den (den > 0, any sign of num)
    with `digits` fractional digits.

    Rounding is exact (round half to even on the scaled integer), so the
    rendering is independent of binary floating point.
    """
    sign = "-" if num < 0 else ""
    scale = 10**digits
    q, r = divmod(abs(num) * scale, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{frac:0{digits}d}"
