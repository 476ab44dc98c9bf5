"""Fuzz the commands that read a representation: whatever the input, they
end in exit 0 or 2, print no traceback and return in bounded time."""

import contextlib
import io
import json
import re
import time

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from gln_invariants.cli import main

# an input at the size cap (MAX_INPUT_N) takes about 3 s; a hang does not end
SECONDS = 10

# rational-shaped texts outside the rational grammar: exponents of up to
# eight digits (10^99999999 alone takes seconds to build), '_' between
# digits and spaces inside the number
exponents = st.integers(1, 8).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1))
rational_texts = st.one_of(
    st.tuples(st.sampled_from(["1", "-3", "0.5", "2."]), st.sampled_from("eE"),
              st.sampled_from(["", "+", "-"]), exponents).map(lambda t: "".join(map(str, t))),
    st.sampled_from(["1_0/40", "1_000", "-1/2_5", "1 / 4", "1/ 4", "- 1/4", "1 0"]),
)
leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
          | rational_texts)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def obj(draw, **fields):
    """An object with these fields, each a value of its strategy; one time in
    four, one field is left out or is any JSON leaf instead."""
    value = {key: draw(strategy) for key, strategy in fields.items()}
    if draw(st.integers(0, 3)) == 3:
        key = draw(st.sampled_from(sorted(value)))
        if draw(st.booleans()):
            del value[key]
        else:
            value[key] = draw(leaves)
    return value


small = st.integers(1, 4)
rationals = st.sampled_from(["0", "1", "1/2", "-1/4", "1/4", "3/2"])
rho = obj(id=st.sampled_from(["r", "s"]), dim=small)
summand = obj(rho=rho, a=small, d=small, x=st.sampled_from(["0", "1/4", "-1/4"]))
segment = obj(rho=rho, a=rationals, b=rationals)
reps = obj(summands=st.lists(summand, min_size=1, max_size=3)) | obj(
    segments=st.lists(segment, min_size=1, max_size=3)
)

inputs = st.one_of(
    reps.map(lambda value: json.dumps(value).encode()),
    json_values.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=64),
    st.integers(1, 5000).map(lambda depth: b"[" * depth),
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@pytest.mark.parametrize("command", ["invariants", "dual"])
@settings(max_examples=200, deadline=None)
@given(data=inputs)
def test_any_input_is_exit_0_or_2_without_a_traceback(input_path, command, data):
    input_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", str(input_path)])
    assert time.perf_counter() - started < SECONDS
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


@settings(max_examples=100, deadline=None)
@given(text=rational_texts, field=st.sampled_from(["x", "a", "b"]))
def test_a_rational_outside_the_grammar_is_exit_2_naming_its_field(input_path, text, field):
    # a rep that is well formed but for one rational-shaped text in x, a or b
    rho = {"id": "r", "dim": 1}
    if field == "x":
        data = {"summands": [{"rho": rho, "a": 1, "d": 1, "x": x} for x in (text, "0")]}
        where = "summands[0].x"
    else:
        data = {"segments": [{"rho": rho, "a": "0", "b": "1", field: text}]}
        where = f"segments[0].{field}"
    input_path.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["invariants", "--input", str(input_path)])
    assert time.perf_counter() - started < SECONDS
    assert (code, out.getvalue(), err.getvalue()) == (
        2, "", f"error: {where}: not an exact rational: {text!r}\n")


@st.composite
def wide_reps(draw):
    """Well-formed summands or segments whose rationals have many distinct
    denominators of up to 60 digits, and endpoints of up to 400 digits: below
    and above the cap on an input's rationals (``cli.MAX_INPUT_BITS``)."""
    digits = draw(st.integers(1, 60))
    dens = st.integers(10 ** (digits - 1), 10**digits)
    if draw(st.booleans()):
        summands = []
        for i in range(draw(st.integers(1, 20))):
            q = draw(dens) + 2
            p, d = draw(st.integers(1, (q - 1) // 2)), draw(small)
            summands += [{"rho": {"id": f"r{i}", "dim": 1}, "a": 1, "d": d, "x": f"{sign}{p}/{q}"}
                         for sign in ("", "-")]
        return {"summands": summands}
    segments = []
    for i in range(draw(st.integers(1, 20))):
        q, p = draw(dens), draw(st.integers(-(10**400), 10**400))
        b = p + q * draw(st.integers(0, 3))
        segments.append({"rho": {"id": f"r{i % 3}", "dim": 1}, "a": f"{p}/{q}", "b": f"{b}/{q}"})
    return {"segments": segments}


@settings(max_examples=100, deadline=None)
@given(data=wide_reps())
def test_wide_rationals_are_exit_0_or_one_line_naming_their_field(input_path, data):
    input_path.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["invariants", "--input", str(input_path)])
    assert time.perf_counter() - started < SECONDS
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert (code, out.getvalue()) == (2, ""), err.getvalue()
        assert re.fullmatch(r"error: (summands|segments)[^:]*: [^\n]+\n", err.getvalue())
