import hashlib
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import gln_invariants
from gln_invariants import cli
from gln_invariants.cli import MAX_INPUT_N, main, parse_rep
from gln_invariants.arthur import UnitaryRep
from gln_invariants.decay import CharacterList
from gln_invariants.partitions import partition_count
from gln_invariants.segments import Multisegment
from gln_invariants.verify import MAX_SWEEP_CASES

SPEH = {"summands": [{"rho": {"id": "rho", "dim": 1}, "a": 1, "d": 4, "x": "0"}]}
MSEG = {
    "segments": [
        {"rho": {"id": "r1", "dim": 1}, "a": "0", "b": "1"},
        {"rho": {"id": "r2", "dim": 2}, "a": "0", "b": "0"},
    ]
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_parse_rep_dispatch_and_round_trip():
    pi = parse_rep(json.dumps(SPEH))
    assert isinstance(pi, UnitaryRep)
    assert parse_rep(json.dumps(pi.to_json())) == pi

    m = parse_rep(json.dumps(MSEG))
    assert isinstance(m, Multisegment)
    assert parse_rep(json.dumps(m.to_json())) == m


def test_invariants_unitary(tmp_path, capsys):
    path = write(tmp_path, "speh.json", SPEH)
    assert main(["invariants", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["arthur_sl2"] == [4]
    assert data["wavefront"] == [1, 1, 1, 1]
    assert data["g"]["num"] == 1 and data["g"]["den"] == 1
    assert data["t"]["num"] == 1
    assert data["p"] == "infinite"
    assert data["lower_ok"] and data["upper_ok"]


@pytest.mark.parametrize("x", ["1/4", "-1/4"])
def test_invariants_complementary_series_meets_its_bound(tmp_path, capsys, x):
    # the GL_2 complementary series |.|^x r + |.|^-x r: g = 0 and t = 1/2, so
    # t > sqrt(g), within the bound of a non-Arthur input, t <= sqrt(g) + 2/N
    other = x[1:] if x.startswith("-") else "-" + x
    rep = {"summands": [{"rho": {"id": "r", "dim": 1}, "a": 1, "d": 1, "x": y}
                        for y in (x, other)]}
    path = write(tmp_path, "cs.json", rep)
    assert main(["invariants", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["arthur_type"] is False
    assert (data["g"]["num"], data["t"]["num"], data["t"]["den"]) == (0, 1, 2)
    assert data["lower_ok"] is True and data["upper_ok"] is True


def test_invariants_multisegment(tmp_path, capsys):
    path = write(tmp_path, "m.json", MSEG)
    assert main(["invariants", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["type"] == "multisegment"
    assert data["partition"] == [2, 1, 1]
    assert data["wavefront"] == [3, 1]
    assert data["d_gk"]["num"] == 5 and data["d_gk"]["den"] == 1
    assert data["exponents"]["fixed_vector"]["coeff"] == data["d_gk"]
    assert data["exponents"]["hch_at_wavefront"]["coeff"]["num"] == 0


def test_invariants_csv_format(tmp_path, capsys):
    path = write(tmp_path, "speh.json", SPEH)
    assert main(["invariants", "--input", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "arthur_sl2,4" in out
    assert "t.num,1" in out


def _subprocess_env():
    """The environment for a child interpreter that imports this package."""
    path = [os.path.dirname(os.path.dirname(gln_invariants.__file__))]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _rho(name, dim=1):
    return {"id": name, "dim": dim}


# sha256 of the invariants output in JSON and CSV; a change in any output
# byte shows here.
GOLDEN = {
    "arthur": (
        {"summands": [{"rho": _rho("r1", 2), "a": 1, "d": 3, "x": "0"},
                      {"rho": _rho("r2"), "a": 2, "d": 2, "x": "0"}]},
        "66b8c407ae034974d5c5147554362640ba86d33db529113442bafff8bd722dfc",
        "a51ff0b4f5129a0d5eaae5d067430cdb3a468675c25303df00a5d2d1cac86a55",
    ),
    "twisted": (
        {"summands": [{"rho": _rho("r"), "a": 2, "d": 3, "x": "1/7"},
                      {"rho": _rho("r"), "a": 2, "d": 3, "x": "-1/7"},
                      {"rho": _rho("s"), "a": 1, "d": 2, "x": "0"}]},
        "79633c6e8b60ecf635b25f8d1203166292e5c730372f040344a0d24c4f6ebbcd",
        "33bd370334037f1c02445ad99c517b9adab3ad6ca4e73306a832d89928d2fd3e",
    ),
    "thirds": (
        {"segments": [{"rho": _rho("r"), "a": "1/3", "b": "7/3"},
                      {"rho": _rho("s", 2), "a": "-2/3", "b": "1/3"},
                      {"rho": _rho("r"), "a": "-5/3", "b": "-2/3"}]},
        "7ac223e6b0613eb288e2606df68727c9413d657492ad599ac8cb0841a724cde8",
        "01efa58e6ec436a5ca1d1d6e8d58e8ca01bbabffc13f891d68c29d1324d5533d",
    ),
    "speh": (
        SPEH,
        "7eb0c57402ba9970c3b570fd0748107f0d8e7f352223eb6cb1cd87df84ea0a08",
        "0452a82c3a7875f595e996bdccc34d6a127335de78fc914522b3497ad4bf0294",
    ),
    "n1_unitary": (
        {"summands": [{"rho": _rho("r"), "a": 1, "d": 1, "x": "0"}]},
        "f0255742c15a529a0ad2ccd926d12cde1cb704fc34c3fa8d3b2237d348c82c8f",
        "b713e8aa7a02d55026b5ff4a0c25056d8b48f7cde8572f2ad9de198015505037",
    ),
    "n1_segment": (
        {"segments": [{"rho": _rho("r"), "a": "1/2", "b": "1/2"}]},
        "0e286807953424e677aef5e4b73e71e44c65cc5c000be0f33f5cab2596918a7a",
        "965b5bd76a4e5b0cc816d763a580906225828a41aed5dec3c6c7c8ab6fcea794",
    ),
    # at the N = 100,000 input cap: two characters of a few blocks (1.6 and
    # 2.5 MB of JSON), and one of 100,000 distinct blocks
    "cap_twisted_pair": (
        {"summands": [{"rho": _rho("a"), "a": 25000, "d": 2, "x": "1/7"},
                      {"rho": _rho("a"), "a": 25000, "d": 2, "x": "-1/7"}]},
        "1f4794835a941d58cf98226d709b92321be774e49af6e94270c102c9ab8050f8",
        "3ea1231073e8b30c70a13a8a8c083ee354ed2c2713c26dbda6d872ba5bc0f014",
    ),
    "cap_long_segment": (
        {"segments": [{"rho": _rho("a"), "a": "1/3", "b": "299998/3"}]},
        "887197854ef949f75ccc1227edaa23328895788ce104e17e58c696e3ba239778",
        "504f64b60c832733b8336bd762f5e237473f6b70eb0dd762e4a1da2768e1ee9f",
    ),
    "cap_speh": (
        {"summands": [{"rho": _rho("a"), "a": 1, "d": 100000, "x": "0"}]},
        "f4436fc589d1433d025a5c149ff75318de5713409a86fec60e1474b2ce7f23fc",
        "1fe5a345baa7f6834083ad3f9a0f7287b65d42b1352c9ffa7934f64991bab1e5",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_invariants_output_bytes_are_pinned(tmp_path, capsys, name):
    rep, json_sha, csv_sha = GOLDEN[name]
    path = write(tmp_path, f"{name}.json", rep)
    for fmt, sha in (("json", json_sha), ("csv", csv_sha)):
        assert main(["invariants", "--input", path, "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha, fmt


_character_values = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


@settings(max_examples=200)
@given(st.lists(_character_values, min_size=1, max_size=12))
def test_character_rendered_by_block_matches_rendering_each_value(values):
    # the old rendering, one rat_str per value, is the oracle
    xi = CharacterList(values)
    assert cli._character_json(xi) == [cli.rat_str(v) for v in xi]


def test_integer_character_text_is_the_fraction_text():
    # each block v/unit is reduced by gcd in integers; the oracle builds
    # Fraction(v, unit) and renders it with rat_str.  Zero, negative and
    # integral values, and a unit that one block's value does not divide
    for unit, counts in [(1, {0: 3}), (2, {3: 1, 0: 2, -3: 1}), (12, {24: 1, 6: 2, 1: 1, -12: 2}),
                         (20, {9: 2, -9: 2}), (6, {-4: 1, -5: 3})]:
        xi = CharacterList._from_scaled(unit, counts)
        oracle = [cli.rat_str(Fraction(v, xi.unit)) for v, mult in xi.blocks for _ in range(mult)]
        assert cli._character_json(xi) == oracle
    xi = CharacterList._from_scaled(12, {24: 1, 6: 2, 1: 1, 0: 1, -12: 2})
    assert cli._character_json(xi) == ["2", "1/2", "1/2", "1/12", "0", "-1", "-1"]


def test_cached_parser_serves_every_call_as_a_fresh_process(tmp_path, capsys):
    # one parser serves a rejected flag, a rejected input, both output formats
    # and a sweep in turn; each call prints what a fresh process prints
    good = write(tmp_path, "speh.json", SPEH)
    bad = write(tmp_path, "bad.json", {"summands": [{"rho": _rho("r"), "a": 1}]})
    calls = [
        ["invariants", "--input", good, "--no-such-flag"],
        ["invariants", "--input", bad],
        ["invariants", "--input", good],
        ["invariants", "--input", good, "--format", "csv"],
        ["verify-arthur", "--N", "6"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        fresh = subprocess.run(
            [sys.executable, "-m", "gln_invariants", *argv],
            capture_output=True, text=True, env=_subprocess_env(), timeout=30,
        )
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv
    assert cli.build_parser() is cli.build_parser()


def test_command_handler_is_looked_up_at_each_call(tmp_path, capsys, monkeypatch):
    # the cached parser names its handlers, so one replaced after the first
    # call is the one the next call runs
    path = write(tmp_path, "speh.json", SPEH)
    assert main(["invariants", "--input", path]) == 0
    first = capsys.readouterr().out
    seen = []
    real = cli._cmd_invariants
    monkeypatch.setattr(cli, "_cmd_invariants", lambda args: seen.append(args) or real(args))
    assert main(["invariants", "--input", path]) == 0
    assert capsys.readouterr().out == first
    assert [args.input for args in seen] == [path]


def test_invariants_builds_the_character_once(tmp_path, monkeypatch):
    # the rendered character is the one the report's decay scan read
    calls = []
    real = UnitaryRep.character
    monkeypatch.setattr(UnitaryRep, "character", lambda self: calls.append(self) or real(self))
    for name in ("speh", "n1_unitary"):
        path = write(tmp_path, f"{name}.json", GOLDEN[name][0])
        assert main(["invariants", "--input", path]) == 0
        assert len(calls) == 1, name
        calls.clear()


def test_dual_swaps_labels(tmp_path, capsys):
    path = write(tmp_path, "speh.json", SPEH)
    assert main(["dual", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summands"][0]["a"] == 4
    assert data["summands"][0]["d"] == 1


def test_dual_rejects_multisegment(tmp_path, capsys):
    path = write(tmp_path, "m.json", MSEG)
    assert main(["dual", "--input", path]) == 2
    assert "unitarizable" in capsys.readouterr().err


def test_malformed_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["invariants", "--input", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_invalid_utf8_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff")
    assert main(["invariants", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: <input>: not valid UTF-8")


@pytest.mark.parametrize("command", ["invariants", "dual"])
@pytest.mark.parametrize(
    "text",
    [
        "[" * 3000,  # nested past the decoder's recursion limit
        '{"summands": [{"a": ' + "9" * 5000 + "}]}",  # past the int-conversion digit limit
    ],
    ids=["nested", "long-int"],
)
def test_json_the_decoder_rejects_is_exit_2_naming_the_input(tmp_path, capsys, command, text):
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: <input>: invalid JSON: ")
    assert len(captured.err.splitlines()) == 1


def test_boundary_twist_rejected_with_field(tmp_path, capsys):
    bad = {"summands": [{"rho": {"id": "r", "dim": 1}, "a": 1, "d": 2, "x": "1/2"}]}
    path = write(tmp_path, "bad.json", bad)
    assert main(["invariants", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "summands[0].x" in err
    assert "(-1/2, 1/2)" in err


def test_half_integer_span_rejected(tmp_path, capsys):
    bad = {"segments": [{"rho": {"id": "r", "dim": 1}, "a": "0", "b": "1/2"}]}
    path = write(tmp_path, "bad.json", bad)
    assert main(["invariants", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "segments[0].b" in err
    assert "non-negative integer" in err


def test_unpaired_twist_rejected(tmp_path, capsys):
    # the label id is quoted, so one holding a newline keeps the error on one line
    for label in ("r", "a\nb"):
        bad = {"summands": [{"rho": {"id": label, "dim": 1}, "a": 1, "d": 2, "x": "1/4"}]}
        path = write(tmp_path, "bad.json", bad)
        assert main(["invariants", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: summands: twisted summand {label!r}[1][2] ")
        assert "paired" in err and len(err.splitlines()) == 1


def test_missing_field_named(tmp_path, capsys):
    bad = {"summands": [{"rho": {"id": "r", "dim": 1}, "a": 1}]}
    path = write(tmp_path, "bad.json", bad)
    assert main(["invariants", "--input", path]) == 2
    assert "summands[0].d" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"summands": [{"rho": {"id": "r", "dim": True}, "a": 1, "d": 2}]}, "summands[0].rho.dim"),
        ({"summands": [{"rho": {"id": "r", "dim": 1}, "a": True, "d": 2}]}, "summands[0].a"),
        ({"segments": [{"rho": {"id": "r", "dim": True}, "a": "0", "b": "1"}]}, "segments[0].rho.dim"),
    ],
)
def test_json_boolean_is_not_an_integer(tmp_path, capsys, bad, field):
    path = write(tmp_path, "bad.json", bad)
    assert main(["invariants", "--input", path]) == 2
    assert f"{field}: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "big, field",
    [
        ({"summands": [{"rho": _rho("r", MAX_INPUT_N + 1), "a": 1, "d": 1}]}, "summands"),
        ({"summands": [{"rho": _rho("r", 10**9), "a": 1, "d": 1}]}, "summands"),
        ({"segments": [{"rho": _rho("r"), "a": "0", "b": str(MAX_INPUT_N)}]}, "segments"),
        ({"segments": [{"rho": _rho("r"), "a": "0", "b": str(10**9)}]}, "segments"),
    ],
)
def test_input_above_the_size_cap_rejected(tmp_path, capsys, big, field):
    path = write(tmp_path, "big.json", big)
    for command in ("invariants", "dual"):
        assert main([command, "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: total dimension ")
        assert f"exceeds the cap of {MAX_INPUT_N}" in captured.err


def test_input_at_the_size_cap_accepted():
    at_cap = {"summands": [{"rho": _rho("r", MAX_INPUT_N // 2), "a": 1, "d": 2}]}
    assert parse_rep(json.dumps(at_cap)).N == MAX_INPUT_N
    at_cap = {"segments": [{"rho": _rho("r"), "a": "0", "b": str(MAX_INPUT_N - 1)}]}
    assert parse_rep(json.dumps(at_cap)).total_dim == MAX_INPUT_N


def test_missing_input_file_is_exit_4(tmp_path, capsys):
    assert main(["invariants", "--input", str(tmp_path / "nope.json")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_out_is_exit_4(tmp_path, capsys):
    assert main(["partitions", "--N", "4", "--out", str(tmp_path / "no/dir/x.txt")]) == 4


def test_verify_arthur_text_output(capsys):
    assert main(["verify-arthur", "--N", "10", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "checked 42 partitions, 0 failures" in out


def test_verify_arthur_json_output(capsys):
    assert main(["verify-arthur", "--N", "8", "--threads", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == partition_count(8)
    assert data["failures"] == []


def test_verify_unitary_cli(capsys):
    assert (
        main(
            [
                "verify-unitary",
                "--N",
                "4",
                "--twist-grid",
                "1/10,2/10",
                "--max-summands",
                "2",
                "--threads",
                "1",
            ]
        )
        == 0
    )
    assert "0 failures" in capsys.readouterr().out


def test_verify_unitary_rejects_bad_grid(capsys):
    assert main(["verify-unitary", "--N", "4", "--twist-grid", "1/2"]) == 2
    assert "(0, 1/2)" in capsys.readouterr().err


def test_verify_consistency_cli(capsys):
    assert (
        main(
            [
                "verify-consistency",
                "--N",
                "6",
                "--max-summands",
                "2",
                "--max-dim",
                "2",
                "--max-a",
                "2",
                "--max-d",
                "2",
                "--random-cases",
                "50",
                "--threads",
                "1",
            ]
        )
        == 0
    )
    assert "0 failures" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, field",
    [
        (["verify-unitary", "--N", "6", "--max-summands", "0"], "max_summands"),
        (["verify-consistency", "--N", "6", "--max-dim", "0", "--random-cases", "0"], "max_dim"),
        (["verify-consistency", "--N", "6", "--max-dim", "0"], "max_dim"),
        (["verify-consistency", "--N", "6", "--max-a", "-3"], "max_a"),
        (["verify-consistency", "--N", "0"], "max_total_dim"),
        (["verify-consistency", "--N", "6", "--random-cases", "-1"], "random_cases"),
    ],
)
def test_empty_sweep_budget_rejected(capsys, argv, field):
    assert main(argv + ["--threads", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {field}: must be a " in captured.err


@pytest.mark.parametrize("command", ["verify-arthur", "figure"])
def test_sweep_n_above_the_cap_rejected(capsys, command):
    # p(61) = 1,121,505 partitions
    assert main([command, "--N", "61", "--threads", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: N: the sweep would check more than {MAX_SWEEP_CASES} cases\n"


@pytest.mark.parametrize(
    "command, field",
    [("verify-arthur", "N"), ("figure", "N"), ("verify-unitary", "max_summands")],
)
def test_sweep_at_n_100000_exits_2_at_once(command, field):
    # p(N) and the unitarizable cases are counted only until they pass the
    # case cap; a unitary count that builds every summand group first takes
    # 6.6-9.1 s on a 2-vCPU Xeon
    run = subprocess.run(
        [sys.executable, "-m", "gln_invariants", command, "--N", "100000", "--threads", "1"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=5,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == f"error: {field}: the sweep would check more than {MAX_SWEEP_CASES} cases\n"


def test_unitary_sweep_at_n_100000_with_one_summand_group():
    # the 156 cases are the summand groups of weight 10^5, built from its
    # divisors without listing the groups of any lighter weight
    run = subprocess.run(
        [sys.executable, "-m", "gln_invariants", "verify-unitary", "--N", "100000",
         "--max-summands", "1", "--threads", "1"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=30,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "checked 156 unitarizable cases, 0 failures"


@pytest.mark.parametrize("n", [MAX_INPUT_N + 1, 10**9])
def test_unitary_sweep_n_above_the_dimension_cap_rejected(n):
    # the summand groups grow as N log N and were built, twice, before the
    # case count could reject anything: counting them took seconds at 10^5
    run = subprocess.run(
        [sys.executable, "-m", "gln_invariants", "verify-unitary", "--N", str(n),
         "--threads", "1"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=20,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == (
        f"error: N: must be at most {MAX_INPUT_N}, the cap on a representation's "
        "total dimension\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-arthur", "--N", "1", "--threads", "1"],
        ["verify-unitary", "--N", "1", "--threads", "1"],
        ["figure", "--N", "1", "--threads", "1"],
        ["partitions", "--N", "0"],
    ],
)
def test_n_below_its_floor_is_exit_2_naming_n(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    out.write_text("kept\n", encoding="utf-8")
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: N: ")
    assert out.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("n", [1, 61])
def test_rejected_figure_leaves_out_file_intact(tmp_path, capsys, n):
    out = tmp_path / "fig.csv"
    out.write_text("kept\n", encoding="utf-8")
    assert main(["figure", "--N", str(n), "--out", str(out), "--threads", "1"]) == 2
    assert out.read_text(encoding="utf-8") == "kept\n"
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, field",
    [
        # 1,629,922,443 unitarizable cases
        (["verify-unitary", "--N", "60", "--max-summands", "6"], "max_summands"),
        # 11,969,016,344 multisets of up to 8 of the 64 summand shapes
        (["verify-consistency", "--N", "10", "--max-summands", "8", "--max-dim", "4",
          "--random-cases", "0"], "max_summands"),
        # the default 270,724 exhaustive cases leave room for 729,276 random ones
        (["verify-consistency", "--N", "10", "--random-cases", "729277"], "random_cases"),
    ],
)
def test_budget_above_the_case_cap_rejected(tmp_path, capsys, argv, field):
    out = tmp_path / "out.txt"
    out.write_text("kept\n", encoding="utf-8")
    assert main(argv + ["--threads", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {field}: the sweep would check more than {MAX_SWEEP_CASES} cases\n"
    )
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_random_cases_the_dimension_cap_leaves_out_are_exit_2_naming_n(capsys):
    # one of the 125,000 shapes has dimension 1: 2,000 draws miss it, and the
    # default 10,000 cases stop after MAX_SWEEP_CASES draws, not 2,000 per case
    # (20 million, about 80 s)
    for random_cases in ("1", "10000"):
        argv = ["verify-consistency", "--N", "1", "--max-summands", "1", "--max-dim", "50",
                "--max-a", "50", "--max-d", "50", "--random-cases", random_cases,
                "--threads", "1"]
        began = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - began < 30
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: N: the total-dimension cap leaves too few admissible random cases\n"
        )


def test_random_cases_admitted_one_in_192_draws_are_all_found(capsys):
    # the default budget at N = 1 admits 1 slot of dimension, a and d 1:
    # 6,000 cases take 1,167,570 draws, more than MAX_SWEEP_CASES
    assert main(["verify-consistency", "--N", "1", "--random-cases", "6000", "--threads", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "checked 6001 representations, 0 failures"


@pytest.mark.parametrize(
    "fault, argv, size, digest",
    [
        (
            "shifted_decay",
            ["verify-unitary", "--N", "6"],
            109_827,
            "10418062b07852cf8413c2d9444a6886223e594e7cbab0b78d757110d39074e8",
        ),
        (
            "orbit_dim",
            ["verify-consistency", "--N", "6", "--max-summands", "2", "--max-dim", "2",
             "--max-a", "2", "--max-d", "2", "--random-cases", "50", "--seed", "3"],
            51_952,
            "8db79d5cd568b09a482d7c0efe5e4309197b6396f635718f07d6e6542ad18d29",
        ),
        (
            "_partition_stats",
            ["verify-arthur", "--N", "8"],
            3_045,
            "92c58acbb119fccc0bcf52505849f2f01e1e374780586aaa92ca25ec6562cd88",
        ),
        (
            "_partition_stats",
            ["verify-arthur", "--N", "30"],
            4_562,
            "26778f388e48dd44627ec8b659d37a5dc176a2372c8bb1c621da76fa57820ce3",
        ),
    ],
)
def test_failing_sweep_output_bytes_are_pinned(monkeypatch, capsys, fault, argv, size, digest):
    # a wrong upper bound fails every unitarizable case, and an orbit
    # dimension off by 2 every consistency case, so the JSON pins each
    # sweep's cases, their order and their failure rows.  The
    # "_partition_stats" fault makes the sum of d(d - 1) one too small (s,
    # which the Arthur chunk reads as sq - n from ``_tallies``): it fails
    # t^2 <= g on the partitions where it is tight and moves the least gaps
    # of the rest off 0: 4 failures at N = 8, and at N = 30 three chunks
    # whose least gaps merge
    from gln_invariants import verify

    real_dim, real_tallies = verify.orbit_dim, verify._tallies

    def smaller_s(job):
        for parts, i, sq, tn, td, scan_ok in real_tallies(job):
            yield parts, i, sq - 1, tn, td, scan_ok

    faults = {"shifted_decay": ("shifted_decay", lambda t, n, arthur_type: t + 1),
              "orbit_dim": ("orbit_dim", lambda p: real_dim(p) + 2),
              "_partition_stats": ("_tallies", smaller_s)}
    monkeypatch.setattr(verify, *faults[fault])
    assert main(argv + ["--format", "json", "--threads", "1"]) == 3
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


def test_figure_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert main(["figure", "--N", "8", "--out", str(out), "--threads", "1"]) == 0
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == partition_count(8) + 1
    assert text.endswith("\n") and "\r" not in text

    out2 = tmp_path / "fig2.csv"
    assert main(["figure", "--N", "8", "--out", str(out2), "--threads", "2"]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_partitions_cli(capsys):
    assert main(["partitions", "--N", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[0] == "5" and lines[-1] == "1+1+1+1+1"


def test_partitions_cli_json(capsys):
    assert main(["partitions", "--N", "4", "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == [4] and rows[-1] == [1, 1, 1, 1]


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "--N", "4", "--format", "json"],
        ["invariants", "--input", "rep.json", "--threads", "2"],
        ["dual", "--input", "rep.json", "--format", "csv"],
        ["dual", "--input", "rep.json", "--threads", "2"],
        ["partitions", "--N", "4", "--threads", "2"],
    ],
)
def test_a_flag_the_command_ignores_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_threads_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GLN_INVARIANTS_THREADS", "1")
    assert main(["verify-arthur", "--N", "6"]) == 0
    capsys.readouterr()
    assert main(["verify-arthur", "--N", "6", "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err
    monkeypatch.setenv("GLN_INVARIANTS_THREADS", "zero")
    assert main(["verify-arthur", "--N", "6"]) == 2


def test_violation_exit_code_path(capsys):
    # a failing summary (impossible from the sweeps themselves) maps to exit 3
    import argparse
    from fractions import Fraction

    from gln_invariants.cli import EXIT_VIOLATION, _emit_summary
    from gln_invariants.decay import CharacterList
    from gln_invariants.partitions import Partition
    from gln_invariants.verify import InvariantReport, SweepSummary

    fake = SweepSummary(
        N=4,
        count=1,
        failures=[
            InvariantReport(
                arthur_sl2=Partition([2, 2]),
                wavefront=Partition([2, 2]),
                d_gk=Fraction(4),
                character=CharacterList([Fraction(1, 2)] * 2 + [Fraction(-1, 2)] * 2),
                g=Fraction(1, 3),
                t=Fraction(1, 2),
                lower_ok=False,
                upper_ok=True,
                maximizers=frozenset({2}),
                note="synthetic",
            )
        ],
    )
    args = argparse.Namespace(format=None)
    import sys

    assert _emit_summary(fake, "partitions", args, sys.stdout) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "1 failures" in out and "FAIL" in out


# Runs the CLI with the full-scan cross-check of the Arthur sweep and the
# figure forced wrong, so every partition of N but [N] fails inside a worker
# process.  `fork` carries the patched function into the workers.
FORCED_FAILURE = textwrap.dedent(
    """
    import multiprocessing, sys
    multiprocessing.set_start_method("fork")
    from gln_invariants import verify
    from gln_invariants.cli import main
    verify._scan_two_xi = lambda c, n, top, saved: (1, 1)
    sys.exit(main(sys.argv[1:]))
    """
)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_failure_in_a_worker_exits_3_with_its_rows():
    # p(26) = 2436 partitions make two chunks, so --threads 2 uses a pool; a
    # failure report that cannot cross back from a worker hangs the pool,
    # which the timeout turns into a test failure
    env = _subprocess_env()
    outputs = []
    for threads in ("1", "2"):
        argv = ["verify-arthur", "--N", "26", "--threads", threads]
        run = subprocess.run(
            [sys.executable, "-c", FORCED_FAILURE, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == 3, run.stderr
        lines = run.stdout.splitlines()
        assert lines[0] == "checked 2436 partitions, 2435 failures"
        assert sum(line.startswith("FAIL {") for line in lines) == 2435
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_figure_scan_failure_exits_3_with_the_clean_rows():
    # the figure cross-checks every row's t against the scan; with the scan
    # forced wrong, its stderr names that check for the 2435 rows other than
    # [26], and its stdout is the clean run's, at 1 and 2 threads
    env = _subprocess_env()
    argv = ["figure", "--N", "26", "--threads"]
    clean = subprocess.run([sys.executable, "-m", "gln_invariants", *argv, "1"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert clean.returncode == 0 and clean.stderr == "", clean.stderr
    assert len(clean.stdout.splitlines()) == partition_count(26) + 1
    for threads in ("1", "2"):
        run = subprocess.run([sys.executable, "-c", FORCED_FAILURE, *argv, threads],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 3, run.stderr
        assert run.stderr == "2435 rows: closed-form t differs from prefix-sum scan\n"
        assert run.stdout == clean.stdout


# Runs the CLI with one fault forced into the Arthur sweep's workers: the
# full-scan cross-check raises, every chunk's summary carries a failure
# report whose note cannot be unpickled, or each chunk's partition stream
# skips its third partition, so its part counts drift.
WORKER_FAULT = textwrap.dedent(
    """
    import dataclasses, itertools, multiprocessing, sys
    multiprocessing.set_start_method("fork")
    from gln_invariants import verify
    from gln_invariants.cli import main

    def refuse():
        raise RuntimeError("cannot be unpickled")

    class Unloadable(str):
        def __reduce__(self):
            return refuse, ()

    def raising_scan(c, n, top, saved):
        raise ERRORS[sys.argv[1]]("injected")

    def skipping_partitions(job):
        stream = ranked_partitions(job)
        return itertools.chain(itertools.islice(stream, 2), itertools.islice(stream, 1, None))

    def unloadable_chunk(job):
        summary = arthur_chunk(job)
        report = verify.report_for_arthur_partition(next(verify._ranked_partitions(job)))
        summary.failures.append(dataclasses.replace(report, note=Unloadable("injected")))
        return summary

    ERRORS = {"ValueError": ValueError, "RuntimeError": RuntimeError}
    arthur_chunk, ranked_partitions = verify._arthur_chunk, verify._ranked_partitions
    if sys.argv[1] in ERRORS:
        verify._scan_two_xi = raising_scan
    elif sys.argv[1] == "drift":
        verify._ranked_partitions = skipping_partitions
    else:
        verify._arthur_chunk = unloadable_chunk
    sys.exit(main(sys.argv[2:]))
    """
)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("fault", ["ValueError", "RuntimeError", "unpickle", "drift"])
def test_worker_fault_exits_5_naming_the_chunk(fault, threads):
    # p(26) = 2436 partitions make two chunks, so --threads 2 uses a pool; a
    # pool that hangs on a result it cannot unpickle fails on the timeout.
    # Without (24, 2), the tail of (24, 1, 1) read as the successor of
    # (25, 1) counts (24, 24, 1), and the chunk's closing recount finds it
    run = subprocess.run(
        [sys.executable, "-c", WORKER_FAULT, fault, "verify-arthur", "--N", "26",
         "--threads", threads],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
    )
    assert "Traceback" not in run.stderr
    if fault == "unpickle" and threads == "1":
        # inline chunks are never pickled: the injected reports are failures
        assert run.returncode == 3, run.stderr
        assert run.stdout.startswith("checked 2436 partitions, 2 failures\n")
        return
    error = {"unpickle": "BrokenProcessPool",
             "drift": "RuntimeError: part counts drifted from the partition stream at ("
             }.get(fault, f"{fault}: injected")
    assert run.returncode == 5, run.stderr
    assert run.stdout == ""
    assert run.stderr.startswith("error: sweep chunk 1 of 2 (N=26) failed: " + error)
    assert len(run.stderr.splitlines()) == 1


def test_long_part_beside_many_unit_parts_finishes_quickly(tmp_path):
    # Arthur-SL2 [50000, 1^50000]: a dual built column by column makes 50,000
    # passes over 50,001 parts, which ran for about 46 s
    hook = {"summands": [{"rho": _rho("r"), "a": 1, "d": 50000},
                         {"rho": _rho("s", 50000), "a": 1, "d": 1}]}
    path = write(tmp_path, "hook.json", hook)
    run = subprocess.run(
        [sys.executable, "-m", "gln_invariants", "invariants", "--input", path],
        capture_output=True, text=True, env=_subprocess_env(), timeout=20,
    )
    assert run.returncode == 0, run.stderr
    data = json.loads(run.stdout)
    assert data["arthur_sl2"] == [50000] + [1] * 50000
    assert data["wavefront"] == [50001] + [1] * 49999


# sha256 and length of each sweep's summary in text and CSV, which the JSON
# pins above do not reach; the consistency sweep checks no bound, so its
# gaps are None and its CSV row ends in two empty fields
@pytest.mark.parametrize(
    "argv, fmt, size, digest",
    [
        (["verify-arthur", "--N", "8"], "text", 110,
         "1087b6c9d8b57ab4d58be4522321bcd88bda1d79f7cafff8aa7bce324e4bea48"),
        (["verify-arthur", "--N", "8"], "csv", 52,
         "da5f8e1f2be4e0ba24247ea383304db18c03d48a26dee463a2a7d925d9e1794d"),
        (["verify-unitary", "--N", "6"], "text", 119,
         "fb455478f880d447c65a01704017f8a2291d5b13dc7072507b0ca41b859bf121"),
        (["verify-unitary", "--N", "6"], "csv", 53,
         "3cc2e8762f998d790ada11dd38f2b00094f03150b16dd99fdac86b6c5979c912"),
        (["verify-consistency", "--N", "4", "--max-summands", "1", "--max-dim", "1",
          "--max-a", "1", "--max-d", "1", "--random-cases", "3"], "text", 38,
         "8fa2780f57993be9457f5e7c6c7403ed5c5f4d7669e1ea665dd358318a23d53b"),
        (["verify-consistency", "--N", "4", "--max-summands", "1", "--max-dim", "1",
          "--max-a", "1", "--max-d", "1", "--random-cases", "3"], "csv", 49,
         "896b803efc1485443e11461f3eed32ccbe06c3ab49f69fd590f61178a3e30635"),
    ],
)
def test_sweep_summary_bytes_are_pinned(capsys, argv, fmt, size, digest):
    flags = ["--format", fmt] if fmt != "text" else []
    assert main(argv + flags + ["--threads", "1"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


@pytest.mark.parametrize("fmt", [None, "csv", "json"])
def test_each_gap_is_rendered_under_its_own_name(fmt):
    # two different gaps, so a swapped or dropped one shows in every format
    import argparse
    import io

    from gln_invariants.cli import _emit_summary
    from gln_invariants.verify import SweepSummary

    summary = SweepSummary(N=5, count=3, min_gap_lower=Fraction(1, 3),
                           min_gap_upper=Fraction(2, 7))
    out = io.StringIO()
    assert _emit_summary(summary, "partitions", argparse.Namespace(format=fmt), out) == 0
    expected = {
        None: "checked 3 partitions, 0 failures\n"
              "min gap lower (t - g): 1/3 (0.333333333333)\n"
              "min gap upper: 2/7 (0.285714285714)\n",
        "csv": "count,failures,min_gap_lower,min_gap_upper\n3,0,1/3,2/7\n",
    }
    if fmt == "json":
        data = json.loads(out.getvalue())
        assert data["min_gap_lower"] == {"num": 1, "den": 3, "decimal": "0.333333333333"}
        assert data["min_gap_upper"] == {"num": 2, "den": 7, "decimal": "0.285714285714"}
    else:
        assert out.getvalue() == expected[fmt]


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="finds the pool's workers through /proc",
)
@pytest.mark.parametrize("run", range(5))
def test_ctrl_c_ends_a_sweep_with_one_line_and_exit_130(run):
    # SIGINT to the whole process group, as a terminal's Ctrl-C sends it, as
    # soon as the parent has child processes: the workers ignore it, and the
    # parent lets the running chunks finish (about 2 s of the 8 chunks of
    # p(60) = 966,467 partitions on 2 CPUs) and exits 130 with one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "gln_invariants", "verify-arthur", "--N", "60", "--threads", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=_subprocess_env(), start_new_session=True,
    )
    children = f"/proc/{proc.pid}/task/{proc.pid}/children"
    try:
        deadline = time.monotonic() + 30
        while True:
            with open(children) as handle:
                if handle.read().split():
                    break
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        signalled = time.monotonic()
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        elapsed = time.monotonic() - signalled
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err) == (cli.EXIT_INTERRUPTED, "interrupted\n")
    assert elapsed < 20


CAP = cli.MAX_INPUT_BITS
CAP_ERROR = f"rationals over their common denominator exceed the cap of {CAP} bits"


def _pair(p, q, name="a", d=1):
    """A +/- twisted pair |.|^(+-p/q) rho[1][d]."""
    return [{"rho": _rho(name), "a": 1, "d": d, "x": f"{sign}{p}/{q}"} for sign in ("", "-")]


def _point(value, name="a"):
    """The one-point segment <value, value>."""
    return {"rho": _rho(name), "a": str(value), "b": str(value)}


@pytest.mark.parametrize(
    "rep, field",
    [
        ({"summands": _pair(2 ** (CAP - 1) - 1, 2**CAP - 1)}, None),  # a denominator at the cap
        ({"summands": _pair(1, 2**CAP + 1)}, "summands"),
        # each denominator under the cap, their lcm over it
        ({"summands": _pair(1, 3**380) + _pair(1, 2**500, "b")}, "summands"),
        ({"segments": [_point(2**CAP - 1), _point(1 - 2**CAP)]}, None),
        ({"segments": [_point(-(2**CAP))]}, "segments"),
        # each endpoint under the cap, one of them over the common denominator not
        ({"segments": [_point(2 ** (CAP - 20)), _point(Fraction(1, 2**30))]}, "segments"),
    ],
)
def test_rationals_above_the_cap_are_named_by_their_field(tmp_path, capsys, rep, field):
    path = write(tmp_path, "rep.json", rep)
    code = main(["invariants", "--input", path])
    out, err = capsys.readouterr()
    if field is None:
        assert code == 0, err
        json.loads(out)
    else:
        assert (code, out, err) == (2, "", f"error: {field}: {CAP_ERROR}\n")


def _hostile_inputs():
    """The inputs that ran out of digits in a rendered integer before the
    cap: 1,000 +/- pairs with random 60-digit denominators q and numerators
    p < q/2, 1,000 one-point segments with distinct random 60-digit units,
    and two one-point segments at +-5 * 10^4299 (17 KB)."""
    rng = random.Random(9)
    qs = [rng.randrange(10**59, 10**60) for _ in range(2000)]
    pairs = [summand for i, q in enumerate(qs[:1000])
             for summand in _pair(rng.randrange(1, q // 2), q, f"r{i}")]
    points = [_point(Fraction(rng.randrange(-q, q), q), f"r{i}") for i, q in enumerate(qs[1000:])]
    far = 5 * 10**4299
    return {
        "pairs": ({"summands": pairs}, "summands"),
        "points": ({"segments": points}, "segments"),
        "far": ({"segments": [_point(far), _point(-far)]}, "segments"),
    }


@pytest.mark.parametrize("name", ["pairs", "points", "far"])
def test_hostile_rationals_exit_2_naming_their_field_at_once(tmp_path, capsys, name):
    rep, field = _hostile_inputs()[name]
    path = write(tmp_path, "rep.json", rep)
    started = time.perf_counter()
    code = main(["invariants", "--input", path])
    elapsed = time.perf_counter() - started
    assert (code, capsys.readouterr()) == (2, ("", f"error: {field}: {CAP_ERROR}\n"))
    assert elapsed < 3
