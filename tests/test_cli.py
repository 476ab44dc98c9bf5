import json

import pytest

from gln_invariants.cli import main, parse_rep
from gln_invariants.arthur import UnitaryRep
from gln_invariants.partitions import partition_count
from gln_invariants.segments import Multisegment

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
    bad = {"summands": [{"rho": {"id": "r", "dim": 1}, "a": 1, "d": 2, "x": "1/4"}]}
    path = write(tmp_path, "bad.json", bad)
    assert main(["invariants", "--input", path]) == 2
    assert "paired" in capsys.readouterr().err


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
