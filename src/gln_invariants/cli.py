"""Command-line front end.

Subcommands: ``invariants`` and ``dual`` operate on a JSON-described
representation; ``verify-arthur``, ``verify-unitary`` and
``verify-consistency`` run theorem sweeps; ``figure`` emits the bound-
tightness dataset as CSV; ``partitions`` streams partitions of N.

Exit codes: 0 success, 2 malformed input, 3 a verified statement failed
(should be impossible), 4 I/O error, 5 a sweep worker failed, 130
interrupted (SIGINT, as by Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from typing import IO, Iterator, Optional, Union

from .arthur import UnitaryRep
from .bounds import fixed_vector_exponent, hch_coefficient_exponent, relative_exponents
from .decay import CharacterList, decay_t, expand_blocks
from .partitions import partition_tuples
from .rationals import InputError, check_positive_int, rat_decimal, rat_str, ratio_str
from .segments import Multisegment
from .verify import (
    MAX_INPUT_N,
    ConsistencyBudget,
    InvariantReport,
    SweepError,
    SweepSummary,
    partition_ranks,
    report_for_rep,
    verify_consistency,
    verify_uncertainty_arthur,
    verify_uncertainty_unitary,
    write_figure_csv,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VIOLATION = 3
EXIT_IO = 4
EXIT_SWEEP = 5
EXIT_INTERRUPTED = 130

THREADS_ENV_VAR = "GLN_INVARIANTS_THREADS"

# each least gap of a sweep: its ``SweepSummary`` field, which is also its
# JSON key and CSV column, and its label in the text summary
SUMMARY_GAPS = (("min_gap_lower", "min gap lower (t - g)"), ("min_gap_upper", "min gap upper"))

MAX_INPUT_BITS = 1024
"""Most bits in the lcm of an input's twist or endpoint denominators, and in
each twist or endpoint written over it: ``parse_rep`` rejects a wider input.
A rendered integer then has at most ~40 bits more, well under 4,300 digits
(``sys.get_int_max_str_digits()``).  An input at this cap and at
``MAX_INPUT_N`` (a +/- pair, d = 50,000) took 1.8-2.6 s and wrote 63 MB
on a 2-vCPU Xeon."""


def parse_rep(text: Union[str, bytes]) -> Union[UnitaryRep, Multisegment]:
    """Parse a JSON-described representation; raises InputError naming the
    offending field on any violated constraint, when its total dimension
    exceeds MAX_INPUT_N, or when its rationals exceed MAX_INPUT_BITS."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError("<input>", f"not valid UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an integer too long
        raise InputError("<input>", f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("<input>", "expected a JSON object")
    if "summands" in data:
        rep, field = UnitaryRep.from_json(data), "summands"
        n = rep.N
        rationals = [(s.x.numerator, s.x.denominator) for s in rep.summands]
    elif "segments" in data:
        rep, field = Multisegment.from_json(data), "segments"
        n = rep.total_dim
        rationals = [(end, s.unit) for s in rep.segments for end in (s.lo, s.hi)]
    else:
        raise InputError(
            "<input>", "expected 'summands' (unitarizable form) or 'segments' (multisegment)"
        )
    if n > MAX_INPUT_N:
        raise InputError(field, f"total dimension {n} exceeds the cap of {MAX_INPUT_N}")
    if not _fits_bit_cap(rationals):
        raise InputError(field, "rationals over their common denominator exceed the cap of "
                                f"{MAX_INPUT_BITS} bits")
    return rep


def _fits_bit_cap(rationals: list[tuple[int, int]]) -> bool:
    """Whether the lcm of the denominators of the rationals num/den, and each
    num over it, have at most MAX_INPUT_BITS bits; the lcm stops at the first
    step past the cap."""
    unit = 1
    for _, den in rationals:
        if (unit := math.lcm(unit, den)).bit_length() > MAX_INPUT_BITS:
            return False
    return all((num * (unit // den)).bit_length() <= MAX_INPUT_BITS for num, den in rationals)


# ---------------------------------------------------------------------------
# rendering


def _rat_json(x: Optional[Fraction]) -> Optional[dict]:
    if x is None:
        return None
    return {"num": x.numerator, "den": x.denominator, "decimal": rat_decimal(x)}


def _character_json(xi: CharacterList) -> list[str]:
    """The character's values as exact strings, non-increasing: each block
    of ``xi.blocks`` is rendered once, from its integers, and repeated."""
    return expand_blocks((ratio_str(v, xi.unit), mult) for v, mult in xi.blocks)


def _report_json(report: InvariantReport) -> dict:
    """The report as JSON, without its character."""
    t = report.t
    return {
        "arthur_sl2": list(report.arthur_sl2),
        "wavefront": list(report.wavefront),
        "d_gk": _rat_json(report.d_gk),
        "g": _rat_json(report.g),
        "t": _rat_json(t),
        "p": None if t is None else "infinite" if t == 1 else _rat_json(2 / (1 - t)),
        "maximizers": sorted(report.maximizers),
        "lower_ok": report.lower_ok,
        "upper_ok": report.upper_ok,
        **({"note": report.note} if report.note else {}),
    }


def _unitary_invariants(pi: UnitaryRep) -> dict:
    report = report_for_rep(pi)
    data = _report_json(report)
    out = {"type": "unitarizable", "N": pi.N, "arthur_type": pi.is_arthur_type}
    out.update((key, data.pop(key)) for key in ("arthur_sl2", "wavefront", "d_gk"))
    out["character"] = _character_json(report.character)
    out.update(data)
    return out


def _exponent_json(exp) -> dict:
    return {
        "coeff": _rat_json(exp.coeff),
        "epsilon_slack": exp.epsilon_slack,
        "description": exp.description,
    }


def _multisegment_invariants(m: Multisegment) -> dict:
    n = m.total_dim
    d_gk = m.gk_dim()
    wavefront = m.wavefront()
    xi = m.character()
    rel_plain, rel_weighted = relative_exponents(m)
    out = {
        "type": "multisegment",
        "N": n,
        "partition": list(m.partition()),
        "wavefront": list(wavefront),
        "d_gk": _rat_json(d_gk),
        "g": _rat_json(1 - d_gk / Fraction(n * (n - 1), 2)) if n >= 2 else None,
        "exponents": {
            "fixed_vector": _exponent_json(fixed_vector_exponent(m)),
            "relative": _exponent_json(rel_plain),
            "relative_with_multiplicity": _exponent_json(rel_weighted),
            "hch_at_wavefront": _exponent_json(hch_coefficient_exponent(m, wavefront)),
        },
        "langlands_reading": {
            "character": _character_json(xi),
            "is_tempered": m.is_tempered(),
            "t": _rat_json(decay_t(xi).t) if n >= 2 else None,
        },
    }
    return out


def _flatten_csv(data: dict, out: IO[str], prefix: str = "") -> None:
    for key, value in data.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            _flatten_csv(value, out, path)
        elif isinstance(value, list):
            out.write(f"{path},{'+'.join(str(v) for v in value)}\n")
        else:
            out.write(f"{path},{value}\n")


def _write_json(data, out: IO[str]) -> None:
    """``data`` as an indented JSON document, in one write."""
    out.write(json.dumps(data, indent=2) + "\n")


def _summary_text(summary: SweepSummary, what: str) -> str:
    lines = [f"checked {summary.count} {what}, {len(summary.failures)} failures"]
    for name, label in SUMMARY_GAPS:
        gap = getattr(summary, name)
        if gap is not None:
            lines.append(f"{label}: {rat_str(gap)} ({rat_decimal(gap)})")
    return "\n".join(lines)


def _summary_json(summary: SweepSummary) -> dict:
    return {
        "N": summary.N,
        "count": summary.count,
        "failures": [_report_json(r) for r in summary.failures],
        **{name: _rat_json(getattr(summary, name)) for name, _ in SUMMARY_GAPS},
    }


def _emit_summary(summary: SweepSummary, what: str, args, out: IO[str]) -> int:
    if args.format == "json":
        _write_json(_summary_json(summary), out)
    elif args.format == "csv":
        gaps = (getattr(summary, name) for name, _ in SUMMARY_GAPS)
        out.write(",".join(["count", "failures", *(name for name, _ in SUMMARY_GAPS)]) + "\n")
        out.write(",".join([str(summary.count), str(len(summary.failures)),
                            *("" if gap is None else rat_str(gap) for gap in gaps)]) + "\n")
    else:
        out.write(_summary_text(summary, what) + "\n")
        for rep in summary.failures:
            out.write(f"FAIL {json.dumps(_report_json(rep))}\n")
    return EXIT_VIOLATION if summary.failures else EXIT_OK


# ---------------------------------------------------------------------------
# commands


def _resolve_threads(args) -> int:
    if args.threads is not None:
        check_positive_int(args.threads, "--threads")
        return args.threads
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise InputError(THREADS_ENV_VAR, f"not an integer: {env!r}") from None
        check_positive_int(value, THREADS_ENV_VAR)
        return value
    return os.cpu_count() or 1


def _read_input(args) -> bytes:
    with open(args.input, "rb") as handle:
        return handle.read()


@contextmanager
def _output(args) -> Iterator[IO[str]]:
    """The file named by ``--out`` (closed on exit), or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
    else:
        yield sys.stdout


def _cmd_invariants(args) -> int:
    rep = parse_rep(_read_input(args))
    data = (
        _unitary_invariants(rep)
        if isinstance(rep, UnitaryRep)
        else _multisegment_invariants(rep)
    )
    with _output(args) as out:
        if args.format == "csv":
            _flatten_csv(data, out)
        else:
            _write_json(data, out)
    return EXIT_OK


def _cmd_dual(args) -> int:
    rep = parse_rep(_read_input(args))
    if not isinstance(rep, UnitaryRep):
        raise InputError(
            "<input>",
            "dual requires the unitarizable summand form; "
            "general multisegment duality is not supported",
        )
    with _output(args) as out:
        _write_json(rep.az_dual().to_json(), out)
    return EXIT_OK


def _cmd_verify_arthur(args) -> int:
    summary = verify_uncertainty_arthur(args.N, threads=_resolve_threads(args))
    with _output(args) as out:
        return _emit_summary(summary, "partitions", args, out)


def _cmd_verify_unitary(args) -> int:
    grid = [part for part in args.twist_grid.split(",") if part.strip()]
    summary = verify_uncertainty_unitary(
        args.N, grid, max_summands=args.max_summands, threads=_resolve_threads(args)
    )
    with _output(args) as out:
        return _emit_summary(summary, "unitarizable cases", args, out)


def _cmd_verify_consistency(args) -> int:
    budget = ConsistencyBudget(
        max_summands=args.max_summands,
        max_dim=args.max_dim,
        max_a=args.max_a,
        max_d=args.max_d,
        max_total_dim=args.N,
    )
    summary = verify_consistency(
        budget,
        random_cases=args.random_cases,
        seed=args.seed,
        threads=_resolve_threads(args),
    )
    with _output(args) as out:
        return _emit_summary(summary, "representations", args, out)


def _cmd_figure(args) -> int:
    threads = _resolve_threads(args)
    partition_ranks(args.N)  # before --out is truncated
    failed = Counter()
    with _output(args) as out:
        count, failing = write_figure_csv(args.N, out, threads=threads, failed=failed)
    if args.out:
        print(f"wrote {count} rows to {args.out}", file=sys.stderr)
    if failing:
        print("; ".join(f"{rows} {check}" for check, rows in sorted(failed.items())),
              file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_partitions(args) -> int:
    check_positive_int(args.N, "N")  # before --out is truncated
    with _output(args) as out:
        for parts in partition_tuples(args.N):
            if args.format == "json":
                out.write(json.dumps(list(parts)) + "\n")
            else:
                out.write("+".join(str(p) for p in parts) + "\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every caller,
    so none may change it.  It names no handler: ``main`` looks up the
    command's ``_cmd_*`` function by the command's name at each call, so a
    handler replaced in this module after the first call (a test's
    monkeypatch, a tracing wrapper) is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="glninv",
        description="Exact invariants of smooth irreducible representations of p-adic GL_N.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False, needs_input=False, threads=True, formats=True):
        if needs_n:
            p.add_argument("--N", type=int, required=True, help="ambient dimension N")
        if needs_input:
            p.add_argument("--input", required=True, help="path to a JSON representation")
        p.add_argument("--out", help="output path (default: stdout)")
        if threads:
            p.add_argument(
                "--threads",
                type=int,
                help=f"worker count (default: ${THREADS_ENV_VAR} or available parallelism)",
            )
        if formats:
            p.add_argument("--format", choices=("csv", "json"), help="output format")

    p = sub.add_parser("invariants", help="invariants of a JSON-described representation")
    common(p, needs_input=True, threads=False)

    p = sub.add_parser("dual", help="a <-> d duality swap of a unitarizable representation")
    common(p, needs_input=True, threads=False, formats=False)

    p = sub.add_parser("verify-arthur", help="uncertainty sweep over all partitions of N")
    common(p, needs_n=True)

    p = sub.add_parser("verify-unitary", help="uncertainty sweep over unitarizable shapes")
    common(p, needs_n=True)
    p.add_argument(
        "--twist-grid",
        default="1/10,2/10,3/10,4/10",
        help="comma-separated twists strictly inside (0, 1/2)",
    )
    p.add_argument("--max-summands", type=int, default=3, help="summand-group budget")

    p = sub.add_parser(
        "verify-consistency",
        help="two-route identity sweep; --N caps the total dimension of checked cases",
    )
    common(p, needs_n=True)
    p.add_argument("--max-summands", type=int, default=4)
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--max-a", type=int, default=4)
    p.add_argument("--max-d", type=int, default=4)
    p.add_argument("--random-cases", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("figure", help="bound-tightness dataset for all partitions of N")
    common(p, needs_n=True, formats=False)

    p = sub.add_parser("partitions", help="stream all partitions of N")
    common(p, needs_n=True, threads=False)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SWEEP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
