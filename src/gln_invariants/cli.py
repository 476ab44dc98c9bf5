"""Command-line front end.

Subcommands: ``invariants`` and ``dual`` operate on a JSON-described
representation; ``verify-arthur``, ``verify-unitary`` and
``verify-consistency`` run theorem sweeps; ``figure`` emits the bound-
tightness dataset as CSV; ``partitions`` streams partitions of N.

Exit codes: 0 success, 2 malformed input, 3 a verified statement failed
(should be impossible), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import IO, Iterator, Optional, Union

from .arthur import UnitaryRep
from .bounds import fixed_vector_exponent, hch_coefficient_exponent, relative_exponents
from .decay import decay_t
from .partitions import partition_tuples
from .rationals import InputError, parse_rat, rat_decimal, rat_str
from .segments import Multisegment
from .verify import (
    ConsistencyBudget,
    InvariantReport,
    SweepSummary,
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

THREADS_ENV_VAR = "GLN_INVARIANTS_THREADS"


ParseError = InputError


def parse_rep(text: Union[str, bytes]) -> Union[UnitaryRep, Multisegment]:
    """Parse a JSON-described representation; raises ParseError naming the
    offending field on any violated constraint."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("<input>", f"not valid UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("<input>", f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("<input>", "expected a JSON object")
    if "summands" in data:
        return UnitaryRep.from_json(data)
    if "segments" in data:
        return Multisegment.from_json(data)
    raise ParseError(
        "<input>", "expected 'summands' (unitarizable form) or 'segments' (multisegment)"
    )


# ---------------------------------------------------------------------------
# rendering


def _rat_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator, "decimal": rat_decimal(x)}


def _report_json(report: InvariantReport) -> dict:
    p = None if report.t == 1 else 2 / (1 - report.t)
    return {
        "arthur_sl2": list(report.arthur_sl2),
        "wavefront": list(report.wavefront),
        "d_gk": _rat_json(report.d_gk),
        "g": _rat_json(report.g),
        "t": _rat_json(report.t),
        "p": "infinite" if p is None else _rat_json(p),
        "maximizers": sorted(report.maximizers),
        "lower_ok": report.lower_ok,
        "upper_ok": report.upper_ok,
        **({"note": report.note} if report.note else {}),
    }


def _unitary_invariants(pi: UnitaryRep) -> dict:
    out = {
        "type": "unitarizable",
        "N": pi.N,
        "arthur_type": pi.is_arthur_type,
        "arthur_sl2": list(pi.arthur_sl2()),
        "wavefront": list(pi.arthur_sl2().dual()),
        "d_gk": _rat_json(pi.gk_dim()),
        "character": [rat_str(v) for v in pi.character()],
    }
    if pi.N >= 2:
        out.update(_report_json(report_for_rep(pi)))
    else:
        out.update({"g": None, "t": None, "p": None, "maximizers": [],
                    "lower_ok": None, "upper_ok": None})
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
    rel_plain, rel_weighted = relative_exponents(m)
    out = {
        "type": "multisegment",
        "N": n,
        "partition": list(m.partition()),
        "wavefront": list(m.wavefront()),
        "d_gk": _rat_json(d_gk),
        "g": _rat_json(1 - d_gk / Fraction(n * (n - 1), 2)) if n >= 2 else None,
        "exponents": {
            "fixed_vector": _exponent_json(fixed_vector_exponent(m)),
            "relative": _exponent_json(rel_plain),
            "relative_with_multiplicity": _exponent_json(rel_weighted),
            "hch_at_wavefront": _exponent_json(
                hch_coefficient_exponent(m, m.wavefront())
            ),
        },
        "langlands_reading": {
            "character": [rat_str(v) for v in m.character()],
            "is_tempered": m.is_tempered(),
            "t": _rat_json(decay_t(m.character()).t) if n >= 2 else None,
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


def _summary_text(summary: SweepSummary, what: str) -> str:
    lines = [f"checked {summary.count} {what}, {len(summary.failures)} failures"]
    if summary.min_gap_lower is not None:
        lines.append(
            f"min gap lower (t - g): {rat_str(summary.min_gap_lower)}"
            f" ({rat_decimal(summary.min_gap_lower)})"
        )
    if summary.min_gap_upper is not None:
        lines.append(
            f"min gap upper: {rat_str(summary.min_gap_upper)}"
            f" ({rat_decimal(summary.min_gap_upper)})"
        )
    return "\n".join(lines)


def _summary_json(summary: SweepSummary) -> dict:
    return {
        "N": summary.N,
        "count": summary.count,
        "failures": [_report_json(r) for r in summary.failures],
        "min_gap_lower": None
        if summary.min_gap_lower is None
        else _rat_json(summary.min_gap_lower),
        "min_gap_upper": None
        if summary.min_gap_upper is None
        else _rat_json(summary.min_gap_upper),
    }


def _emit_summary(summary: SweepSummary, what: str, args, out: IO[str]) -> int:
    if args.format == "json":
        json.dump(_summary_json(summary), out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        out.write("count,failures,min_gap_lower,min_gap_upper\n")
        out.write(
            f"{summary.count},{len(summary.failures)},"
            f"{'' if summary.min_gap_lower is None else rat_str(summary.min_gap_lower)},"
            f"{'' if summary.min_gap_upper is None else rat_str(summary.min_gap_upper)}\n"
        )
    else:
        out.write(_summary_text(summary, what) + "\n")
        for rep in summary.failures:
            out.write(f"FAIL {json.dumps(_report_json(rep))}\n")
    return EXIT_VIOLATION if summary.failures else EXIT_OK


# ---------------------------------------------------------------------------
# commands


def _resolve_threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise ParseError("--threads", "must be a positive integer")
        return args.threads
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ParseError(THREADS_ENV_VAR, f"not an integer: {env!r}") from None
        if value < 1:
            raise ParseError(THREADS_ENV_VAR, "must be a positive integer")
        return value
    return os.cpu_count() or 1


def _read_input(args) -> str:
    with open(args.input, "r", encoding="utf-8") as handle:
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
            json.dump(data, out, indent=2)
            out.write("\n")
    return EXIT_OK


def _cmd_dual(args) -> int:
    rep = parse_rep(_read_input(args))
    if not isinstance(rep, UnitaryRep):
        raise ParseError(
            "<input>",
            "dual requires the unitarizable summand form; "
            "general multisegment duality is not supported",
        )
    with _output(args) as out:
        json.dump(rep.az_dual().to_json(), out, indent=2)
        out.write("\n")
    return EXIT_OK


def _cmd_verify_arthur(args) -> int:
    summary = verify_uncertainty_arthur(args.N, threads=_resolve_threads(args))
    with _output(args) as out:
        return _emit_summary(summary, "partitions", args, out)


def _parse_grid(text: str) -> list[Fraction]:
    try:
        return [parse_rat(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError("--twist-grid", str(exc)) from None


def _cmd_verify_unitary(args) -> int:
    grid = _parse_grid(args.twist_grid)
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
    with _output(args) as out:
        count, violations = write_figure_csv(args.N, out, threads=threads)
    if args.out:
        print(f"wrote {count} rows to {args.out}", file=sys.stderr)
    if violations:
        print(f"{violations} rows violate a bound", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_partitions(args) -> int:
    with _output(args) as out:
        for parts in partition_tuples(args.N):
            if args.format == "json":
                out.write(json.dumps(list(parts)) + "\n")
            else:
                out.write("+".join(str(p) for p in parts) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glninv",
        description="Exact invariants of smooth irreducible representations of p-adic GL_N.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False, needs_input=False):
        if needs_n:
            p.add_argument("--N", type=int, required=True, help="ambient dimension N")
        if needs_input:
            p.add_argument("--input", required=True, help="path to a JSON representation")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--threads",
            type=int,
            help=f"worker count (default: ${THREADS_ENV_VAR} or available parallelism)",
        )
        p.add_argument("--format", choices=("csv", "json"), help="output format")

    p = sub.add_parser("invariants", help="invariants of a JSON-described representation")
    common(p, needs_input=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("dual", help="a <-> d duality swap of a unitarizable representation")
    common(p, needs_input=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("verify-arthur", help="uncertainty sweep over all partitions of N")
    common(p, needs_n=True)
    p.set_defaults(func=_cmd_verify_arthur)

    p = sub.add_parser("verify-unitary", help="uncertainty sweep over unitarizable shapes")
    common(p, needs_n=True)
    p.add_argument(
        "--twist-grid",
        default="1/10,2/10,3/10,4/10",
        help="comma-separated twists strictly inside (0, 1/2)",
    )
    p.add_argument("--max-summands", type=int, default=3, help="summand-group budget")
    p.set_defaults(func=_cmd_verify_unitary)

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
    p.set_defaults(func=_cmd_verify_consistency)

    p = sub.add_parser("figure", help="bound-tightness dataset for all partitions of N")
    common(p, needs_n=True)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("partitions", help="stream all partitions of N")
    common(p, needs_n=True)
    p.set_defaults(func=_cmd_partitions)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
