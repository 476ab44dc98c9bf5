"""Outside-in tracing of gln_invariants for the benchmark's traced run.

The program has no spans of its own yet, so the tracer wraps the program's
functions and methods from outside, at each layer boundary, and restores the
originals when it is uninstalled.  A module-level function is replaced in
every module of the package that holds it, because ``from ... import``
copies the binding (``verify`` imports ``decay_t``, ``partition_tuples``,
``_max_ratio_scan`` and ``dual_partition`` that way); a method is replaced on
its class.

Spans nest on one stack (the traced run is single-threaded: sweep chunks run
inline).  A span's self time is its duration minus the time its child spans
cover.  Millions of spans occur in one pass, so they are aggregated per
metric as they close instead of being stored one by one.
"""

from __future__ import annotations

import argparse
import fractions
import sys
import time
from collections import Counter
from contextlib import contextmanager
from multiprocessing.reduction import ForkingPickler

# Self-time metric -> the (module, attribute) pairs whose spans feed it.
# "Class.attr" names a method or property of a class in that module.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "partitions.enumerate_s": (
        ("partitions", "partition_tuples"),
        ("partitions", "partition_count"),
    ),
    "partitions.objects_s": (
        ("partitions", "Partition.__init__"),
        ("partitions", "Partition._from_sorted"),
        ("partitions", "Partition.dual"),
        ("partitions", "dual_partition"),
        ("partitions", "orbit_dim"),
        ("partitions", "dominance_leq"),
    ),
    # _max_ratio_scan, the integer scan both routes share, runs inside one
    # of these; it is hooked only to count its cuts
    "decay.scan_s": (
        ("decay", "decay_t"),
        ("decay", "prefix_sums"),
        ("decay", "dominates"),
        ("decay", "maximizer_certificate"),
        ("verify", "_scan_two_xi"),
    ),
    "decay.sort_s": (("decay", "CharacterList.__init__"),),
    "arthur.build_s": (
        ("arthur", "ArthurSummand.__init__"),
        ("arthur", "UnitaryRep.__init__"),
    ),
    "arthur.expand_s": (
        ("arthur", "UnitaryRep.langlands_data"),
        ("arthur", "UnitaryRep.az_dual"),
        ("arthur", "UnitaryRep.zelevinsky_data"),
    ),
    "arthur.character_s": (("arthur", "UnitaryRep.character"),),
    "arthur.invariants_s": (
        ("arthur", "UnitaryRep.arthur_sl2"),
        ("arthur", "UnitaryRep.gk_dim"),
        ("arthur", "UnitaryRep.non_genericity"),
        ("arthur", "UnitaryRep.N"),
        ("arthur", "UnitaryRep.is_arthur_type"),
    ),
    "segments.build_s": (
        ("segments", "SupercuspidalLabel.__init__"),
        ("segments", "Segment.__init__"),
        ("segments", "Multisegment.__init__"),
    ),
    "segments.character_s": (
        ("segments", "Multisegment.character"),
        ("segments", "Multisegment.is_tempered"),
    ),
    "segments.wavefront_s": (
        ("segments", "Multisegment.partition"),
        ("segments", "Multisegment.wavefront"),
        ("segments", "Multisegment.gk_dim"),
        ("segments", "Multisegment.total_dim"),
    ),
    "rationals.render_s": (("rationals", "rat_decimal"), ("rationals", "rat_str")),
    "rationals.parse_s": (("rationals", "parse_rat"),),
    "bounds.exponents_s": tuple(
        ("bounds", name)
        for name in (
            "fixed_vector_exponent",
            "speh_exponent",
            "relative_exponents",
            "hch_coefficient_exponent",
            "genbound_exponent",
            "p0_exponents",
        )
    ),
    "verify.chunk_s": tuple(
        ("verify", name)
        for name in (
            "_arthur_chunk",
            "_figure_chunk",
            "_unitary_chunk",
            "_consistency_exhaustive_chunk",
            "_consistency_random_chunk",
            "report_for_rep",
            "_failure_report",
            "_consistency_failure",
        )
    ),
    "verify.merge_s": tuple(
        ("verify", name)
        for name in (
            "verify_uncertainty_arthur",
            "verify_uncertainty_unitary",
            "verify_consistency",
            "figure_rows",
        )
    ),
    "verify.render_s": (("verify", "write_figure_csv"),),
    "cli.argparse_s": (("cli", "main"), ("cli", "build_parser")),
    "cli.parse_s": (("cli", "parse_rep"), ("cli", "_read_input")),
    "cli.render_s": tuple(
        ("cli", name)
        for name in (
            "_cmd_invariants",
            "_cmd_figure",
            "_unitary_invariants",
            "_multisegment_invariants",
            "_report_json",
            "_rat_json",
            "_exponent_json",
            "_flatten_csv",
        )
    ),
}

# Self time of the root span: the benchmark's own driving code and any
# program code that no wrapped function encloses.
ROOT = "trace.unattributed_s"

# Exact counters: same code and same seed give the same values.
COUNTERS = (
    "partitions.enumerated",
    "decay.scan_cuts",
    "rationals.fraction_objects",
    "verify.chunks",
    "verify.ipc_bytes",
    "cli.output_bytes",
)

PACKAGE = "gln_invariants"


class Tracer:
    """Span stack plus per-metric self time and exact counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # frames: [metric, start, time covered by children]
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter({name: 0 for name in COUNTERS})

    def enter(self, metric: str) -> None:
        self.stack.append([metric, self.clock(), 0.0])

    def exit(self) -> None:
        metric, start, covered = self.stack.pop()
        duration = self.clock() - start
        self.self_s[metric] += duration - covered
        if self.stack:
            self.stack[-1][2] += duration

    @contextmanager
    def span(self, metric: str):
        self.enter(metric)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def excluded(self):
        """Bookkeeping of the tracer itself: charged to no span's self time."""
        start = self.clock()
        try:
            yield
        finally:
            if self.stack:
                self.stack[-1][2] += self.clock() - start

    def wrap(self, fn, metric: str):
        """``fn`` with a span around each call (enter and exit inlined: this
        runs millions of times in a pass)."""
        stack, clock, self_s = self.stack, self.clock, self.self_s

        def traced(*args, **kwargs):
            stack.append([metric, clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                frame = stack.pop()
                duration = clock() - frame[1]
                self_s[metric] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return traced

    def wrap_generator(self, fn, metric: str, counter: str):
        """Generator function whose every ``next()`` is a span and whose
        every yielded item adds one to ``counter``."""
        tracer = self

        class TracedIterator:
            __slots__ = ("it",)

            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                tracer.enter(metric)
                try:
                    item = next(self.it)
                finally:
                    tracer.exit()
                tracer.counts[counter] += 1
                return item

        def traced(*args, **kwargs):
            return TracedIterator(fn(*args, **kwargs))

        return traced

    def metrics(self) -> dict[str, float]:
        out = {metric: self.self_s.get(metric, 0.0) for metric in SPANS}
        out[ROOT] = self.self_s.get(ROOT, 0.0)
        out.update(self.counts)
        return out


class Installation:
    """Wrappers installed into the program; ``restore()`` undoes them all."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self.undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self.undo:
            owner, name, original = self.undo.pop()
            setattr(owner, name, original)


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _replace_function(inst: Installation, module, name: str, wrapper) -> None:
    original = module.__dict__[name]
    for mod in _package_modules():
        if mod.__dict__.get(name) is original:
            inst.replace(mod, name, wrapper)


def _wrap_member(tracer: Tracer, inst: Installation, cls, name: str, metric: str) -> None:
    member = cls.__dict__[name]
    if isinstance(member, property):
        inst.replace(cls, name, property(tracer.wrap(member.fget, metric)))
    elif isinstance(member, classmethod):
        inst.replace(cls, name, classmethod(tracer.wrap(member.__func__, metric)))
    else:
        inst.replace(cls, name, tracer.wrap(member, metric))


def install(tracer: Tracer) -> Installation:
    """Wrap every layer boundary in SPANS plus the counters' hooks."""
    modules = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in _package_modules()}
    inst = Installation()
    try:
        for metric, targets in SPANS.items():
            for module_name, attr in targets:
                module = modules[module_name]
                if "." in attr:
                    cls_name, member = attr.split(".")
                    _wrap_member(tracer, inst, getattr(module, cls_name), member, metric)
                    continue
                fn = module.__dict__[attr]
                if attr == "partition_tuples":
                    wrapper = tracer.wrap_generator(fn, metric, "partitions.enumerated")
                else:
                    wrapper = tracer.wrap(fn, metric)
                _replace_function(inst, module, attr, wrapper)
        _install_cut_counter(tracer, inst, modules["decay"])
        inst.replace(
            argparse.ArgumentParser,
            "parse_args",
            tracer.wrap(argparse.ArgumentParser.__dict__["parse_args"], "cli.argparse_s"),
        )
        _install_fraction_counter(tracer, inst)
        _install_chunk_map(tracer, inst, modules["verify"])
    except BaseException:
        inst.restore()
        raise
    return inst


def _install_cut_counter(tracer: Tracer, inst: Installation, decay) -> None:
    """Count the cut points 1..n-1 each full scan examines."""
    original = decay.__dict__["_max_ratio_scan"]
    counts = tracer.counts

    def counting_scan(scaled, unit):
        counts["decay.scan_cuts"] += max(0, len(scaled) - 1)
        return original(scaled, unit)

    _replace_function(inst, decay, "_max_ratio_scan", counting_scan)


def _install_fraction_counter(tracer: Tracer, inst: Installation) -> None:
    original_new = fractions.Fraction.__dict__["__new__"].__func__
    counts = tracer.counts

    def counting_new(cls, *args, **kwargs):
        counts["rationals.fraction_objects"] += 1
        return original_new(cls, *args, **kwargs)

    inst.replace(fractions.Fraction, "__new__", staticmethod(counting_new))


def _install_chunk_map(tracer: Tracer, inst: Installation, verify) -> None:
    """Run sweep chunks inline, counting them and the bytes the worker pool
    pickles for each job and each result when the untraced call would use a
    pool (``verify._map_chunks``: more than one thread and more than one job).
    Chunk sizes still follow the thread count the caller passes, so the split
    matches an untraced run."""
    original = verify.__dict__["_map_chunks"]
    counts = tracer.counts

    def map_chunks(worker, jobs, threads):
        counts["verify.chunks"] += len(jobs)
        pooled = threads > 1 and len(jobs) > 1
        if pooled:
            with tracer.excluded():
                counts["verify.ipc_bytes"] += sum(len(ForkingPickler.dumps(j)) for j in jobs)
        for result in original(worker, jobs, 1):
            if pooled:
                with tracer.excluded():
                    counts["verify.ipc_bytes"] += len(ForkingPickler.dumps(result))
            yield result

    _replace_function(inst, verify, "_map_chunks", map_chunks)
