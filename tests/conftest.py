import math
from fractions import Fraction

import hypothesis.strategies as st

from gln_invariants import ArthurSummand, Multisegment, Segment, SupercuspidalLabel, UnitaryRep
from gln_invariants import verify
from gln_invariants.rationals import InputError
from gln_invariants.segments import check_label_dims

labels = st.builds(
    SupercuspidalLabel,
    id=st.sampled_from(["r1", "r2", "r3"]),
    dim=st.just(1),
)

half_integers = st.integers(-6, 6).map(lambda k: Fraction(k, 2))

# half-integers and endpoints over 3, 4 and 20, so one cuspidal line mixes
# units and the integer order over their lcm is exercised
endpoints = st.one_of(
    half_integers,
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([3, 4, 20])),
)


@st.composite
def segments(draw, label=None):
    rho = label if label is not None else draw(labels)
    a = draw(endpoints)
    length = draw(st.integers(1, 4))
    return Segment(rho, a, a + length - 1)


@st.composite
def multisegments(draw):
    # labels drawn from a shared pool with a fixed dimension per id so that
    # same-line pairs (where linkage is possible) occur often
    dims = {"r1": draw(st.integers(1, 3)), "r2": draw(st.integers(1, 2)), "r3": 1}
    n = draw(st.integers(1, 5))
    segs = []
    for _ in range(n):
        name = draw(st.sampled_from(["r1", "r2", "r3"]))
        segs.append(draw(segments(label=SupercuspidalLabel(name, dims[name]))))
    return Multisegment(segs)


@st.composite
def arthur_reps(draw):
    n = draw(st.integers(1, 4))
    summands = []
    for i in range(n):
        dim = draw(st.integers(1, 3))
        a = draw(st.integers(1, 4))
        d = draw(st.integers(1, 4))
        summands.append(ArthurSummand(SupercuspidalLabel(f"r{i}", dim), a, d))
    return UnitaryRep(summands)


@st.composite
def unitary_reps(draw):
    n = draw(st.integers(1, 3))
    summands = []
    for i in range(n):
        dim = draw(st.integers(1, 3))
        a = draw(st.integers(1, 3))
        d = draw(st.integers(1, 3))
        rho = SupercuspidalLabel(f"r{i}", dim)
        x_num = draw(st.integers(0, 4))
        if x_num == 0:
            summands.append(ArthurSummand(rho, a, d))
        else:
            x = Fraction(x_num, 10)
            summands.append(ArthurSummand(rho, a, d, x))
            summands.append(ArthurSummand(rho, a, d, -x))
    return UnitaryRep(summands)


@st.composite
def partitions_from(draw, most):
    """A partition of some n from 2 to ``most``, parts non-increasing."""
    n = draw(st.integers(2, most))
    parts, rest = [], n
    while rest:
        part = draw(st.integers(1, min(rest, parts[-1] if parts else rest)))
        parts.append(part)
        rest -= part
    return tuple(parts)


def list_partitions_from(parts):
    """The list-mutating successor that ``partitions._partitions_from``
    replaced, kept as its oracle: ``parts`` (a partition, parts
    non-increasing) and every partition after it in reverse-lexicographic
    order.  Each step finds the last part above 1 by walking back over the
    trailing ones, decrements it and refills the tail part by part."""
    parts = list(parts)
    while True:
        yield tuple(parts)
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(parts) - i  # sum removed beyond the decremented part
        val = parts[i] - 1
        del parts[i:]
        parts.append(val)
        while rest > 0:
            c = val if val < rest else rest
            parts.append(c)
            rest -= c


def max_ratio_blocks(blocks, unit):
    """Exact maximum of 2*sigma_i/(unit*i*(n-i)) over every cut 1 <= i <= n-1
    of the run-length ``blocks`` (value * unit, multiplicity), values
    decreasing and every multiplicity positive, as in ``CharacterList.blocks``.
    Returns an unreduced (numerator, denominator) pair; (0, 0) when n < 2,
    as ``decay._max_ratio_scan``.  The oracle of ``verify._scan_two_xi``:
    it compares every block's end cuts, also those the scan proves it may
    skip.

    On a block the ratio is proportional to alpha/i + beta/(n-i) with
    alpha >= 0, as ``verify._scan_two_xi`` derives it; here the block's
    value v may be 0 or negative, so beta = alpha + v*n may be negative,
    and then the ratio decreases on the block.  Its maximum is therefore at
    the block's first cut, or at its last cut when beta >= 0 (checked in
    integers), and only those cuts are compared.
    """
    n = 0
    for _, mult in blocks:
        n += mult
    if n < 2:
        return 0, 0
    best_s, best_w = blocks[0][0], n - 1  # cut 1 seeds the maximum
    i = sigma = 0  # the cut before the block and its prefix sum
    for v, mult in blocks:
        j = i + 1
        if j < n:
            s = sigma + v
            w = j * (n - j)
            if s * best_w > best_s * w:
                best_s, best_w = s, w
        if mult > 1 and sigma + v * (n - i) >= 0:  # beta >= 0
            j = i + mult
            if j == n:
                j -= 1
            s = sigma + v * (j - i)
            w = j * (n - j)
            if s * best_w > best_s * w:
                best_s, best_w = s, w
        i += mult
        sigma += v * mult
    return 2 * best_s, unit * best_w


def per_row_arthur_chunk(job):
    """The loop ``verify._arthur_chunk`` had before it judged each
    (sq, tn, td) class once, kept as its oracle: both bounds through
    ``verify._arthur_gaps`` on every row of ``verify._tallies(job)``, a
    report for every row that fails a check and the least gaps of the
    rest."""
    n = job[0]
    failures = []
    checked = 0
    min_low = None  # (num, den) of t - g
    min_up = None  # (num, den) of g - t^2
    for parts, _, sq, tn, td, scan_ok in verify._tallies(job):
        checked += 1
        low, up = verify._arthur_gaps(n, sq - n, tn, td)
        if not scan_ok or low[0] < 0 or up[0] < 0:
            report = verify.report_for_arthur_partition(parts)
            failures.append(
                verify._failure_report(report, scan_ok, low[0] >= 0, up[0] >= 0, True)
            )
            continue
        if min_low is None or low[0] * min_low[1] < min_low[0] * low[1]:
            min_low = low
        if min_up is None or up[0] * min_up[1] < min_up[0] * up[1]:
            min_up = up
    return verify.SweepSummary(
        N=n,
        count=checked,
        failures=failures,
        min_gap_lower=None if min_low is None else Fraction(*min_low),
        min_gap_upper=None if min_up is None else Fraction(*min_up),
    )


def fresh_scan(parts):
    """``verify._scan_two_xi`` on one partition (parts non-increasing) from
    scratch: its part counts, a pass from the greatest part d1 and the seed
    state above it.  The unreduced (num, den)."""
    n, d1 = sum(parts), parts[0]
    counts = [0] * (d1 + 1)
    for d in parts:
        counts[d] += 1
    saved = [None] * (d1 + 2)
    saved[d1 + 1] = (0, 0, d1 - 1, n - 1, 0, 0)
    return verify._scan_two_xi(counts, n, d1, saved)


def doubled_blocks(parts):
    """The run-length blocks (value, multiplicity), values decreasing, of the
    doubled character of a partition (parts non-increasing): each part d
    gives the entries d-1, d-3, ..., 1-d.  After the suffix sums, e[k] counts
    the parts k, k+2, k+4, ...: the multiplicity of the values k-1 and 1-k."""
    d1 = parts[0]
    e = [0] * (d1 + 2)
    for d in parts:
        e[d] += 1
    for k in reversed(range(1, d1)):
        e[k] += e[k + 2]
    top = [(k - 1, e[k]) for k in range(d1, 1, -1) if e[k]]
    middle = [(0, e[1])] if e[1] else []
    return top + middle + [(-v, mult) for v, mult in reversed(top)]


def max_ratio_scan(scaled, unit):
    """The per-cut scan that ``decay._max_ratio_scan`` replaced, kept as its
    oracle: every cut compared as 2*sigma_i over unit*i*(n-i), so the unit
    enters every cross-multiplication.  The same unreduced
    (numerator, denominator, maximizers) result."""
    n = len(scaled)
    best_n = best_d = 0
    maximizers = []
    sigma = 0
    for i in range(1, n):
        sigma += scaled[i - 1]
        num = 2 * sigma
        den = unit * i * (n - i)
        if not maximizers or num * best_d > best_n * den:
            best_n, best_d, maximizers = num, den, [i]
        elif num * best_d == best_n * den:
            maximizers.append(i)
    return best_n, best_d, maximizers


def is_negation_symmetric(xi):
    """True iff the character ``xi`` (a ``CharacterList``) is unchanged by
    negating every value."""
    return all(
        v == -w and mult == other
        for (v, mult), (w, other) in zip(xi.blocks, reversed(xi.blocks))
    )


def is_linked(s1, s2):
    """True iff the two segments lie on the same cuspidal line at integer
    offset, their union is a segment, and neither contains the other."""
    if s1.rho.id != s2.rho.id:
        return False
    if (s2.a - s1.a).denominator != 1:
        return False
    if max(s1.a, s2.a) > min(s1.b, s2.b) + 1:
        return False  # union is not a segment
    if s1.a <= s2.a and s2.b <= s1.b:
        return False  # s1 contains s2
    if s2.a <= s1.a and s1.b <= s2.b:
        return False  # s2 contains s1
    return True


def precedes(s1, s2):
    """True iff s1 and s2 are linked with s1 starting strictly earlier:
    a1 < a2 (integer offset), b1 < b2, and a2 <= b1 + 1.  The spec of the
    canonical order of ``Multisegment``: no earlier segment precedes a later
    one."""
    if s1.rho.id != s2.rho.id:
        return False
    diff = s2.a - s1.a
    if diff.denominator != 1 or diff <= 0:
        return False
    return s1.b < s2.b and s2.a <= s1.b + 1


def half_range_argmax(scaled):
    """The argmax loop ``decay.maximizer_certificate`` had before it shared
    ``decay._cut_scan``, kept as its oracle: every maximizing cut i <= n/2
    of sigma_i/(i(n-i)) over the integers ``scaled``, in increasing order."""
    n = len(scaled)
    best_s = best_w = 0
    argmax = []
    sigma = 0
    for i in range(1, n // 2 + 1):
        sigma += scaled[i - 1]
        w = i * (n - i)
        if not argmax or sigma * best_w > best_s * w:
            best_s, best_w, argmax = sigma, w, [i]
        elif sigma * best_w == best_s * w:
            argmax.append(i)
    return argmax


def running_sum_dominates(a, b):
    """The running-sum loop ``decay.dominates`` had before it read
    ``decay.prefix_sums``, kept as its oracle (lists of equal length)."""
    sa = sb = Fraction(0)
    for x, y in zip(a, b):
        sa += Fraction(x)
        sb += Fraction(y)
        if sb > sa:
            return False
    return True


def unpaired_rep(summands):
    """A ``UnitaryRep`` of arbitrary augmented data: the constructor's checks
    but the pairing of twists (at least one summand, one dimension per
    label), then the trusted constructor."""
    summands = list(summands)
    if not summands:
        raise InputError("summands", "representation needs at least one summand")
    check_label_dims(summands, "summands")
    return UnitaryRep._from_checked(summands)


def checked_az_dual(pi):
    """The ``UnitaryRep.az_dual`` that the trusted path replaced, kept as its
    oracle: each swapped summand goes through ``ArthurSummand``'s checks and
    the representation through ``UnitaryRep``'s label check."""
    return unpaired_rep(ArthurSummand(s.rho, s.d, s.a, s.x) for s in pi.summands)


def segment_from_ints(rho, lo, hi, unit):
    """The trusted constructor ``Segment._from_ints`` that ``Segment._run``
    replaced, kept for the oracle below: the segment <lo/unit, hi/unit>_rho,
    where unit > 0 and hi - lo is a non-negative multiple of unit, reduced
    by its own gcd(lo, unit)."""
    k = math.gcd(lo, unit)
    self = object.__new__(Segment)
    object.__setattr__(self, "rho", rho)
    object.__setattr__(self, "unit", unit // k)
    object.__setattr__(self, "lo", lo // k)
    object.__setattr__(self, "hi", hi // k)
    return self


def per_segment_langlands_data(pi):
    """The Langlands loop that ``UnitaryRep.langlands_data`` had before it
    reduced once per summand, kept as its oracle: one ``segment_from_ints``
    (its own gcd) per segment, and the checked ``Multisegment``."""
    segs = []
    for s in pi.summands:
        q = s.x.denominator
        unit = 2 * q
        lo = 2 * s.x.numerator + (s.d - s.a) * q
        span = (s.a - 1) * unit
        for _ in range(s.d):
            segs.append(segment_from_ints(s.rho, lo, lo + span, unit))
            lo -= unit
    return Multisegment(segs)


def fraction_sort_key(s):
    """The summand sort key that negated every twist as a ``Fraction``, kept
    as the oracle of ``arthur._summand_sort_key``."""
    return (-s.d, -s.a, s.rho.id, -s.x)
