from fractions import Fraction

import hypothesis.strategies as st

from gln_invariants import ArthurSummand, Multisegment, Segment, SupercuspidalLabel, UnitaryRep

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
