import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gln_invariants.arthur import ArthurSummand, UnitaryRep
from gln_invariants.decay import dominates
from gln_invariants.partitions import Partition, dual_partition
from gln_invariants.rationals import InputError
from gln_invariants.segments import Multisegment, Segment, SupercuspidalLabel

from conftest import arthur_reps, is_negation_symmetric, unitary_reps, unpaired_rep

R1 = SupercuspidalLabel("rho", 1)
R2 = SupercuspidalLabel("rho", 2)


def rep(*specs):
    """specs: (dim, a, d) or (dim, a, d, x); labels made distinct."""
    summands = []
    for i, s in enumerate(specs):
        dim, a, d = s[:3]
        x = s[3] if len(s) > 3 else 0
        summands.append(ArthurSummand(SupercuspidalLabel(f"r{i}", dim), a, d, Fraction(x)))
    return unpaired_rep(summands)


def test_summand_validation():
    with pytest.raises(ValueError):
        ArthurSummand(R1, 0, 1)
    with pytest.raises(ValueError):
        ArthurSummand(R1, 1, 0)
    with pytest.raises(ValueError):
        ArthurSummand(R1, 1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        ArthurSummand(R1, 1, 1, Fraction(-1, 2))
    assert ArthurSummand(R1, 2, 3).dim == 6


@pytest.mark.parametrize(
    "data, field",
    [
        ({"summands": [{"rho": {"id": 5, "dim": 1}, "a": 1, "d": 1}]}, "summands[0].rho.id"),
        ({"summands": [{"rho": {"id": "r", "dim": 1}, "a": 1}]}, "summands[0].d"),
        ({"summands": [{"rho": {"id": "r", "dim": 1}, "a": 1, "d": 1.0}]}, "summands[0].d"),
        ({"summands": [{"rho": {"id": "r", "dim": 1}, "a": 1, "d": 1, "x": "y"}]}, "summands[0].x"),
        ({"summands": [{"rho": {"id": "r", "dim": 1}, "a": 1, "d": 1}, "s"]}, "summands[1]"),
        ({"summands": []}, "summands"),
    ],
)
def test_from_json_names_the_field(data, field):
    with pytest.raises(InputError) as exc:
        UnitaryRep.from_json(data)
    assert exc.value.field == field


def test_pairing_enforced_by_default():
    twisted = ArthurSummand(R1, 1, 2, Fraction(1, 4))
    with pytest.raises(ValueError):
        UnitaryRep([twisted])
    paired = UnitaryRep([twisted, ArthurSummand(R1, 1, 2, Fraction(-1, 4))])
    assert paired.N == 4 and not paired.is_arthur_type
    # without the pairing check a representation holds arbitrary augmented data
    assert unpaired_rep([twisted]).N == 2


def test_langlands_expansion_examples():
    assert UnitaryRep([ArthurSummand(R1, 1, 1)]).langlands_data() == Multisegment(
        [Segment(R1, 0, 0)]
    )
    assert UnitaryRep([ArthurSummand(R1, 1, 2)]).langlands_data() == Multisegment(
        [
            Segment(R1, Fraction(1, 2), Fraction(1, 2)),
            Segment(R1, Fraction(-1, 2), Fraction(-1, 2)),
        ]
    )
    assert UnitaryRep([ArthurSummand(R1, 2, 2)]).langlands_data() == Multisegment(
        [Segment(R1, 0, 1), Segment(R1, -1, 0)]
    )


def test_az_dual_examples_and_involution():
    speh = UnitaryRep([ArthurSummand(R1, 1, 5)])
    steinberg = speh.az_dual()
    assert steinberg.summands[0].a == 5 and steinberg.summands[0].d == 1
    assert steinberg.N == speh.N

    selfdual = UnitaryRep([ArthurSummand(R1, 3, 3)])
    assert selfdual.az_dual() == selfdual


@settings(max_examples=150)
@given(unitary_reps())
def test_az_dual_involution_preserves_n_and_symmetry(pi):
    assert is_negation_symmetric(pi.character())
    assert pi.az_dual().az_dual() == pi
    assert pi.az_dual().N == pi.N
    assert is_negation_symmetric(pi.az_dual().character())


def test_zelevinsky_data_examples():
    assert UnitaryRep([ArthurSummand(R1, 1, 2)]).zelevinsky_data() == Multisegment(
        [Segment(R1, Fraction(-1, 2), Fraction(1, 2))]
    )
    assert UnitaryRep([ArthurSummand(R1, 1, 1)]).zelevinsky_data() == Multisegment(
        [Segment(R1, 0, 0)]
    )
    # Speh: rho[1][d] has a single segment of length d
    d = 4
    zel = UnitaryRep([ArthurSummand(R2, 1, d)]).zelevinsky_data()
    assert zel == Multisegment([Segment(R2, Fraction(1 - d, 2), Fraction(d - 1, 2))])


def test_arthur_sl2_examples():
    n, d = 12, 3
    speh = UnitaryRep([ArthurSummand(SupercuspidalLabel("rho", n // d), 1, d)])
    assert speh.arthur_sl2() == Partition([d] * (n // d))

    generic = UnitaryRep([ArthurSummand(R1, 7, 1)])
    assert generic.arthur_sl2() == Partition([1] * 7)

    two = rep((1, 2, 2), (1, 1, 1))
    assert two.N == 5
    assert two.arthur_sl2() == Partition([2, 2, 1])


def test_gk_dim_examples():
    generic = UnitaryRep([ArthurSummand(R1, 6, 1)])
    assert generic.gk_dim() == Fraction(6 * 5, 2)
    character = UnitaryRep([ArthurSummand(R1, 1, 6)])
    assert character.gk_dim() == 0
    n, d = 12, 4
    speh = UnitaryRep([ArthurSummand(SupercuspidalLabel("rho", n // d), 1, d)])
    assert speh.gk_dim() == Fraction(n * (n - d), 2)


def test_character_examples():
    two_two = rep((1, 1, 2), (1, 1, 2))
    assert list(two_two.character()) == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
    ]
    flat = UnitaryRep([ArthurSummand(R1, 5, 1)])
    assert list(flat.character()) == [Fraction(0)] * 5
    pair = UnitaryRep(
        [
            ArthurSummand(R1, 1, 1, Fraction(1, 4)),
            ArthurSummand(R1, 1, 1, Fraction(-1, 4)),
        ]
    )
    assert list(pair.character()) == [Fraction(1, 4), Fraction(-1, 4)]


def test_non_genericity_examples():
    assert UnitaryRep([ArthurSummand(R1, 5, 1)]).non_genericity() == 0
    assert UnitaryRep([ArthurSummand(R1, 1, 5)]).non_genericity() == 1
    assert rep((1, 1, 2), (1, 1, 2)).non_genericity() == Fraction(1, 3)
    with pytest.raises(ValueError):
        UnitaryRep([ArthurSummand(R1, 1, 1)]).non_genericity()


@settings(max_examples=150)
@given(unitary_reps())
def test_non_genericity_range_and_two_routes(pi):
    if pi.N < 2:
        return
    g = pi.non_genericity()
    assert 0 <= g <= 1
    d_max = Fraction(pi.N * (pi.N - 1), 2)
    assert g == 1 - pi.gk_dim() / d_max


@settings(max_examples=80)
@given(arthur_reps())
def test_sorted_rearrangement_is_dominated_by_all_rearrangements(pi):
    values = list(pi.character())[:6]  # keep the permutation set small
    ascending = sorted(values)
    for perm in itertools.permutations(values):
        assert dominates(perm, ascending)


@settings(max_examples=150)
@given(arthur_reps())
def test_two_route_identities_on_random_arthur_reps(pi):
    assert pi.character() == pi.langlands_data().character()
    assert pi.gk_dim() == pi.zelevinsky_data().gk_dim()
    assert dual_partition(pi.arthur_sl2()) == pi.zelevinsky_data().wavefront()


def test_canonical_summand_order_is_deterministic():
    a = rep((1, 1, 2), (1, 2, 1))
    b = rep((1, 2, 1), (1, 1, 2))
    assert [s.d for s in a.summands] == [s.d for s in b.summands]
    assert a.arthur_sl2() == b.arthur_sl2()


@settings(max_examples=100)
@given(unitary_reps())
def test_json_round_trip(pi):
    data = json.loads(json.dumps(pi.to_json()))
    assert UnitaryRep.from_json(data) == pi
