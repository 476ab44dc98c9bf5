"""Growth-exponent calculators.

Each bound on fixed-vector growth or character-expansion coefficients has the
shape C * q^(ell * coeff), with a non-constructive constant and with ell (the
level) supplied by the caller.  Only the exponent coefficient is computed
here; some bounds carry an arbitrarily small epsilon slack, recorded as a
flag rather than a number so it can never silently alter a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .decay import shifted_decay
from .partitions import Partition, as_parts, orbit_dim
from .rationals import InputError, check_positive_int, parse_rat, read_at
from .segments import Multisegment


@dataclass(frozen=True, slots=True)
class BoundExponent:
    """Exponent of q per unit level, plus whether the bound carries +epsilon."""

    coeff: Fraction
    epsilon_slack: bool
    description: str


def fixed_vector_exponent(m: Multisegment) -> BoundExponent:
    """Fixed-vector growth exponent for Zelevinsky data: equals the
    GK-dimension, with epsilon slack."""
    return BoundExponent(
        coeff=m.gk_dim(),
        epsilon_slack=True,
        description="fixed-vector growth <= C q^(ell (d_GK + eps))",
    )


def speh_exponent(k: int, n_rho: int, variant: str = "absolute") -> BoundExponent:
    """Fixed-vector exponents for the Speh representation of length k over a
    supercuspidal of GL_{n_rho}.

    absolute: k^2 * n(n-1)/2 with epsilon slack.
    relative: k(k-1) * n(n-1)/2 without slack, relative to the k-th power of
    the supercuspidal's own fixed-vector dimension.
    """
    check_positive_int(k, "k")
    check_positive_int(n_rho, "n_rho")
    base = Fraction(n_rho * (n_rho - 1), 2)
    if variant == "absolute":
        return BoundExponent(
            coeff=k * k * base,
            epsilon_slack=True,
            description="Speh fixed vectors <= C q^(ell (k^2 n(n-1)/2 + eps))",
        )
    if variant == "relative":
        return BoundExponent(
            coeff=k * (k - 1) * base,
            epsilon_slack=False,
            description="Speh fixed vectors <= C q^(ell k(k-1) n(n-1)/2) dim(rho^K_ell)^k",
        )
    raise ValueError(f"variant must be 'absolute' or 'relative', got {variant!r}")


def relative_exponents(m: Multisegment) -> tuple[BoundExponent, BoundExponent]:
    """Exponents relative to the supercuspidal factors, for Zelevinsky data:
    d_GK minus the sum of the factors' GK-dimensions, once per segment and
    once with multiplicity length_i.  Both carry epsilon slack."""
    d_gk = m.gk_dim()
    twice = [s.rho.dim * (s.rho.dim - 1) for s in m.segments]  # each factor's 2 d_GK
    plain, weighted = sum(twice), sum(s.length * k for s, k in zip(m.segments, twice))
    return (
        BoundExponent(
            coeff=d_gk - Fraction(plain, 2),
            epsilon_slack=True,
            description="growth relative to prod dim(rho_i^K_ell)",
        ),
        BoundExponent(
            coeff=d_gk - Fraction(weighted, 2),
            epsilon_slack=True,
            description="growth relative to prod dim(rho_i^K_ell)^k_i",
        ),
    )


def _half_orbit_dim(orbit: Partition | Iterable[int], n: int) -> Fraction:
    """Half the dimension of the orbit, a partition of n in any form
    ``as_parts`` reads."""
    parts = as_parts(orbit)
    if sum(parts) != n:
        raise ValueError(f"orbit partition sums to {sum(parts)}, expected {n}")
    return Fraction(orbit_dim(Partition._from_sorted(parts)), 2)


def hch_coefficient_exponent(m: Multisegment, orbit: Partition | Iterable[int]) -> BoundExponent:
    """Character-expansion coefficient exponent at the given orbit (a
    partition in any form ``as_parts`` reads): d_GK minus half the orbit
    dimension, with epsilon slack.  Negative values are returned as-is (they
    signal a vanishing rate)."""
    return BoundExponent(
        coeff=m.gk_dim() - _half_orbit_dim(orbit, m.total_dim),
        epsilon_slack=True,
        description="|c_O| <= C q^(ell(pi) (d_GK - dim(O)/2 + eps))",
    )


@dataclass(frozen=True, slots=True)
class GenArthurParam:
    """Generalized Arthur parameter data: summands (n_i, d_i) where the i-th
    factor is a generic unitarizable representation of GL_{n_i} stretched by
    d_i.  N is the sum of n_i * d_i."""

    summands: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ss = tuple((n, d) for n, d in self.summands)
        for i, (n, d) in enumerate(ss):
            check_positive_int(n, f"summands[{i}].n")
            check_positive_int(d, f"summands[{i}].d")
        if not ss:
            raise InputError("summands", "parameter needs at least one summand")
        object.__setattr__(self, "summands", ss)

    @property
    def N(self) -> int:
        return sum(n * d for n, d in self.summands)


def genbound_exponent(param: GenArthurParam) -> BoundExponent:
    """Exponent relative to the generic factors: d_GK of the induced
    representation minus the sum of the factors' GK-dimensions n_i(n_i-1)/2.

    The Arthur-SL2 of the parameter is [d_i with multiplicity n_i], so its
    GK-dimension is (N^2 - sum n_i d_i^2)/2.
    """
    n_total = param.N
    d_gk = Fraction(n_total * n_total - sum(n * d * d for n, d in param.summands), 2)
    generic = sum((Fraction(n * (n - 1), 2) for n, _ in param.summands), Fraction(0))
    return BoundExponent(
        coeff=d_gk - generic,
        epsilon_slack=True,
        description="growth relative to prod dim(sigma_i^K_ell)",
    )


def p0_exponents(
    N: int,
    p0: Optional[Fraction | int | str],
    orbit: Optional[Partition | Iterable[int]] = None,
    arthur_type: bool = True,
) -> BoundExponent:
    """Exponent in terms of a lower bound p0 on the integrability exponent.

    coeff = N(N-1) (1 - b^2), with b = ``decay.shifted_decay`` of 1 - 2/p0:
    max(0, 1 - 2/p0 - s), s = 0 for Arthur type and s = 2/N otherwise.  When
    an orbit (a partition in any form ``as_parts`` reads) is supplied, half
    its dimension is subtracted (the coefficient variant).  p0 = None means
    p0 = infinity; any other p0 is read by ``parse_rat``.
    """
    check_positive_int(N, "N")
    t = Fraction(1)
    if p0 is not None:
        p0 = read_at("p0", parse_rat, p0)
        if p0 < 2:
            raise ValueError(f"p0 must be >= 2, got {p0}")
        t -= 2 / p0
    base = shifted_decay(t, N, arthur_type)
    coeff = N * (N - 1) * (1 - base * base)
    if orbit is not None:
        coeff -= _half_orbit_dim(orbit, N)
    return BoundExponent(
        coeff=coeff,
        epsilon_slack=True,
        description="growth in terms of p0"
        + ("" if arthur_type else " (unitarizable variant)")
        + ("" if orbit is None else ", coefficient variant"),
    )
