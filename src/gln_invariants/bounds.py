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
from typing import Optional

from .partitions import Partition, orbit_dim
from .segments import Multisegment


@dataclass(frozen=True)
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
    if k < 1 or n_rho < 1:
        raise ValueError("k and n_rho must be positive integers")
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
    plain = sum(
        (Fraction(s.rho.dim * (s.rho.dim - 1), 2) for s in m.segments), Fraction(0)
    )
    weighted = sum(
        (s.length * Fraction(s.rho.dim * (s.rho.dim - 1), 2) for s in m.segments),
        Fraction(0),
    )
    return (
        BoundExponent(
            coeff=d_gk - plain,
            epsilon_slack=True,
            description="growth relative to prod dim(rho_i^K_ell)",
        ),
        BoundExponent(
            coeff=d_gk - weighted,
            epsilon_slack=True,
            description="growth relative to prod dim(rho_i^K_ell)^k_i",
        ),
    )


def hch_coefficient_exponent(m: Multisegment, orbit: Partition) -> BoundExponent:
    """Character-expansion coefficient exponent at the given orbit:
    d_GK minus half the orbit dimension, with epsilon slack.  Negative values
    are returned as-is (they signal a vanishing rate)."""
    if orbit.n != m.total_dim:
        raise ValueError(
            f"orbit partition sums to {orbit.n}, expected {m.total_dim}"
        )
    return BoundExponent(
        coeff=m.gk_dim() - Fraction(orbit_dim(orbit), 2),
        epsilon_slack=True,
        description="|c_O| <= C q^(ell(pi) (d_GK - dim(O)/2 + eps))",
    )


@dataclass(frozen=True)
class GenArthurParam:
    """Generalized Arthur parameter data: summands (n_i, d_i) where the i-th
    factor is a generic unitarizable representation of GL_{n_i} stretched by
    d_i.  N is the sum of n_i * d_i."""

    summands: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ss = tuple((int(n), int(d)) for n, d in self.summands)
        for n, d in ss:
            if n < 1 or d < 1:
                raise ValueError("summand entries must be positive integers")
        if not ss:
            raise ValueError("parameter needs at least one summand")
        object.__setattr__(self, "summands", ss)

    @property
    def N(self) -> int:
        return sum(n * d for n, d in self.summands)

    def to_json(self) -> dict:
        return {"summands": [{"n": n, "d": d} for n, d in self.summands]}

    @classmethod
    def from_json(cls, data: dict) -> "GenArthurParam":
        return cls(tuple((s["n"], s["d"]) for s in data["summands"]))


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
    p0: Optional[Fraction],
    orbit: Optional[Partition] = None,
    arthur_type: bool = True,
) -> BoundExponent:
    """Exponent in terms of a lower bound p0 on the integrability exponent.

    coeff = N(N-1) (1 - max(0, 1 - 2/p0 - s)^2), with s = 0 for Arthur type
    and s = 2/N otherwise; when an orbit is supplied, half its dimension is
    subtracted (the coefficient variant).  p0 = None means p0 = infinity.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if p0 is None:
        two_over_p0 = Fraction(0)
    else:
        p0 = Fraction(p0)
        if p0 < 2:
            raise ValueError(f"p0 must be >= 2, got {p0}")
        two_over_p0 = 2 / p0
    shift = Fraction(0) if arthur_type else Fraction(2, N)
    base = 1 - two_over_p0 - shift
    if base < 0:
        base = Fraction(0)
    coeff = N * (N - 1) * (1 - base * base)
    if orbit is not None:
        if orbit.n != N:
            raise ValueError(f"orbit partition sums to {orbit.n}, expected {N}")
        coeff -= Fraction(orbit_dim(orbit), 2)
    return BoundExponent(
        coeff=coeff,
        epsilon_slack=True,
        description="growth in terms of p0"
        + ("" if arthur_type else " (unitarizable variant)")
        + ("" if orbit is None else ", coefficient variant"),
    )
