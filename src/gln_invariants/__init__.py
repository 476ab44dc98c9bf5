"""Exact combinatorial invariants of smooth irreducible representations of
p-adic GL_N: multisegment data, wavefront sets, GK-dimensions, growth
exponents, matrix-coefficient decay, and exhaustive theorem verification."""

from .arthur import ArthurSummand, UnitaryRep, simple_exponent
from .bounds import (
    BoundExponent,
    GenArthurParam,
    fixed_vector_exponent,
    genbound_exponent,
    hch_coefficient_exponent,
    p0_exponents,
    relative_exponents,
    speh_exponent,
)
from .decay import (
    CharacterList,
    DecayResult,
    MaximizerReport,
    decay_t,
    decay_t_arthur,
    dominates,
    maximizer_certificate,
    prefix_sums,
)
from .partitions import (
    Partition,
    dominance_leq,
    dual_partition,
    orbit_dim,
    partition_count,
    partition_tuples,
)
from .rationals import InputError, parse_rat, rat_decimal, rat_str
from .segments import (
    Multisegment,
    Segment,
    SupercuspidalLabel,
    is_linked,
    precedes,
)
from .verify import (
    ConsistencyBudget,
    FigureRow,
    InvariantReport,
    SweepSummary,
    arthur_rep_from_partition,
    figure_rows,
    report_for_arthur_partition,
    report_for_rep,
    verify_consistency,
    verify_uncertainty_arthur,
    verify_uncertainty_unitary,
    write_figure_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ArthurSummand",
    "BoundExponent",
    "CharacterList",
    "ConsistencyBudget",
    "DecayResult",
    "FigureRow",
    "GenArthurParam",
    "InputError",
    "InvariantReport",
    "MaximizerReport",
    "Multisegment",
    "Partition",
    "Segment",
    "SupercuspidalLabel",
    "SweepSummary",
    "UnitaryRep",
    "arthur_rep_from_partition",
    "decay_t",
    "decay_t_arthur",
    "dominance_leq",
    "dominates",
    "dual_partition",
    "figure_rows",
    "fixed_vector_exponent",
    "genbound_exponent",
    "hch_coefficient_exponent",
    "is_linked",
    "maximizer_certificate",
    "orbit_dim",
    "p0_exponents",
    "parse_rat",
    "partition_count",
    "partition_tuples",
    "precedes",
    "prefix_sums",
    "rat_decimal",
    "rat_str",
    "relative_exponents",
    "report_for_arthur_partition",
    "report_for_rep",
    "simple_exponent",
    "speh_exponent",
    "verify_consistency",
    "verify_uncertainty_arthur",
    "verify_uncertainty_unitary",
    "write_figure_csv",
]
