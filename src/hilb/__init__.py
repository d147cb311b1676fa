"""Exact combinatorics of Hilbert schemes of points on surfaces.

Arbitrary-precision, float-free toolkit covering: integer partitions and
their monomial staircases; torus-fixed-point tangent weights and the
Poincare polynomials of the affine, projective-plane, and punctual
Hilbert schemes; incidence-variety fiber counts and strata dimension
bounds; blow-up intersection lattices and the Nakajima constants
c_n = (-1)^(n-1) n; and the Goettsche/Heisenberg generating-series
correspondence with its commutator checks.
"""

__version__ = "0.1.0"

from .errors import ConsistencyError
from .partitions import (
    Box,
    Partition,
    as_partition,
    enumerate_partitions,
    pentagonal_partition_count,
)
from .monomial import (
    HilbertBurchMatrix,
    Monomial,
    StaircaseIdeal,
    Term,
    generator_count,
    hilbert_burch,
    socle_count,
    staircase,
)
from .equivariant import (
    AFFINE_CHART,
    P2_CHART_WEIGHTS,
    CharVector,
    ChartTuple,
    NonGenericError,
    PoincarePoly,
    cell_dimension,
    cell_tables,
    default_rho,
    fixed_points_p2,
    format_poly,
    poincare_affine,
    poincare_from_tables,
    poincare_p2,
    poincare_punctual,
    punctual_cell_dims,
    tangent_weights,
)
from .incidence import (
    CodimHypothesesReport,
    NestedPair,
    StrataBoundTable,
    StratumCodim,
    check_codim_hypotheses,
    euler_incidence,
    gamma_fiber_dim,
    nested_pairs,
    phi_fiber_dim,
    strata_base,
    strata_propagate,
    strata_table,
)
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    NakajimaSequence,
    blow_up,
    exceptional_total_square,
    hilbert_scheme_dim,
    nakajima_closed_form,
    nakajima_recurrence,
    one_point_locus_dim,
    p2_lattice,
    punctual_locus_dim,
    rank_zero_lattice,
)
from .heisenberg import (
    CommutatorReport,
    FockState,
    GradedSeries,
    SurfaceModel,
    annihilate,
    basis_monomials,
    commutator_check,
    commutator_checks,
    create,
    fock_character,
    goettsche_series,
    k3_surface,
    p2_surface,
    vacuum,
)

__all__ = [
    "__version__",
    "ConsistencyError",
    # partitions
    "Box",
    "Partition",
    "as_partition",
    "enumerate_partitions",
    "pentagonal_partition_count",
    # monomial ideals
    "HilbertBurchMatrix",
    "Monomial",
    "StaircaseIdeal",
    "Term",
    "generator_count",
    "hilbert_burch",
    "socle_count",
    "staircase",
    # equivariant cells
    "AFFINE_CHART",
    "P2_CHART_WEIGHTS",
    "CharVector",
    "ChartTuple",
    "NonGenericError",
    "PoincarePoly",
    "cell_dimension",
    "cell_tables",
    "default_rho",
    "fixed_points_p2",
    "format_poly",
    "poincare_affine",
    "poincare_from_tables",
    "poincare_p2",
    "poincare_punctual",
    "punctual_cell_dims",
    "tangent_weights",
    # incidence
    "CodimHypothesesReport",
    "NestedPair",
    "StrataBoundTable",
    "StratumCodim",
    "check_codim_hypotheses",
    "euler_incidence",
    "gamma_fiber_dim",
    "nested_pairs",
    "phi_fiber_dim",
    "strata_base",
    "strata_propagate",
    "strata_table",
    # lattices and constants
    "DivisorClass",
    "IntersectionLattice",
    "NakajimaSequence",
    "blow_up",
    "exceptional_total_square",
    "hilbert_scheme_dim",
    "nakajima_closed_form",
    "nakajima_recurrence",
    "one_point_locus_dim",
    "p2_lattice",
    "punctual_locus_dim",
    "rank_zero_lattice",
    # series and Fock model
    "CommutatorReport",
    "FockState",
    "GradedSeries",
    "SurfaceModel",
    "annihilate",
    "basis_monomials",
    "commutator_check",
    "commutator_checks",
    "create",
    "fock_character",
    "goettsche_series",
    "k3_surface",
    "p2_surface",
    "vacuum",
]
