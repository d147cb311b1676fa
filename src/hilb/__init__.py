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

# Each layer is imported on first use, so a process loads only the layers
# it touches (`hilb partitions` never compiles the Fock model). The names
# below are re-exported from the module that defines them, resolved by the
# module __getattr__ and then cached in this namespace.
_EXPORTS = {
    "errors": ("ConsistencyError", "NonGenericError"),
    "common": ("DivisorClass", "IntersectionLattice", "format_poly"),
    "partitions": (
        "Box",
        "Partition",
        "as_partition",
        "enumerate_partitions",
        "pentagonal_partition_count",
    ),
    "monomial": (
        "HilbertBurchMatrix",
        "Monomial",
        "StaircaseIdeal",
        "Term",
        "generator_count",
        "hilbert_burch",
        "socle_count",
        "staircase",
    ),
    "equivariant": (
        "AFFINE_CHART",
        "P2_CHART_WEIGHTS",
        "CharVector",
        "PoincarePoly",
        "cell_dimension",
        "cell_tables",
        "default_rho",
        "fixed_points_p2",
        "poincare_affine",
        "poincare_from_tables",
        "poincare_p2",
        "poincare_punctual",
        "tangent_weights",
    ),
    "strata": ("StrataBoundTable", "strata_base", "strata_propagate", "strata_table"),
    "incidence": ("NestedPair", "euler_incidence", "nested_pairs"),
    "lattice": (
        "NakajimaSequence",
        "blow_up",
        "exceptional_total_square",
        "nakajima_closed_form",
        "nakajima_recurrence",
        "p2_lattice",
        "rank_zero_lattice",
    ),
    "series": (
        "GradedSeries",
        "SurfaceModel",
        "fock_character",
        "goettsche_series",
        "k3_surface",
        "p2_surface",
    ),
    "heisenberg": (
        "CommutatorReport",
        "FockState",
        "annihilate",
        "basis_monomials",
        "commutator_check",
        "commutator_checks",
        "create",
        "vacuum",
    ),
}

_LAYERS = (*_EXPORTS, "verify", "cli")

_SOURCE = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    """Import a layer, or a re-exported name's layer, on first access."""
    layer = name if name in _LAYERS else _SOURCE.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it in this namespace; unlike
    # importlib.import_module, __import__ shows in `python -X importtime`
    __import__(f"{__name__}.{layer}")
    module = globals()[layer]
    if layer == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *_SOURCE})
