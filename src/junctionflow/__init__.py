"""Solvers and verification tools for traffic flow through a flux-limited junction.

Two half-lines of strictly concave flux meet at x = 0, where a scalar
cap limits the flow exchanged between them.  The package provides the
exact junction Riemann solver and admissibility predicate, a monotone
finite-volume scheme for the density formulation, a monotone node
scheme plus closed-form solutions for the potential formulation, an
executable battery of semi-group properties, and a CLI that runs all of
it from JSON scenario configs.
"""

from .errors import ConfigError, DomainError, GridMismatchError, LevelError, StepError
from .flux_models import (
    BOUNDARY_TOL,
    CanonicalDatum,
    ConcaveFlux,
    DatumShape,
    PiecewiseLinearFlux,
    QuadraticFlux,
    canonical_eval,
    flux_from_config,
)
from .junction import (
    JunctionModel,
    TracePair,
    classical_riemann,
    germ_contains,
    germ_dissipative,
    junction_flux,
    kruzhkov_flux,
    riemann_profile,
    riemann_traces,
)
from .cl_solver import (
    CellField,
    Grid,
    canonical_field,
    field_from_function,
    godunov_flux,
    l1_distance,
    mass,
    plan_march,
    plan_steps,
    riemann_field,
    solve,
    solve_batch,
    step,
    trace_estimate,
)
from .hj_solver import (
    NodeField,
    canonical_node_field,
    exact_roof0_capped,
    exact_roof0_uncapped,
    exact_roof_drain,
    exact_valley_capped,
    hj_direct_solve,
    hj_direct_solve_batch,
    hj_from_cl,
    node_field_from_function,
    sup_distance,
    validate_lip,
)
from .formats import (
    read_cell_csv,
    read_manifest,
    read_node_csv,
    write_cell_csv,
    write_manifest,
    write_node_csv,
)

# The verifier (and the subprocess machinery of its external handles) loads on
# first use of one of its names, so a solver process such as an external
# command does not pay for it at import.
_VERIFIER_NAMES = (
    "CheckRecord",
    "GermScanResult",
    "SemigroupHandle",
    "VerificationReport",
    "empirical_germ_scan",
    "identify_limiter_cl",
    "identify_limiter_hj",
    "random_cell_field",
    "random_node_field",
    "run_battery",
)


def __getattr__(name: str):
    if name in _VERIFIER_NAMES:
        from . import verifier

        return getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_VERIFIER_NAMES})


__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_TOL",
    "CanonicalDatum",
    "CellField",
    "CheckRecord",
    "ConcaveFlux",
    "ConfigError",
    "DatumShape",
    "DomainError",
    "GermScanResult",
    "Grid",
    "GridMismatchError",
    "JunctionModel",
    "LevelError",
    "NodeField",
    "PiecewiseLinearFlux",
    "QuadraticFlux",
    "SemigroupHandle",
    "StepError",
    "TracePair",
    "VerificationReport",
    "canonical_eval",
    "canonical_field",
    "canonical_node_field",
    "classical_riemann",
    "empirical_germ_scan",
    "exact_roof0_capped",
    "exact_roof0_uncapped",
    "exact_roof_drain",
    "exact_valley_capped",
    "field_from_function",
    "flux_from_config",
    "germ_contains",
    "germ_dissipative",
    "godunov_flux",
    "hj_direct_solve",
    "hj_direct_solve_batch",
    "hj_from_cl",
    "identify_limiter_cl",
    "identify_limiter_hj",
    "junction_flux",
    "kruzhkov_flux",
    "l1_distance",
    "mass",
    "node_field_from_function",
    "plan_march",
    "plan_steps",
    "random_cell_field",
    "random_node_field",
    "read_cell_csv",
    "read_manifest",
    "read_node_csv",
    "riemann_field",
    "riemann_profile",
    "riemann_traces",
    "run_battery",
    "solve",
    "solve_batch",
    "step",
    "sup_distance",
    "trace_estimate",
    "validate_lip",
    "write_cell_csv",
    "write_manifest",
    "write_node_csv",
]
