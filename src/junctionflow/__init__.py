"""Solvers and verification tools for traffic flow through a flux-limited junction.

Two half-lines of strictly concave flux meet at x = 0, where a scalar
cap limits the flow exchanged between them.  The package provides the
exact junction Riemann solver and admissibility predicate, a monotone
finite-volume scheme for the density formulation, a monotone node
scheme plus closed-form solutions for the potential formulation, an
executable battery of semi-group properties, and a CLI that runs all of
it from JSON scenario configs.
"""

import types

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

# The public names: those the imports above bind (their submodules aside) and the verifier's.
__all__ = sorted(
    {name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, types.ModuleType))}
    | set(_VERIFIER_NAMES)
)
del types
