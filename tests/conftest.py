"""Shared fixtures and the acceptance-criterion reporter.

Acceptance tests call the ``acceptance`` fixture to record one line per
criterion; the lines are echoed in the terminal summary so a full run
ends with a compact PASS/FAIL table of every headline guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

from junctionflow import Grid, JunctionModel, PiecewiseLinearFlux, QuadraticFlux, SemigroupHandle, formats, run_battery
from junctionflow.cli import parse_config

DESK_CELLS = 800
#: The scenario config the README shows, verbatim.
README_SCENARIO = Path(__file__).parent / "data" / "readme_scenario.json"

_ACCEPTANCE_LINES: list[str] = []

# ``pytest --hypothesis-profile=ci``: more examples for the property tests that set no count of their own.
settings.register_profile("ci", max_examples=500)


@dataclass
class AcceptanceRecorder:
    """Collects one PASS/FAIL line per acceptance criterion."""

    def check(self, name: str, measured: float, threshold: float, *, detail: str = "",
              mode: str = "le") -> None:
        """Record and assert one criterion.

        mode 'le': pass iff measured <= threshold; mode 'ge': measured >= threshold.
        """
        if mode == "le":
            ok = measured <= threshold
            rel = "<="
        elif mode == "ge":
            ok = measured >= threshold
            rel = ">="
        else:
            raise ValueError(mode)
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        line = f"{status} {name}: measured {measured:.3e} {rel} threshold {threshold:.3e}{suffix}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line


@pytest.fixture
def acceptance() -> AcceptanceRecorder:
    return AcceptanceRecorder()


@pytest.fixture
def fresh_row_text():
    """``formats``' own row-text memo, emptied before the test and again after it."""
    formats._grid_text.cache_clear()
    yield
    formats._grid_text.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_flux() -> QuadraticFlux:
    """The workhorse flux H(p) = p(1-p): rmax=1, hmax=1/4."""
    return QuadraticFlux(rmax=1.0, hmax=0.25)


@pytest.fixture(scope="session")
def sym_junction(default_flux) -> JunctionModel:
    """Same quadratic flux on both sides, cap 3/16 strictly below capacity 1/4."""
    return JunctionModel(left=default_flux, right=default_flux, limiter=0.1875)


@pytest.fixture(scope="session")
def uncapped_junction(default_flux) -> JunctionModel:
    """Cap at full capacity: the junction acts as a plain interior interface."""
    return JunctionModel(left=default_flux, right=default_flux, limiter=0.25)


@pytest.fixture(scope="session")
def asym_junction() -> JunctionModel:
    """Different capacities per side; a_max = min(0.25, 0.2) = 0.2."""
    return JunctionModel(
        left=QuadraticFlux(rmax=1.0, hmax=0.25),
        right=QuadraticFlux(rmax=1.5, hmax=0.2),
        limiter=0.15,
    )


@pytest.fixture(scope="session")
def readme_scenario() -> Path:
    return README_SCENARIO


@pytest.fixture(scope="session")
def readme_junction() -> JunctionModel:
    """The README scenario's junction: quadratic left, triangle right, cap 3/16."""
    return parse_config(README_SCENARIO).model


@pytest.fixture(scope="session")
def pw_flux() -> PiecewiseLinearFlux:
    """Triangular flux with vertex (0.5, 0.25), matching the quadratic's roots at 0."""
    return PiecewiseLinearFlux(points=((0.0, 0.0), (0.5, 0.25), (1.0, 0.0)))


@pytest.fixture(scope="session")
def battery_report(sym_junction):
    """One full desk-scale verifier battery, shared by the acceptance tests.

    Runs once per session (about half a minute); individual criteria read
    the records they need instead of re-running the expensive checks.
    """
    return run_battery(*handles(sym_junction, DESK_CELLS), seed=0)


def handles(model: JunctionModel, n_cells: int) -> tuple:
    """The internal (density, potential) handle pair that ``run_battery`` audits, on one grid of n_cells on [-2, 2]."""
    grid = Grid.from_domain(-2.0, 2.0, n_cells)
    return tuple(SemigroupHandle(scheme, model, grid) for scheme in ("cl", "hj"))


def battery_record(report, name: str):
    for rec in report.records:
        if rec.name == name:
            return rec
    raise KeyError(f"no record named {name!r} in battery report")
