"""The canonical wedge probes: one batch per handle, shared by four potential checks.

``check_duality``, ``check_supersolution_floor``, ``check_hj_exact_agreement``
and ``identify_limiter_hj`` read their runs of the wedge data in
``verifier.WEDGE_PROBES`` from a store on the handle, which the first of
them fills with one ``evolve_hj`` batch.  A row of a batch is bit for
bit its solo run, so every record is the one each check computed from
its own march.  The handle is frozen: the stores hold only for the
parameters it was built with.
"""

from __future__ import annotations

import dataclasses

import pytest

from junctionflow import Grid, SemigroupHandle, StepError, cl_solver, identify_limiter_hj, run_battery
from junctionflow.verifier import (
    WEDGE_PROBES,
    WEDGE_T,
    check_duality,
    check_hj_exact_agreement,
    check_locality,
    check_supersolution_floor,
)
from conftest import handles
from test_verifier import _calls, _kept, _logging_handle

GRID = Grid.from_domain(-2.0, 2.0, 200)
WEDGE_CHECKS = (check_duality, check_supersolution_floor, check_hj_exact_agreement)


@pytest.fixture
def evolve_hj_calls(monkeypatch):
    """(states, snapshot times) of each ``SemigroupHandle.evolve_hj`` call."""
    calls = []
    evolve_hj = SemigroupHandle.evolve_hj

    def logged(self, states, snapshot_times):
        calls.append((len(states), tuple(snapshot_times)))
        return evolve_hj(self, states, snapshot_times)

    monkeypatch.setattr(SemigroupHandle, "evolve_hj", logged)
    return calls


def _fields(record) -> tuple:
    return record.name, repr(record.measured), repr(record.tolerance), record.scenario


def test_battery_marches_the_wedge_probes_in_one_call(sym_junction, evolve_hj_calls):
    run_battery(*handles(sym_junction, GRID.n_cells), l1_trials=1, linf_trials=2, scan_grid_n=2)
    assert evolve_hj_calls == [
        (2 * 2, (0.5, 1.0)),  # linf_contraction: 2 pairs
        (5 * 4, (1.0,)),  # constants_commute: 5 data, each with 3 shifts
        (len(WEDGE_PROBES), (WEDGE_T,)),  # the four wedge checks
    ]


def test_lone_wedge_checks_match_the_battery(readme_junction, evolve_hj_calls):
    report = run_battery(*handles(readme_junction, GRID.n_cells), l1_trials=1, linf_trials=1, scan_grid_n=2)
    by_name = {rec.name: rec for rec in report.records}
    for check in WEDGE_CHECKS:
        del evolve_hj_calls[:]
        record = check(SemigroupHandle("hj", readme_junction, GRID))
        assert _fields(record) == _fields(by_name[record.name])
        assert evolve_hj_calls == [(len(WEDGE_PROBES), (WEDGE_T,))]  # a lone call marches all four probes
    estimate = identify_limiter_hj(SemigroupHandle("hj", readme_junction, GRID))
    assert repr(estimate) == repr(report.identified_limiter)


def test_wedge_checks_read_one_store_in_any_order(sym_junction, evolve_hj_calls):
    h = SemigroupHandle("hj", sym_junction, GRID)
    first = [_fields(check(h)) for check in WEDGE_CHECKS]
    again = [_fields(check(h)) for check in reversed(WEDGE_CHECKS)]
    assert again == first[::-1]
    identify_limiter_hj(h)
    assert len(evolve_hj_calls) == 1


def test_external_wedge_checks_make_four_calls(tmp_path, sym_junction):
    external, log = _logging_handle(tmp_path, sym_junction, scheme="hj")
    for check in WEDGE_CHECKS:
        check(external)
    assert identify_limiter_hj(external) == 0.0  # the command copies its input: no drain
    assert len(set(_calls(log))) == len(_calls(log)) == 4


def test_failed_probe_march_is_asked_again(tmp_path, sym_junction):
    """A failed batch stores nothing, so the next wedge check marches the probes again."""
    external, log = _logging_handle(tmp_path, sym_junction, mode="fail", scheme="hj")
    asked = 0
    for check in (check_hj_exact_agreement, identify_limiter_hj):
        with pytest.raises(StepError, match="asked to fail"):
            check(external)
        assert "_probes" not in vars(external)
        assert len(_calls(log)) > asked  # the batch's calls run concurrently: at least one started
        asked = len(_calls(log))


# -- a frozen handle ---------------------------------------------------------------------


@pytest.mark.parametrize("name,value", [
    ("model", None), ("grid", Grid.from_domain(-1.0, 1.0, 16)), ("scheme", "cl"), ("cfl", 0.5), ("command", ("true",)),
    ("timeout", 1.0),
])
def test_handle_parameters_cannot_be_assigned(sym_junction, name, value):
    h = SemigroupHandle("hj", sym_junction, GRID)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(h, name, value)


def test_handle_fields_are_its_parameters():
    names = [f.name for f in dataclasses.fields(SemigroupHandle)]
    assert names == ["scheme", "model", "grid", "cfl", "command", "timeout"]


def test_replaced_handle_starts_with_empty_stores(sym_junction, evolve_hj_calls):
    h = SemigroupHandle("hj", sym_junction, GRID)
    check_duality(h)
    assert h._probes
    twin = dataclasses.replace(h, grid=Grid.from_domain(-2.0, 2.0, 400))
    assert _kept(twin) == set() and h._probes
    assert "dx=0.01" in check_hj_exact_agreement(twin).scenario
    assert evolve_hj_calls == [(len(WEDGE_PROBES), (WEDGE_T,))] * 2


# -- locality: one whole-line run per distinct flux ----------------------------------------


@pytest.mark.parametrize("junction,solves", [("sym_junction", 2), ("readme_junction", 3)])
def test_locality_marches_one_line_run_per_distinct_flux(request, monkeypatch, junction, solves):
    """The junction run plus one whole-line run per distinct side flux."""
    calls = []
    solve = cl_solver.solve

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cl_solver, "solve", counted)
    record = check_locality(SemigroupHandle("cl", request.getfixturevalue(junction), GRID))
    assert record.measured == 0.0
    assert len(calls) == solves
