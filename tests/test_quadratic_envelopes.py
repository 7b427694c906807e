"""The quadratic flux's envelopes against the masked evaluation they replaced, byte for byte.

``QuadraticFlux.envelopes`` evaluates H on each branch,
clip(p, 0, p_crit) for demand and clip(p, p_crit, rmax) for supply.
``_MaskedQuadratic`` keeps the evaluation it replaced verbatim: the
values ``clamp``ed to [0, rmax], H evaluated once, and its peak copied
in where p > p_crit (demand) and where p < p_crit (supply).  Both must
give the same bytes, signs of zero included, on unclipped values: the
round-off excursions below 0 and above rmax of ``side_values``, +0.0
and -0.0, and p_crit with both its float neighbours, for 1-D arrays
and for the whole rows and the strided side views of a
``(batch, cells)`` array that ``cl_solver.FluxKernel`` passes.  The
signs of zero are why each branch is clipped with scalar bounds: one
clip with a bound per row of the ``(2, ...)`` buffer turns -0.0 into
+0.0 on a narrow side view of a batch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import QuadraticFlux
from strategies import quadratic_fluxes, side_values
from test_polygon_envelopes import _batched_envelopes, _envelopes, _strided_envelopes


class _MaskedQuadratic(QuadraticFlux):
    """The quadratic's envelopes as evaluated before the branch clips: H once, two masked copies, verbatim."""

    def envelopes(self, values: np.ndarray, demand_out: np.ndarray, supply_out: np.ndarray, branch: np.ndarray) -> None:
        pc = self.p_crit
        p = self.clamp(values, out=branch)
        self._flow_into(p, demand_out, supply_out)
        np.copyto(supply_out, demand_out)
        np.copyto(demand_out, self._peak_flow, where=p > pc)
        np.copyto(supply_out, self._peak_flow, where=p < pc)


def _densities(flux: QuadraticFlux, seed: int) -> np.ndarray:
    """``side_values``, then +0.0, -0.0, rmax, and p_crit with its two float neighbours."""
    pc = flux.p_crit
    special = [0.0, -0.0, flux.rmax, pc, np.nextafter(pc, -np.inf), np.nextafter(pc, np.inf)]
    return np.concatenate([side_values(np.random.default_rng(seed), flux, 64), special])


@given(flux=quadratic_fluxes, seed=st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_envelopes_match_the_masked_form_bytes(flux, seed):
    ref = _MaskedQuadratic(rmax=flux.rmax, hmax=flux.hmax)
    p = _densities(flux, seed)
    assert _envelopes(flux, p) == _envelopes(ref, p)
    assert _strided_envelopes(flux, p) == _strided_envelopes(ref, p)


@given(flux=quadratic_fluxes, seed=st.integers(0, 2**32 - 1), n_left=st.integers(1, 40))
@settings(deadline=None)
def test_batched_envelopes_match_the_masked_form_bytes(flux, seed, n_left):
    ref = _MaskedQuadratic(rmax=flux.rmax, hmax=flux.hmax)
    p = _densities(flux, seed)
    assert _batched_envelopes(flux, p, n_left) == _batched_envelopes(ref, p, n_left)


def test_envelopes_match_the_masked_form_outside_the_range():
    """Round-off below 0 and above rmax clips to the ends; -0.0 keeps its sign through both forms."""
    flux = QuadraticFlux(rmax=1.0, hmax=0.25)
    ref = _MaskedQuadratic(rmax=1.0, hmax=0.25)
    p = np.array([-1e-9, -0.0, 0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0, 1.0 + 1e-9])
    assert _envelopes(flux, p) == _envelopes(ref, p)
    assert _strided_envelopes(flux, p) == _strided_envelopes(ref, p)
    demand, supply = (np.frombuffer(row) for row in _envelopes(flux, p))
    assert np.signbit(demand[:3]).tolist() == [False, True, False]  # H(-1e-9) = H(0.0) = +0.0, H(-0.0) = -0.0
    peak = flux._peak_flow
    assert [demand[3], demand[5], *supply[:5]] == [peak] * 7  # each envelope's flat side is H(p_crit)
    assert supply[-2:].tolist() == [0.0, 0.0]
