"""Closed-form behaviour in the extreme-correlation regimes.

Three regimes of the constant-input recursion admit closed forms:

* spatial precision -> 0: users decouple; each user's stationary EFIM is
  the per-user Riccati fixed point of (own measurement blocks, own
  transition precision).
* spatial precision -> infinity: users rigidify into one super-user; every
  per-user EFIM approaches the common fixed point of the summed
  measurement and transition information, and the efficiency collapses
  (each state's own share of an infinitely shared pool vanishes).
* temporal precision -> infinity: the trajectory rigidifies; information
  accumulates additively, so the per-user EFIM grows linearly with slope
  equal to the per-user marginal of the spatial-slice information
  (equivalently M_k C_k with C_k the spatial discount factor from the
  slice Neumann series), and the per-step efficiency collapses as well.

Each limit takes a scenario config and trajectory, freezes the recursion
inputs with ``recursive.constant_inputs`` (the same ``StepInputs`` the
recursion steps on), and checks the closed form against the
finite-parameter system on inputs frozen again at a fixed stand-in value
(``ASYMPTOTIC_LARGE`` = 1e3 for "infinite", ``ASYMPTOTIC_SMALL`` = 1e-3
for "zero"), which each report records as ``finite_value``; reports carry
both sides and their relative trace gaps. The spatial limits take the
finite side from the closed-form fixed point ``recursive.stationary_point``,
which raises NotSpd when the stand-in leaves M or T outside its SPD test.
The temporal slope is read over a fixed ``HORIZON`` of additive steps.

Per-user marginals ([J^{-1}]_kk)^{-1} come from the dense oracle
``blocks.inverse_diag_blocks`` and the efficiency from
``coupling.marginal_eoc``. The temporal Neumann cross-check uses
``coupling.solve_nominal`` and the coupling series budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .blocks import diag_blocks, inverse_diag_blocks, neumann_diag_block
from .coupling import (
    SERIES_MAX_TERMS,
    SERIES_TOL,
    coupling_spectral_radius,
    marginal_eoc,
    solve_nominal,
)
from .recursive import StepInputs, constant_inputs, stationary_point, temporal_carry
from .scenario import ScenarioConfig, Trajectory

__all__ = [
    "ASYMPTOTIC_LARGE",
    "ASYMPTOTIC_SMALL",
    "AsymptoticReport",
    "limit_spatial_inf",
    "limit_spatial_zero",
    "limit_temporal_inf",
]

# Stand-in parameter values for "infinite" and "zero" precision.
ASYMPTOTIC_LARGE = 1e3
ASYMPTOTIC_SMALL = 1e-3

# Steps of the limiting additive recursion behind the temporal slope.
HORIZON = 1000

REGIME_SPATIAL_ZERO = "spatial-zero"
REGIME_SPATIAL_INF = "spatial-inf"
REGIME_TEMPORAL_INF = "temporal-inf"


@dataclass(frozen=True)
class AsymptoticReport:
    """Closed-form limit versus finite-parameter computation for one regime.

    ``predicted`` and ``empirical`` are (K, 2, 2) per-user blocks (slopes,
    for the temporal regime); ``relative_gaps`` their relative trace gaps.
    ``eoc`` is the regime-representative mean of the per-user marginal
    efficiencies tr(D_k^{-1} ([J^{-1}]_kk)^{-1}) / 2 at the finite stand-in
    parameter; the marginal form is used here (rather than the per-step
    slice trace of the tracking recursion) because only marginals expose
    the off-diagonal spatial coupling. Extra fields are regime-specific
    and None elsewhere.
    """

    regime: str
    finite_value: float
    predicted: np.ndarray
    empirical: np.ndarray
    relative_gaps: np.ndarray
    eoc: float
    first_step_gap: float | None = None
    series_vs_direct: float | None = None
    finite_step_gap: float | None = None


def _per_user_blocks(full: np.ndarray) -> np.ndarray:
    """Per-user marginal information ([J^{-1}]_kk)^{-1} for each user."""
    return npl.inv(inverse_diag_blocks(full))


def _trace_gaps(empirical: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    emp = np.trace(empirical, axis1=1, axis2=2)
    pred = np.trace(predicted, axis1=1, axis2=2)
    return np.abs(emp - pred) / np.abs(pred)


def _stationary_eoc(inputs: StepInputs, j_state: np.ndarray) -> float:
    """Mean per-user marginal efficiency at a state of the finite system.

    E_k = D_k^{-1} ([J^{-1}]_kk)^{-1} with D_k the own-information block
    (measurement + spatial diagonal + transition precision); the scalar is
    the mean over users of tr(E_k) / 2, read by ``coupling.marginal_eoc``
    as for the assembled EFIM. The couplings enter through the marginal; a
    raw slice trace would miss the spatial part entirely because its
    diagonal blocks are zero.
    """
    return float(np.mean(marginal_eoc(inverse_diag_blocks(j_state), inputs.nominal)))


def limit_spatial_zero(
    config: ScenarioConfig, trajectory: Trajectory
) -> AsymptoticReport:
    """Decoupled-user limit, checked at spatial precision ASYMPTOTIC_SMALL."""
    inputs = constant_inputs(config, trajectory)
    K = config.num_users
    predicted = np.stack(
        [
            stationary_point(inputs.lambda_d[k], inputs.gamma[k]).j_star
            for k in range(K)
        ]
    )

    finite = constant_inputs(
        config.with_spatial_precision(ASYMPTOTIC_SMALL), trajectory
    )
    j_star = stationary_point(finite.m_full, finite.gamma_full).j_star
    empirical = _per_user_blocks(j_star)

    return AsymptoticReport(
        regime=REGIME_SPATIAL_ZERO,
        finite_value=ASYMPTOTIC_SMALL,
        predicted=predicted,
        empirical=empirical,
        relative_gaps=_trace_gaps(empirical, predicted),
        eoc=_stationary_eoc(finite, j_star),
    )


def limit_spatial_inf(
    config: ScenarioConfig, trajectory: Trajectory
) -> AsymptoticReport:
    """Rigid-group limit, checked at spatial precision ASYMPTOTIC_LARGE.

    Also verifies the first-step collapse: with overwhelming spatial
    coupling the per-user EFIM of the carry-free first step approaches the
    plain sum of every user's measurement blocks.
    """
    inputs = constant_inputs(config, trajectory)
    K = config.num_users
    summed_m = inputs.lambda_d.sum(axis=0)
    summed_t = inputs.gamma.sum(axis=0)
    common = stationary_point(summed_m, summed_t).j_star
    predicted = np.broadcast_to(common, (K, 2, 2)).copy()

    finite = constant_inputs(
        config.with_spatial_precision(ASYMPTOTIC_LARGE), trajectory
    )
    j_star = stationary_point(finite.m_full, finite.gamma_full).j_star
    empirical = _per_user_blocks(j_star)

    first_step = _per_user_blocks(finite.m_full)
    first_gap = float(np.max(_trace_gaps(first_step, summed_m[None])))

    return AsymptoticReport(
        regime=REGIME_SPATIAL_INF,
        finite_value=ASYMPTOTIC_LARGE,
        predicted=predicted,
        empirical=empirical,
        relative_gaps=_trace_gaps(empirical, predicted),
        eoc=_stationary_eoc(finite, j_star),
        first_step_gap=first_gap,
    )


def limit_temporal_inf(
    config: ScenarioConfig, trajectory: Trajectory
) -> AsymptoticReport:
    """Rigid-trajectory limit: linear information growth.

    predicted/empirical hold per-user growth slopes. The empirical slope
    runs the limiting additive recursion J_t = J_{t-1} + M over HORIZON
    steps and takes a difference quotient over its second half; the prediction is
    the per-user marginal of the slice information, cross-checked against
    the M_k C_k Neumann form whenever the spatial-slice walk contracts fast
    enough to resum within budget (``series_vs_direct`` is None otherwise).
    ``finite_step_gap`` measures how close the finite-parameter recursion
    at the stand-in precision ASYMPTOTIC_LARGE comes to the limit after two
    steps, the regime's transient window.
    """
    inputs = constant_inputs(config, trajectory)
    m_slice = inputs.m_full
    predicted = _per_user_blocks(m_slice)

    # Neumann cross-check: C_k from the spatial-slice walk. Only meaningful
    # when the walk contracts fast enough that the truncated series actually
    # resums; a spectral radius near one (weak measurements against strong
    # coupling) would leave the truncation nowhere near its limit.
    diag = inputs.lambda_d + diag_blocks(inputs.spatial_slice)
    series_gap = None
    if coupling_spectral_radius(diag, inputs.off) < 0.99:
        walk = solve_nominal(diag, inputs.off)
        totals = np.stack(
            [
                neumann_diag_block(walk, k, SERIES_MAX_TERMS, SERIES_TOL)[0]
                for k in range(config.num_users)
            ]
        )
        error = npl.norm(diag @ npl.inv(np.eye(2) + totals) - predicted, axis=(1, 2))
        series_gap = float(np.max(error / npl.norm(predicted, axis=(1, 2))))

    # limiting additive recursion: slope by difference quotient
    half = HORIZON // 2
    j_half = half * m_slice
    j_full = HORIZON * m_slice
    slope = (_per_user_blocks(j_full) - _per_user_blocks(j_half)) / (HORIZON - half)

    # finite-parameter transient: two steps at the stand-in precision
    finite = constant_inputs(
        config.with_temporal_precision(ASYMPTOTIC_LARGE), trajectory
    )
    m_full, gamma = finite.m_full, finite.gamma_full
    j2 = m_full + gamma - temporal_carry(m_full, gamma)
    finite_gap = float(np.max(_trace_gaps(_per_user_blocks(j2), 2.0 * predicted)))

    return AsymptoticReport(
        regime=REGIME_TEMPORAL_INF,
        finite_value=ASYMPTOTIC_LARGE,
        predicted=predicted,
        empirical=slope,
        relative_gaps=_trace_gaps(slope, predicted),
        eoc=_stationary_eoc(finite, j2),  # at the first carried step
        series_vs_direct=series_gap,
        finite_step_gap=finite_gap,
    )
