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
finite-parameter system on inputs frozen again at a documented stand-in
value (1e3 for "infinite", 1e-3 for "zero"); reports carry both sides and
their relative trace gaps. The spatial limits take the finite side from
the closed-form fixed point ``recursive.stationary_point``, which raises
NotSpd when the stand-in leaves M or T outside its SPD test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .blocks import diag_blocks, neumann_diag_block
from .errors import DimensionMismatch
from .coupling import coupling_spectral_radius
from .recursive import StepInputs, _temporal_carry, constant_inputs, stationary_point
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
    horizon: int | None = None


def _per_user_blocks(full: np.ndarray, n_users: int) -> np.ndarray:
    """Per-user marginal information ([J^{-1}]_kk)^{-1} for each user."""
    inverse = npl.inv(full)
    out = np.zeros((n_users, 2, 2))
    for k in range(n_users):
        sl = slice(2 * k, 2 * k + 2)
        out[k] = npl.inv(inverse[sl, sl])
    return out


def _trace_gaps(empirical: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    emp = np.trace(empirical, axis1=1, axis2=2)
    pred = np.trace(predicted, axis1=1, axis2=2)
    return np.abs(emp - pred) / np.abs(pred)


def _stationary_eoc(inputs: StepInputs, j_state: np.ndarray) -> float:
    """Mean per-user marginal efficiency at a state of the finite system.

    E_k = D_k^{-1} ([J^{-1}]_kk)^{-1} with D_k the own-information block
    (measurement + spatial diagonal + transition precision); the scalar is
    the mean over users of tr(E_k) / 2. The couplings enter through the
    marginal; a raw slice trace would miss the spatial part entirely
    because its diagonal blocks are zero.
    """
    nominal = inputs.nominal
    K = nominal.shape[0]
    marg = _per_user_blocks(j_state, K)
    traces = [
        float(np.trace(npl.solve(nominal[k], marg[k]))) for k in range(K)
    ]
    return float(np.mean(traces)) / 2.0


def limit_spatial_zero(
    config: ScenarioConfig,
    trajectory: Trajectory,
    finite_value: float = ASYMPTOTIC_SMALL,
) -> AsymptoticReport:
    """Decoupled-user limit, checked at a small finite spatial precision."""
    inputs = constant_inputs(config, trajectory)
    K = config.num_users
    predicted = np.stack(
        [
            stationary_point(inputs.lambda_d[k], inputs.gamma[k]).j_star
            for k in range(K)
        ]
    )

    finite = constant_inputs(config.with_spatial_precision(finite_value), trajectory)
    j_star = stationary_point(finite.m_full, finite.gamma_full).j_star
    empirical = _per_user_blocks(j_star, K)

    return AsymptoticReport(
        regime=REGIME_SPATIAL_ZERO,
        finite_value=finite_value,
        predicted=predicted,
        empirical=empirical,
        relative_gaps=_trace_gaps(empirical, predicted),
        eoc=_stationary_eoc(finite, j_star),
    )


def limit_spatial_inf(
    config: ScenarioConfig,
    trajectory: Trajectory,
    finite_value: float = ASYMPTOTIC_LARGE,
) -> AsymptoticReport:
    """Rigid-group limit, checked at a large finite spatial precision.

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

    finite = constant_inputs(config.with_spatial_precision(finite_value), trajectory)
    j_star = stationary_point(finite.m_full, finite.gamma_full).j_star
    empirical = _per_user_blocks(j_star, K)

    first_step = _per_user_blocks(finite.m_full, K)
    first_gap = float(
        np.max(
            np.abs(np.trace(first_step, axis1=1, axis2=2) - np.trace(summed_m))
            / np.trace(summed_m)
        )
    )

    return AsymptoticReport(
        regime=REGIME_SPATIAL_INF,
        finite_value=finite_value,
        predicted=predicted,
        empirical=empirical,
        relative_gaps=_trace_gaps(empirical, predicted),
        eoc=_stationary_eoc(finite, j_star),
        first_step_gap=first_gap,
    )


def limit_temporal_inf(
    config: ScenarioConfig,
    trajectory: Trajectory,
    horizon: int = 1000,
    finite_value: float = ASYMPTOTIC_LARGE,
) -> AsymptoticReport:
    """Rigid-trajectory limit: linear information growth.

    predicted/empirical hold per-user growth slopes. The empirical slope
    runs the limiting additive recursion J_t = J_{t-1} + M over the horizon
    and takes a difference quotient over its second half; the prediction is
    the per-user marginal of the slice information, cross-checked against
    the M_k C_k Neumann form whenever the spatial-slice walk contracts fast
    enough to resum within budget (``series_vs_direct`` is None otherwise).
    ``finite_step_gap`` measures how close the finite-parameter recursion
    at the stand-in precision comes to the limit after two steps, the
    regime's transient window.
    """
    if horizon < 4:
        raise DimensionMismatch(f"horizon must be >= 4, got {horizon}")
    inputs = constant_inputs(config, trajectory)
    K = config.num_users
    m_slice = inputs.m_full

    predicted = _per_user_blocks(m_slice, K)

    # Neumann cross-check: C_k from the spatial-slice walk. Only meaningful
    # when the walk contracts fast enough that the truncated series actually
    # resums; a spectral radius near one (weak measurements against strong
    # coupling) would leave the truncation nowhere near its limit.
    diag = inputs.lambda_d + diag_blocks(inputs.spatial_slice)
    x = np.zeros_like(m_slice)
    for j in range(K):
        sj = slice(2 * j, 2 * j + 2)
        x[sj, :] = npl.solve(diag[j], inputs.off[sj, :])
    series_gap: float | None
    if coupling_spectral_radius(diag, inputs.off) < 0.99:
        series_gap = 0.0
        for k in range(K):
            total, _, _ = neumann_diag_block(x, k, 10_000, 1e-10)
            via_series = diag[k] @ npl.inv(np.eye(2) + total)
            gap = np.linalg.norm(via_series - predicted[k]) / np.linalg.norm(
                predicted[k]
            )
            series_gap = max(series_gap, float(gap))
    else:
        series_gap = None

    # limiting additive recursion: slope by difference quotient
    half = horizon // 2
    j_half = half * m_slice
    j_full = horizon * m_slice
    slope = (_per_user_blocks(j_full, K) - _per_user_blocks(j_half, K)) / (
        horizon - half
    )

    # finite-parameter transient: two steps at the stand-in precision
    finite = constant_inputs(config.with_temporal_precision(finite_value), trajectory)
    t_full = finite.gamma_full
    j1 = finite.m_full
    j2 = finite.m_full + t_full - _temporal_carry(j1, t_full)
    finite_two = _per_user_blocks(j2, K)
    limit_two = 2.0 * predicted
    finite_gap = float(
        np.max(
            np.abs(
                np.trace(finite_two, axis1=1, axis2=2)
                - np.trace(limit_two, axis1=1, axis2=2)
            )
            / np.trace(limit_two, axis1=1, axis2=2)
        )
    )

    # regime-representative efficiency at the first carried step
    eoc = _stationary_eoc(finite, j2)

    return AsymptoticReport(
        regime=REGIME_TEMPORAL_INF,
        finite_value=finite_value,
        predicted=predicted,
        empirical=slope,
        relative_gaps=_trace_gaps(slope, predicted),
        eoc=eoc,
        series_vs_direct=series_gap,
        finite_step_gap=finite_gap,
        horizon=horizon,
    )
