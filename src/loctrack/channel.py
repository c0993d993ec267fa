"""Cascaded BS-RIS-user channel model and its analytic derivatives.

The BS and each reflecting surface carry half-wavelength uniform linear
arrays, so a steering vector needs only the cosine of the physical angle:
element m responds with exp(j*pi*m*cos(angle)). The deterministic (LoS x LoS)
cascade through surface i for user k at step t is

    rho_mix * g_br_i * g_ru_{t,i,k} * reflect_{t,i,k} * a_bs(aod_i)

where ``rho_mix`` collects the Rician LoS fractions of both hops,
``reflect = a_ris(aoa_i)^H diag(e^{j*phase})/sqrt(N_r) a_ris(angle_ru)`` is
the scalar reflection response, and the amplitude gains follow the
attenuating path-loss law d**(-|alpha|/2).

The three random (NLoS) cross terms are not estimated; their average power is
folded into an effective noise variance that the measurement FIM divides by.

Channel parameters per (step, user) are stacked [angles(R), gains(R)] where
angle i is the arrival angle at surface i seen from the user and gain i the
surface-to-user amplitude gain. All derivative code follows that ordering.

The formulas broadcast over leading axes. ``cascaded_channel``,
``cascade_from_parameters`` and ``channel_jacobian`` evaluate one (step,
user) cell; they are the oracles the finite-difference checks read.
``jacobian_factors`` evaluates every cell of a run of steps in one pass
(link geometry, the (S, R, N_r) phase array, the reflection sums) and
feeds the measurement kernel of ``loctrack.fim``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, DimensionMismatch
from .scenario import (
    GEOMETRY_GUARD,
    AlignedPhases,
    ExplicitPhases,
    RandomPhases,
    ScenarioConfig,
    Trajectory,
)


@dataclass(frozen=True)
class GeometryParams:
    """Angle/gain/distance of surface-to-user links.

    Fields are floats for one link and arrays for a stack of links.
    """

    angle: float | np.ndarray
    gain: float | np.ndarray
    distance: float | np.ndarray


def geometry_params(
    ris_position, user_position, path_loss_exponent: float
) -> GeometryParams:
    """Arrival angle at the surface, amplitude gain, and distance of links.

    Positions broadcast over leading axes, so an (R, 2) stack of surfaces
    gives (R,) fields. The angle is measured from the +x axis,
    ``arccos((u_x - r_x)/d)``, so it lives in [0, pi]. The gain uses the
    attenuating reading of the path-loss exponent regardless of its
    configured sign.
    """
    delta = np.asarray(user_position, dtype=float) - np.asarray(
        ris_position, dtype=float
    )
    dist = np.sqrt(np.vecdot(delta, delta))
    if np.any(dist <= GEOMETRY_GUARD):
        raise DegenerateGeometry(
            f"surface-user distance {np.min(dist):.3e} m below guard "
            f"{GEOMETRY_GUARD} m"
        )
    return _link_params(delta, dist, path_loss_exponent)


def _link_params(delta, dist, path_loss_exponent: float) -> GeometryParams:
    """``geometry_params`` of user-minus-surface offsets, without the guard."""
    angle = np.arccos(np.clip(delta[..., 0] / dist, -1.0, 1.0))
    gain = dist ** (-abs(path_loss_exponent) / 2.0)
    return GeometryParams(angle=angle, gain=gain, distance=dist)


def steering_vector(angle, n_elements: int) -> np.ndarray:
    """ULA steering vectors exp(j*pi*m*cos(angle)), m = 0..n-1.

    The BS and the surfaces both use half-wavelength spacing, so one
    formula serves every array. An (R,) stack of angles gives (R, n).
    """
    m = np.arange(n_elements)
    return np.exp(1j * np.pi * m * np.cos(np.asarray(angle))[..., None])


def steering_derivative(angle, n_elements: int) -> np.ndarray:
    """Elementwise derivative of the ULA steering vector w.r.t. the angle."""
    m = np.arange(n_elements)
    sine = np.sin(np.asarray(angle))[..., None]
    return -1j * np.pi * m * sine * steering_vector(angle, n_elements)


def _served_users(config: ScenarioConfig) -> np.ndarray:
    """(R,) user served by each surface under the aligned policy: i mod K."""
    return np.arange(config.num_ris) % config.num_users


def resolve_phases(
    config: ScenarioConfig, trajectory: Trajectory, t: int
) -> np.ndarray:
    """(R, N_r) phase shifts applied by every surface at step ``t``, radians.

    Aligned policy: surface i serves user i mod K and conjugates that user's
    cascade phase elementwise, which drives the reflection response to its
    sqrt(N_r) maximum for the served user.
    """
    served = None
    if isinstance(config.ris_phase_profiles, AlignedPhases):
        served = geometry_params(
            config.ris_positions,
            trajectory.positions[t, _served_users(config)],
            config.path_loss_exponent,
        ).angle[None]
    return _phase_array(config, range(t, t + 1), served)[0]


def _phase_array(config: ScenarioConfig, steps: range, served_angles) -> np.ndarray:
    """(S, R, N_r) phase shifts at ``steps``, radians.

    ``served_angles`` (S, R) holds the arrival angle of each surface's
    served user at those steps; only the aligned policy reads it. Random
    phases draw one seeded stream per (step, surface).
    """
    profile = config.ris_phase_profiles
    n = config.n_ris_elements
    if isinstance(profile, ExplicitPhases):
        return np.asarray(profile.values[list(steps)], dtype=float)
    if isinstance(profile, RandomPhases):
        return np.array(
            [[profile.values_for(t, i, n) for i in range(config.num_ris)] for t in steps]
        )
    if isinstance(profile, AlignedPhases):
        aoa = config.bs_ris_geometry()[1]
        return np.pi * np.arange(n) * (np.cos(aoa) - np.cos(served_angles))[..., None]
    raise DimensionMismatch(f"unknown phase profile {profile!r}")


def _rician_mix(config: ScenarioConfig) -> float:
    kb, ku = config.rician_factor_br, config.rician_factor_ru
    return float(np.sqrt(kb * ku / ((1.0 + kb) * (1.0 + ku))))


def _nlos_power_fraction(config: ScenarioConfig) -> float:
    kb, ku = config.rician_factor_br, config.rician_factor_ru
    return float((1.0 + kb + ku) / ((1.0 + kb) * (1.0 + ku)))


def effective_noise_variance(
    config: ScenarioConfig, br_gains: np.ndarray, ru_gains: np.ndarray
) -> float | np.ndarray:
    """Thermal noise plus average unresolved-multipath power per antenna.

    The NLoS cross terms of each cascade carry a fraction
    (1 + k_br + k_ru)/((1 + k_br)(1 + k_ru)) of the per-link power
    (g_br * g_ru)^2, scaled by the transmit power like the signal itself.
    As both Rician factors grow this collapses to the thermal floor.
    Gains broadcast over leading axes; the sum runs over the last (surface)
    axis, so (S, K, R) user-hop gains give (S, K) variances.
    """
    extra = _nlos_power_fraction(config) * np.sum(
        (np.asarray(br_gains) * np.asarray(ru_gains)) ** 2, axis=-1
    )
    return config.noise_variance + config.transmit_power * extra


@dataclass(frozen=True)
class ChannelVector:
    """Deterministic cascade for one (step, user) pair.

    Attributes
    ----------
    vector : ndarray
        Complex (N_b,) LoS cascade summed over surfaces.
    ru_angles, ru_gains : ndarray
        Per-surface arrival angles and amplitude gains of the user hop.
    reflection : ndarray
        Complex per-surface reflection responses g_{t,i,k}.
    effective_noise_variance : float
        Thermal plus unresolved-multipath noise power per antenna.
    """

    vector: np.ndarray
    ru_angles: np.ndarray
    ru_gains: np.ndarray
    reflection: np.ndarray
    effective_noise_variance: float


def _surface_terms(config: ScenarioConfig, phases: np.ndarray, ru_angles: np.ndarray):
    """Per-surface terms of the cascade, broadcast over leading axes.

    For phases (..., R, N_r) and user-hop arrival angles (..., R), returns
    the reflection responses g (..., R), their angle derivatives dg
    (..., R), the BS rows rho_mix * g_br_i * a_bs(aod_i) as an (R, N_b)
    array, so one cell's cascade is ``(ru_gains * g) @ rows``, and the
    BS-RIS gains g_br (R,).
    """
    aod, aoa, br_gains = config.bs_ris_geometry()
    n_b, n_r = config.n_bs_antennas, config.n_ris_elements
    omega = np.exp(1j * phases) / np.sqrt(n_r)
    ris_in = steering_vector(aoa, n_r)
    g = np.vecdot(ris_in, omega * steering_vector(ru_angles, n_r))
    dg = np.vecdot(ris_in, omega * steering_derivative(ru_angles, n_r))
    rows = (_rician_mix(config) * br_gains)[:, None] * steering_vector(aod, n_b)
    return g, dg, rows, br_gains


def cascaded_channel(
    config: ScenarioConfig, trajectory: Trajectory, t: int, k: int
) -> ChannelVector:
    """LoS cascade of user k at step t, summed over every surface."""
    geo = geometry_params(
        config.ris_positions, trajectory.position(t, k), config.path_loss_exponent
    )
    g, _, rows, br_gains = _surface_terms(
        config, resolve_phases(config, trajectory, t), geo.angle
    )
    return ChannelVector(
        vector=(geo.gain * g) @ rows,
        ru_angles=geo.angle,
        ru_gains=geo.gain,
        reflection=g,
        effective_noise_variance=effective_noise_variance(config, br_gains, geo.gain),
    )


def cascade_from_parameters(
    config: ScenarioConfig,
    trajectory: Trajectory,
    t: int,
    k: int,
    ru_angles: np.ndarray,
    ru_gains: np.ndarray,
) -> np.ndarray:
    """Cascade vector as an explicit function of the user-hop parameters.

    The phase profile and the BS-side geometry stay fixed while the
    per-surface arrival angles and gains vary; this is the function the
    channel Jacobian differentiates, so derivative checks go through here.
    """
    g, _, rows, _ = _surface_terms(
        config, resolve_phases(config, trajectory, t), ru_angles
    )
    return (np.asarray(ru_gains, dtype=float) * g) @ rows


@dataclass(frozen=True)
class ChannelJacobian:
    """Derivatives of the cascade w.r.t. the stacked channel parameters.

    ``matrix`` is complex (N_b, 2R): columns 0..R-1 differentiate by the
    per-surface arrival angles, columns R..2R-1 by the per-surface gains.
    """

    matrix: np.ndarray
    effective_noise_variance: float


def channel_jacobian(
    config: ScenarioConfig, trajectory: Trajectory, t: int, k: int
) -> ChannelJacobian:
    """Analytic Jacobian of the cascade for user k at step t.

    Column a is ``coeffs[a] * rows[a mod R]`` with the coefficients and
    BS rows of ``jacobian_factors``.
    """
    geo = geometry_params(
        config.ris_positions, trajectory.position(t, k), config.path_loss_exponent
    )
    g, dg, rows, br_gains = _surface_terms(
        config, resolve_phases(config, trajectory, t), geo.angle
    )
    coeffs = np.concatenate([geo.gain * dg, g])
    return ChannelJacobian(
        matrix=(coeffs[:, None] * np.concatenate([rows, rows])).T,
        effective_noise_variance=effective_noise_variance(config, br_gains, geo.gain),
    )


def jacobian_factors(
    config: ScenarioConfig, steps: range, delta: np.ndarray, dist: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors of the channel Jacobians of every (step, user) cell at once.

    ``delta`` (S, K, R, 2) holds the user-minus-surface offsets at
    ``steps`` and ``dist`` (S, K, R) their lengths, all above the guard.
    Column a of cell (s, k)'s Jacobian is ``coeffs[s, k, a] * rows[a mod
    R]``, the same factors ``channel_jacobian`` multiplies out. Returns the
    coefficients [gain * dg, g] as (S, K, 2R), the (R, N_b) BS rows and the
    (S, K) effective noise variances.
    """
    geo = _link_params(delta, dist, config.path_loss_exponent)
    served = geo.angle[:, _served_users(config), np.arange(config.num_ris)]
    phases = _phase_array(config, steps, served)
    g, dg, rows, br_gains = _surface_terms(config, phases[:, None], geo.angle)
    coeffs = np.concatenate([geo.gain * dg, g], axis=-1)
    return coeffs, rows, effective_noise_variance(config, br_gains, geo.gain)
