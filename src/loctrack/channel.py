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
    """Angle/gain/distance of one surface-to-user link."""

    angle: float
    gain: float
    distance: float


def geometry_params(
    ris_position, user_position, path_loss_exponent: float
) -> GeometryParams:
    """Arrival angle at the surface, amplitude gain, and distance of a link.

    The angle is measured from the +x axis, ``arccos((u_x - r_x)/d)``, so it
    lives in [0, pi]. The gain uses the attenuating reading of the path-loss
    exponent regardless of its configured sign.
    """
    delta = np.asarray(user_position, dtype=float) - np.asarray(
        ris_position, dtype=float
    )
    dist = float(np.linalg.norm(delta))
    if dist <= GEOMETRY_GUARD:
        raise DegenerateGeometry(
            f"surface-user distance {dist:.3e} m below guard {GEOMETRY_GUARD} m"
        )
    angle = float(np.arccos(np.clip(delta[0] / dist, -1.0, 1.0)))
    gain = dist ** (-abs(path_loss_exponent) / 2.0)
    return GeometryParams(angle=angle, gain=gain, distance=dist)


def steering_vector(kind: str, angle: float, n_elements: int) -> np.ndarray:
    """ULA steering vector exp(j*pi*m*cos(angle)), m = 0..n-1.

    ``kind`` ("bs" or "ris") only labels the array; both use half-wavelength
    spacing so the response formula is identical.
    """
    if kind not in ("bs", "ris"):
        raise DimensionMismatch(f"unknown array kind {kind!r}")
    m = np.arange(n_elements)
    return np.exp(1j * np.pi * m * np.cos(angle))


def steering_derivative(angle: float, n_elements: int) -> np.ndarray:
    """Elementwise derivative of the ULA steering vector w.r.t. the angle."""
    m = np.arange(n_elements)
    return -1j * np.pi * m * np.sin(angle) * np.exp(1j * np.pi * m * np.cos(angle))


def resolve_phases(
    config: ScenarioConfig, trajectory: Trajectory, t: int, ris: int
) -> np.ndarray:
    """Phase shifts applied by surface ``ris`` at step ``t``, radians.

    Aligned policy: surface i serves user i mod K and conjugates that user's
    cascade phase elementwise, which drives the reflection response to its
    sqrt(N_r) maximum for the served user.
    """
    profile = config.ris_phase_profiles
    n = config.n_ris_elements
    if isinstance(profile, ExplicitPhases):
        return np.asarray(profile.values[t, ris], dtype=float)
    if isinstance(profile, RandomPhases):
        return profile.values_for(t, ris, n)
    if isinstance(profile, AlignedPhases):
        _, aoa, _ = config.bs_ris_geometry()
        served = ris % config.num_users
        geo = geometry_params(
            config.ris_positions[ris],
            trajectory.position(t, served),
            config.path_loss_exponent,
        )
        m = np.arange(n)
        return np.pi * m * (np.cos(aoa[ris]) - np.cos(geo.angle))
    raise DimensionMismatch(f"unknown phase profile {profile!r}")


def _rician_mix(config: ScenarioConfig) -> float:
    kb, ku = config.rician_factor_br, config.rician_factor_ru
    return float(np.sqrt(kb * ku / ((1.0 + kb) * (1.0 + ku))))


def _nlos_power_fraction(config: ScenarioConfig) -> float:
    kb, ku = config.rician_factor_br, config.rician_factor_ru
    return float((1.0 + kb + ku) / ((1.0 + kb) * (1.0 + ku)))


def effective_noise_variance(
    config: ScenarioConfig, br_gains: np.ndarray, ru_gains: np.ndarray
) -> float:
    """Thermal noise plus average unresolved-multipath power per antenna.

    The NLoS cross terms of each cascade carry a fraction
    (1 + k_br + k_ru)/((1 + k_br)(1 + k_ru)) of the per-link power
    (g_br * g_ru)^2, scaled by the transmit power like the signal itself.
    As both Rician factors grow this collapses to the thermal floor.
    """
    extra = _nlos_power_fraction(config) * float(
        np.sum((np.asarray(br_gains) * np.asarray(ru_gains)) ** 2)
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


def cascaded_channel(
    config: ScenarioConfig, trajectory: Trajectory, t: int, k: int
) -> ChannelVector:
    """LoS cascade of user k at step t, summed over every surface."""
    aod, aoa, br_gains = config.bs_ris_geometry()
    mix = _rician_mix(config)
    n_b, n_r = config.n_bs_antennas, config.n_ris_elements
    user = trajectory.position(t, k)

    total = np.zeros(n_b, dtype=complex)
    angles = np.zeros(config.num_ris)
    gains = np.zeros(config.num_ris)
    reflect = np.zeros(config.num_ris, dtype=complex)
    for i in range(config.num_ris):
        geo = geometry_params(config.ris_positions[i], user, config.path_loss_exponent)
        phases = resolve_phases(config, trajectory, t, i)
        omega = np.exp(1j * phases) / np.sqrt(n_r)
        g = np.vdot(
            steering_vector("ris", aoa[i], n_r),
            omega * steering_vector("ris", geo.angle, n_r),
        )
        total += mix * br_gains[i] * geo.gain * g * steering_vector("bs", aod[i], n_b)
        angles[i], gains[i], reflect[i] = geo.angle, geo.gain, g

    return ChannelVector(
        vector=total,
        ru_angles=angles,
        ru_gains=gains,
        reflection=reflect,
        effective_noise_variance=effective_noise_variance(config, br_gains, gains),
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
    aod, aoa, br_gains = config.bs_ris_geometry()
    mix = _rician_mix(config)
    n_b, n_r = config.n_bs_antennas, config.n_ris_elements
    total = np.zeros(n_b, dtype=complex)
    for i in range(config.num_ris):
        phases = resolve_phases(config, trajectory, t, i)
        omega = np.exp(1j * phases) / np.sqrt(n_r)
        g = np.vdot(
            steering_vector("ris", aoa[i], n_r),
            omega * steering_vector("ris", float(ru_angles[i]), n_r),
        )
        total += (
            mix * br_gains[i] * float(ru_gains[i]) * g
            * steering_vector("bs", aod[i], n_b)
        )
    return total


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
    """Analytic Jacobian of the cascade for user k at step t."""
    aod, aoa, br_gains = config.bs_ris_geometry()
    mix = _rician_mix(config)
    n_b, n_r = config.n_bs_antennas, config.n_ris_elements
    R = config.num_ris
    user = trajectory.position(t, k)

    out = np.zeros((n_b, 2 * R), dtype=complex)
    gains = np.zeros(R)
    for i in range(R):
        geo = geometry_params(config.ris_positions[i], user, config.path_loss_exponent)
        phases = resolve_phases(config, trajectory, t, i)
        omega = np.exp(1j * phases) / np.sqrt(n_r)
        ris_in = steering_vector("ris", aoa[i], n_r)
        bs_out = steering_vector("bs", aod[i], n_b)
        g = np.vdot(ris_in, omega * steering_vector("ris", geo.angle, n_r))
        dg = np.vdot(ris_in, omega * steering_derivative(geo.angle, n_r))
        scale = mix * br_gains[i]
        out[:, i] = scale * geo.gain * dg * bs_out
        out[:, R + i] = scale * g * bs_out
        gains[i] = geo.gain

    return ChannelJacobian(
        matrix=out,
        effective_noise_variance=effective_noise_variance(config, br_gains, gains),
    )

