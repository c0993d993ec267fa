"""Cascaded channel model, steering vectors, and analytic derivatives."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenario, rel_frobenius, shipped_scenario
from loctrack.channel import (
    cascade_from_parameters,
    cascaded_channel,
    channel_jacobian,
    effective_noise_variance,
    geometry_params,
    resolve_phases,
    steering_derivative,
    steering_vector,
)
from loctrack.errors import DegenerateGeometry
from loctrack.scenario import (
    ExplicitPhases,
    RandomPhases,
    static_trajectory,
)


def test_steering_vector_structure():
    vec = steering_vector(0.7, 12)
    assert vec.shape == (12,)
    assert vec[0] == 1.0 + 0.0j
    assert np.allclose(np.abs(vec), 1.0)
    assert np.vdot(vec, vec).real == pytest.approx(12.0)
    m = np.arange(12)
    assert np.allclose(vec, np.exp(1j * np.pi * m * math.cos(0.7)))
    # a stack of angles gives one row per angle
    stack = steering_vector(np.array([0.7, 1.9]), 12)
    assert stack.shape == (2, 12)
    assert np.allclose(stack, [vec, steering_vector(1.9, 12)], rtol=1e-15)


def test_steering_derivative_matches_finite_difference():
    h = 1e-7
    for angle in (0.4, 1.0, 2.2):
        fd = (steering_vector(angle + h, 16) - steering_vector(angle - h, 16)) / (2 * h)
        analytic = steering_derivative(angle, 16)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6


def test_geometry_params_hand_computed():
    geo = geometry_params([0.0, 0.0], [3.0, 4.0], -2.0)
    assert geo.distance == pytest.approx(5.0)
    assert geo.angle == pytest.approx(math.acos(3.0 / 5.0))
    assert geo.gain == pytest.approx(5.0 ** (-1.0))
    # the attenuating reading ignores the exponent sign
    assert geometry_params([0.0, 0.0], [3.0, 4.0], 2.0).gain == geo.gain
    # a stack of surfaces gives one link per row
    stack = geometry_params([[0.0, 0.0], [3.0, 0.0]], [3.0, 4.0], -2.0)
    assert np.allclose(stack.distance, [5.0, 4.0])
    assert np.allclose(stack.angle, [math.acos(3.0 / 5.0), math.pi / 2.0])
    assert np.allclose(stack.gain, [5.0 ** (-1.0), 4.0 ** (-1.0)])


def test_geometry_params_guards_coincidence():
    with pytest.raises(DegenerateGeometry):
        geometry_params([1.0, 1.0], [1.0, 1.0], -2.0)


def test_effective_noise_variance_formula():
    config = shipped_scenario()
    kb, ku = config.rician_factor_br, config.rician_factor_ru
    br = np.array([0.5, 0.25])
    ru = np.array([0.1, 0.2])
    frac = (1.0 + kb + ku) / ((1.0 + kb) * (1.0 + ku))
    want = config.noise_variance + config.transmit_power * frac * float(
        np.sum((br * ru) ** 2)
    )
    assert effective_noise_variance(config, br, ru) == pytest.approx(want)


def test_cascade_consistency_with_parameters():
    """Rebuilding the cascade from its own reported parameters reproduces it."""
    config = shipped_scenario()
    traj = static_trajectory(config)
    for t in range(config.num_steps):
        for k in range(config.num_users):
            chan = cascaded_channel(config, traj, t, k)
            rebuilt = cascade_from_parameters(
                config, traj, t, k, chan.ru_angles, chan.ru_gains
            )
            assert np.allclose(rebuilt, chan.vector, rtol=1e-12, atol=1e-15)


def test_cascade_linear_in_gains():
    config = shipped_scenario()
    traj = static_trajectory(config)
    chan = cascaded_channel(config, traj, 0, 0)
    doubled = cascade_from_parameters(
        config, traj, 0, 0, chan.ru_angles, 2.0 * chan.ru_gains
    )
    assert np.allclose(doubled, 2.0 * chan.vector, rtol=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    phase_style=st.sampled_from(["aligned", "random", "explicit"]),
)
def test_channel_jacobian_matches_finite_difference(seed, phase_style):
    config, traj = random_scenario(
        np.random.default_rng(seed), num_steps=2, phase_style=phase_style
    )
    for k in range(config.num_users):
        chan = cascaded_channel(config, traj, 1, k)
        jac = channel_jacobian(config, traj, 1, k)
        R = config.num_ris
        params = np.concatenate([chan.ru_angles, chan.ru_gains])
        fd = np.zeros((config.n_bs_antennas, 2 * R), dtype=complex)
        for i in range(2 * R):
            h = 1e-7 * max(1.0, abs(params[i]))
            up, dn = params.copy(), params.copy()
            up[i] += h
            dn[i] -= h
            fd[:, i] = (
                cascade_from_parameters(config, traj, 1, k, up[:R], up[R:])
                - cascade_from_parameters(config, traj, 1, k, dn[:R], dn[R:])
            ) / (2 * h)
        err = np.linalg.norm(jac.matrix - fd) / np.linalg.norm(fd)
        assert err < 1e-6


def _reference_phases(config, traj, t, i):
    """Phase row of surface i at step t, resolved for that surface alone."""
    profile = config.ris_phase_profiles
    n_r = config.n_ris_elements
    if isinstance(profile, ExplicitPhases):
        return profile.values[t, i]
    if isinstance(profile, RandomPhases):
        return profile.values_for(t, i, n_r)
    _, aoa, _ = config.bs_ris_geometry()
    served = geometry_params(
        config.ris_positions[i],
        traj.position(t, i % config.num_users),
        config.path_loss_exponent,
    )
    return np.pi * np.arange(n_r) * (math.cos(aoa[i]) - math.cos(served.angle))


@pytest.mark.parametrize("phase_style", ["aligned", "random", "explicit"])
def test_phase_stack_matches_per_surface_reference(rng, phase_style):
    """Each row of the phase stack drives its own surface's reflection, and
    the cascade is the per-surface sum of the reflected paths."""
    config, traj = random_scenario(
        rng, num_users=3, num_ris=4, phase_style=phase_style
    )
    aod, aoa, br_gains = config.bs_ris_geometry()
    kb, ku = config.rician_factor_br, config.rician_factor_ru
    mix = math.sqrt(kb * ku / ((1.0 + kb) * (1.0 + ku)))
    n_b, n_r = config.n_bs_antennas, config.n_ris_elements
    for t in range(config.num_steps):
        phases = resolve_phases(config, traj, t)
        assert phases.shape == (config.num_ris, n_r)
        for i in range(config.num_ris):
            assert np.allclose(
                phases[i], _reference_phases(config, traj, t, i), rtol=1e-12, atol=1e-12
            )
        for k in range(config.num_users):
            chan = cascaded_channel(config, traj, t, k)
            want_vector = np.zeros(n_b, dtype=complex)
            for i in range(config.num_ris):
                geo = geometry_params(
                    config.ris_positions[i],
                    traj.position(t, k),
                    config.path_loss_exponent,
                )
                want = np.vdot(
                    steering_vector(aoa[i], n_r),
                    np.exp(1j * phases[i]) / math.sqrt(n_r)
                    * steering_vector(geo.angle, n_r),
                )
                assert chan.reflection[i] == pytest.approx(want, rel=1e-12)
                want_vector += (
                    mix * br_gains[i] * geo.gain * want * steering_vector(aod[i], n_b)
                )
            assert rel_frobenius(chan.vector, want_vector) <= 1e-12


def test_aligned_phases_maximise_served_reflection(rng):
    """The aligned policy should beat any random phase draw for its user."""
    config = shipped_scenario()
    traj = static_trajectory(config)
    aligned = cascaded_channel(config, traj, 0, 0)
    n_r = config.n_ris_elements
    # surfaces 0 and 2 serve user 0 (round robin), so their responses peak
    for i in (0, 2):
        assert abs(aligned.reflection[i]) == pytest.approx(math.sqrt(n_r), rel=1e-9)
    for seed in range(30):
        shuffled = dataclasses.replace(
            config, ris_phase_profiles=RandomPhases(seed=seed)
        )
        rand = cascaded_channel(shuffled, traj, 0, 0)
        for i in (0, 2):
            assert abs(rand.reflection[i]) <= abs(aligned.reflection[i]) + 1e-9


def test_resolve_phases_explicit_passthrough():
    base = shipped_scenario()
    values = np.random.default_rng(1).uniform(
        0.0, 2 * math.pi, size=(base.num_steps, base.num_ris, base.n_ris_elements)
    )
    config = dataclasses.replace(base, ris_phase_profiles=ExplicitPhases(values))
    traj = static_trajectory(config)
    got = resolve_phases(config, traj, 1)
    assert np.array_equal(got, values[1])


def test_resolve_phases_random_deterministic():
    config = dataclasses.replace(
        shipped_scenario(), ris_phase_profiles=RandomPhases(seed=42)
    )
    traj = static_trajectory(config)
    a = resolve_phases(config, traj, 0)
    b = resolve_phases(config, traj, 0)
    c = resolve_phases(config, traj, 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[1], c[1])
    assert not np.array_equal(a[0], a[1])


def test_random_scenario_jacobians_stay_regular(rng):
    """The spread-bearing generator must keep every link differentiable."""
    for _ in range(10):
        config, traj = random_scenario(rng)
        for t in range(config.num_steps):
            for k in range(config.num_users):
                jac = channel_jacobian(config, traj, t, k)
                assert np.all(np.isfinite(jac.matrix))
                assert np.linalg.norm(jac.matrix) > 0.0
