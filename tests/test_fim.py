"""Fisher information assembly against Monte Carlo and brute-force oracles."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenario, rel_frobenius, shipped_scenario
from loctrack import channel
from loctrack.blocks import ChainEfim, block_index, block_slice, symmetrize
from loctrack.channel import channel_jacobian, geometry_params
from loctrack.errors import DegenerateGeometry, DimensionMismatch
from loctrack.fim import (
    assemble_efim,
    bcrb,
    marginal_efim,
    measurement_blocks_at,
    measurement_fim,
    position_jacobian,
    prior_fim,
)
from loctrack.scenario import (
    PRIOR_L1,
    AlignedPhases,
    RandomPhases,
    Trajectory,
    prior_model,
    sample_trajectory_ensemble,
    static_trajectory,
)


# ---------------------------------------------------------------------------
# position Jacobian


def test_position_jacobian_matches_finite_difference(rng):
    """Angle/gain derivatives against central differences of the geometry."""
    config, traj = random_scenario(rng, num_steps=2)
    R = config.num_ris
    h = 1e-4

    for k in range(config.num_users):
        base = traj.positions[1, k]

        def params_at(pos):
            out = np.zeros(2 * R)
            for i in range(R):
                geo = geometry_params(
                    config.ris_positions[i], pos, config.path_loss_exponent
                )
                out[i], out[R + i] = geo.angle, geo.gain
            return out

        analytic = position_jacobian(config, traj)[1, k]
        fd = np.zeros((2, 2 * R))
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd[axis] = (params_at(base + step) - params_at(base - step)) / (2 * h)
        assert rel_frobenius(analytic, fd) < 1e-6


def test_position_jacobian_rejects_axis_alignment():
    config = shipped_scenario()
    pos = np.broadcast_to(
        config.user_initial_positions, (config.num_steps, config.num_users, 2)
    ).copy()
    # put user 0 at the same height as surface 0: the arrival angle hits
    # the end of its range and loses its derivative
    pos[0, 0] = config.ris_positions[0] + np.array([7.0, 0.0])

    with pytest.raises(DegenerateGeometry):
        position_jacobian(config, Trajectory(pos))


# ---------------------------------------------------------------------------
# measurement information


def channel_info(config, traj, t, k):
    """Lambda_eta = (2 P / sigma_eff) Re(J^H J) over the 2R channel parameters."""
    jac = channel_jacobian(config, traj, t, k)
    return symmetrize(
        (2.0 * config.transmit_power / jac.effective_noise_variance)
        * np.real(jac.matrix.conj().T @ jac.matrix)
    )


def test_measurement_fim_matches_score_covariance(rng):
    """Empirical covariance of the Gaussian-model score reproduces Lambda_D.

    Observation model: y = sqrt(P) h(eta) + n with complex circular noise of
    per-antenna variance sigma_eff. The score w.r.t. eta is
    (2 sqrt(P) / sigma_eff) Re(J^H n); mapped to position by the position
    Jacobian T_u, its covariance is the implemented T_u Lambda_eta T_u^T.
    """
    config = shipped_scenario().with_num_ris(3)
    traj = static_trajectory(config)
    lambda_d = measurement_fim(config, traj)
    t, k = 0, 1
    jac = channel_jacobian(config, traj, t, k)
    sigma = jac.effective_noise_variance
    power = config.transmit_power

    n_draws = 40_000
    noise = math.sqrt(sigma / 2.0) * (
        rng.standard_normal((config.n_bs_antennas, n_draws))
        + 1j * rng.standard_normal((config.n_bs_antennas, n_draws))
    )
    scores = (2.0 * math.sqrt(power) / sigma) * np.real(jac.matrix.conj().T @ noise)
    scores = position_jacobian(config, traj)[t, k] @ scores
    cov = scores @ scores.T / n_draws
    assert rel_frobenius(cov, lambda_d[t, k]) < 0.05


def test_measurement_blocks_are_jacobian_sandwich():
    config = shipped_scenario()
    traj = static_trajectory(config)
    lambda_d = measurement_fim(config, traj)
    for t in range(config.num_steps):
        for k in range(config.num_users):
            t_u = position_jacobian(config, traj)[t, k]
            want = t_u @ channel_info(config, traj, t, k) @ t_u.T
            assert np.allclose(lambda_d[t, k], want, rtol=1e-12, atol=1e-15)
            assert np.allclose(lambda_d[t, k], lambda_d[t, k].T)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    phase_style=st.sampled_from(["aligned", "random", "explicit"]),
    num_ris=st.integers(1, 4),
    num_users=st.integers(1, 3),
)
def test_measurement_kernel_matches_per_cell_sandwich(
    seed, phase_style, num_ris, num_users
):
    """Every kernel block is the per-cell T_u Lambda_eta T_u^T with the N_b
    axis summed explicitly; one step of the kernel is the same bits as the
    whole-trajectory call, and neither evaluates a channel Jacobian."""
    config, traj = random_scenario(
        np.random.default_rng(seed),
        num_users=num_users,
        num_ris=num_ris,
        phase_style=phase_style,
    )
    with mock.patch.object(
        channel, "channel_jacobian", wraps=channel.channel_jacobian
    ) as counted:
        lambda_d = measurement_fim(config, traj)
        per_step = [
            measurement_blocks_at(config, traj, t) for t in range(config.num_steps)
        ]
    assert counted.call_count == 0
    assert lambda_d.shape == (config.num_steps, config.num_users, 2, 2)
    t_u = position_jacobian(config, traj)
    for t in range(config.num_steps):
        assert np.array_equal(per_step[t], lambda_d[t])
        for k in range(config.num_users):
            want = t_u[t, k] @ channel_info(config, traj, t, k) @ t_u[t, k].T
            assert np.allclose(lambda_d[t, k], want, rtol=1e-12, atol=1e-15)


GUARD_MESSAGE = "surface-user distance 5.000e-04 m below guard 0.001 m"


def _on_surface_0_then_1(pos, ris):
    pos[1, 0] = ris[0] + [5e-4, 0.0]
    pos[2, 1] = ris[1]


def _axis_of_2_then_near_1(pos, ris):
    pos[1, 0] = ris[2] + [5.0, 0.0]
    pos[1, 1] = ris[1] + [5e-4, 0.0]


@pytest.mark.parametrize(
    "place, profile, message",
    [
        (_on_surface_0_then_1, AlignedPhases(), GUARD_MESSAGE),
        (_on_surface_0_then_1, RandomPhases(seed=3), GUARD_MESSAGE),
        (_axis_of_2_then_near_1, AlignedPhases(), GUARD_MESSAGE),
        (
            _axis_of_2_then_near_1,
            RandomPhases(seed=3),
            "user 0 on the array axis of surface 2 at step 1; "
            "the angle derivative is undefined there",
        ),
    ],
    ids=["guard-aligned", "guard-random", "served-guard-aligned", "axis-random"],
)
def test_measurement_fim_raises_first_cell_fault(place, profile, message):
    """Cell by cell: the user's guard, the aligned served-pair guard, then
    the array axis. The message reaches the manifest's failure list."""
    config = dataclasses.replace(
        shipped_scenario(num_steps=3), ris_phase_profiles=profile
    )
    pos = static_trajectory(config).positions.copy()
    place(pos, config.ris_positions)
    traj = Trajectory(pos)
    for evaluate in (
        lambda: measurement_fim(config, traj),
        lambda: measurement_blocks_at(config, traj, 1),
    ):
        with pytest.raises(DegenerateGeometry) as caught:
            evaluate()
        assert str(caught.value) == message


def test_measurement_fim_trajectory_shape_guard():
    config = shipped_scenario(num_steps=2)
    other = shipped_scenario(num_steps=3)
    with pytest.raises(DimensionMismatch):
        measurement_fim(config, static_trajectory(other))


# ---------------------------------------------------------------------------
# prior information: quadratic kind


def test_prior_spatial_rows_sum_to_zero_without_anchor(rng):
    config, _ = random_scenario(rng, num_users=3)
    pfim = prior_fim(prior_model(config, include_anchor=False))
    K = config.num_users
    for t in range(config.num_steps):
        slice_t = pfim.spatial_slices[t]
        for i in range(K):
            row = sum(
                slice_t[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] for j in range(K)
            )
            assert np.max(np.abs(row)) < 1e-12 * max(np.max(np.abs(slice_t)), 1.0)


def test_prior_anchor_folds_into_first_slice():
    config = shipped_scenario()
    with_anchor = prior_fim(prior_model(config, include_anchor=True))
    without = prior_fim(prior_model(config, include_anchor=False))
    anchor = 1.0 / config.first_step_anchor_variance
    K = config.num_users
    diff = with_anchor.spatial_slices[0] - without.spatial_slices[0]
    assert np.allclose(diff, anchor * np.eye(2 * K), atol=1e-15)
    assert np.allclose(
        with_anchor.spatial_slices[1], without.spatial_slices[1], atol=0
    )


def test_temporal_prior_is_block_tridiagonal_chain(rng):
    config, _ = random_scenario(rng, num_steps=4, num_users=2)
    pfim = prior_fim(prior_model(config))
    full = ChainEfim(np.zeros_like(pfim.spatial_slices), pfim.temporal).data
    T, K = config.num_steps, config.num_users
    # rows of the temporal chain sum to zero, exactly
    for t in range(T):
        for k in range(K):
            g = block_index(t, k, K)
            row = full[block_slice(g), :]
            sums = sum(
                row[:, 2 * h : 2 * h + 2] for h in range(T * K)
            )
            assert np.max(np.abs(sums)) < 1e-12 * max(np.max(np.abs(full)), 1.0)
    # nothing couples across more than one step or across users
    for t in range(T):
        for t2 in range(T):
            for k in range(K):
                for k2 in range(K):
                    blockval = full[
                        block_slice(block_index(t, k, K)),
                        block_slice(block_index(t2, k2, K)),
                    ]
                    if abs(t - t2) > 1 or (k != k2 and t != t2):
                        assert np.max(np.abs(blockval)) == 0.0
                    if k != k2:
                        assert np.max(np.abs(blockval)) == 0.0


def test_temporal_blocks_match_transition_precisions():
    config = shipped_scenario(num_steps=3)
    pfim = prior_fim(prior_model(config))
    for t in range(2):
        for k in range(config.num_users):
            want = np.linalg.inv(config.temporal_covariance[t][k])
            assert np.allclose(pfim.temporal[t, k], want, atol=1e-15)


# ---------------------------------------------------------------------------
# prior information: distance kind


def test_l1_prior_blocks_match_finite_difference_hessian():
    """Ensemble-averaged edge blocks equal the numerical pair-energy Hessian.

    The comparison runs over the same ensemble, so only the finite-difference
    error separates the two sides.
    """
    config = shipped_scenario(num_steps=2, num_users=2, prior_kind=PRIOR_L1)
    draws = sample_trajectory_ensemble(config, 400, seed=9, burn_in=150)
    pfim = prior_fim(prior_model(config), trajectory_ensemble=draws)

    t, i, j = 0, 0, 1
    c = config.spatial_precision[t][0]
    u = draws[:, t, i, :]
    v = draws[:, t, j, :]

    def pair_energy(uu, vv):
        return 0.5 * c * np.linalg.norm(uu - vv, axis=1)

    h = 1e-5
    fd = np.zeros((2, 2))
    eye = np.eye(2)
    for a in range(2):
        for b in range(2):
            fd[a, b] = np.mean(
                pair_energy(u + h * eye[a], v + h * eye[b])
                - pair_energy(u + h * eye[a], v - h * eye[b])
                - pair_energy(u - h * eye[a], v + h * eye[b])
                + pair_energy(u - h * eye[a], v - h * eye[b])
            ) / (4.0 * h * h)

    got = pfim.spatial_slices[t][2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
    assert rel_frobenius(got, fd) < 1e-4


def test_l1_prior_rows_still_sum_to_zero():
    config = shipped_scenario(num_steps=2, num_users=3, prior_kind=PRIOR_L1)
    draws = sample_trajectory_ensemble(config, 200, seed=2, burn_in=100)
    pfim = prior_fim(prior_model(config, include_anchor=False), draws)
    K = config.num_users
    for t in range(2):
        slice_t = pfim.spatial_slices[t]
        for i in range(K):
            row = sum(
                slice_t[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] for j in range(K)
            )
            assert np.max(np.abs(row)) < 1e-12 * max(np.max(np.abs(slice_t)), 1.0)


def test_l1_prior_requires_ensemble():
    config = shipped_scenario(prior_kind=PRIOR_L1)
    with pytest.raises(Exception) as info:
        prior_fim(prior_model(config))
    assert "ensemble" in str(info.value).lower()


# ---------------------------------------------------------------------------
# assembly, marginals, bound


def test_assembled_efim_is_sum_of_parts(rng):
    """x^T J x equals the measurement, edge, anchor and link energies of x."""
    config, traj = random_scenario(rng)
    T, K = config.num_steps, config.num_users
    lambda_d = measurement_fim(config, traj)
    efim = assemble_efim(lambda_d, prior_fim(prior_model(config)))
    anchor = 1.0 / config.first_step_anchor_variance

    def energy(pos):
        total = 0.0
        for t in range(T):
            for k in range(K):
                total += float(pos[t, k] @ lambda_d[t, k] @ pos[t, k])
            for (i, j), c in zip(config.spatial_edges[t], config.spatial_precision[t]):
                diff = pos[t, i] - pos[t, j]
                total += c * float(diff @ diff)
        for k in range(K):
            total += anchor * float(pos[0, k] @ pos[0, k])
        for t in range(T - 1):
            for k in range(K):
                gamma = np.linalg.inv(config.temporal_covariance[t][k])
                diff = pos[t + 1, k] - pos[t, k]
                total += float(diff @ gamma @ diff)
        return total

    base = rng.standard_normal((T, K, 2))
    for _ in range(5):
        dev = rng.standard_normal((T, K, 2))
        quad = float(dev.reshape(-1) @ efim.data @ dev.reshape(-1))
        polar = 0.5 * (energy(base + dev) + energy(base - dev) - 2.0 * energy(base))
        assert quad == pytest.approx(polar, rel=1e-12)


def test_marginal_efim_matches_inverse_route(rng):
    """Schur marginal equals the inverse of the inverse's diagonal block."""
    for _ in range(3):
        config, traj = random_scenario(rng)
        pfim = prior_fim(prior_model(config))
        efim = assemble_efim(measurement_fim(config, traj), pfim)
        inv = np.linalg.inv(efim.data)
        for t in range(config.num_steps):
            for k in range(config.num_users):
                g = block_index(t, k, config.num_users)
                want = np.linalg.inv(inv[block_slice(g), block_slice(g)])
                got = marginal_efim(efim, t, k)
                assert rel_frobenius(got, want) < 1e-9


def test_bcrb_traces_from_direct_inverse(rng):
    config, traj = random_scenario(rng)
    pfim = prior_fim(prior_model(config))
    efim = assemble_efim(measurement_fim(config, traj), pfim)
    result = bcrb(efim)
    inv = np.linalg.inv(efim.data)
    assert result.total == pytest.approx(float(np.trace(inv)), rel=1e-10)
    T, K = config.num_steps, config.num_users
    assert result.per_user.shape == (T, K)
    for t in range(T):
        for k in range(K):
            g = block_index(t, k, K)
            want = float(np.trace(inv[block_slice(g), block_slice(g)]))
            assert result.per_user[t, k] == pytest.approx(want, rel=1e-10)
