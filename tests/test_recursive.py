"""Per-step information recursion against batch algebra and closed forms."""

import math

import numpy as np
import numpy.linalg as npl
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenario, rel_frobenius, shipped_scenario
from loctrack.blocks import block_diag, neumann_diag_block, symmetrize
from loctrack.errors import DimensionMismatch, NotSpd
from loctrack.fim import assemble_efim, measurement_blocks_at, measurement_fim, prior_fim
from loctrack.recursive import (
    check_convergence,
    constant_inputs,
    inject_disturbance,
    iterate_to_convergence,
    recursive_step,
    run_recursion,
    stationary_point,
)
from loctrack.scenario import prior_model, static_trajectory


def random_spd(rng, side, cond_span=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((side, side)))
    spectrum = 10.0 ** rng.uniform(-cond_span / 2.0, cond_span / 2.0, size=side)
    return (q * spectrum) @ q.T


def batch_marginal_last_slice(config, trajectory, include_anchor):
    """Schur complement of the joint EFIM onto the final step's slice."""
    mfim = measurement_fim(config, trajectory)
    pfim = prior_fim(config, prior_model(config, include_anchor=include_anchor))
    joint = assemble_efim(mfim, pfim).data
    keep = 2 * config.num_users
    past = joint.shape[0] - keep
    a_pp = joint[:past, :past]
    a_pl = joint[:past, past:]
    a_ll = joint[past:, past:]
    return a_ll - a_pl.T @ npl.solve(a_pp, a_pl)


def check_user_marginals(state, num_users):
    """Each user's marginal efficiency D_k^{-1} ([J^{-1}]_kk)^{-1} on one step.

    Its spectrum lies in (0, 1] and, where the slice walk contracts (spectral
    radius below 0.99, so 10,000 terms reach 1e-10), it equals the Neumann
    series. Returns whether the walk contracted, i.e. whether the series ran.
    """
    covariance = npl.inv(state.efim)
    nominal_inv = npl.inv(state.nominal)
    # X = D^{-1} (O + G), with O + G = D - J
    walk = block_diag(nominal_inv) @ (block_diag(state.nominal) - state.efim)
    contracts = np.max(np.abs(npl.eigvals(walk))) < 0.99
    for k in range(num_users):
        rows = slice(2 * k, 2 * k + 2)
        marginal = symmetrize(npl.inv(covariance[rows, rows]))
        if contracts:
            total, _, converged = neumann_diag_block(walk, k, 10_000, 1e-10)
            assert converged
            series = npl.inv(np.eye(2) + total)
            assert rel_frobenius(series, nominal_inv[k] @ marginal) < 1e-7
        # the efficiency spectrum is that of the pencil (marginal, nominal)
        eigs = scipy.linalg.eigh(marginal, state.nominal[k], eigvals_only=True)
        assert np.all(eigs > 0.0)
        assert np.all(eigs <= 1.0 + 1e-10)
    return contracts


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), include_anchor=st.booleans())
def test_recursion_matches_batch_marginal(seed, include_anchor):
    """The forward filter reproduces the batch marginal on the last step,
    and every step's per-user marginals pass ``check_user_marginals``."""
    config, traj = random_scenario(np.random.default_rng(seed))
    states = run_recursion(config, traj, include_anchor=include_anchor)
    want = batch_marginal_last_slice(config, traj, include_anchor)
    assert rel_frobenius(states[-1].efim, want) < 1e-8
    for state in states:
        check_user_marginals(state, config.num_users)


def test_per_user_accessor_and_series():
    """The shipped toy at +30 dB: the last step's walk contracts, so both the
    series and the pencil spectrum are checked for every user."""
    config = shipped_scenario(num_steps=4).with_snr_offset_db(30.0)
    state = run_recursion(config, static_trajectory(config))[-1]
    assert check_user_marginals(state, config.num_users)


def test_first_step_has_no_carry(rng):
    config, traj = random_scenario(rng)
    states = run_recursion(config, traj)
    first = states[0]
    assert first.t == 0
    assert np.max(np.abs(first.temporal_carry)) == 0.0
    assert first.condition_satisfied
    assert math.isinf(first.slack)
    assert len(states) == config.num_steps
    for t, state in enumerate(states):
        assert state.t == t
        assert state.n_users == config.num_users


def test_recursive_step_shape_guards():
    lam = np.stack([np.eye(2)] * 2)
    with pytest.raises(DimensionMismatch):
        recursive_step(None, lam, np.eye(6), None)
    state = recursive_step(None, lam, np.eye(4), None)
    with pytest.raises(DimensionMismatch):
        recursive_step(state, lam, np.eye(4), None)


def test_check_convergence_directions():
    """Strong own-information satisfies the condition, weak violates it."""
    prev = 5.0 * np.eye(2)
    gamma = np.eye(2)[None, :, :]
    spatial = np.zeros((2, 2))
    strong = check_convergence(prev, 10.0 * np.eye(2)[None], spatial, gamma)
    assert strong.satisfied and strong.slack > 0.0
    weak = check_convergence(prev, 0.1 * np.eye(2)[None], spatial, gamma)
    assert not weak.satisfied and weak.slack < 0.0


def test_step_slack_matches_check_convergence(rng):
    """The slack recursive_step takes from its own pieces is check_convergence's."""
    config, traj = random_scenario(rng, num_steps=4)
    pfim = prior_fim(config, prior_model(config, include_anchor=False))
    states = run_recursion(config, traj)
    for t in range(1, config.num_steps):
        check = check_convergence(
            states[t - 1].efim,
            measurement_blocks_at(config, traj, t),
            pfim.spatial_slices[t],
            pfim.temporal[t - 1],
        )
        assert states[t].slack == check.slack
        assert states[t].condition_satisfied == check.satisfied


def test_stationary_point_residual(rng):
    for _ in range(30):
        side = int(rng.integers(1, 4)) * 2
        m = random_spd(rng, side)
        t_mat = random_spd(rng, side)
        point = stationary_point(m, t_mat)
        assert point.residual < 1e-10
        assert np.allclose(point.j_star, point.j_star.T)
        assert np.min(npl.eigvalsh(point.j_star)) > 0.0


def test_stationary_point_scalar_closed_form(rng):
    """1x1 case reduces to j = (m + sqrt(m^2 + 4 m tau)) / 2."""
    for _ in range(20):
        m = float(10.0 ** rng.uniform(-2, 2))
        tau = float(10.0 ** rng.uniform(-2, 2))
        point = stationary_point(np.array([[m]]), np.array([[tau]]))
        want = (m + math.sqrt(m * m + 4.0 * m * tau)) / 2.0
        assert point.j_star[0, 0] == pytest.approx(want, rel=1e-12)
    golden = stationary_point(np.array([[1.0]]), np.array([[1.0]]))
    assert golden.j_star[0, 0] == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)


def test_stationary_point_rejects_indefinite_inputs():
    with pytest.raises(NotSpd):
        stationary_point(-np.eye(2), np.eye(2))
    with pytest.raises(NotSpd):
        stationary_point(np.eye(2), np.diag([1.0, -1.0]))


def test_iteration_converges_to_closed_form(rng):
    """Random starts all land on the same fixed point as the closed form."""
    side = 4
    m = random_spd(rng, side)
    t_mat = random_spd(rng, side)
    point = stationary_point(m, t_mat)
    for _ in range(10):
        j0 = random_spd(rng, side)
        result = iterate_to_convergence(m, t_mat, j_init=j0, tol=1e-12)
        assert result.converged
        assert rel_frobenius(result.j_limit, point.j_star) < 1e-6


def test_constant_inputs_reproduce_manual_recursion():
    """constant_from_step runs exactly the frozen-slice fixed-point map."""
    config = shipped_scenario(num_steps=8)
    traj = static_trajectory(config)
    inputs = constant_inputs(config, traj, step=1)
    states = run_recursion(config, traj, constant_from_step=1)

    m_full = inputs.m_full
    t_full = inputs.t_full
    j = m_full.copy()
    assert rel_frobenius(states[0].efim, m_full) < 1e-12
    for t in range(1, config.num_steps):
        carry = t_full @ npl.solve(j + t_full, t_full)
        j = m_full + t_full - carry
        assert rel_frobenius(states[t].efim, j) < 1e-10
        j = states[t].efim


def test_constant_inputs_step_guards():
    config = shipped_scenario(num_steps=3)
    traj = static_trajectory(config)
    with pytest.raises(DimensionMismatch):
        constant_inputs(config, traj, step=3)
    short = shipped_scenario(num_steps=1)
    with pytest.raises(DimensionMismatch):
        constant_inputs(short, static_trajectory(short))


def test_disturbance_scales_only_listed_steps():
    config = shipped_scenario(num_steps=5)
    traj = static_trajectory(config)
    clean = run_recursion(config, traj)
    hit = run_recursion(config, traj, disturbance_steps=(2,), disturbance_scale=0.25)

    assert np.allclose(hit[0].efim, clean[0].efim)
    assert np.allclose(hit[1].efim, clean[1].efim)
    lam = measurement_blocks_at(config, traj, 2)
    diff = clean[2].nominal - hit[2].nominal
    assert np.allclose(diff, 0.75 * lam, rtol=1e-10, atol=1e-12)
    # later nominals are untouched, only the carried information differs
    assert np.allclose(hit[3].nominal, clean[3].nominal)
    assert not np.allclose(hit[3].efim, clean[3].efim)
    # a weakened step raises the achievable error there
    assert hit[2].bcrb_mean > clean[2].bcrb_mean


def test_inject_disturbance_rejects_negative_scale():
    config = shipped_scenario(num_steps=2)
    traj = static_trajectory(config)
    state = run_recursion(config, traj)[0]
    with pytest.raises(DimensionMismatch):
        inject_disturbance(state, -0.5)
    scaled = inject_disturbance(state, 0.0)
    assert scaled.next_measurement_scale == 0.0
