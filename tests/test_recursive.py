"""Per-step information recursion against batch algebra and closed forms."""

import math

import numpy as np
import numpy.linalg as npl
import pytest
import scipy.linalg

from conftest import random_scenario, rel_frobenius
from loctrack.errors import DimensionMismatch, NotSpd
from loctrack.fim import assemble_efim, measurement_blocks_at, measurement_fim, prior_fim
from loctrack.recursive import (
    check_convergence,
    constant_inputs,
    inject_disturbance,
    iterate_to_convergence,
    per_user_recursive,
    per_user_series,
    recursive_step,
    run_recursion,
    states_to_csv,
    stationary_point,
)
from loctrack.scenario import prior_model, static_trajectory, toy_scenario


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


def test_recursion_matches_batch_marginal(rng):
    """The forward filter reproduces the batch marginal on the last step."""
    for include_anchor in (False, True):
        for _ in range(4):
            config, traj = random_scenario(rng)
            states = run_recursion(config, traj, include_anchor=include_anchor)
            want = batch_marginal_last_slice(config, traj, include_anchor)
            assert rel_frobenius(states[-1].efim, want) < 1e-8


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


def test_iteration_histories(rng):
    m = random_spd(rng, 4)
    t_mat = random_spd(rng, 4)
    plain = iterate_to_convergence(m, t_mat)
    assert plain.eoc_history is None
    assert plain.bcrb_history.shape == (plain.steps,)
    off = np.zeros((4, 4))
    off[0:2, 2:4] = 0.05 * np.eye(2)
    off[2:4, 0:2] = 0.05 * np.eye(2)
    tracked = iterate_to_convergence(m, t_mat, spatial_off=off)
    assert tracked.eoc_history is not None
    assert tracked.eoc_history.shape == (tracked.steps,)
    assert 0.0 < tracked.eoc_history[-1] <= 1.0 + 1e-12


def test_constant_inputs_reproduce_manual_recursion():
    """constant_from_step runs exactly the frozen-slice fixed-point map."""
    config = toy_scenario(num_steps=8)
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
    config = toy_scenario(num_steps=3)
    traj = static_trajectory(config)
    with pytest.raises(DimensionMismatch):
        constant_inputs(config, traj, step=3)
    short = toy_scenario(num_steps=1)
    with pytest.raises(DimensionMismatch):
        constant_inputs(short, static_trajectory(short))


def test_disturbance_scales_only_listed_steps():
    config = toy_scenario(num_steps=5)
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
    config = toy_scenario(num_steps=2)
    traj = static_trajectory(config)
    state = run_recursion(config, traj)[0]
    with pytest.raises(DimensionMismatch):
        inject_disturbance(state, -0.5)
    scaled = inject_disturbance(state, 0.0)
    assert scaled.next_measurement_scale == 0.0


def test_per_user_accessor_and_series():
    config = toy_scenario(num_steps=4).with_snr_offset_db(30.0)
    traj = static_trajectory(config)
    state = run_recursion(config, traj)[-1]
    with pytest.raises(DimensionMismatch):
        per_user_recursive(state, config.num_users)
    for k in range(config.num_users):
        user = per_user_recursive(state, k)
        direct = user.efficiency
        series = per_user_series(state, k)
        assert rel_frobenius(series, direct) < 1e-7
        # efficiency spectrum is that of the pencil (marginal, nominal)
        eigs = scipy.linalg.eigh(user.efim, user.nominal, eigvals_only=True)
        assert np.all(eigs > 0.0)
        assert np.all(eigs <= 1.0 + 1e-10)


def test_states_to_csv_round_trip(tmp_path):
    config = toy_scenario(num_steps=4)
    traj = static_trajectory(config)
    states = run_recursion(config, traj)
    path = tmp_path / "states.csv"
    states_to_csv(states, str(path))
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "t,bcrb_mean,eoc_mean,condition_satisfied,slack"
    assert len(lines) == 1 + len(states)
    for state, line in zip(states, lines[1:]):
        t, bcrb, eoc, flag, slack = line.split(",")
        assert int(t) == state.t + 1
        assert float(bcrb) == state.bcrb_mean
        assert float(eoc) == state.eoc_mean
        assert flag in ("true", "false")
        assert (flag == "true") == state.condition_satisfied
