"""Per-step information recursion against batch algebra and closed forms."""

import dataclasses
import math
import re

import numpy as np
import numpy.linalg as npl
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    iterate_fixed_point,
    random_scenario,
    rel_frobenius,
    shipped_scenario,
    stepwise_recursion,
)
from loctrack.blocks import block_diag, neumann_diag_block, symmetrize
from loctrack.errors import DimensionMismatch, NotSpd, SingularState
from loctrack.fim import assemble_efim, measurement_blocks_at, measurement_fim, prior_fim
from loctrack.recursive import (
    LOEWNER_SLACK,
    StepInputs,
    constant_inputs,
    recursive_step,
    run_inputs,
    run_recursion,
    run_recursions,
    stationary_point,
    step_inputs,
)
from loctrack.scenario import prior_model, random_walk_trajectory, static_trajectory


def random_spd(rng, side, cond_span=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((side, side)))
    spectrum = 10.0 ** rng.uniform(-cond_span / 2.0, cond_span / 2.0, size=side)
    return (q * spectrum) @ q.T


def batch_marginal_last_slice(config, trajectory):
    """Schur complement of the joint EFIM onto the final step's slice, under
    the prior without the first-step anchor (as the recursion runs)."""
    lambda_d = measurement_fim(config, trajectory)
    pfim = prior_fim(prior_model(config, include_anchor=False))
    joint = assemble_efim(lambda_d, pfim).data
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
@given(seed=st.integers(0, 2**32 - 1))
def test_recursion_matches_batch_marginal(seed):
    """The forward filter reproduces the batch marginal on the last step,
    and every step's per-user marginals pass ``check_user_marginals``."""
    config, traj = random_scenario(np.random.default_rng(seed))
    states = run_recursion(config, traj)
    want = batch_marginal_last_slice(config, traj)
    assert rel_frobenius(states[-1].efim, want) < 1e-8
    for state in states:
        check_user_marginals(state, config.num_users)


def reference_recursion(config, traj, constant_from_step, disturbed, scale):
    """The recursion written out from the per-step formulas, every step
    building its own D_t, O_t, D_t^{-1} and Gamma. Returns one tuple
    (efim, nominal, carry, bcrb_mean, eoc_mean, satisfied, slack) per step."""
    K = config.num_users
    own = np.kron(np.eye(K), np.ones((2, 2))) > 0
    eye = np.eye(2 * K)
    if constant_from_step is None:
        pfim = prior_fim(prior_model(config, include_anchor=False))
    else:
        frozen = constant_inputs(config, traj, step=constant_from_step)
    out = []
    prev = None
    for t in range(config.num_steps):
        if constant_from_step is None:
            lam = measurement_blocks_at(config, traj, t)
            spatial = pfim.spatial_slices[t]
            gamma = pfim.temporal[t - 1] if t else np.zeros((K, 2, 2))
        else:
            lam, spatial = frozen.lambda_d, frozen.spatial_slice
            gamma = frozen.gamma if t else np.zeros((K, 2, 2))
        lam = (scale if t in disturbed else 1.0) * lam
        own_spatial = [spatial[2 * k:2 * k + 2, 2 * k:2 * k + 2] for k in range(K)]
        nominal = lam + np.stack(own_spatial) + gamma
        nominal_full = scipy.linalg.block_diag(*nominal)
        off = np.where(own, 0.0, -spatial)
        if prev is None:
            carry = np.zeros((2 * K, 2 * K))
            satisfied, slack = True, math.inf
        else:
            gamma_full = scipy.linalg.block_diag(*gamma)
            inner = scipy.linalg.cho_factor(prev + gamma_full, lower=True)
            carry = gamma_full @ scipy.linalg.cho_solve(inner, gamma_full)
            carry = 0.5 * (carry + carry.T)
            diff = nominal_full - (prev + off + carry)
            eigs = npl.eigvalsh(0.5 * (diff + diff.T))
            slack = float(eigs[0])
            satisfied = slack >= -LOEWNER_SLACK * max(float(np.max(np.abs(eigs))), 1.0)
        efim = nominal_full - off - carry
        efim = 0.5 * (efim + efim.T)
        nominal_inv = scipy.linalg.block_diag(*[npl.inv(block) for block in nominal])
        eoc = float(np.trace(eye - nominal_inv @ (off + carry))) / (2 * K)
        chol = scipy.linalg.cho_factor(efim, lower=True)
        bcrb = float(np.trace(scipy.linalg.cho_solve(chol, eye))) / (2 * K)
        out.append((efim, nominal, carry, bcrb, eoc, satisfied, slack))
        prev = efim
    return out


@pytest.mark.parametrize("constant_from_step", [None, 1])
@pytest.mark.parametrize("scale", [0.0, 0.25, 1.0])
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(
    seed=st.integers(0, 2**32 - 1),
    later_disturbed=st.sets(st.integers(1, 4), max_size=3),
)
def test_prepared_steps_match_per_step_reference(
    constant_from_step, scale, seed, later_disturbed
):
    """``run_recursion`` equals the per-step formulas bit for bit, with the
    inputs frozen or not and with step 0 among the disturbed steps."""
    config, traj = random_scenario(np.random.default_rng(seed), num_steps=5)
    disturbed = {0} | later_disturbed
    kwargs = dict(
        constant_from_step=constant_from_step,
        disturbance_steps=sorted(disturbed),
        disturbance_scale=scale,
    )
    try:
        want = reference_recursion(config, traj, constant_from_step, disturbed, scale)
    except npl.LinAlgError:
        # one user has no spatial edge, so at scale 0 its first D_0 is 0
        with pytest.raises(SingularState):
            run_recursion(config, traj, **kwargs)
        return
    states = run_recursion(config, traj, **kwargs)
    assert len(states) == len(want)
    for state, (efim, nominal, carry, bcrb, eoc, satisfied, slack) in zip(states, want):
        assert np.array_equal(state.efim, efim)
        assert np.array_equal(state.nominal, nominal)
        assert np.array_equal(state.temporal_carry, carry)
        assert state.bcrb_mean == bcrb
        assert state.eoc_mean == eoc
        assert state.slack == slack
        assert state.condition_satisfied == satisfied


def bits(value) -> tuple | None:
    """Shape and raw bytes of an array or float (None stays None)."""
    return None if value is None else (np.shape(value), np.asarray(value).tobytes())


def repeated_steps(states) -> list[int]:
    """Steps whose state ``run_recursion`` repeated instead of stepping."""
    return [t for t in range(1, len(states)) if states[t].efim is states[t - 1].efim]


# track-long's settings: +70 dB, constant from step 2, steps 21 and 22 (1-based)
# at 0.1; J reaches a bitwise fixed point at steps 50-300 of 1,000.
LONG_DISTURBED = (20, 21)


@pytest.mark.parametrize(
    "sigma_t, constant, late, num_steps",
    [
        (1.0, True, (), 1000),
        (100.0, True, (), 1000),
        (1.0, True, (699,), 1000),
        (100.0, True, (699,), 1000),
        (100.0, False, (), 300),
    ],
    ids=["constant-1", "constant-100", "late-disturbance-1", "late-disturbance-100", "varying"],
)
def test_fixed_point_repeats_match_the_stepwise_oracle(sigma_t, constant, late, num_steps):
    """Every field of every state equals the oracle's, which calls
    ``recursive_step`` at every step. Constant inputs reach the fixed point
    and repeat it; a later disturbed step, and the steps after it up to the
    next fixed point, step again; inputs that change every step never
    repeat a state."""
    config = shipped_scenario("paper_baseline_long", num_steps=num_steps)
    config = config.with_snr_offset_db(70.0).with_temporal_precision(sigma_t)
    traj = random_walk_trajectory(config, 91)
    kwargs = dict(
        constant_from_step=1 if constant else None,
        disturbance_steps=LONG_DISTURBED + late,
        disturbance_scale=0.1,
    )
    states = run_recursion(config, traj, **kwargs)
    want = stepwise_recursion(config, traj, **kwargs)
    assert len(states) == len(want) == config.num_steps
    for state, ref in zip(states, want):
        assert state.t == ref.t
        for name in ("efim", "temporal_carry", "previous_efim", "bcrb_mean", "eoc_mean"):
            assert bits(getattr(state, name)) == bits(getattr(ref, name)), (state.t, name)
        for field in dataclasses.fields(StepInputs):
            got, ref_input = getattr(state.inputs, field.name), getattr(ref.inputs, field.name)
            assert bits(got) == bits(ref_input), (state.t, field.name)
        assert bits(state.slack) == bits(ref.slack)
        assert state.condition_satisfied == ref.condition_satisfied

    repeated = repeated_steps(states)
    if not constant:
        assert repeated == []
        return
    stepped = sorted(set(range(config.num_steps)) - set(repeated))
    assert len(stepped) < config.num_steps // 2
    for t in LONG_DISTURBED + late:
        assert {t, t + 1} <= set(stepped)
        assert max(repeated) > t + 1
    if late:
        assert min(repeated) < late[0]


def stacked(runs, num_steps, **kwargs):
    """``run_recursions`` over ``runs``: its (2T, runs) output, its failures
    and the steps it stepped for each run."""
    out = np.empty((2 * num_steps, len(runs)))
    stepped = [[] for _ in runs]

    def record(t, idx, inputs, efim, carry):
        for i in idx:
            stepped[i].append(t)

    failed = run_recursions(runs, out, on_step=record, **kwargs)
    return out, failed, stepped


def oracle_column(config, trajectory, constant_from_step, **kwargs):
    """The stepwise oracle's (bcrb_mean, eoc_mean) per step, interleaved as
    ``run_recursions`` writes them."""
    states = stepwise_recursion(config, trajectory, constant_from_step, **kwargs)
    return np.array([x for s in states for x in (s.bcrb_mean, s.eoc_mean)])


def error_of(call):
    """(type, message) of what ``call`` raises, or None."""
    try:
        call()
    except (SingularState, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("constant_from_step", [None, 1])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
    precisions=st.lists(st.sampled_from([0.5, 10.0]), min_size=4, max_size=4),
    offset=st.sampled_from([0.0, 70.0]),
    disturbed=st.sets(st.integers(0, 39), max_size=3),
    scale=st.sampled_from([0.0, 0.1, 1.0]),
)
def test_a_batch_of_runs_equals_each_run_alone_and_the_oracle(
    constant_from_step, seeds, precisions, offset, disturbed, scale
):
    """Stacking runs changes no run's numbers: each column of a batch of S
    equals that run's batch of 1 and the stepwise oracle bit for bit, at
    every step, through the disturbed steps and the fixed-point repeats
    (the toy at +70 dB lands on its fixed point within about 30 steps, each
    run at its own step). A run that fails, fails alone with the oracle's
    error."""
    base = shipped_scenario(num_steps=40).with_snr_offset_db(offset)
    configs = [base.with_spatial_precision(p) for p in precisions[:len(seeds)]]
    trajectories = [random_walk_trajectory(c, seed) for c, seed in zip(configs, seeds)]
    runs = [run_inputs(c, tr, constant_from_step) for c, tr in zip(configs, trajectories)]
    kwargs = dict(disturbance_steps=sorted(disturbed), disturbance_scale=scale)
    out, failed, stepped = stacked(runs, 40, **kwargs)
    for i, (config, trajectory) in enumerate(zip(configs, trajectories)):
        alone, alone_failed, alone_stepped = stacked([runs[i]], 40, **kwargs)
        want = error_of(lambda: stepwise_recursion(config, trajectory, constant_from_step, **kwargs))
        if want is not None:
            assert (type(failed[i]), str(failed[i])) == want
            assert (type(alone_failed[0]), str(alone_failed[0])) == want
            continue
        assert i not in failed and alone_failed == {}
        assert out[:, i].tobytes() == alone[:, 0].tobytes()
        assert out[:, i].tobytes() == oracle_column(
            config, trajectory, constant_from_step, **kwargs).tobytes()
        assert stepped[i] == alone_stepped[0]


@pytest.mark.parametrize("late", [(), (699,)], ids=["settled", "late-disturbance"])
def test_stacked_long_runs_repeat_their_own_fixed_points(late):
    """track-long's settings on four runs of two temporal precisions: every
    column equals the stepwise oracle bit for bit, each run leaves the
    stack at its own fixed point, and a disturbed step steps every run
    again."""
    base = shipped_scenario("paper_baseline_long").with_snr_offset_db(70.0)
    configs = [base.with_temporal_precision(p) for p in (1.0, 100.0, 1.0, 100.0)]
    trajectories = [random_walk_trajectory(c, seed) for c, seed in zip(configs, (91, 91, 5, 6))]
    runs = [run_inputs(c, tr, 1) for c, tr in zip(configs, trajectories)]
    kwargs = dict(disturbance_steps=LONG_DISTURBED + late, disturbance_scale=0.1)
    out, failed, stepped = stacked(runs, 1000, **kwargs)
    assert failed == {}
    for i, (config, trajectory) in enumerate(zip(configs, trajectories)):
        assert out[:, i].tobytes() == oracle_column(config, trajectory, 1, **kwargs).tobytes()
        assert len(stepped[i]) < 500
        for t in LONG_DISTURBED + late:
            assert {t, t + 1} <= set(stepped[i])
    last_before = [max(t for t in steps if t < 699) for steps in stepped]
    assert len(set(last_before)) > 1


def test_state_arrays_are_read_only():
    """``efim`` and ``temporal_carry`` are shared by the states that repeat a
    fixed point, so no caller may write into them."""
    lam = np.stack([np.eye(2)] * 2)
    first = recursive_step(None, step_inputs(0, lam, np.eye(4), None))
    second = recursive_step(first, step_inputs(1, lam, np.eye(4), lam))
    for state in (first, second):
        for array in (state.efim, state.temporal_carry):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] += 1.0


def test_slack_is_computed_on_first_read(monkeypatch):
    """``run_recursion`` runs no eigen-check; the first read of ``slack`` runs
    it once per step after the first (a second read reuses it), and it
    equals the per-step formulas."""
    config, traj = random_scenario(np.random.default_rng(5), num_steps=5)
    want = reference_recursion(config, traj, None, set(), 1.0)
    calls = []
    real = npl.eigvalsh
    monkeypatch.setattr(npl, "eigvalsh", lambda a: calls.append(a) or real(a))
    states = run_recursion(config, traj)
    assert calls == []
    for state, (*_, satisfied, slack) in zip(states, want):
        assert state.slack == slack
        assert state.condition_satisfied == satisfied
        assert state.slack == slack
    assert len(calls) == config.num_steps - 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_step_input_raises_value_error(bad):
    """A non-finite EFIM is rejected before the factorisation, which would
    take a NaN diagonal as positive, so no NaN ``bcrb_mean`` comes out."""
    lam = np.stack([np.eye(2)] * 2)
    poisoned = lam.copy()
    poisoned[0, 0, 0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        recursive_step(None, step_inputs(0, poisoned, np.eye(4), None))
    first = recursive_step(None, step_inputs(0, lam, np.eye(4), None))
    with pytest.raises(ValueError, match="infs or NaNs"):
        recursive_step(first, step_inputs(1, poisoned, np.eye(4), lam))


@pytest.mark.parametrize(
    "case, message",
    [
        ("indefinite-carry", "temporal carry: J_{t-1} + Gamma is not positive definite"),
        ("lost-positivity", "recursive EFIM at step 1 lost positivity"),
    ],
    ids=["indefinite-carry", "lost-positivity"],
)
def test_singular_step_raises_singular_state(case, message):
    """A predecessor whose J_{t-1} + Gamma is indefinite fails the carry's
    factorisation (J_{t-1} = -2 Gamma, which an LU solve would carry as
    -Gamma), and a step whose J_t is not positive definite fails the
    bound's; both raise SingularState naming what failed."""
    lam = gamma = np.stack([np.eye(2)] * 2)
    first = recursive_step(None, step_inputs(0, lam, np.eye(4), None))
    if case == "indefinite-carry":
        prev, spatial = dataclasses.replace(first, efim=-2.0 * block_diag(gamma)), np.eye(4)
    else:
        prev, spatial = first, -10.0 * np.eye(4)
    with pytest.raises(SingularState, match=re.escape(message)):
        recursive_step(prev, step_inputs(1, lam, spatial, gamma))


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
        assert state.nominal.shape[0] == config.num_users


def test_recursive_step_shape_guards():
    lam = np.stack([np.eye(2)] * 2)
    with pytest.raises(DimensionMismatch):
        step_inputs(0, lam, np.eye(6), None)
    first = step_inputs(0, lam, np.eye(4), None)
    later = step_inputs(1, lam, np.eye(4), np.stack([np.eye(2)] * 2))
    with pytest.raises(DimensionMismatch):
        recursive_step(None, later)
    state = recursive_step(None, first)
    with pytest.raises(DimensionMismatch):
        recursive_step(state, first)


def test_check_convergence_directions():
    """Strong own-information satisfies the condition, weak violates it."""
    spatial = np.zeros((2, 2))
    prev = recursive_step(None, step_inputs(0, 5.0 * np.eye(2)[None], spatial, None))
    gamma = np.eye(2)[None, :, :]
    strong = recursive_step(prev, step_inputs(1, 10.0 * np.eye(2)[None], spatial, gamma))
    assert strong.condition_satisfied and strong.slack > 0.0
    weak = recursive_step(prev, step_inputs(1, 0.1 * np.eye(2)[None], spatial, gamma))
    assert not weak.condition_satisfied and weak.slack < 0.0


def test_step_slack_matches_check_convergence(rng):
    """Each step's slack is the smallest eigenvalue of
    D_t - J_{t-1} - O_t - G_{t-1}, built here from the step's inputs."""
    config, traj = random_scenario(rng, num_steps=4, num_users=3)
    K = config.num_users
    pfim = prior_fim(prior_model(config, include_anchor=False))
    states = run_recursion(config, traj)
    own = np.kron(np.eye(K), np.ones((2, 2))) > 0
    for t in range(1, config.num_steps):
        spatial = pfim.spatial_slices[t]
        gamma = scipy.linalg.block_diag(*pfim.temporal[t - 1])
        lam = scipy.linalg.block_diag(*measurement_blocks_at(config, traj, t))
        nominal = lam + np.where(own, spatial, 0.0) + gamma
        off = np.where(own, 0.0, -spatial)
        prev = states[t - 1].efim
        carry = gamma @ npl.solve(prev + gamma, gamma)
        diff = nominal - prev - off - carry
        eigs = npl.eigvalsh(0.5 * (diff + diff.T))
        scale = max(float(np.max(np.abs(eigs))), 1.0)
        assert abs(states[t].slack - eigs[0]) <= 1e-12 * scale
        assert states[t].condition_satisfied == (eigs[0] >= -LOEWNER_SLACK * scale)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), side=st.integers(1, 6))
def test_stationary_point_residual(seed, side):
    """The closed-form J* solves the Riccati equation for random SPD pairs."""
    rng = np.random.default_rng(seed)
    point = stationary_point(random_spd(rng, side), random_spd(rng, side))
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
        j_limit = iterate_fixed_point(m, t_mat, j0)
        assert rel_frobenius(j_limit, point.j_star) < 1e-6


def test_constant_inputs_reproduce_manual_recursion():
    """constant_from_step runs exactly the frozen-slice fixed-point map."""
    config = shipped_scenario(num_steps=8)
    traj = static_trajectory(config)
    inputs = constant_inputs(config, traj, step=1)
    states = run_recursion(config, traj, constant_from_step=1)

    m_full = inputs.m_full
    t_full = inputs.gamma_full
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
    """A negative scale is rejected; scale 0 drops the step's measurement."""
    config = shipped_scenario(num_steps=2)
    traj = static_trajectory(config)
    with pytest.raises(DimensionMismatch):
        run_recursion(config, traj, disturbance_steps=(1,), disturbance_scale=-0.5)
    clean = run_recursion(config, traj)
    dropped = run_recursion(config, traj, disturbance_steps=(1,), disturbance_scale=0.0)
    assert np.array_equal(dropped[0].efim, clean[0].efim)
    lam = measurement_blocks_at(config, traj, 1)
    diff = clean[1].nominal - dropped[1].nominal
    assert np.allclose(diff, lam, rtol=1e-10, atol=1e-12)
