"""Scenario configuration, priors, sampling, and serialisation."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import random_scenario
from loctrack.errors import (
    DegenerateGeometry,
    DimensionMismatch,
    NotGaussian,
    SchemaMismatch,
)
from loctrack.scenario import (
    PRIOR_L1,
    PRIOR_L2,
    AlignedPhases,
    ExplicitPhases,
    RandomPhases,
    baseline_scenario,
    check_separation,
    complete_graph_edges,
    joint_precision,
    load_scenario,
    make_trajectory,
    prior_model,
    random_walk_trajectory,
    sample_trajectory_ensemble,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    static_trajectory,
    toy_scenario,
    uniform_spatial_prior,
    validate,
)


# ---------------------------------------------------------------------------
# config construction and validation


def test_complete_graph_edges_count():
    assert complete_graph_edges(1) == ()
    assert complete_graph_edges(2) == ((0, 1),)
    assert set(complete_graph_edges(3)) == {(0, 1), (0, 2), (1, 2)}


def test_uniform_spatial_prior_shapes():
    edges, prec = uniform_spatial_prior(3, 3, 7.0)
    assert len(edges) == 3 and len(prec) == 3
    for step_edges, step_prec in zip(edges, prec):
        assert len(step_edges) == 3
        assert all(p == 7.0 for p in step_prec)


def test_validate_flags_each_problem():
    good = toy_scenario()
    assert validate(good).ok
    bad = dataclasses.replace(good, noise_variance=-1.0)
    report = validate(bad)
    assert not report.ok
    assert any("noise" in v for v in report.violations)
    bad = dataclasses.replace(good, pilot_length=1)
    assert any("pilot" in v for v in validate(bad).violations)
    bad = dataclasses.replace(good, prior_kind="cauchy")
    assert any("prior-kind" in v for v in validate(bad).violations)


def test_snr_offset_scales_noise():
    config = toy_scenario()
    boosted = config.with_snr_offset_db(20.0)
    assert boosted.noise_variance == pytest.approx(config.noise_variance / 100.0)
    assert config.with_snr_offset_db(0.0).noise_variance == config.noise_variance


def test_with_num_ris_trims_prefix():
    config = baseline_scenario(num_steps=2)
    small = config.with_num_ris(2)
    assert small.num_ris == 2
    assert np.array_equal(small.ris_positions, config.ris_positions[:2])
    with pytest.raises(DimensionMismatch):
        config.with_num_ris(9)


def test_transition_precision_inverts_covariance():
    config = baseline_scenario(num_steps=3)
    cov = config.transition_covariance(1)
    prec = prior_model(config).transition_precisions[1]
    for k in range(config.num_users):
        assert np.allclose(cov[k] @ prec[k], np.eye(2), atol=1e-12)


def test_check_separation_raises_on_ris_collision():
    config = toy_scenario()
    pos = np.broadcast_to(
        config.user_initial_positions, (config.num_steps, config.num_users, 2)
    ).copy()
    pos[1, 0] = config.ris_positions[0]
    with pytest.raises(DegenerateGeometry):
        check_separation(config, pos)
    with pytest.raises(DegenerateGeometry):
        make_trajectory(config, pos)


# ---------------------------------------------------------------------------
# JSON round trips


def _assert_configs_equal(a, b):
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, np.asarray(vb)), field.name
        elif field.name == "ris_phase_profiles":
            assert type(va) is type(vb)
            if isinstance(va, ExplicitPhases):
                assert np.array_equal(va.values, vb.values)
            elif isinstance(va, RandomPhases):
                assert va.seed == vb.seed
        elif isinstance(va, tuple):
            assert np.array_equal(np.asarray(va, dtype=object), np.asarray(vb, dtype=object)) or va == vb, field.name
        else:
            assert va == vb, field.name


@pytest.mark.parametrize(
    "config",
    [
        toy_scenario(),
        toy_scenario(num_steps=3, num_users=3, num_ris=2, prior_kind=PRIOR_L1),
        baseline_scenario(num_steps=4),
        dataclasses.replace(toy_scenario(), first_step_anchor_variance=None),
        dataclasses.replace(
            toy_scenario(), ris_phase_profiles=RandomPhases(seed=99)
        ),
    ],
    ids=["toy", "toy-l1", "baseline", "no-anchor", "random-phases"],
)
def test_json_round_trip(config):
    back = scenario_from_json(scenario_to_json(config))
    _assert_configs_equal(config, back)


def test_json_round_trip_explicit_phases():
    base = toy_scenario()
    values = np.random.default_rng(3).uniform(
        0.0, 2.0 * math.pi, size=(base.num_steps, base.num_ris, base.n_ris_elements)
    )
    config = dataclasses.replace(base, ris_phase_profiles=ExplicitPhases(values))
    back = scenario_from_json(scenario_to_json(config))
    _assert_configs_equal(config, back)


def test_json_round_trip_per_step_precisions():
    base = toy_scenario(num_steps=3)
    edges = tuple(((0, 1),) for _ in range(3))
    prec = (((4.0),), ((5.0),), ((6.0),))
    config = dataclasses.replace(base, spatial_edges=edges, spatial_precision=prec)
    back = scenario_from_json(scenario_to_json(config))
    for t in range(3):
        assert back.edge_precisions_at(t) == config.edge_precisions_at(t)


def test_json_compact_forms_accepted():
    obj = scenario_to_json(toy_scenario(num_steps=3))
    # uniform spatial precision compacts to a scalar, and the step-constant
    # isotropic walk to a single number
    assert isinstance(obj["spatial-precision"], (int, float))
    assert isinstance(obj["temporal-covariance"], (int, float))
    back = scenario_from_json(obj)
    assert back.transition_covariance(1)[0][0, 0] == pytest.approx(0.1)


def test_json_missing_key_raises():
    obj = scenario_to_json(toy_scenario())
    obj.pop("noise-variance")
    with pytest.raises(SchemaMismatch):
        scenario_from_json(obj)


def test_save_load_round_trip(tmp_path):
    config = baseline_scenario(num_steps=3)
    path = tmp_path / "scenario.json"
    save_scenario(config, str(path))
    _assert_configs_equal(config, load_scenario(str(path)))
    # the file is deterministic: saving again produces identical bytes
    first = path.read_bytes()
    save_scenario(config, str(path))
    assert path.read_bytes() == first


# ---------------------------------------------------------------------------
# prior model and joint precision


def test_prior_model_anchor_toggle():
    config = toy_scenario()
    with_anchor = prior_model(config, include_anchor=True)
    without = prior_model(config, include_anchor=False)
    assert with_anchor.include_anchor and not without.include_anchor
    assert with_anchor.anchor_precision == pytest.approx(
        1.0 / config.first_step_anchor_variance
    )


def test_joint_precision_matches_quadratic_form(rng):
    """The joint precision must reproduce the energy of explicit deviations."""
    config = toy_scenario(num_steps=3, num_users=2)
    precision = joint_precision(config).data
    anchor = 1.0 / config.first_step_anchor_variance

    def energy(pos):
        total = 0.0
        for k in range(2):
            diff = pos[0, k] - config.user_initial_positions[k]
            total += anchor * float(diff @ diff)
        for t in range(3):
            for (i, j), c in zip(config.edges_at(t), config.edge_precisions_at(t)):
                diff = pos[t, i] - pos[t, j]
                total += c * float(diff @ diff)
        for t in range(2):
            for k in range(2):
                prec = np.linalg.inv(config.transition_covariance(t)[k])
                diff = pos[t + 1, k] - pos[t, k]
                total += float(diff @ prec @ diff)
        return total

    # energy(x) = x^T P x - 2 b^T x + c0, so the pure quadratic part comes
    # out of the polarisation identity around any base point
    base = np.broadcast_to(config.user_initial_positions, (3, 2, 2)).copy()
    for _ in range(5):
        dev = rng.standard_normal((3, 2, 2))
        quad = float(dev.reshape(-1) @ precision @ dev.reshape(-1))
        polar = 0.5 * (energy(base + dev) + energy(base - dev) - 2.0 * energy(base))
        assert quad == pytest.approx(polar, rel=1e-9)


def test_joint_precision_rejects_l1():
    config = toy_scenario(prior_kind=PRIOR_L1)
    with pytest.raises(NotGaussian):
        joint_precision(config)


# ---------------------------------------------------------------------------
# sampling


def test_gaussian_ensemble_matches_precision():
    """Sample covariance and mean against the closed-form joint Gaussian."""
    config = toy_scenario(num_steps=2, num_users=2)
    count = 4000
    draws = sample_trajectory_ensemble(config, count, seed=11)
    assert draws.shape == (count, 2, 2, 2)
    flat = draws.reshape(count, -1)

    precision = joint_precision(config).data
    cov_want = np.linalg.inv(precision)
    cov_got = np.cov(flat.T)
    assert np.linalg.norm(cov_got - cov_want) / np.linalg.norm(cov_want) < 0.1

    # the mean solves precision @ mean = b where only the anchor contributes
    # a linear term; the spatial attraction then pulls every user towards
    # the centroid, so the mean is NOT the initial positions
    anchor = 1.0 / config.first_step_anchor_variance
    b = np.zeros((2, 2, 2))
    b[0] = anchor * config.user_initial_positions
    chol = cho_factor(precision, lower=True)
    mean_want = cho_solve(chol, b.reshape(-1))
    mean_got = flat.mean(axis=0)
    scatter = np.sqrt(np.diag(cov_want) / count)
    assert np.all(np.abs(mean_got - mean_want) < 6.0 * scatter + 1e-9)


def test_gaussian_ensemble_deterministic():
    config = toy_scenario(num_steps=2)
    a = sample_trajectory_ensemble(config, 16, seed=5)
    b = sample_trajectory_ensemble(config, 16, seed=5)
    c = sample_trajectory_ensemble(config, 16, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_l1_ensemble_is_finite_and_anchored():
    config = toy_scenario(num_steps=2, num_users=2, prior_kind=PRIOR_L1)
    draws = sample_trajectory_ensemble(config, 64, seed=8, burn_in=200)
    assert draws.shape == (64, 2, 2, 2)
    assert np.all(np.isfinite(draws))
    # the anchor keeps step 0 near the configured initial positions
    spread = draws[:, 0] - config.user_initial_positions
    assert float(np.abs(spread).mean()) < 4.0 * math.sqrt(
        config.first_step_anchor_variance
    )


def test_random_walk_trajectory_statistics():
    config = baseline_scenario(num_steps=30)
    traj = random_walk_trajectory(config, seed=4)
    again = random_walk_trajectory(config, seed=4)
    other = random_walk_trajectory(config, seed=5)
    assert np.array_equal(traj.positions, again.positions)
    assert not np.array_equal(traj.positions, other.positions)

    steps = np.diff(
        np.stack([random_walk_trajectory(config, s).positions for s in range(40)]),
        axis=1,
    )
    # per-axis variance of one step should match the configured walk
    var_got = float(np.var(steps))
    assert var_got == pytest.approx(0.1, rel=0.15)


def test_random_walk_anchor_draw():
    """Step 0 scatters with the anchor variance around the initial spots."""
    config = baseline_scenario(num_steps=2)
    first = np.stack(
        [random_walk_trajectory(config, s).positions[0] for s in range(300)]
    )
    dev = first - config.user_initial_positions
    assert float(np.var(dev)) == pytest.approx(
        config.first_step_anchor_variance, rel=0.2
    )
    unanchored = dataclasses.replace(config, first_step_anchor_variance=None)
    traj = random_walk_trajectory(unanchored, seed=0)
    assert np.array_equal(traj.positions[0], unanchored.user_initial_positions)


def test_static_trajectory_repeats_initials():
    config = toy_scenario(num_steps=3)
    traj = static_trajectory(config)
    for t in range(3):
        assert np.array_equal(traj.positions[t], config.user_initial_positions)


def test_random_scenario_generator_is_reproducible():
    a_cfg, a_traj = random_scenario(np.random.default_rng(123))
    b_cfg, b_traj = random_scenario(np.random.default_rng(123))
    assert scenario_to_json(a_cfg) == scenario_to_json(b_cfg)
    assert np.array_equal(a_traj.positions, b_traj.positions)
