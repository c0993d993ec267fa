"""Scenario configuration, the JSON reader, priors, and sampling."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import CONFIGS, random_scenario, shipped_scenario
from loctrack.blocks import chain_matrix
from loctrack.errors import (
    DegenerateGeometry,
    DimensionMismatch,
    SamplingUnsupported,
    SchemaMismatch,
)
from loctrack.fim import prior_fim
from loctrack.scenario import (
    PRIOR_L1,
    PRIOR_L2,
    AlignedPhases,
    ExplicitPhases,
    RandomPhases,
    check_separation,
    load_scenario,
    make_trajectory,
    prior_model,
    random_walk_trajectory,
    sample_trajectory_ensemble,
    scenario_from_json,
    static_trajectory,
    validate,
)


# ---------------------------------------------------------------------------
# config construction and validation


def test_validate_flags_each_problem():
    """Single-key ranges are the reader's (``SCENARIO``); ``validate`` keeps
    the rules across keys, such as pilot length against the user count."""
    good = shipped_scenario()
    assert validate(good).ok
    with pytest.raises(SchemaMismatch, match="noise-variance"):
        shipped_scenario(noise_variance=-1.0)
    with pytest.raises(SchemaMismatch, match="prior-kind"):
        shipped_scenario(prior_kind="cauchy")
    bad = dataclasses.replace(good, pilot_length=1)
    assert any("pilot" in v for v in validate(bad).violations)


def test_snr_offset_scales_noise():
    config = shipped_scenario()
    boosted = config.with_snr_offset_db(20.0)
    assert boosted.noise_variance == pytest.approx(config.noise_variance / 100.0)
    assert config.with_snr_offset_db(0.0).noise_variance == config.noise_variance


def test_with_num_ris_trims_prefix():
    config = shipped_scenario("paper_baseline", num_steps=2)
    small = config.with_num_ris(2)
    assert small.num_ris == 2
    assert np.array_equal(small.ris_positions, config.ris_positions[:2])
    with pytest.raises(DimensionMismatch):
        config.with_num_ris(9)


def test_transition_precision_inverts_covariance():
    config = shipped_scenario("paper_baseline", num_steps=3)
    cov = config.temporal_covariance[1]
    prec = prior_model(config).transition_precisions[1]
    for k in range(config.num_users):
        assert np.allclose(cov[k] @ prec[k], np.eye(2), atol=1e-12)


def test_check_separation_raises_on_ris_collision():
    config = shipped_scenario()
    pos = np.broadcast_to(
        config.user_initial_positions, (config.num_steps, config.num_users, 2)
    ).copy()
    pos[1, 0] = config.ris_positions[0]
    with pytest.raises(DegenerateGeometry):
        check_separation(config, pos)
    with pytest.raises(DegenerateGeometry):
        make_trajectory(config, pos)


# ---------------------------------------------------------------------------
# JSON reader


def _assert_configs_equal(a, b):
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), field.name
        elif isinstance(va, ExplicitPhases):
            assert type(vb) is ExplicitPhases, field.name
            assert np.array_equal(va.values, vb.values), field.name
        else:
            assert va == vb, field.name


def _reader_dict(**overrides):
    """A hand-written three-step, three-user, two-surface scenario mapping."""
    obj = {
        "bs-position": [0.0, 0.0],
        "ris-positions": [[80.0, 30.0], [80.0, 45.0]],
        "user-initial-positions": [[100.0, 10.0], [110.0, 10.0], [105.0, 18.0]],
        "num-users": 3,
        "num-ris": 2,
        "num-steps": 3,
        "n-bs-antennas": 16,
        "n-ris-elements": 8,
        "carrier-frequency-hz": 28e9,
        "path-loss-exponent": -2.08,
        "rician-factor-br": 100.0,
        "rician-factor-ru": 100.0,
        "noise-variance": 1e-8,
        "transmit-power": 0.01,
        "pilot-length": 8,
        "ris-phase-profiles": {"policy": "aligned"},
        "spatial-edges": [[0, 1], [1, 2]],
        "spatial-precision": 4.0,
        "temporal-covariance": 0.2,
        "prior-kind": PRIOR_L1,
    }
    obj.update(overrides)
    return obj


_PAIRS = ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "edges, precision, want_edges, want_precision",
    [
        ([[0, 1], [1, 2]], 4.0, (_PAIRS,) * 3, ((4.0, 4.0),) * 3),
        ([[0, 1], [1, 2]], [4.0, 5.0], (_PAIRS,) * 3, ((4.0, 5.0),) * 3),
        (
            [[[0, 1]], [[0, 1], [1, 2]], []],
            [[4.0], [5.0, 6.0], []],
            (((0, 1),), _PAIRS, ()),
            ((4.0,), (5.0, 6.0), ()),
        ),
        (
            [[[0, 1]], [[0, 1], [1, 2]], []],
            7.0,
            (((0, 1),), _PAIRS, ()),
            ((7.0,), (7.0, 7.0), ()),
        ),
        ([], 4.0, ((),) * 3, ((),) * 3),
    ],
    ids=["flat-scalar", "flat-flat", "per-step-per-step", "per-step-scalar", "none"],
)
def test_reader_expands_spatial_edges_and_precisions(
    edges, precision, want_edges, want_precision
):
    config = scenario_from_json(
        _reader_dict(**{"spatial-edges": edges, "spatial-precision": precision})
    )
    assert config.spatial_edges == want_edges
    assert config.spatial_precision == want_precision
    assert validate(config).ok


_Q = [[0.2, 0.01], [0.01, 0.3]]
_Q_USERS = [_Q, [[0.4, 0.0], [0.0, 0.5]], [[0.6, -0.1], [-0.1, 0.7]]]


@pytest.mark.parametrize(
    "value, want",
    [
        (0.2, np.broadcast_to(0.2 * np.eye(2), (2, 3, 2, 2))),
        (_Q, np.broadcast_to(_Q, (2, 3, 2, 2))),
        (_Q_USERS, np.broadcast_to(_Q_USERS, (2, 3, 2, 2))),
        ([_Q_USERS, [_Q, _Q, _Q]], np.array([_Q_USERS, [_Q, _Q, _Q]])),
    ],
    ids=["scalar", "2x2", "per-user", "per-step"],
)
def test_reader_expands_temporal_covariance(value, want):
    config = scenario_from_json(_reader_dict(**{"temporal-covariance": value}))
    assert config.temporal_covariance.shape == (2, 3, 2, 2)
    assert np.array_equal(config.temporal_covariance, want)
    assert validate(config).ok


def test_reader_rejects_bad_covariance_shape():
    obj = _reader_dict(**{"temporal-covariance": [[0.1, 0.0, 0.0]] * 2})
    with pytest.raises(SchemaMismatch, match="temporal-covariance must be"):
        scenario_from_json(obj)


def test_reader_reads_null_anchor():
    config = scenario_from_json(_reader_dict(**{"first-step-anchor-variance": None}))
    assert config.first_step_anchor_variance is None
    assert config.anchor_precision == 0.0
    assert scenario_from_json(_reader_dict()).first_step_anchor_variance == 1.0


_EXPLICIT = np.arange(3 * 2 * 8, dtype=float).reshape(3, 2, 8) / 10.0


@pytest.mark.parametrize(
    "entry, want",
    [
        ({"policy": "aligned"}, AlignedPhases()),
        ({"policy": "random", "seed": 99}, RandomPhases(seed=99)),
        ({"policy": "random"}, RandomPhases(seed=0)),
        (_EXPLICIT.tolist(), ExplicitPhases(_EXPLICIT)),
    ],
    ids=["aligned", "random", "random-default-seed", "explicit"],
)
def test_reader_reads_each_phase_policy(entry, want):
    got = scenario_from_json(_reader_dict(**{"ris-phase-profiles": entry}))
    profile = got.ris_phase_profiles
    assert type(profile) is type(want)
    if isinstance(want, ExplicitPhases):
        assert np.array_equal(profile.values, want.values)
    else:
        assert profile == want


def test_reader_rejects_unknown_phase_policy():
    obj = _reader_dict(**{"ris-phase-profiles": {"policy": "sideways"}})
    with pytest.raises(SchemaMismatch, match="ris-phase-profiles"):
        scenario_from_json(obj)


def test_json_compact_forms_accepted():
    """A scalar spatial precision and a scalar walk variance expand per step."""
    config = scenario_from_json(_reader_dict())
    assert config.spatial_precision == ((4.0, 4.0),) * 3
    assert config.temporal_covariance[1][0][0, 0] == pytest.approx(0.2)


def test_json_missing_key_raises():
    obj = _reader_dict()
    obj.pop("noise-variance")
    with pytest.raises(SchemaMismatch, match="noise-variance"):
        scenario_from_json(obj)


# The fields of the stock scenarios the shipped configs were written from.
_STOCK = {
    "toy": dict(
        num_users=2, num_steps=2, n_bs_antennas=16, n_ris_elements=16,
        noise_variance=1e-8, pilot_length=8, edges=((0, 1),),
        users=[[100.0, 10.0], [110.0, 10.0]],
    ),
    "paper_baseline": dict(
        num_users=3, num_steps=40, n_bs_antennas=64, n_ris_elements=32,
        noise_variance=1.0, pilot_length=16, edges=((0, 1), (0, 2), (1, 2)),
        users=[[100.0, 10.0], [110.0, 10.0], [105.0, 10.0 + 5.0 * math.sqrt(3.0)]],
    ),
}


@pytest.mark.parametrize("name", ["toy", "paper_baseline"], ids=["toy", "baseline"])
def test_json_round_trip(name):
    """The stock scenarios, written out as the shipped configs, read back
    field for field."""
    want = _STOCK[name]
    config = load_scenario(str(CONFIGS / f"{name}.json"))
    T, K = want["num_steps"], want["num_users"]
    assert np.array_equal(config.bs_position, [0.0, 0.0])
    assert np.array_equal(
        config.ris_positions, [[80.0, 30.0], [80.0, 35.0], [80.0, 40.0], [80.0, 45.0]]
    )
    assert np.array_equal(config.user_initial_positions, want["users"])
    assert (config.num_users, config.num_ris, config.num_steps) == (K, 4, T)
    assert config.n_bs_antennas == want["n_bs_antennas"]
    assert config.n_ris_elements == want["n_ris_elements"]
    assert config.carrier_frequency_hz == 28e9
    assert config.path_loss_exponent == -2.08
    assert config.rician_factor_br == config.rician_factor_ru == 100.0
    assert config.noise_variance == want["noise_variance"]
    assert config.transmit_power == 0.01
    assert config.pilot_length == want["pilot_length"]
    assert config.ris_phase_profiles == AlignedPhases()
    assert config.spatial_edges == (want["edges"],) * T
    assert config.spatial_precision == ((10.0,) * len(want["edges"]),) * T
    assert np.array_equal(
        config.temporal_covariance, np.broadcast_to(0.1 * np.eye(2), (T - 1, K, 2, 2))
    )
    assert config.first_step_anchor_variance == 1.0
    assert config.prior_kind == PRIOR_L2
    assert config.bs_ris_gains is None
    assert config.bs_ris_aoa is None and config.bs_ris_aod is None


def test_save_load_round_trip(tmp_path):
    """A mapping written to disk reads back through ``load_scenario`` to the
    scenario read in memory, explicit phases and per-step priors included."""
    obj = _reader_dict(**{
        "ris-phase-profiles": _EXPLICIT.tolist(),
        "spatial-edges": [[[0, 1]], [[0, 1], [1, 2]], []],
        "spatial-precision": [[4.0], [5.0, 6.0], []],
        "first-step-anchor-variance": None,
    })
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    _assert_configs_equal(scenario_from_json(obj), load_scenario(str(path)))


# ---------------------------------------------------------------------------
# prior model and the assembled prior precision


def test_prior_model_anchor_toggle():
    config = shipped_scenario()
    with_anchor = prior_model(config, include_anchor=True)
    without = prior_model(config, include_anchor=False)
    assert with_anchor.anchor_precision == pytest.approx(
        1.0 / config.first_step_anchor_variance
    )
    assert without.anchor_precision == 0.0


def test_joint_precision_matches_quadratic_form(rng):
    """The assembled prior precision must reproduce the energy of explicit
    deviations."""
    config = shipped_scenario(num_steps=3, num_users=2)
    pf = prior_fim(prior_model(config))
    precision = chain_matrix(pf.spatial_slices, pf.temporal)
    anchor = 1.0 / config.first_step_anchor_variance

    def energy(pos):
        total = 0.0
        for k in range(2):
            diff = pos[0, k] - config.user_initial_positions[k]
            total += anchor * float(diff @ diff)
        for t in range(3):
            for (i, j), c in zip(config.spatial_edges[t], config.spatial_precision[t]):
                diff = pos[t, i] - pos[t, j]
                total += c * float(diff @ diff)
        for t in range(2):
            for k in range(2):
                prec = np.linalg.inv(config.temporal_covariance[t][k])
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


# ---------------------------------------------------------------------------
# sampling


def test_l1_ensemble_deterministic():
    """The l1 sampler replays its draws from the seed."""
    config = shipped_scenario(num_steps=2, prior_kind=PRIOR_L1)
    a = sample_trajectory_ensemble(config, 16, seed=5, burn_in=20)
    b = sample_trajectory_ensemble(config, 16, seed=5, burn_in=20)
    c = sample_trajectory_ensemble(config, 16, seed=6, burn_in=20)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_rejects_quadratic_prior():
    """Only the l1-norm prior is sampled; its information is an expectation."""
    config = shipped_scenario(num_steps=2, prior_kind=PRIOR_L2)
    with pytest.raises(SamplingUnsupported):
        sample_trajectory_ensemble(config, 4, seed=1)


def test_l1_ensemble_is_finite_and_anchored():
    config = shipped_scenario(num_steps=2, num_users=2, prior_kind=PRIOR_L1)
    draws = sample_trajectory_ensemble(config, 64, seed=8, burn_in=200)
    assert draws.shape == (64, 2, 2, 2)
    assert np.all(np.isfinite(draws))
    # the anchor keeps step 0 near the configured initial positions
    spread = draws[:, 0] - config.user_initial_positions
    assert float(np.abs(spread).mean()) < 4.0 * math.sqrt(
        config.first_step_anchor_variance
    )


def test_random_walk_trajectory_statistics():
    config = shipped_scenario("paper_baseline", num_steps=30)
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
    config = shipped_scenario("paper_baseline", num_steps=2)
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


def per_cell_walk(config, seed):
    """The walk drawn one (step, user) cell at a time, one Cholesky each."""
    T, K = config.num_steps, config.num_users
    rng = np.random.default_rng(seed)
    pos = np.empty((T, K, 2))
    pos[0] = config.user_initial_positions
    if config.first_step_anchor_variance is not None:
        pos[0] = pos[0] + math.sqrt(config.first_step_anchor_variance) * \
            rng.standard_normal((K, 2))
    for t in range(T - 1):
        for k in range(K):
            chol = np.linalg.cholesky(config.temporal_covariance[t, k])
            pos[t + 1, k] = pos[t, k] + chol @ rng.standard_normal(2)
    return pos


@pytest.mark.parametrize("num_steps", [1, 2, 9])
@pytest.mark.parametrize("anchor", [True, False])
def test_random_walk_matches_per_cell_draws(num_steps, anchor):
    """The stacked walk equals the per-cell loop bit for bit, with a
    different covariance for every (step, user) cell."""
    config = shipped_scenario("paper_baseline", num_steps=num_steps)
    rng = np.random.default_rng(num_steps)
    K = config.num_users
    raw = rng.standard_normal((max(num_steps - 1, 0), K, 2, 2))
    cov = 0.05 * (raw @ np.swapaxes(raw, -1, -2) + 0.1 * np.eye(2))
    config = dataclasses.replace(
        config,
        temporal_covariance=cov,
        first_step_anchor_variance=0.5 if anchor else None,
    )
    assert validate(config).ok
    for seed in (0, 7, 2024):
        walk = random_walk_trajectory(config, seed)
        assert np.array_equal(walk.positions, per_cell_walk(config, seed))


def test_static_trajectory_repeats_initials():
    config = shipped_scenario(num_steps=3)
    traj = static_trajectory(config)
    for t in range(3):
        assert np.array_equal(traj.positions[t], config.user_initial_positions)


def test_random_scenario_generator_is_reproducible():
    a_cfg, a_traj = random_scenario(np.random.default_rng(123))
    b_cfg, b_traj = random_scenario(np.random.default_rng(123))
    _assert_configs_equal(a_cfg, b_cfg)
    assert np.array_equal(a_traj.positions, b_traj.positions)
