"""Campaign driver: spec validation, determinism, bookkeeping, figure files."""

import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import loctrack.harness as harness
import loctrack.recursive as recursive
from conftest import config_dict, count_calls
from loctrack.coupling import eoc_report, split_d_a
from loctrack.errors import (
    CampaignAborted,
    DegenerateGeometry,
    NotSpd,
    SchemaMismatch,
    SingularEfim,
)
from loctrack.fim import assemble_efim, measurement_fim, prior_fim
from loctrack.harness import (
    ExperimentSpec,
    ResultRow,
    ResultTable,
    emit_figure_data,
    experiment_from_json,
    run_experiment,
    trend_warnings,
    write_outputs,
)
from loctrack.scenario import (
    prior_model,
    random_walk_trajectory,
    sample_trajectory_ensemble,
    scenario_from_json,
)


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(config_dict(num_steps=3)))
    return str(path)


def make_spec(scenario_file, tmp_path, **overrides):
    base = dict(
        scenario_path=scenario_file,
        kind="EOC_VS_SNR",
        sweep_parameter="snr-db",
        sweep_values=(0.0, 10.0),
        num_monte_carlo=3,
        base_seed=11,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation(tmp_path):
    """The spec reader rejects each malformed spec; an unswept TRAJECTORY
    spec is fine."""
    payload = {
        "scenario": "scene.json",
        "kind": "EOC_VS_SNR",
        "sweep": {"parameter": "snr-db", "values": [0.0, 10.0]},
        "num-monte-carlo": 3,
        "base-seed": 11,
        "output-dir": "out",
    }
    for change in (
        {"kind": "EOC_VS_MOON_PHASE"},
        {"num-monte-carlo": 0},
        {"sweep": {"parameter": "snr-db", "values": [10.0, 0.0]}},
        {"sweep": {"parameter": "snr-db", "values": [0.0, float("nan")]}},
        {"sweep": {"values": [0.0, 10.0]}},
        {"sweep": {"parameter": "snr-db", "values": []}},
        {"kind": "EOC_VS_NUM_RIS"},
    ):
        with pytest.raises(SchemaMismatch):
            experiment_from_json({**payload, **change}, base_dir=str(tmp_path))
    unswept = {k: v for k, v in payload.items() if k != "sweep"}
    none_swept = experiment_from_json(
        {**unswept, "kind": "TRAJECTORY"}, base_dir=str(tmp_path)
    )
    assert none_swept.sweep_values == ()


def test_experiment_from_json_requirements(tmp_path):
    payload = {
        "scenario": "scene.json",
        "kind": "EOC_VS_SNR",
        "num-monte-carlo": 2,
        "base-seed": 5,
        "output-dir": "out",
        "sweep": {"parameter": "snr-db", "values": [0.0, 5.0]},
    }
    for key in ("scenario", "kind", "num-monte-carlo", "base-seed", "output-dir"):
        broken = {k: v for k, v in payload.items() if k != key}
        with pytest.raises(SchemaMismatch):
            experiment_from_json(broken, base_dir=str(tmp_path))
    spec = experiment_from_json(payload, base_dir=str(tmp_path))
    assert spec.scenario_path == os.path.join(str(tmp_path), "scene.json")
    assert spec.output_dir == os.path.join(str(tmp_path), "out")
    assert spec.snr_db_offset == 0.0
    assert spec.constant_from_step == 2
    assert spec.disturbance_steps == ()
    assert spec.disturbance_scale == 1.0
    absolute = dict(payload, scenario="/abs/scene.json")
    assert experiment_from_json(absolute).scenario_path == "/abs/scene.json"


def test_run_experiment_rerun_is_byte_identical(scenario_file, tmp_path):
    spec = make_spec(scenario_file, tmp_path)
    first = run_experiment(spec)
    second = run_experiment(spec)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    paths_a = write_outputs(first, str(dir_a))
    paths_b = write_outputs(second, str(dir_b))
    for pa, pb in zip(paths_a, paths_b):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_manifest_contents(scenario_file, tmp_path):
    spec = make_spec(scenario_file, tmp_path, snr_db_offset=20.0)
    table = run_experiment(spec)
    manifest = table.manifest
    assert manifest["kind"] == "EOC_VS_SNR"
    assert manifest["base-seed"] == 11
    assert manifest["num-monte-carlo"] == 3
    assert manifest["sweep-parameter"] == "snr-db"
    assert manifest["sweep-values"] == [0.0, 10.0]
    assert manifest["snr-db-offset"] == 20.0
    assert manifest["failures"] == []
    want_sha = hashlib.sha256(Path(scenario_file).read_bytes()).hexdigest()
    assert manifest["scenario-sha256"] == want_sha
    assert manifest["sigma-s-inv2"] == 10.0
    assert manifest["sigma-t-inv2"] == 10.0
    # every row carries the pooled sample count
    assert all(row.n == 3 for row in table.rows)


@pytest.mark.parametrize("first, second", [(1e-9, 5e-9), (0.1, 0.1 * (1 + 5e-6))])
def test_manifest_temporal_precision_is_uniform_only_when_exact(first, second):
    """``sigma-t-inv2`` is reported only when every transition covariance is
    the same multiple of I, compared exactly as ``sigma-s-inv2`` is: two
    users whose covariances differ by any amount give None."""
    config = scenario_from_json(config_dict(num_steps=3))
    cov = np.broadcast_to(first * np.eye(2), config.temporal_covariance.shape).copy()
    uniform = dataclasses.replace(config, temporal_covariance=cov)
    assert harness._uniform_temporal_precision(uniform) == 1.0 / first
    cov[:, 1] = second * np.eye(2)
    mixed = dataclasses.replace(config, temporal_covariance=cov)
    assert harness._uniform_temporal_precision(mixed) is None


def test_failures_recorded_below_abort_threshold(
    scenario_file, tmp_path, monkeypatch
):
    spec = make_spec(
        scenario_file,
        tmp_path,
        sweep_parameter="snr-db",
        sweep_values=(0.0,),
        num_monte_carlo=11,
    )
    real = harness._run_one
    bad_seed = spec.base_seed + 4

    def flaky(inner_spec, config, seed, ensembles):
        if seed == bad_seed:
            raise SingularEfim("synthetic run failure")
        return real(inner_spec, config, seed, ensembles)

    monkeypatch.setattr(harness, "_run_one", flaky)
    table = run_experiment(spec)
    failures = table.manifest["failures"]
    assert len(failures) == 1
    assert failures[0]["seed"] == bad_seed
    assert "synthetic run failure" in failures[0]["error"]
    assert all(row.n == 10 for row in table.rows)


def test_reduce_matches_per_group_mean_and_stderr(
    scenario_file, tmp_path, monkeypatch
):
    """Each row is np.mean / np.std(ddof=1) of its group's successful runs,
    bit for bit, with rows sorted by (t, k, metric) within a sweep value.
    Checked on an EoC spec (2 keys) and a recursion spec (7 keys)."""
    config = scenario_from_json(config_dict(num_steps=3))
    for kind, parameter, values in (
        ("EOC_VS_SNR", "snr-db", (0.0, 10.0)),
        ("EP_CONVERGENCE", "sigma-t-inv2", (1.0, 10.0)),
    ):
        spec = make_spec(scenario_file, tmp_path, kind=kind, sweep_parameter=parameter,
                         sweep_values=values, num_monte_carlo=12)
        keys = harness._row_keys(spec, config)
        assert list(keys) == sorted(keys) and len(set(keys)) == len(keys)
        single = run_experiment(dataclasses.replace(spec, num_monte_carlo=1))
        assert all(row.n == 1 and row.stderr == 0.0 for row in single.rows)
        assert [(r.t, r.k, r.metric_name) for r in single.rows] == list(keys) * len(values)
        jobs = iter([(v, spec.base_seed + r) for v in values for r in range(12)])
        bad = (values[1], spec.base_seed + 5)
        draws = {}  # (sweep value, seed) -> one successful run's numbers

        def synthetic(inner_spec, config, seed, shared):
            job = next(jobs)
            assert job[1] == seed
            if job == bad:
                raise SingularEfim("synthetic run failure")
            rng = np.random.default_rng(len(draws))
            size = len(keys)
            draws[job] = rng.standard_normal(size) * 10.0 ** rng.uniform(-6, 6, size=size)
            return draws[job]

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_run_one", synthetic)
            table = run_experiment(spec)
        assert [f["seed"] for f in table.manifest["failures"]] == [bad[1]]
        rows = iter(table.rows)
        for value in values:
            runs = [numbers for (v, _), numbers in draws.items() if v == value]
            for i, key in enumerate(keys):
                row = next(rows)
                vals = [float(numbers[i]) for numbers in runs]
                assert (row.sweep_value, row.t, row.k, row.metric_name) == (value, *key)
                assert row.n == len(vals)
                assert row.mean == float(np.mean(vals))
                assert row.stderr == float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert next(rows, None) is None


def test_sweep_value_whose_every_run_fails_writes_no_rows(
    scenario_file, tmp_path, monkeypatch
):
    """A value with no successful run has no rows, not NaN rows from an
    empty column; the other values keep their rows, counts and order."""
    values = tuple(float(v) for v in range(-50, 60, 10))
    spec = make_spec(scenario_file, tmp_path, sweep_values=values, num_monte_carlo=1)
    whole = run_experiment(spec)
    real = harness._run_one
    lost = values[5]

    def fail_one_value(inner_spec, config, seed, shared):
        if config.noise_variance == configs[lost].noise_variance:
            raise SingularEfim("synthetic run failure")
        return real(inner_spec, config, seed, shared)

    _, configs = harness.campaign_configs(spec)
    monkeypatch.setattr(harness, "_run_one", fail_one_value)
    table = run_experiment(spec)
    assert len(values) == 11 and 1 < harness.FAILURE_ABORT_FRACTION * len(values)
    assert table.rows == tuple(row for row in whole.rows if row.sweep_value != lost)
    assert all(math.isfinite(row.mean) and row.n == 1 for row in table.rows)
    assert table.manifest["failures"] == [{
        "error": "SingularEfim: synthetic run failure",
        "seed": spec.base_seed,
        "sweep-value": lost,
    }]


def test_abort_at_ten_percent_failures(scenario_file, tmp_path, monkeypatch):
    spec = make_spec(
        scenario_file,
        tmp_path,
        sweep_parameter="snr-db",
        sweep_values=(0.0,),
        num_monte_carlo=10,
    )

    def always_fail(inner_spec, config, seed, ensembles):
        raise SingularEfim("synthetic hard failure")

    real = harness._run_one

    def one_in_ten(inner_spec, config, seed, ensembles):
        if seed == spec.base_seed:
            raise SingularEfim("synthetic hard failure")
        return real(inner_spec, config, seed, ensembles)

    monkeypatch.setattr(harness, "_run_one", one_in_ten)
    with pytest.raises(CampaignAborted):
        run_experiment(spec)
    monkeypatch.setattr(harness, "_run_one", always_fail)
    with pytest.raises(CampaignAborted):
        run_experiment(spec)


def test_programming_error_escapes_run_experiment(
    scenario_file, tmp_path, monkeypatch
):
    """Only expected numerical failures count as failed runs."""
    spec = make_spec(scenario_file, tmp_path, sweep_values=(0.0,), num_monte_carlo=20)

    def broken(inner_spec, config, seed, ensembles):
        raise TypeError("synthetic programming error")

    monkeypatch.setattr(harness, "_run_one", broken)
    with pytest.raises(TypeError, match="synthetic programming error"):
        run_experiment(spec)


# The toy with the distance prior, as the l1-prior benchmark workload runs
# it. A short burn-in keeps these campaigns fast; the reuse rules do not
# depend on the chain length.
L1_TOY = {"prior_kind": "l1-norm", "spatial_precision": 2.0}
QUICK_BURN_IN = 20


@pytest.fixture()
def l1_scenario_file(tmp_path):
    path = tmp_path / "l1.json"
    path.write_text(json.dumps(config_dict(**L1_TOY)))
    return str(path)


@pytest.fixture()
def quick_sampler(monkeypatch):
    """The campaign's sampler at ``QUICK_BURN_IN``; returns its call list."""

    def quick(config, count, seed):
        return sample_trajectory_ensemble(config, count, seed, burn_in=QUICK_BURN_IN)

    monkeypatch.setattr(harness, "sample_trajectory_ensemble", quick)
    return count_calls(monkeypatch, harness, "sample_trajectory_ensemble")


def test_snr_sweep_draws_each_seeds_l1_ensemble_once(
    l1_scenario_file, tmp_path, quick_sampler
):
    """An SNR sweep reuses each seed's ensemble and gives, bit for bit, the
    rows of runs that each draw their own; a prior sweep draws per run."""
    spec = make_spec(
        l1_scenario_file, tmp_path, sweep_values=(0.0, 10.0, 20.0), num_monte_carlo=2
    )
    table = run_experiment(spec)
    assert len(quick_sampler) == spec.num_monte_carlo
    assert table.manifest["failures"] == []

    base = scenario_from_json(config_dict(**L1_TOY))
    rows = iter(table.rows)
    for value in spec.sweep_values:
        config = base.with_snr_offset_db(value)
        runs = []
        for seed in range(spec.base_seed, spec.base_seed + spec.num_monte_carlo):
            ensemble = sample_trajectory_ensemble(
                config, harness._L1_ENSEMBLE, seed, burn_in=QUICK_BURN_IN
            )
            pfim = prior_fim(prior_model(config, include_anchor=True), ensemble)
            efim = assemble_efim(
                measurement_fim(config, random_walk_trajectory(config, seed)), pfim
            )
            report = eoc_report(efim, split_d_a(efim, pfim))
            runs.append({"bcrb-mean": report.mean_bcrb, "eoc-mean": report.mean_eoc})
        for metric in ("bcrb-mean", "eoc-mean"):
            vals = [run[metric] for run in runs]
            row = next(rows)
            assert (row.sweep_value, row.metric_name) == (value, metric)
            assert row.mean == float(np.mean(vals))
            assert row.stderr == float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert next(rows, None) is None

    del quick_sampler[:]
    run_experiment(make_spec(
        l1_scenario_file, tmp_path, kind="EP_CONVERGENCE",
        sweep_values=(0.0, 10.0, 20.0), num_monte_carlo=2,
    ))
    assert len(quick_sampler) == 2
    del quick_sampler[:]
    run_experiment(make_spec(
        l1_scenario_file, tmp_path, sweep_parameter="sigma-s-inv2",
        sweep_values=(1.0, 2.0, 4.0), num_monte_carlo=2,
    ))
    assert len(quick_sampler) == 6


def test_failed_l1_draw_fails_every_sweep_value(
    l1_scenario_file, tmp_path, monkeypatch
):
    """A draw that raises is not kept: the seed's run at each sweep value
    draws again and records the same failure."""
    spec = make_spec(
        l1_scenario_file, tmp_path, sweep_values=(0.0, 10.0, 20.0), num_monte_carlo=11
    )
    bad_seed = spec.base_seed + 4
    calls = []

    def flaky(config, count, seed):
        calls.append(seed)
        if seed == bad_seed:
            raise DegenerateGeometry("synthetic coinciding users")
        return sample_trajectory_ensemble(config, count, seed, burn_in=QUICK_BURN_IN)

    monkeypatch.setattr(harness, "sample_trajectory_ensemble", flaky)
    table = run_experiment(spec)
    assert table.manifest["failures"] == [
        {"error": "DegenerateGeometry: synthetic coinciding users",
         "seed": bad_seed, "sweep-value": value}
        for value in spec.sweep_values
    ]
    assert calls.count(bad_seed) == len(spec.sweep_values)
    assert len(calls) == spec.num_monte_carlo - 1 + len(spec.sweep_values)
    assert all(row.n == spec.num_monte_carlo - 1 for row in table.rows)


@pytest.mark.parametrize(
    "kind, parameter, values, builds",
    [
        ("EOC_VS_SNR", "snr-db", (0.0, 10.0, 20.0), 1),
        ("EOC_VS_NUM_RIS", "num-ris", (1.0, 2.0, 4.0), 1),
        ("EOC_VS_SNR", "sigma-s-inv2", (1.0, 2.0, 4.0), 3),
        ("EOC_VS_SNR", "sigma-t-inv2", (1.0, 2.0, 4.0), 3),
    ],
)
def test_quadratic_prior_is_built_once_per_distinct_prior(
    scenario_file, tmp_path, monkeypatch, kind, parameter, values, builds
):
    """An SNR or surface-count sweep leaves the prior alone and builds its
    information once per campaign; a prior sweep builds once per value.
    The shared information gives, bit for bit, the rows of runs that each
    build their own."""
    calls = count_calls(monkeypatch, harness, "prior_fim")
    spec = make_spec(scenario_file, tmp_path, kind=kind, sweep_parameter=parameter,
                     sweep_values=values, num_monte_carlo=3)
    table = run_experiment(spec)
    assert len(calls) == builds
    assert table.manifest["failures"] == []

    real = harness._eoc_pipeline

    def own_prior(config, trajectory, ensemble, priors):
        return real(config, trajectory, ensemble, {})

    monkeypatch.setattr(harness, "_eoc_pipeline", own_prior)
    del calls[:]
    assert run_experiment(spec).rows == table.rows
    assert len(calls) == len(values) * spec.num_monte_carlo * (
        2 if kind == "EOC_VS_NUM_RIS" else 1
    )


def test_l1_prior_is_built_once_per_run(l1_scenario_file, tmp_path, monkeypatch,
                                        quick_sampler):
    calls = count_calls(monkeypatch, harness, "prior_fim")
    spec = make_spec(l1_scenario_file, tmp_path, sweep_values=(0.0, 10.0, 20.0),
                     num_monte_carlo=2)
    run_experiment(spec)
    assert len(quick_sampler) == spec.num_monte_carlo
    assert len(calls) == len(spec.sweep_values) * spec.num_monte_carlo


def test_failed_prior_build_fails_every_run_of_its_value(
    scenario_file, tmp_path, monkeypatch
):
    """A build that raises is not kept: each run at that sweep value builds
    again and records the same failure; the other values build once."""
    values = tuple(float(v) for v in range(1, 13))
    spec = make_spec(scenario_file, tmp_path, sweep_parameter="sigma-s-inv2",
                     sweep_values=values, num_monte_carlo=3)
    bad = 5.0
    calls = []

    def flaky(prior, ensemble=None):
        precision = prior.spatial_precision[0][0]
        calls.append(precision)
        if precision == bad:
            raise NotSpd("synthetic indefinite prior")
        return prior_fim(prior, ensemble)

    monkeypatch.setattr(harness, "prior_fim", flaky)
    table = run_experiment(spec)
    assert table.manifest["failures"] == [
        {"error": "NotSpd: synthetic indefinite prior",
         "seed": spec.base_seed + r, "sweep-value": bad}
        for r in range(spec.num_monte_carlo)
    ]
    assert calls.count(bad) == spec.num_monte_carlo
    assert len(calls) == len(values) - 1 + spec.num_monte_carlo
    assert {row.sweep_value for row in table.rows} == set(values) - {bad}


def test_shared_prior_information_is_read_only(scenario_file, tmp_path, monkeypatch):
    built = []

    def keep(prior, ensemble=None):
        built.append(prior_fim(prior, ensemble))
        return built[-1]

    monkeypatch.setattr(harness, "prior_fim", keep)
    run_experiment(make_spec(scenario_file, tmp_path))
    [pfim] = built
    for array in (pfim.spatial_slices, pfim.temporal):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] += 1.0


def test_l1_ensemble_ignores_the_noise_level(quick_sampler):
    """The sampler reads nothing an SNR shift changes, and the stored
    read-only ensemble still feeds the prior and the recursion."""
    config = scenario_from_json(config_dict(**L1_TOY))
    want = sample_trajectory_ensemble(config, 8, 3, burn_in=QUICK_BURN_IN).tobytes()
    for offset in (-10.0, 15.0, 70.0):
        shifted = config.with_snr_offset_db(offset)
        assert shifted.noise_variance != config.noise_variance
        got = sample_trajectory_ensemble(shifted, 8, 3, burn_in=QUICK_BURN_IN)
        assert got.tobytes() == want

    ensembles = {}
    trajectory, stored = harness._draw(config, 3, ensembles)
    assert list(ensembles) == [3] and ensembles[3] is stored
    assert not stored.flags.writeable
    assert harness._draw(config.with_snr_offset_db(10.0), 3, ensembles)[1] is stored
    assert len(quick_sampler) == 1
    prior = prior_model(config, include_anchor=True)
    assert np.array_equal(
        prior_fim(prior, stored).spatial_slices,
        prior_fim(prior, stored.copy()).spatial_slices,
    )
    shared = recursive.run_recursion(config, trajectory, trajectory_ensemble=stored)
    own = recursive.run_recursion(config, trajectory, trajectory_ensemble=stored.copy())
    assert [s.bcrb_mean for s in shared] == [s.bcrb_mean for s in own]


def test_l1_trajectory_campaign_draws_no_ensemble(l1_scenario_file, tmp_path, monkeypatch):
    """A TRAJECTORY run writes positions only: one walk per job, no sampler
    call, and every row is the mean of the seeds' walk positions."""
    spec = make_spec(
        l1_scenario_file, tmp_path, kind="TRAJECTORY", sweep_parameter=None,
        sweep_values=(), num_monte_carlo=3,
    )
    samples = count_calls(monkeypatch, harness, "sample_trajectory_ensemble")
    walks = count_calls(monkeypatch, harness, "random_walk_trajectory")
    table = run_experiment(spec)
    assert samples == []
    assert len(walks) == spec.num_monte_carlo
    assert table.manifest["failures"] == []

    config = scenario_from_json(config_dict(**L1_TOY))
    seeds = range(spec.base_seed, spec.base_seed + spec.num_monte_carlo)
    positions = np.stack([random_walk_trajectory(config, seed).positions for seed in seeds])
    assert len(table.rows) == 2 * config.num_steps * config.num_users
    for row in table.rows:
        vals = positions[:, row.t - 1, row.k - 1, "xy".index(row.metric_name)]
        assert row.mean == float(np.mean(vals))
        assert row.stderr == float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def test_trend_warnings_fire_and_stay_silent(scenario_file, tmp_path):
    spec = make_spec(scenario_file, tmp_path)

    def agg(eoc_pair, bcrb_pair):
        """Aggregate rows at sweep values 0 and 10, in table order."""
        return [
            ResultRow("EOC_VS_SNR", value, 0, 0, metric, pair[i], 0.0, 1)
            for i, value in enumerate((0.0, 10.0))
            for metric, pair in (("bcrb-mean", bcrb_pair), ("eoc-mean", eoc_pair))
        ]

    clean = trend_warnings(spec, agg((0.4, 0.5), (2.0, 1.0)))
    assert clean == []
    noisy = trend_warnings(spec, agg((0.5, 0.4), (1.0, 2.0)))
    assert len(noisy) == 2
    assert any("eoc-mean" in w for w in noisy)
    assert any("bcrb-mean" in w for w in noisy)
    # precision sweeps expect both curves to fall
    sigma_spec = make_spec(
        scenario_file,
        tmp_path,
        sweep_parameter="sigma-s-inv2",
        sweep_values=(0.0, 10.0),
    )
    assert trend_warnings(sigma_spec, agg((0.5, 0.4), (2.0, 1.0))) == []
    assert len(trend_warnings(sigma_spec, agg((0.4, 0.5), (2.0, 1.0)))) == 1


def test_table_csv_round_trip(scenario_file, tmp_path):
    table = run_experiment(make_spec(scenario_file, tmp_path))
    out = tmp_path / "rt"
    table_path, _ = write_outputs(table, str(out))
    loaded = ResultTable.from_csv(table_path)
    assert loaded.rows == table.rows
    assert loaded.manifest == table.manifest


def test_table_from_csv_guards(tmp_path):
    lonely = tmp_path / "table.csv"
    lonely.write_text("experiment,sweep_value,t,k,metric_name,mean,stderr,n\n")
    with pytest.raises(SchemaMismatch):
        ResultTable.from_csv(str(lonely))
    (tmp_path / "manifest.json").write_text("{}")
    ResultTable.from_csv(str(lonely))
    lonely.write_text("wrong,header\n")
    with pytest.raises(SchemaMismatch):
        ResultTable.from_csv(str(lonely))


def run_kind(scenario_file, tmp_path, kind, parameter, values, **overrides):
    spec = make_spec(
        scenario_file,
        tmp_path,
        kind=kind,
        sweep_parameter=parameter,
        sweep_values=values,
        num_monte_carlo=2,
        **overrides,
    )
    return run_experiment(spec)


def read_figure(table, figure, tmp_path):
    paths = emit_figure_data(table, figure, str(tmp_path / figure))
    assert len(paths) == 1
    lines = Path(paths[0]).read_text(encoding="utf-8").strip().split("\n")
    return lines[0], lines[1:]


def test_emit_trajectory_figure(scenario_file, tmp_path):
    table = run_kind(scenario_file, tmp_path, "TRAJECTORY", None, ())
    header, rows = read_figure(table, "fig3", tmp_path)
    assert header == "t,k,x,y"
    assert len(rows) == 3 * 2  # steps x users of the stored scenario
    t, k, x, y = rows[0].split(",")
    assert (int(t), int(k)) == (1, 1)
    float(x), float(y)


def test_emit_snr_figures(scenario_file, tmp_path):
    table = run_kind(
        scenario_file, tmp_path, "EOC_VS_SNR", "snr-db", (0.0, 10.0)
    )
    header4, rows4 = read_figure(table, "fig4", tmp_path)
    assert header4 == "snr_db,sigma_s_inv2,eoc_mean,bcrb_mean"
    assert len(rows4) == 2
    header5, rows5 = read_figure(table, "fig5", tmp_path)
    assert header5 == "snr_db,sigma_t_inv2,eoc_mean,bcrb_mean"
    assert [r.split(",")[0] for r in rows4] == ["0.0", "10.0"]


def test_emit_num_ris_figure(scenario_file, tmp_path):
    table = run_kind(
        scenario_file, tmp_path, "EOC_VS_NUM_RIS", "num-ris", (1.0, 2.0)
    )
    header, rows = read_figure(table, "fig6", tmp_path)
    assert header == "num_ris,beam_mode,eoc_mean,bcrb_mean"
    assert [r.split(",")[:2] for r in rows] == [
        ["1", "aligned"],
        ["1", "random"],
        ["2", "aligned"],
        ["2", "random"],
    ]


def test_emit_convergence_figure(scenario_file, tmp_path):
    table = run_kind(
        scenario_file,
        tmp_path,
        "EP_CONVERGENCE",
        "sigma-t-inv2",
        (1.0, 10.0),
    )
    header, rows = read_figure(table, "fig8", tmp_path)
    assert header == "t,sigma_t_inv2,bcrb_mean,eoc_mean,theory_bcrb_star"
    assert len(rows) == 2 * 3  # per step, per sweep value
    first = rows[0].split(",")
    assert first[0] == "1" and first[1] == "1.0"
    # theory column is constant within one sweep value
    thirds = {r.split(",")[1]: r.split(",")[4] for r in rows}
    assert len(thirds) == 2


@pytest.mark.parametrize(
    "num_steps, disturbed, builds",
    [(6, (), 1), (6, (6,), 1), (6, (2, 3, 4, 5, 6), 2), (2, (2,), 2)],
)
def test_theory_row_reads_the_undisturbed_frozen_inputs(
    tmp_path, monkeypatch, num_steps, disturbed, builds
):
    """``theory-bcrb-star`` is the fixed point of the frozen inputs
    ``constant_inputs`` builds, also when a disturbance covers the last step.
    The run's own frozen inputs are reused; they are built a second time only
    when every step after the first is disturbed."""
    config = scenario_from_json(config_dict(num_steps=num_steps))
    spec = make_spec(
        "unused", tmp_path, kind="EP_CONVERGENCE", sweep_parameter="sigma-t-inv2",
        sweep_values=(1.0,), disturbance_steps=disturbed, disturbance_scale=0.25,
    )
    trajectory, _ = harness._draw(config, 3)
    inputs = recursive.constant_inputs(config, trajectory, step=1)
    j_star = recursive.stationary_point(inputs.m_full, inputs.gamma_full).j_star
    chol = scipy.linalg.cho_factor(j_star, lower=True)
    want = float(np.trace(scipy.linalg.cho_solve(chol, np.eye(len(j_star))))) / len(j_star)

    calls = []
    real = recursive.constant_inputs

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(recursive, "constant_inputs", counting)
    monkeypatch.setattr(harness, "constant_inputs", counting)
    column = harness._run_recursion_point(config, 3, spec)
    assert harness._row_keys(spec, config)[0] == (0, 0, "theory-bcrb-star")
    assert column[0] == want
    assert len(calls) == builds


def test_emit_asymptotic_figures(scenario_file, tmp_path):
    spatial = run_kind(
        scenario_file,
        tmp_path,
        "ASYMPTOTIC_SPATIAL",
        "sigma-s-inv2",
        (1e-3, 1.0, 1e3),
    )
    header, rows = read_figure(spatial, "fig9", tmp_path)
    assert header == "t,regime,bcrb_mean,eoc_mean"
    labels = {r.split(",")[1] for r in rows}
    assert labels == {"spatial-zero", "finite", "spatial-inf"}
    temporal = run_kind(
        scenario_file,
        tmp_path,
        "ASYMPTOTIC_TEMPORAL",
        "sigma-t-inv2",
        (1e-3, 1e3),
    )
    header10, rows10 = read_figure(temporal, "fig10", tmp_path)
    assert header10 == "t,regime,bcrb_mean,eoc_mean"
    assert {r.split(",")[1] for r in rows10} == {"temporal-zero", "temporal-inf"}


def test_emit_figure_guards(scenario_file, tmp_path):
    table = run_kind(
        scenario_file, tmp_path, "EOC_VS_SNR", "snr-db", (0.0, 10.0)
    )
    with pytest.raises(SchemaMismatch):
        emit_figure_data(table, "fig99", str(tmp_path))
    with pytest.raises(SchemaMismatch):
        emit_figure_data(table, "fig8", str(tmp_path))
    empty = ResultTable(rows=(), manifest={"kind": "EOC_VS_SNR"})
    with pytest.raises(SchemaMismatch):
        emit_figure_data(empty, "fig4", str(tmp_path))
    # a repeated (sweep value, t, k, metric) row leaves the figure value ambiguous
    doubled = ResultTable(rows=table.rows + table.rows[:1], manifest=table.manifest)
    with pytest.raises(SchemaMismatch, match="table repeats"):
        emit_figure_data(doubled, "fig4", str(tmp_path))
    # an SNR figure needs an SNR sweep in the manifest
    sigma = run_kind(
        scenario_file, tmp_path, "EOC_VS_SNR", "sigma-s-inv2", (1.0, 10.0)
    )
    with pytest.raises(SchemaMismatch):
        emit_figure_data(sigma, "fig4", str(tmp_path))
