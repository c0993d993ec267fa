"""Campaign driver: spec validation, determinism, bookkeeping, figure files."""

import hashlib
import json
import os

import pytest

import loctrack.harness as harness
from conftest import config_dict
from loctrack.errors import CampaignAborted, SchemaMismatch, SingularEfim
from loctrack.harness import (
    ExperimentSpec,
    ResultTable,
    emit_figure_data,
    experiment_from_json,
    run_experiment,
    trend_warnings,
    write_outputs,
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


def test_spec_validation(scenario_file, tmp_path):
    with pytest.raises(SchemaMismatch):
        make_spec(scenario_file, tmp_path, kind="EOC_VS_MOON_PHASE")
    with pytest.raises(SchemaMismatch):
        make_spec(scenario_file, tmp_path, num_monte_carlo=0)
    with pytest.raises(SchemaMismatch):
        make_spec(scenario_file, tmp_path, sweep_values=(10.0, 0.0))
    with pytest.raises(SchemaMismatch):
        make_spec(scenario_file, tmp_path, sweep_values=(0.0, float("nan")))
    with pytest.raises(SchemaMismatch):
        make_spec(scenario_file, tmp_path, sweep_parameter=None)
    with pytest.raises(SchemaMismatch):
        make_spec(scenario_file, tmp_path, sweep_values=())
    with pytest.raises(SchemaMismatch):
        make_spec(
            scenario_file,
            tmp_path,
            kind="EOC_VS_NUM_RIS",
            sweep_parameter="snr-db",
        )
    none_swept = make_spec(
        scenario_file,
        tmp_path,
        kind="TRAJECTORY",
        sweep_parameter=None,
        sweep_values=(),
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
        assert open(pa, "rb").read() == open(pb, "rb").read()


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
    want_sha = hashlib.sha256(open(scenario_file, "rb").read()).hexdigest()
    assert manifest["scenario-sha256"] == want_sha
    assert manifest["sigma-s-inv2"] == 10.0
    assert manifest["sigma-t-inv2"] == 10.0
    # every row carries the pooled sample count
    assert all(row.n == 3 for row in table.rows)


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

    def flaky(inner_spec, config, seed):
        if seed == bad_seed:
            raise SingularEfim("synthetic run failure")
        return real(inner_spec, config, seed)

    monkeypatch.setattr(harness, "_run_one", flaky)
    table = run_experiment(spec)
    failures = table.manifest["failures"]
    assert len(failures) == 1
    assert failures[0]["seed"] == bad_seed
    assert "synthetic run failure" in failures[0]["error"]
    assert all(row.n == 10 for row in table.rows)


def test_abort_at_ten_percent_failures(scenario_file, tmp_path, monkeypatch):
    spec = make_spec(
        scenario_file,
        tmp_path,
        sweep_parameter="snr-db",
        sweep_values=(0.0,),
        num_monte_carlo=10,
    )

    def always_fail(inner_spec, config, seed):
        raise SingularEfim("synthetic hard failure")

    real = harness._run_one

    def one_in_ten(inner_spec, config, seed):
        if seed == spec.base_seed:
            raise SingularEfim("synthetic hard failure")
        return real(inner_spec, config, seed)

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

    def broken(inner_spec, config, seed):
        raise TypeError("synthetic programming error")

    monkeypatch.setattr(harness, "_run_one", broken)
    with pytest.raises(TypeError, match="synthetic programming error"):
        run_experiment(spec)


def test_trend_warnings_fire_and_stay_silent(scenario_file, tmp_path):
    spec = make_spec(scenario_file, tmp_path)

    def agg(eoc_pair, bcrb_pair):
        return {
            (0.0, 0, 0, "eoc-mean"): (eoc_pair[0], 0.0, 1),
            (10.0, 0, 0, "eoc-mean"): (eoc_pair[1], 0.0, 1),
            (0.0, 0, 0, "bcrb-mean"): (bcrb_pair[0], 0.0, 1),
            (10.0, 0, 0, "bcrb-mean"): (bcrb_pair[1], 0.0, 1),
        }

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
    lines = open(paths[0], "r", encoding="utf-8").read().strip().split("\n")
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
    # an SNR figure needs an SNR sweep in the manifest
    sigma = run_kind(
        scenario_file, tmp_path, "EOC_VS_SNR", "sigma-s-inv2", (1.0, 10.0)
    )
    with pytest.raises(SchemaMismatch):
        emit_figure_data(sigma, "fig4", str(tmp_path))
