"""Command-line front end: subcommands, outputs, and exit codes."""

import dataclasses
import json
import math
import os

import pytest

import loctrack.cli as cli
import loctrack.harness as harness
from loctrack.errors import CampaignAborted
from loctrack.scenario import save_scenario, toy_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scene.json"
    save_scenario(toy_scenario(num_steps=3), str(path))
    return str(path)


@pytest.fixture()
def spec_file(tmp_path, scenario_file):
    payload = {
        "scenario": "scene.json",
        "kind": "EOC_VS_SNR",
        "sweep": {"parameter": "snr-db", "values": [0.0, 10.0]},
        "num-monte-carlo": 2,
        "base-seed": 3,
        "output-dir": "campaign",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_writes_outputs(spec_file, tmp_path, capsys):
    rc = cli.main(["run", spec_file])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    table_path = os.path.join(str(tmp_path), "campaign", "table.csv")
    manifest_path = os.path.join(str(tmp_path), "campaign", "manifest.json")
    assert out[0] == table_path
    assert out[1] == manifest_path
    assert os.path.exists(table_path)
    manifest = json.loads(open(manifest_path).read())
    assert manifest["kind"] == "EOC_VS_SNR"


def test_run_missing_spec_is_validation_error(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot load experiment spec" in capsys.readouterr().err


def test_run_bad_spec_is_validation_error(tmp_path, scenario_file, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "scene.json", "kind": "EOC_VS_SNR"}))
    assert cli.main(["run", str(path)]) == 2


def test_run_abort_maps_to_exit_3(spec_file, monkeypatch, capsys):
    def boom(spec):
        raise CampaignAborted("synthetic abort")

    monkeypatch.setattr(cli, "run_experiment", boom)
    rc = cli.main(["run", spec_file])
    assert rc == 3
    assert "campaign aborted" in capsys.readouterr().err


def _run_recursion_spec(tmp_path, monkeypatch, **extra):
    """Run a 3-step EP_CONVERGENCE spec; returns the exit code and how many
    runs started."""
    payload = {
        "scenario": "scene.json",
        "kind": "EP_CONVERGENCE",
        "sweep": {"parameter": "sigma-t-inv2", "values": [10.0]},
        "num-monte-carlo": 3,
        "base-seed": 3,
        "output-dir": "campaign",
        **extra,
    }
    path = tmp_path / "recursion.json"
    path.write_text(json.dumps(payload))
    started = []

    def no_run(spec, config, seed):
        started.append(seed)
        return []

    monkeypatch.setattr(harness, "_run_one", no_run)
    return cli.main(["run", str(path)]), len(started)


def test_run_rejects_disturbance_step_outside_scenario(
    scenario_file, tmp_path, monkeypatch, capsys
):
    rc, started = _run_recursion_spec(
        tmp_path, monkeypatch, disturbance={"steps": [99], "scale": 0.1}
    )
    assert (rc, started) == (2, 0)
    assert "disturbance.steps label 99" in capsys.readouterr().err


def test_run_rejects_constant_step_outside_scenario(
    scenario_file, tmp_path, monkeypatch, capsys
):
    rc, started = _run_recursion_spec(
        tmp_path, monkeypatch, **{"constant-from-step": 500}
    )
    assert (rc, started) == (2, 0)
    assert "constant-from-step label 500" in capsys.readouterr().err


def test_run_rejects_fractional_constant_step(
    scenario_file, tmp_path, monkeypatch, capsys
):
    rc, started = _run_recursion_spec(
        tmp_path, monkeypatch, **{"constant-from-step": 1.5}
    )
    assert (rc, started) == (2, 0)
    assert "constant-from-step label 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
def test_run_rejects_bad_disturbance_scale(tmp_path, monkeypatch, capsys, scale):
    rc, started = _run_recursion_spec(
        tmp_path, monkeypatch, disturbance={"steps": [2], "scale": scale}
    )
    assert (rc, started) == (2, 0)
    assert "disturbance.scale must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["num-monte-carlo", "base-seed"])
@pytest.mark.parametrize("value", ["abc", 2.7, True])
def test_run_rejects_non_integer_counts(tmp_path, monkeypatch, capsys, key, value):
    rc, started = _run_recursion_spec(tmp_path, monkeypatch, **{key: value})
    assert (rc, started) == (2, 0)
    assert f"{key} must be an integer" in capsys.readouterr().err


def test_validate_ok(scenario_file, capsys):
    rc = cli.main(["validate", scenario_file])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_violations(tmp_path, capsys):
    config = toy_scenario(num_steps=2)
    broken = dataclasses.replace(config, noise_variance=-1.0)
    path = tmp_path / "broken.json"
    save_scenario(broken, str(path))
    rc = cli.main(["validate", str(path)])
    assert rc == 2
    assert "noise" in capsys.readouterr().out


def test_validate_missing_file(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2


def test_stationary_golden_ratio(tmp_path, capsys):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"m": [[1.0]], "t": [[1.0]]}))
    rc = cli.main(["stationary", str(path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["j-star"][0][0] == pytest.approx((1 + math.sqrt(5)) / 2)
    assert payload["residual"] < 1e-12


def test_stationary_rejects_bad_inputs(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["stationary", str(missing)]) == 2
    indefinite = tmp_path / "indef.json"
    indefinite.write_text(json.dumps({"m": [[-1.0]], "t": [[1.0]]}))
    assert cli.main(["stationary", str(indefinite)]) == 2
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"m": [[1.0]]}))
    assert cli.main(["stationary", str(partial)]) == 2


def test_emit_happy_path(spec_file, tmp_path, capsys):
    assert cli.main(["run", spec_file]) == 0
    capsys.readouterr()
    table_path = os.path.join(str(tmp_path), "campaign", "table.csv")
    rc = cli.main(["emit", table_path, "--figure", "fig4"])
    assert rc == 0
    out_path = capsys.readouterr().out.strip()
    assert out_path == os.path.join(str(tmp_path), "campaign", "fig4.csv")
    header = open(out_path).readline().strip()
    assert header == "snr_db,sigma_s_inv2,eoc_mean,bcrb_mean"


def test_emit_wrong_figure_kind(spec_file, tmp_path, capsys):
    assert cli.main(["run", spec_file]) == 0
    capsys.readouterr()
    table_path = os.path.join(str(tmp_path), "campaign", "table.csv")
    rc = cli.main(["emit", table_path, "--figure", "fig8"])
    assert rc == 2
    assert "fig8" in capsys.readouterr().err


def test_emit_unknown_figure_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["emit", str(tmp_path / "t.csv"), "--figure", "fig99"])


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
