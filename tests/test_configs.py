"""Every shipped config passes the checks ``loctrack run`` makes before any
run, and every shipped campaign runs end to end."""

import json
from pathlib import Path

import pytest

from loctrack.harness import (
    campaign_configs,
    emit_figure_data,
    experiment_from_json,
    load_experiment,
    run_experiment,
    write_outputs,
)
from loctrack.scenario import load_scenario, validate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))
CAMPAIGNS = sorted(CONFIG_DIR.glob("fig*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_config_passes_pre_run_checks(path):
    if "kind" in json.loads(path.read_text()):
        spec = load_experiment(str(path))
        base_config, configs = campaign_configs(spec)
        assert validate(base_config).ok
        assert configs
    else:
        report = validate(load_scenario(str(path)))
        assert report.ok, str(report)


@pytest.mark.parametrize("path", CAMPAIGNS, ids=lambda path: path.name)
def test_shipped_campaign_runs_end_to_end(path, tmp_path):
    """One run per sweep value, then the figure the file is named after."""
    payload = json.loads(path.read_text())
    payload["num-monte-carlo"] = 1
    payload["output-dir"] = str(tmp_path / "run")
    spec = experiment_from_json(payload, base_dir=str(CONFIG_DIR))
    table = run_experiment(spec)
    assert table.manifest["failures"] == []
    write_outputs(table, spec.output_dir)
    figure = path.name.split("_")[0]
    (written,) = emit_figure_data(table, figure, str(tmp_path / "figures"))
    assert Path(written).read_text().count("\n") > 1
