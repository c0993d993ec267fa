"""Every shipped config passes the checks ``loctrack run`` makes before any
run, every shipped campaign runs end to end, and every key the shipped
configs and the benchmark's generated inputs use is a table key."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from loctrack.harness import (
    SPEC,
    campaign_configs,
    emit_figure_data,
    experiment_from_json,
    load_experiment,
    run_experiment,
    write_outputs,
)
from loctrack.scenario import SCENARIO, load_scenario, validate

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))
CAMPAIGNS = sorted(CONFIG_DIR.glob("fig*.json"))


def _unknown_keys(payload: dict, table: dict, prefix: str = "") -> list:
    unknown = []
    for key, value in payload.items():
        field = table.get(key)
        if field is None:
            unknown.append(prefix + key)
        elif field.table is not None and isinstance(value, dict):
            unknown += _unknown_keys(value, field.table, f"{prefix}{key}.")
    return unknown


def _benchmark_inputs(tmp_path, monkeypatch) -> list:
    """Every scenario and spec file ``perfbench/run.py`` writes, full and
    ``--tiny``, through its own ``write_inputs``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    module_spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py"
    )
    run = importlib.util.module_from_spec(module_spec)
    monkeypatch.setitem(sys.modules, module_spec.name, run)
    module_spec.loader.exec_module(run)
    for name, workload in run.WORKLOADS.items():
        for tiny in (False, True):
            run.write_inputs(workload, 1, tmp_path / f"{name}-{tiny}", tiny)
    return sorted(tmp_path.glob("*/*.json"))


def test_every_input_key_is_a_table_key(tmp_path, monkeypatch):
    """Unknown keys exit 2, so a key the tables lack would stop a shipped
    campaign or a benchmark workload."""
    unknown = {}
    for path in CONFIGS + _benchmark_inputs(tmp_path, monkeypatch):
        payload = json.loads(path.read_text())
        keys = _unknown_keys(payload, SPEC if "kind" in payload else SCENARIO)
        if keys:
            unknown[str(path)] = keys
    assert not unknown


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
