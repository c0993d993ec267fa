"""Every shipped config passes the checks ``loctrack run`` makes before any run."""

import json
from pathlib import Path

import pytest

from loctrack.harness import campaign_configs, load_experiment
from loctrack.scenario import load_scenario, validate

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


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
