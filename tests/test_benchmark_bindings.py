"""The names and parameters the benchmark harness binds in ``loctrack``.

``perfbench/spans.py`` wraps the functions in its ``TARGETS`` and skips a
name the package no longer defines, so a renamed or deleted function would
read as zero calls without any error. ``perfbench/child.py`` binds the
arguments of ``coupling.eoc_report`` and ``scenario.sample_trajectory_ensemble``
by name and reads the report and split fields checked here. The spans
module is read from its source, so nothing is written under ``perfbench/``.
"""

import importlib
import inspect
import types
from pathlib import Path

from conftest import shipped_scenario
from loctrack import coupling, scenario
from loctrack.fim import assemble_efim, measurement_fim, prior_fim
from loctrack.scenario import prior_model, static_trajectory

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


def test_span_targets_resolve():
    missing = []
    for layer, names in load_spans().TARGETS.items():
        module = importlib.import_module(f"loctrack.{layer}")
        missing += [
            f"{layer}.{name}" for name in names
            if not callable(getattr(module, name, None))
        ]
    assert not missing, f"benchmark span targets not defined: {missing}"


def test_bound_parameters_exist():
    assert {"efim", "split"} <= set(inspect.signature(coupling.eoc_report).parameters)
    ensemble = inspect.signature(scenario.sample_trajectory_ensemble).parameters
    assert {"config", "count", "burn_in"} <= set(ensemble)


def test_split_and_report_fields_exist():
    config = shipped_scenario()
    pfim = prior_fim(config, prior_model(config, include_anchor=True))
    efim = assemble_efim(measurement_fim(config, static_trajectory(config)), pfim)
    split = coupling.split_d_a(efim, pfim)
    assert split.nominal_blocks.shape == (config.num_steps, config.num_users, 2, 2)
    report = coupling.eoc_report(efim, split)
    for field in ("eoc", "bcrb", "mean_eoc", "mean_bcrb"):
        assert hasattr(report, field), field
