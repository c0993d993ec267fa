"""The names and parameters the benchmark harness binds in ``loctrack``.

``perfbench/spans.py`` wraps the functions in its ``TARGETS`` and skips a
name the package no longer defines, so a renamed or deleted function would
read as zero calls without any error. It wraps them on the module
attribute, so a call that bypasses the attribute is not counted either:
each run starts at the one ``harness.random_walk_trajectory`` call. A
campaign steps the recursion of all its runs together in
``recursive.run_recursions``, which steps each run up to its first bitwise
fixed point, at each disturbed step and from there to the next fixed point
(the steps in between repeat a state); it makes no ``recursive_step`` call.
``perfbench/child.py`` binds the arguments of ``coupling.eoc_report`` and
``scenario.sample_trajectory_ensemble`` by name and reads the report and
split fields checked here. The spans module is read from its source, so
nothing is written under ``perfbench/``.
"""

import importlib
import inspect
import json
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import config_dict, count_calls, shipped_scenario, stepwise_recursion
from loctrack import coupling, harness, recursive, scenario
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
    pfim = prior_fim(prior_model(config, include_anchor=True))
    efim = assemble_efim(measurement_fim(config, static_trajectory(config)), pfim)
    split = coupling.split_d_a(efim, pfim)
    assert split.nominal_blocks.shape == (config.num_steps, config.num_users, 2, 2)
    report = coupling.eoc_report(efim, split)
    for field in ("eoc", "bcrb", "mean_eoc", "mean_bcrb"):
        assert hasattr(report, field), field


@pytest.mark.parametrize(
    "name, num_steps, constant_from_step, max_calls",
    [("toy", 6, None, 6), ("toy", 6, 1, 6), ("paper_baseline_long", 1000, 1, 500)],
    ids=["None", "1", "fixed-point"],
)
def test_run_recursion_calls_recursive_step_up_to_each_fixed_point(
    monkeypatch, name, num_steps, constant_from_step, max_calls
):
    """The one-run view: ``run_recursion`` does a ``recursive_step``'s work
    (through ``run_recursions``, whose ``on_step`` hook reports it) at
    exactly the steps the stepwise oracle predicts: every step but those on
    the same inputs as a predecessor that repeated its own J."""
    config = shipped_scenario(name, num_steps=num_steps).with_snr_offset_db(70.0)
    trajectory = static_trajectory(config)
    kwargs = dict(
        constant_from_step=constant_from_step,
        disturbance_steps=(0, 3, 20, 21),
        disturbance_scale=0.5,
    )
    want = stepwise_recursion(config, trajectory, **kwargs)
    expected = [
        t for t in range(num_steps)
        if t < 2
        or want[t].inputs is not want[t - 1].inputs
        or want[t - 1].efim.tobytes() != want[t - 2].efim.tobytes()
    ]
    stepped = []
    inner = recursive.run_recursions

    def recording_recursions(runs, out, *args, on_step=None, **kw):
        def record(t, idx, inputs, efim, carry):
            stepped.append(t)
            on_step(t, idx, inputs, efim, carry)

        return inner(runs, out, *args, on_step=record, **kw)

    monkeypatch.setattr(recursive, "run_recursions", recording_recursions)
    recursive.run_recursion(config, trajectory, **kwargs)
    assert stepped == expected
    assert len(stepped) <= max_calls


@pytest.mark.parametrize(
    "name, num_steps, constant_from_step, max_steps",
    [("toy", 6, None, 6), ("toy", 6, 1, 6), ("paper_baseline_long", 1000, 1, 500)],
    ids=["None", "1", "fixed-point"],
)
def test_stacked_recursion_steps_each_run_up_to_its_fixed_point(
    name, num_steps, constant_from_step, max_steps
):
    """Three runs stepped together: each run is stepped at exactly the steps
    the stepwise oracle predicts, every step but those on the same inputs
    as a predecessor that repeated its own J."""
    config = shipped_scenario(name, num_steps=num_steps).with_snr_offset_db(70.0)
    trajectories = [static_trajectory(config)] + [
        scenario.random_walk_trajectory(config, seed) for seed in (7, 8)
    ]
    kwargs = dict(disturbance_steps=(0, 3, 20, 21), disturbance_scale=0.5)
    runs = [recursive.run_inputs(config, trajectory, constant_from_step)
            for trajectory in trajectories]
    stepped = [[] for _ in runs]

    def record(t, idx, inputs, efim, carry):
        for i in idx:
            stepped[i].append(t)

    out = np.empty((2 * num_steps, len(runs)))
    assert recursive.run_recursions(runs, out, on_step=record, **kwargs) == {}
    for run, trajectory in enumerate(trajectories):
        want = stepwise_recursion(
            config, trajectory, constant_from_step=constant_from_step, **kwargs
        )
        expected = [
            t for t in range(num_steps)
            if t < 2
            or want[t].inputs is not want[t - 1].inputs
            or want[t - 1].efim.tobytes() != want[t - 2].efim.tobytes()
        ]
        assert stepped[run] == expected, run
        assert len(expected) <= max_steps


def test_run_experiment_draws_one_walk_per_job(monkeypatch, tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(config_dict(num_steps=3)))
    spec = harness.ExperimentSpec(
        scenario_path=str(path),
        kind="EP_CONVERGENCE",
        sweep_parameter="sigma-t-inv2",
        sweep_values=(1.0, 10.0),
        num_monte_carlo=3,
        base_seed=5,
        output_dir=str(tmp_path / "out"),
    )
    calls = count_calls(monkeypatch, harness, "random_walk_trajectory")
    harness.run_experiment(spec)
    assert len(calls) == len(spec.sweep_values) * spec.num_monte_carlo
