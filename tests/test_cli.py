"""Command-line front end: subcommands, outputs, and exit codes."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loctrack.cli as cli
import loctrack.harness as harness
from conftest import config_dict
from loctrack import schema
from loctrack.cli import STATIONARY
from loctrack.errors import CampaignAborted
from loctrack.harness import SPEC, SWEEP_VALUE
from loctrack.scenario import SCENARIO


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(config_dict(num_steps=3)))
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
    manifest = json.loads(Path(manifest_path).read_text())
    assert manifest["kind"] == "EOC_VS_SNR"


def test_run_missing_spec_is_validation_error(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot load experiment spec" in capsys.readouterr().err


def test_run_bad_spec_is_validation_error(tmp_path, scenario_file, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "scene.json", "kind": "EOC_VS_SNR"}))
    assert cli.main(["run", str(path)]) == 2


@pytest.mark.parametrize("text", ["5", "[1, 2]", '"spec"'])
def test_run_rejects_non_object_spec(tmp_path, capsys, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 2
    assert "experiment spec must be a JSON object" in capsys.readouterr().err


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

    def no_run(spec, config, seed, shared):
        started.append(seed)
        return np.zeros(len(harness._row_keys(spec, config)))

    monkeypatch.setattr(harness, "_run_one", no_run)
    return cli.main(["run", str(path)]), len(started)


@pytest.mark.parametrize(
    "values", [[10.0, 1.0], [10.0, 10.0]], ids=["unsorted", "repeated"]
)
def test_run_rejects_sweep_values_not_strictly_ascending(
    scenario_file, tmp_path, monkeypatch, capsys, values
):
    """A repeated value would run every seed twice and write each row twice
    with a doubled sample count."""
    rc, started = _run_recursion_spec(
        tmp_path, monkeypatch, sweep={"parameter": "sigma-t-inv2", "values": values}
    )
    assert (rc, started) == (2, 0)
    assert "sweep values must be strictly ascending" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "kind, sweep",
    [
        ("EOC_VS_SNR", {"parameter": "snr-db", "values": [0.0]}),
        ("EOC_VS_NUM_RIS", {"parameter": "num-ris", "values": [1.0]}),
        ("TRAJECTORY", {}),
    ],
)
def test_run_rejects_disturbance_steps_no_run_reads(
    scenario_file, tmp_path, monkeypatch, capsys, kind, sweep
):
    """Only the recursion kinds apply a disturbance; any other kind would
    record steps in its manifest that no run applied."""
    rc, started = _run_recursion_spec(
        tmp_path, monkeypatch, kind=kind, sweep=sweep,
        disturbance={"steps": [2], "scale": 0.1},
    )
    assert (rc, started) == (2, 0)
    assert f"kind {kind} runs no recursion" in capsys.readouterr().err
    rc, started = _run_recursion_spec(
        tmp_path, monkeypatch, kind=kind, sweep=sweep, disturbance={"steps": []}
    )
    assert (rc, started) == (0, 3)


@pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
def test_run_rejects_bad_disturbance_scale(tmp_path, monkeypatch, capsys, scale):
    rc, started = _run_recursion_spec(
        tmp_path, monkeypatch, disturbance={"steps": [2], "scale": scale}
    )
    assert (rc, started) == (2, 0)
    assert "disturbance.scale must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["num-monte-carlo", "base-seed"])
@pytest.mark.parametrize("value", ["abc", 2.7, True, -5])
def test_run_rejects_non_integer_counts(tmp_path, monkeypatch, capsys, key, value):
    rc, started = _run_recursion_spec(tmp_path, monkeypatch, **{key: value})
    assert (rc, started) == (2, 0)
    assert f"{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"snr-db-offset": "abc"}, "snr-db-offset must be a finite number"),
        ({"snr-db-offset": None}, "snr-db-offset must be a finite number"),
        ({"sweep": {"values": ["abc"]}}, "sweep values must be numbers"),
        ({"sweep": {"values": [None]}}, "sweep values must be numbers"),
        ({"sweep": {"values": 5}}, "sweep.values must be a list"),
        ({"sweep": "abc"}, "sweep must be an object"),
        ({"disturbance": 5}, "disturbance must be an object"),
        ({"disturbance": 0}, "disturbance must be an object"),
        ({"sweep": []}, "sweep must be an object"),
        ({"kind": "EOC_VS_SNR", "constant-from-step": "abc"},
         "constant-from-step label 'abc'"),
        ({"snr-db-ofset": 10.0}, "unknown keys: snr-db-ofset"),
    ],
)
def test_run_rejects_non_numeric_spec_values(
    tmp_path, monkeypatch, capsys, extra, message
):
    rc, started = _run_recursion_spec(tmp_path, monkeypatch, **extra)
    assert (rc, started) == (2, 0)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("num-steps", "abc", "malformed value"),
        ("noise-variance", "x", "malformed value"),
        ("temporal-covariance", "x", "malformed value"),
        ("ris-positions", [[1, 2, 3]], "ris-positions must have shape"),
        ("num-users", 2.7, "num-users must be an integer"),
        ("num-steps", 2.5, "num-steps must be an integer"),
        ("num-steps", 3.0, "num-steps must be an integer"),
        ("num-ris", 3.5, "num-ris must be an integer"),
        ("n-bs-antennas", 16.9, "n-bs-antennas must be an integer"),
        ("n-ris-elements", 16.5, "n-ris-elements must be an integer"),
        ("pilot-length", 8.2, "pilot-length must be an integer"),
        ("pilot-length", True, "pilot-length must be an integer"),
        ("ris-phase-profiles", {"policy": "random", "seed": 1.5},
         "seed must be an integer"),
        ("ris-phase-profiles", {"policy": "random", "seed": False},
         "seed must be an integer"),
        ("ris-phase-profiles", {"policy": "random", "seed": -3},
         "seed must be an integer"),
        ("noise-variance", math.nan, "noise-variance must be a finite number"),
        ("rician-factor-br", math.nan, "rician-factor-br must be a finite number"),
        ("path-loss-exponent", math.nan, "path-loss-exponent must be a finite number"),
        ("first-step-anchor-variance", math.nan,
         "first-step-anchor-variance must be a finite number"),
        ("transmit-power", math.inf, "transmit-power must be a finite number"),
        ("bs-ris-gains", [math.nan] * 4, "bs-ris-gains must be numbers"),
        ("carrier-frequency-hz", True, "carrier-frequency-hz must be a finite number"),
        ("spatial-precision", True, "spatial-precision must be numbers"),
        ("temporal-covariance", True, "temporal-covariance must be numbers"),
        ("spatial-edges", [[0.7, 1]], "spatial-edges must be integers"),
        ("ris-phase-profiles", {"policy": "aligned", "seed": 3},
         "ris-phase-profiles.seed"),
    ],
)
def test_run_validates_scenario_before_any_run(
    scenario_file, tmp_path, monkeypatch, capsys, key, value, message
):
    payload = json.loads(Path(scenario_file).read_text())
    payload[key] = value
    with open(scenario_file, "w") as fh:
        json.dump(payload, fh)
    rc, started = _run_recursion_spec(tmp_path, monkeypatch)
    assert (rc, started) == (2, 0)
    assert message in capsys.readouterr().err
    assert cli.main(["validate", scenario_file]) == 2


@pytest.mark.parametrize(
    "kind, parameter, values, message",
    [
        ("EOC_VS_SNR", "sigma-t-inv2", [0.0], "sigma-t-inv2 sweep value 0.0"),
        ("EOC_VS_SNR", "sigma-t-inv2", [-1.0, 1.0], "sigma-t-inv2 sweep value -1.0"),
        ("EOC_VS_SNR", "sigma-s-inv2", [-1.0], "sigma-s-inv2 sweep value -1.0"),
        ("EOC_VS_SNR", "snr-db", [0.0, 4000.0], "snr-db sweep value 4000.0"),
        ("EOC_VS_NUM_RIS", "num-ris", [1.5, 2.5], "num-ris sweep value 1.5"),
        ("EOC_VS_NUM_RIS", "num-ris", [2.0, 3.5], "num-ris sweep value 3.5"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_run_validates_each_sweep_value_before_any_run(
    scenario_file, tmp_path, monkeypatch, capsys, kind, parameter, values, message
):
    rc, started = _run_recursion_spec(
        tmp_path, monkeypatch, kind=kind,
        sweep={"parameter": parameter, "values": values},
    )
    assert (rc, started) == (2, 0)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("scenario", 5), ("output-dir", 7),
                                        ("scenario", None), ("output-dir", ["out"])])
def test_run_rejects_non_string_paths(
    scenario_file, tmp_path, monkeypatch, capsys, key, value
):
    rc, started = _run_recursion_spec(tmp_path, monkeypatch, **{key: value})
    assert (rc, started) == (2, 0)
    assert f"{key} must be a path string" in capsys.readouterr().err


def test_validate_ok(scenario_file, capsys):
    rc = cli.main(["validate", scenario_file])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(config_dict(noise_variance=-1.0)))
    rc = cli.main(["validate", str(path)])
    assert rc == 2
    assert "noise" in capsys.readouterr().out


def test_validate_names_every_bad_key_at_once(tmp_path, capsys):
    """An unknown, a malformed, a missing and a malformed nested key: one
    line each, from one run."""
    obj = config_dict(
        noise_variance="x", ris_phase_profiles={"policy": "random", "seed": -1}
    )
    obj["spare-key"] = 1
    del obj["pilot-length"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "scenario JSON has unknown keys: spare-key",
        "scenario JSON has a malformed value: noise-variance must be a finite "
        "number > 0, got 'x'",
        "scenario JSON missing keys: pilot-length",
        "scenario JSON has a malformed value: ris-phase-profiles.seed must be an "
        "integer >= 0, got -1",
    ]


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
    capsys.readouterr()
    for name, m, t in [
        ("mismatched", np.eye(2).tolist(), np.eye(4).tolist()),
        ("empty", [], []),
        ("row", [[1.0, 0.0, 0.0]], np.eye(3).tolist()),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"m": m, "t": t}))
        assert cli.main(["stationary", str(path)]) == 2
        assert "square matrices of one shape" in capsys.readouterr().err
    for name, text in [
        ("list", "[1, 2]"),
        ("string", '"x"'),
        ("object-value", json.dumps({"m": {"a": 1}, "t": [[1, 0], [0, 1]]})),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert cli.main(["stationary", str(path)]) == 2
        assert "cannot read constants file" in capsys.readouterr().err


def test_emit_happy_path(spec_file, tmp_path, capsys):
    assert cli.main(["run", spec_file]) == 0
    capsys.readouterr()
    table_path = os.path.join(str(tmp_path), "campaign", "table.csv")
    rc = cli.main(["emit", table_path, "--figure", "fig4"])
    assert rc == 0
    out_path = capsys.readouterr().out.strip()
    assert out_path == os.path.join(str(tmp_path), "campaign", "fig4.csv")
    header = Path(out_path).read_text().split("\n")[0].strip()
    assert header == "snr_db,sigma_s_inv2,eoc_mean,bcrb_mean"


def test_emit_wrong_figure_kind(spec_file, tmp_path, capsys):
    assert cli.main(["run", spec_file]) == 0
    capsys.readouterr()
    table_path = os.path.join(str(tmp_path), "campaign", "table.csv")
    rc = cli.main(["emit", table_path, "--figure", "fig8"])
    assert rc == 2
    assert "fig8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sweep_value, manifest, message",
    [
        ("abc", "{}", "malformed table row"),
        ("0.0", "{bad", "is not JSON"),
        ("0.0", "[1]", "does not hold a JSON object"),
    ],
    ids=["non-numeric-row", "manifest-not-json", "manifest-not-object"],
)
def test_emit_rejects_malformed_table_or_manifest(
    tmp_path, capsys, sweep_value, manifest, message
):
    table_path = tmp_path / "table.csv"
    table_path.write_text(
        "experiment,sweep_value,t,k,metric_name,mean,stderr,n\n"
        f"EOC_VS_SNR,{sweep_value},0,0,eoc-mean,0.5,0.0,1\n"
    )
    (tmp_path / "manifest.json").write_text(manifest)
    assert cli.main(["emit", str(table_path), "--figure", "fig4"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("metric", ["eoc-mean", "bcrb-mean"])
def test_emit_rejects_table_missing_a_step_row(scenario_file, tmp_path, capsys, metric):
    """fig8 (and fig9/fig10, which share the per-step code) name the
    missing metric, sweep value and step instead of crashing or dropping
    the step."""
    spec = tmp_path / "fig8.json"
    spec.write_text(json.dumps({
        "scenario": "scene.json",
        "kind": "EP_CONVERGENCE",
        "sweep": {"parameter": "sigma-t-inv2", "values": [1.0, 10.0]},
        "num-monte-carlo": 2,
        "base-seed": 3,
        "output-dir": "campaign",
    }))
    assert cli.main(["run", str(spec)]) == 0
    table_path = tmp_path / "campaign" / "table.csv"
    lines = table_path.read_text().splitlines(keepends=True)
    doomed = f"EP_CONVERGENCE,10.0,2,0,{metric},"
    kept = [line for line in lines if not line.startswith(doomed)]
    assert len(kept) == len(lines) - 1
    table_path.write_text("".join(kept))
    capsys.readouterr()
    assert cli.main(["emit", str(table_path), "--figure", "fig8"]) == 2
    err = capsys.readouterr().err
    assert f"table has no '{metric}' at sweep value 10.0, step 2" in err


def test_emit_unknown_figure_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["emit", str(tmp_path / "t.csv"), "--figure", "fig99"])


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


# ---------------------------------------------------------------------------
# every key of every input table rejects what its kind does not admit

MISSING = object()
_MUTATIONS = {
    "string": st.text(max_size=4),
    "bool": st.booleans(),
    "fraction": st.floats(0.01, 1e3).filter(lambda v: not v.is_integer()),
    "nan": st.just(math.nan),
    "inf": st.sampled_from([math.inf, -math.inf]),
    "negative": st.one_of(st.integers(max_value=-1), st.floats(-1e6, -1e-6)),
    "null": st.none(),
    "missing": st.just(MISSING),
}
# The mutations each kind must reject. One it admits (a negative
# path-loss exponent, a fractional noise variance) is not drawn for it.
_INTEGER = ("string", "bool", "fraction", "nan", "inf", "negative")
_REJECTS = {schema.KINDS[name]: rejects for name, rejects in {
    "count": _INTEGER,
    "index": _INTEGER,
    "step": _INTEGER,
    "number": ("string", "bool", "nan", "inf"),
    "positive": ("string", "bool", "nan", "inf", "negative"),
    "nonnegative": ("string", "bool", "nan", "inf", "negative"),
    "path": ("bool", "fraction", "nan", "negative"),
    "list": ("string", "bool", "fraction", "nan"),
    "object": ("string", "bool", "fraction", "nan"),
}.items()}
_ENUM_REJECTS = ("string", "bool", "fraction", "nan")
# Finite numbers, which the sweep list admits, that a sweep value rejects.
# An SNR offset admits every finite number.
_SWEEP_REJECTS = {
    "sigma-s-inv2": _MUTATIONS["negative"],
    "sigma-t-inv2": st.one_of(st.just(0.0), _MUTATIONS["negative"]),
    "num-ris": st.one_of(st.just(0.0), _MUTATIONS["fraction"], _MUTATIONS["negative"]),
}


def _entries(name, table, prefix=()):
    for key, field in table.items():
        yield name, prefix + (key,), field
        if field.table is not None:
            yield from _entries(name, field.table, prefix + (key,))


_ENTRIES = [
    *_entries("scenario", SCENARIO),
    *_entries("spec", SPEC),
    *_entries("stationary", STATIONARY),
    *[("sweep", (key,), field) for key, field in SWEEP_VALUE.items() if key != "snr-db"],
]


def _mutation(data, field):
    """A value ``field`` must reject: the bad value itself, or a list
    holding a bad item or leaf."""
    kind = field.kind
    if kind in (schema.NESTED, schema.ARRAY):
        names, wrap = _REJECTS[field.of], data.draw(st.booleans())
    elif kind is schema.LIST and data.draw(st.booleans()):
        names, wrap = _REJECTS[field.of], True
    else:
        names, wrap = _REJECTS.get(kind, _ENUM_REJECTS), False
    names += ("null",) * (not field.null)
    names += ("missing",) * (field.default == schema.REQUIRED)
    name = data.draw(st.sampled_from(names))
    value = data.draw(_MUTATIONS[name])
    if name == "string" and kind not in _REJECTS:  # an enum: not one of its choices
        value = data.draw(st.text(max_size=4).filter(lambda v: not kind.admits(v)))
    return [value] if wrap and value is not MISSING else value


def _set(payload, path, value):
    *parents, key = path
    for parent in parents:
        payload = payload[parent]
    if value is MISSING:
        del payload[key]
    else:
        payload[key] = value


@pytest.mark.parametrize(
    "table, path, field", _ENTRIES, ids=[f"{t}:{'.'.join(p)}" for t, p, _ in _ENTRIES]
)
@settings(max_examples=8, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_each_table_key_rejects_what_its_kind_does_not_admit(
    tmp_path, monkeypatch, capsys, table, path, field, data
):
    scenario = config_dict(num_steps=3, ris_phase_profiles={"policy": "random", "seed": 1})
    spec = {
        "scenario": "scene.json", "kind": "EP_CONVERGENCE",
        "sweep": {"parameter": "sigma-t-inv2", "values": [10.0]},
        "num-monte-carlo": 2, "base-seed": 3, "output-dir": "campaign",
        "snr-db-offset": 0.0, "disturbance": {"steps": [2], "scale": 0.5},
        "constant-from-step": 2,
    }
    constants = {"m": [[1.0]], "t": [[1.0]]}
    if table == "sweep":
        kind = "EOC_VS_NUM_RIS" if path == ("num-ris",) else "EP_CONVERGENCE"
        value = data.draw(_SWEEP_REJECTS[path[0]])
        spec.update(kind=kind, sweep={"parameter": path[0], "values": [value]})
    else:
        value = _mutation(data, field)
        _set({"scenario": scenario, "spec": spec, "stationary": constants}[table],
             path, value)
    for name, payload in (("scene", scenario), ("spec", spec), ("constants", constants)):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    started = []
    monkeypatch.setattr(harness, "_run_one", lambda *args: started.append(args))
    monkeypatch.setattr(cli, "stationary_point", lambda *args: started.append(args))
    capsys.readouterr()
    if table == "stationary":
        rc = cli.main(["stationary", str(tmp_path / "constants.json")])
    else:
        rc = cli.main(["run", str(tmp_path / "spec.json")])
    message = capsys.readouterr().err
    assert (rc, started) == (2, []), message
    assert all(part in message for part in path), message
    if table == "scenario":
        assert cli.main(["validate", str(tmp_path / "scene.json")]) == 2
