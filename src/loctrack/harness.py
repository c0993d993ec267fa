"""Seeded Monte Carlo campaign driver and figure-data emission.

A campaign turns a JSON experiment description into a long-format result
table plus a manifest.  Runs are independent work items keyed by
``base_seed + run_index``, executed in order on one worker thread. The
``(t, k, metric)`` keys a run writes follow from the spec and the
scenario's T and K alone, so ``_row_keys`` declares them once per
campaign; each successful run fills one column of its sweep value's
``(keys, runs)`` array, and each sweep value has one reduce over its
filled columns. Reruns with the same spec and seed are byte-identical.

Runs share two things, read-only, each stored by the first run that needs
it; a draw or build that raises is not stored, so every run that needs it
fails the same way.

* Each seed's l1 ensemble. With the ``l1-norm`` prior a run also reads an
  ensemble sampled from its seed. An ``snr-db`` sweep draws it once per
  seed: an SNR shift changes only the noise variance, which the sampler
  never reads. Prior sweeps change the density sampled and ``num-ris``
  sweeps the surfaces its separation check reads, so they draw once per
  run. ``TRAJECTORY`` runs write positions only and draw no ensemble.
* Each distinct prior's information. A quadratic prior's information
  depends only on what ``prior_model`` reads, so EoC runs build it once
  per campaign for ``snr-db`` and ``num-ris`` sweeps and once per value
  for prior sweeps. An l1 prior reads its run's ensemble: built per run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .asymptotics import ASYMPTOTIC_LARGE, ASYMPTOTIC_SMALL
from .blocks import spd_solve
from .coupling import eoc_report, split_d_a
from .errors import CampaignAborted, LocTrackError, NotSpd, SchemaMismatch
from .fim import assemble_efim, measurement_fim, prior_fim
from .recursive import constant_inputs, run_recursion, stationary_point
from .scenario import (
    PRIOR_L1,
    SCENARIO,
    AlignedPhases,
    RandomPhases,
    ScenarioConfig,
    Trajectory,
    load_scenario,
    prior_model,
    random_walk_trajectory,
    sample_trajectory_ensemble,
    validate,
)
from .schema import Field, check, enum, read

KIND_EOC_VS_SNR = "EOC_VS_SNR"
KIND_EOC_VS_NUM_RIS = "EOC_VS_NUM_RIS"
KIND_EP_CONVERGENCE = "EP_CONVERGENCE"
KIND_ASYMPTOTIC_SPATIAL = "ASYMPTOTIC_SPATIAL"
KIND_ASYMPTOTIC_TEMPORAL = "ASYMPTOTIC_TEMPORAL"
KIND_TRAJECTORY = "TRAJECTORY"

EXPERIMENT_KINDS = (
    KIND_EOC_VS_SNR,
    KIND_EOC_VS_NUM_RIS,
    KIND_EP_CONVERGENCE,
    KIND_ASYMPTOTIC_SPATIAL,
    KIND_ASYMPTOTIC_TEMPORAL,
    KIND_TRAJECTORY,
)

SWEEP_SNR_DB = "snr-db"
SWEEP_SIGMA_S = "sigma-s-inv2"
SWEEP_SIGMA_T = "sigma-t-inv2"
SWEEP_NUM_RIS = "num-ris"

# Which sweep parameters each experiment kind accepts.  TRAJECTORY runs
# take no sweep at all.
_SWEEPABLE = {
    KIND_EOC_VS_SNR: (SWEEP_SNR_DB, SWEEP_SIGMA_S, SWEEP_SIGMA_T),
    KIND_EOC_VS_NUM_RIS: (SWEEP_NUM_RIS,),
    KIND_EP_CONVERGENCE: (SWEEP_SIGMA_T, SWEEP_SIGMA_S, SWEEP_SNR_DB),
    KIND_ASYMPTOTIC_SPATIAL: (SWEEP_SIGMA_S,),
    KIND_ASYMPTOTIC_TEMPORAL: (SWEEP_SIGMA_T,),
    KIND_TRAJECTORY: (),
}

# Kinds that run the step recursion and so read ``constant_from_step`` and
# the disturbance.
_RECURSION_KINDS = (
    KIND_EP_CONVERGENCE,
    KIND_ASYMPTOTIC_SPATIAL,
    KIND_ASYMPTOTIC_TEMPORAL,
)

FIGURE_KINDS = {
    "fig3": KIND_TRAJECTORY,
    "fig4": KIND_EOC_VS_SNR,
    "fig5": KIND_EOC_VS_SNR,
    "fig6": KIND_EOC_VS_NUM_RIS,
    "fig8": KIND_EP_CONVERGENCE,
    "fig9": KIND_ASYMPTOTIC_SPATIAL,
    "fig10": KIND_ASYMPTOTIC_TEMPORAL,
}

FAILURE_ABORT_FRACTION = 0.1
TREND_MARGIN = 1e-9

# Deviation sample count used to Monte Carlo the prior Hessian when a
# campaign scenario carries the non-Gaussian prior.
_L1_ENSEMBLE = 100


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form, for byte-stable CSV output."""
    return repr(float(value))


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One campaign: scenario, kind, sweep grid, seeds, output location.
    ``experiment_from_json`` checks a spec's JSON form; one built in code is
    taken as given.

    ``disturbance_steps`` and ``constant_from_step`` use 1-based step
    labels matching the CSV convention; step handling converts to 0-based
    indices internally.
    """

    scenario_path: str
    kind: str
    sweep_parameter: str | None
    sweep_values: tuple
    num_monte_carlo: int
    base_seed: int
    output_dir: str
    snr_db_offset: float = 0.0
    disturbance_steps: tuple = ()
    disturbance_scale: float = 1.0
    constant_from_step: int | None = 2


# The entry that checks each value of a sweep of that parameter.
SWEEP_VALUE = {
    SWEEP_SNR_DB: Field("number"),
    SWEEP_SIGMA_S: Field("nonnegative"),
    SWEEP_SIGMA_T: Field("positive"),
    SWEEP_NUM_RIS: Field("whole"),
}

# One entry per spec key; ``experiment_from_json`` adds the rules across keys.
SPEC = {
    "scenario": Field("path"),
    "kind": Field(enum(*EXPERIMENT_KINDS)),
    "sweep": Field("object", {}, table={
        "parameter": Field(enum(*SWEEP_VALUE), None, null=True),
        "values": Field("list", []),
    }),
    "num-monte-carlo": Field("count"),
    "base-seed": Field("index"),
    "output-dir": Field("path"),
    "snr-db-offset": Field("number", 0.0),
    "disturbance": Field("object", {}, table={
        "steps": Field("list", [], of="step"),
        "scale": Field("nonnegative", 1.0),
    }),
    "constant-from-step": Field("step", 2, null=True),
}


def experiment_from_json(payload: dict, base_dir: str = ".") -> ExperimentSpec:
    """Build a spec from its JSON form; relative paths resolve against
    ``base_dir`` (normally the directory holding the spec file)."""
    v = read(SPEC, payload, "experiment spec")
    kind, parameter, values = v["kind"], v["sweep"]["parameter"], v["sweep"]["values"]
    if (parameter is None) != (not values):
        raise SchemaMismatch("sweep.parameter and sweep.values go together")
    if parameter is not None and parameter not in _SWEEPABLE[kind]:
        raise SchemaMismatch(f"kind {kind} cannot sweep {parameter!r}")
    for value in values:
        check(SWEEP_VALUE[parameter], f"{parameter} sweep value {_fmt(value)}", value)
    if any(a >= b for a, b in zip(values, values[1:])):
        raise SchemaMismatch("sweep values must be strictly ascending")
    if v["disturbance"]["steps"] and kind not in _RECURSION_KINDS:
        raise SchemaMismatch(f"kind {kind} runs no recursion, so it takes no disturbance.steps")
    # os.path.join keeps an absolute path as it is.
    return ExperimentSpec(
        scenario_path=os.path.join(base_dir, v["scenario"]),
        kind=kind,
        sweep_parameter=parameter,
        sweep_values=tuple(values),
        num_monte_carlo=v["num-monte-carlo"],
        base_seed=v["base-seed"],
        output_dir=os.path.join(base_dir, v["output-dir"]),
        snr_db_offset=v["snr-db-offset"],
        disturbance_steps=tuple(v["disturbance"]["steps"]),
        disturbance_scale=v["disturbance"]["scale"],
        constant_from_step=v["constant-from-step"],
    )


def load_experiment(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return experiment_from_json(payload, base_dir=os.path.dirname(os.path.abspath(path)))


@dataclasses.dataclass(frozen=True)
class ResultRow:
    """One aggregated metric.  ``t`` and ``k`` are 1-based labels; 0 means
    the metric aggregates over that axis."""

    experiment: str
    sweep_value: float
    t: int
    k: int
    metric_name: str
    mean: float
    stderr: float
    n: int


@dataclasses.dataclass(frozen=True)
class ResultTable:
    """Long-format campaign output plus its manifest."""

    rows: tuple
    manifest: dict

    @property
    def experiment(self) -> str:
        return self.manifest["kind"]

    def is_empty(self) -> bool:
        return not self.rows

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("experiment,sweep_value,t,k,metric_name,mean,stderr,n\n")
            for row in self.rows:
                fh.write(
                    f"{row.experiment},{_fmt(row.sweep_value)},{row.t},{row.k},"
                    f"{row.metric_name},{_fmt(row.mean)},{_fmt(row.stderr)},{row.n}\n"
                )

    @classmethod
    def from_csv(cls, path: str) -> "ResultTable":
        manifest_path = os.path.join(os.path.dirname(os.path.abspath(path)), "manifest.json")
        if not os.path.exists(manifest_path):
            raise SchemaMismatch(f"no manifest.json beside {path}")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaMismatch(f"{manifest_path} is not JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise SchemaMismatch(f"{manifest_path} does not hold a JSON object")
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "experiment,sweep_value,t,k,metric_name,mean,stderr,n":
                raise SchemaMismatch(f"unexpected table header {header!r}")
            for line in fh:
                parts = line.strip().split(",")
                if len(parts) != 8:
                    raise SchemaMismatch(f"malformed table row {line!r}")
                try:
                    row = ResultRow(
                        experiment=parts[0],
                        sweep_value=float(parts[1]),
                        t=int(parts[2]),
                        k=int(parts[3]),
                        metric_name=parts[4],
                        mean=float(parts[5]),
                        stderr=float(parts[6]),
                        n=int(parts[7]),
                    )
                except ValueError as exc:
                    raise SchemaMismatch(f"malformed table row {line!r}: {exc}") from exc
                rows.append(row)
        return cls(rows=tuple(rows), manifest=manifest)


def _check_step_labels(spec: ExperimentSpec, num_steps: int) -> None:
    """Reject 1-based step labels past the scenario's last step."""
    labels = [("disturbance.steps", s) for s in spec.disturbance_steps]
    if spec.kind in _RECURSION_KINDS and spec.constant_from_step is not None:
        labels.append(("constant-from-step", spec.constant_from_step))
    for name, label in labels:
        if label > num_steps:
            raise SchemaMismatch(
                f"{name} label {label!r} is not an integer step in 1..{num_steps}"
            )


def _apply_sweep(config: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    if parameter == SWEEP_SNR_DB:
        return config.with_snr_offset_db(value)
    if parameter == SWEEP_SIGMA_S:
        return config.with_spatial_precision(value)
    if parameter == SWEEP_SIGMA_T:
        return config.with_temporal_precision(value)
    return config.with_num_ris(int(value))


def _draw(config: ScenarioConfig, seed: int, ensembles: dict | None = None):
    """Generate one random-walk track; for the deviation prior also draw
    the ensemble the prior Hessian Monte Carlo will consume.

    ``ensembles`` maps a seed to the read-only ensemble already drawn for
    it; a seed not in it is drawn and stored. A draw that raises is not
    stored, so a later run with that seed draws again and fails the same
    way. Without ``ensembles`` every call draws.
    """
    trajectory = random_walk_trajectory(config, seed)
    if config.prior_kind != PRIOR_L1:
        return trajectory, None
    ensembles = {} if ensembles is None else ensembles
    if seed not in ensembles:
        ensembles[seed] = sample_trajectory_ensemble(config, _L1_ENSEMBLE, seed)
        ensembles[seed].flags.writeable = False
    return trajectory, ensembles[seed]


@dataclasses.dataclass(frozen=True)
class _Shared:
    """What a campaign's runs share: ``_draw``'s ``ensembles`` (None when
    every run draws its own) and the ``PriorFim`` of each ``_prior_key``."""

    ensembles: dict | None
    priors: dict


def _prior_key(config: ScenarioConfig) -> tuple:
    """Everything ``prior_model`` reads of ``config``."""
    cov = config.temporal_covariance
    return (config.prior_kind, config.spatial_edges, config.spatial_precision,
            cov.shape, cov.tobytes(), config.first_step_anchor_variance)


def _eoc_pipeline(config: ScenarioConfig, trajectory: Trajectory, ensemble,
                  priors: dict):
    lambda_d = measurement_fim(config, trajectory)
    if config.prior_kind == PRIOR_L1:
        pfim = prior_fim(prior_model(config, include_anchor=True), ensemble)
    else:
        key = _prior_key(config)
        if key not in priors:
            priors[key] = prior_fim(prior_model(config, include_anchor=True))
        pfim = priors[key]
    efim = assemble_efim(lambda_d, pfim)
    return eoc_report(efim, split_d_a(efim, pfim))


def _row_keys(spec: ExperimentSpec, config: ScenarioConfig) -> tuple:
    """The sorted ``(t, k, metric)`` keys every run of ``spec`` writes, in
    the order of the column its ``_run_*_point`` returns. No sweep changes
    T or K, so the base config serves the whole campaign."""
    steps = range(1, config.num_steps + 1)
    if spec.kind == KIND_EOC_VS_SNR:
        return ((0, 0, "bcrb-mean"), (0, 0, "eoc-mean"))
    if spec.kind == KIND_EOC_VS_NUM_RIS:
        return tuple((0, 0, f"{metric}-mean-{mode}")
                     for metric in ("bcrb", "eoc") for mode in ("aligned", "random"))
    if spec.kind == KIND_TRAJECTORY:
        return tuple((t, k, axis) for t in steps
                     for k in range(1, config.num_users + 1) for axis in ("x", "y"))
    star = spec.kind == KIND_EP_CONVERGENCE and spec.constant_from_step is not None
    return ((0, 0, "theory-bcrb-star"),) * star + tuple(
        (t, 0, metric) for t in steps for metric in ("bcrb-mean", "eoc-mean")
    )


def _run_eoc_point(config: ScenarioConfig, seed: int, shared: _Shared):
    trajectory, ensemble = _draw(config, seed, shared.ensembles)
    report = _eoc_pipeline(config, trajectory, ensemble, shared.priors)
    return np.array([report.mean_bcrb, report.mean_eoc])


def _run_num_ris_point(config: ScenarioConfig, seed: int, priors: dict):
    # ``config`` carries the aligned phases (``run_experiment``). The prior
    # does not involve the surfaces, so both beam families share one
    # sampled trajectory and differ only in the phase profile.
    trajectory, ensemble = _draw(config, seed)
    random = dataclasses.replace(config, ris_phase_profiles=RandomPhases(seed))
    reports = [_eoc_pipeline(cfg, trajectory, ensemble, priors) for cfg in (config, random)]
    return np.array([r.mean_bcrb for r in reports] + [r.mean_eoc for r in reports])


def _run_recursion_point(config: ScenarioConfig, seed: int, spec: ExperimentSpec,
                         ensembles: dict | None = None):
    trajectory, ensemble = _draw(config, seed, ensembles)
    constant = spec.constant_from_step
    constant0 = None if constant is None else constant - 1
    states = run_recursion(
        config,
        trajectory,
        constant_from_step=constant0,
        disturbance_steps=tuple(s - 1 for s in spec.disturbance_steps),
        disturbance_scale=spec.disturbance_scale,
        trajectory_ensemble=ensemble,
    )
    column = [number for s in states for number in (s.bcrb_mean, s.eoc_mean)]
    if spec.kind == KIND_EP_CONVERGENCE and constant0 is not None:
        # Undisturbed steps after the first stepped on the frozen inputs.
        frozen = [s.inputs for s in states[1:] if s.t + 1 not in spec.disturbance_steps]
        inputs = frozen[0] if frozen else constant_inputs(
            config, trajectory, step=constant0, trajectory_ensemble=ensemble
        )
        j_star = stationary_point(inputs.m_full, inputs.gamma_full).j_star
        bound = spd_solve(j_star, np.eye(len(j_star)), NotSpd, "J* is not positive definite")
        column.insert(0, float(np.trace(bound)) / len(j_star))
    return np.array(column)


def _run_one(spec: ExperimentSpec, config: ScenarioConfig, seed: int,
             shared: _Shared):
    """One run's column, in the order of ``_row_keys(spec, config)``."""
    if spec.kind == KIND_EOC_VS_SNR:
        return _run_eoc_point(config, seed, shared)
    if spec.kind == KIND_EOC_VS_NUM_RIS:
        return _run_num_ris_point(config, seed, shared.priors)
    if spec.kind in _RECURSION_KINDS:
        return _run_recursion_point(config, seed, spec, shared.ensembles)
    # Positions only: no prior reads the track here, so no ensemble is drawn.
    return random_walk_trajectory(config, seed).positions.reshape(-1)


def _uniform_spatial_precision(config: ScenarioConfig):
    values = {p for step in config.spatial_precision for p in step}
    if len(values) == 1:
        return float(next(iter(values)))
    return None


def _uniform_temporal_precision(config: ScenarioConfig):
    cov = np.asarray(config.temporal_covariance)
    if cov.shape[0] == 0:
        return None
    first = cov[0, 0, 0, 0]
    if np.array_equal(cov, first * np.broadcast_to(np.eye(2), cov.shape)):
        return float(1.0 / first)
    return None


def trend_warnings(spec: ExperimentSpec, rows) -> list:
    """Post-campaign monotonicity screens over the aggregate rows, in
    sweep order.  Warnings, not failures: a run that breaks an expected
    trend still produces a valid table."""

    def check(metric, direction):
        points = [
            (row.sweep_value, row.mean)
            for row in rows
            if row.t == 0 and row.k == 0 and row.metric_name == metric
        ]
        sign = 1.0 if direction == "nondecreasing" else -1.0
        for (v0, m0), (v1, m1) in zip(points, points[1:]):
            if sign * (m1 - m0) < -TREND_MARGIN:
                warnings.append(
                    f"{metric} not {direction} across {spec.sweep_parameter}: "
                    f"{_fmt(m0)} at {_fmt(v0)} vs {_fmt(m1)} at {_fmt(v1)}"
                )

    warnings: list = []
    if spec.kind == KIND_EOC_VS_SNR and spec.sweep_parameter == SWEEP_SNR_DB:
        check("eoc-mean", "nondecreasing")
        check("bcrb-mean", "nonincreasing")
    elif spec.kind == KIND_EOC_VS_SNR:
        # Tighter prior precision feeds the information matrix, so both the
        # coupling efficiency and the bound move down.
        check("eoc-mean", "nonincreasing")
        check("bcrb-mean", "nonincreasing")
    elif spec.kind == KIND_EOC_VS_NUM_RIS:
        check("eoc-mean-aligned", "nondecreasing")
        check("bcrb-mean-aligned", "nonincreasing")
    return warnings


def campaign_configs(spec: ExperimentSpec):
    """Base config (SNR offset applied) and per-sweep-value configs.

    Every check that must pass before any run and needs the scenario
    happens here: an invalid scenario, a step label past its last step, or
    an SNR offset or sweep value that makes it invalid raises SchemaMismatch.
    """
    base_config = load_scenario(spec.scenario_path)
    report = validate(base_config)
    if not report.ok:
        raise SchemaMismatch(f"scenario {spec.scenario_path} is invalid:\n{report}")
    _check_step_labels(spec, base_config.num_steps)
    if spec.snr_db_offset:
        base_config = base_config.with_snr_offset_db(spec.snr_db_offset)
    parameter = spec.sweep_parameter
    configs = {}
    for value in spec.sweep_values if parameter else (0.0,):
        name = f"{parameter} sweep value {_fmt(value)}" if parameter else "snr-db-offset"
        config = _apply_sweep(base_config, parameter, value) if parameter else base_config
        # An SNR shift can take the noise variance out of its entry's range.
        check(
            SCENARIO["noise-variance"], f"{name}: noise-variance", config.noise_variance
        )
        report = validate(config)
        if not report.ok:
            raise SchemaMismatch(f"{name} makes the scenario invalid:\n{report}")
        configs[value] = config
    return base_config, configs


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Execute every sweep value x Monte Carlo run and aggregate.

    Run ``r`` of every sweep value uses seed ``base_seed + r``, so sweep
    points are paired across the grid.  Failures are recorded in the
    manifest and skipped; a failure fraction of 10 percent or more aborts
    the campaign.  Only the numerical failures the package expects
    (``LocTrackError`` and numpy's ``LinAlgError``) count as failed runs;
    any other exception propagates.
    """
    with open(spec.scenario_path, "rb") as fh:
        scenario_bytes = fh.read()
    base_config, configs = campaign_configs(spec)
    if spec.kind == KIND_EOC_VS_NUM_RIS:
        # The aligned beams do not depend on the seed: one config per value.
        configs = {
            value: dataclasses.replace(config, ris_phase_profiles=AlignedPhases())
            for value, config in configs.items()
        }
    # An SNR shift changes only the noise variance, which the l1 sampler
    # never reads, so each seed's ensemble is drawn once and shared by every
    # sweep value. A prior sweep changes the density sampled and a num-ris
    # sweep the surfaces the separation check reads: those draw per run.
    shared = _Shared(
        ensembles={} if spec.sweep_parameter == SWEEP_SNR_DB else None, priors={}
    )
    keys = _row_keys(spec, base_config)
    samples = {value: np.empty((len(keys), spec.num_monte_carlo)) for value in configs}
    filled = dict.fromkeys(configs, 0)
    failures = []

    def work():
        for value, config in configs.items():
            for seed in range(spec.base_seed, spec.base_seed + spec.num_monte_carlo):
                try:
                    column = _run_one(spec, config, seed, shared)
                except (LocTrackError, np.linalg.LinAlgError) as exc:
                    failures.append({"error": f"{type(exc).__name__}: {exc}",
                                     "seed": seed, "sweep-value": float(value)})
                    continue
                samples[value][:, filled[value]] = column
                filled[value] += 1

    # One worker thread runs the jobs in order. It is not the caller's
    # thread because perfbench's span recorder (perfbench/spans.py) counts
    # a trajectory draw as the start of a run only on a thread with no
    # open span. The whole loop is one task, so the caller wakes once: a
    # wake-up per job (``pool.map``) hands the GIL back and forth on every
    # run, which costs about 36 context switches per run on 1,500-run
    # campaigns and makes their timing follow the machine's load.
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(work).result()

    runs = len(configs) * spec.num_monte_carlo
    if len(failures) >= FAILURE_ABORT_FRACTION * runs:
        raise CampaignAborted(
            f"{len(failures)} of {runs} runs failed; first: "
            f"{failures[0]['error']}"
        )

    # Reduce along the last axis of a C-contiguous array: each row then sums
    # in the same order as np.mean/np.std of its own list, bit for bit. A
    # value whose every run failed writes no rows.
    rows = []
    for value, n in filled.items():
        if not n:
            continue
        data = np.ascontiguousarray(samples[value][:, :n])
        means = np.mean(data, axis=1)
        if n > 1:
            stderrs = np.std(data, axis=1, ddof=1) / math.sqrt(n)
        else:
            stderrs = np.zeros(len(keys))
        rows.extend(
            ResultRow(spec.kind, float(value), t, k, metric, float(mean), float(stderr), n)
            for (t, k, metric), mean, stderr in zip(keys, means, stderrs)
        )

    manifest = {
        "base-seed": spec.base_seed,
        "disturbance-scale": spec.disturbance_scale,
        "disturbance-steps": list(spec.disturbance_steps),
        "failures": failures,
        "kind": spec.kind,
        "num-monte-carlo": spec.num_monte_carlo,
        "scenario-file": os.path.basename(spec.scenario_path),
        "scenario-sha256": hashlib.sha256(scenario_bytes).hexdigest(),
        "sigma-s-inv2": _uniform_spatial_precision(base_config),
        "sigma-t-inv2": _uniform_temporal_precision(base_config),
        "snr-db-offset": spec.snr_db_offset,
        "sweep-parameter": spec.sweep_parameter,
        "sweep-values": [float(v) for v in spec.sweep_values],
        "trend-warnings": trend_warnings(spec, rows),
    }
    return ResultTable(rows=tuple(rows), manifest=manifest)


def write_outputs(table: ResultTable, output_dir: str):
    """Persist ``table.csv`` and ``manifest.json``; returns both paths."""
    os.makedirs(output_dir, exist_ok=True)
    table_path = os.path.join(output_dir, "table.csv")
    manifest_path = os.path.join(output_dir, "manifest.json")
    table.to_csv(table_path)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(table.manifest, sort_keys=True, indent=2))
        fh.write("\n")
    return table_path, manifest_path


def _require_kind(table: ResultTable, figure: str) -> None:
    expected = FIGURE_KINDS[figure]
    if table.experiment != expected:
        raise SchemaMismatch(
            f"figure {figure} needs a {expected} table, got {table.experiment}"
        )


def _regime_label(value: float, axis: str) -> str:
    if value <= ASYMPTOTIC_SMALL:
        return f"{axis}-zero"
    if value >= ASYMPTOTIC_LARGE:
        return f"{axis}-inf"
    return "finite"


def emit_figure_data(table: ResultTable, figure: str, output_dir: str):
    """Write one figure-panel CSV; returns the list of paths written.

    No plotting: the files carry exactly the columns a plotting script
    needs, one row per curve point.
    """
    if figure not in FIGURE_KINDS:
        raise SchemaMismatch(f"unknown figure kind {figure!r}")
    if table.is_empty():
        raise SchemaMismatch("cannot emit figure data from an empty table")
    _require_kind(table, figure)
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, f"{figure}.csv")
    means = {
        (row.sweep_value, row.t, row.k, row.metric_name): row.mean for row in table.rows
    }
    if len(means) != len(table.rows):
        raise SchemaMismatch("table repeats a (sweep value, t, k, metric) row")

    def mean(value: float, metric: str, t: int = 0, k: int = 0) -> float:
        try:
            return means[(value, t, k, metric)]
        except KeyError:
            raise SchemaMismatch(
                f"table has no {metric!r} at sweep value {_fmt(value)}, "
                f"step {t}, user {k}"
            ) from None

    def steps(value: float) -> list:
        return sorted({t for v, t, _, _ in means if v == value and t > 0})

    sweep_values = sorted({key[0] for key in means})
    lines = []
    if figure == "fig3":
        lines.append("t,k,x,y")
        cells = sorted({key[:3] for key in means if key[3] in ("x", "y")})
        if not cells:
            raise SchemaMismatch("trajectory table missing coordinate rows")
        for value, t, k in cells:
            lines.append(
                f"{t},{k},{_fmt(mean(value, 'x', t, k))},{_fmt(mean(value, 'y', t, k))}"
            )
    elif figure in ("fig4", "fig5"):
        if table.manifest.get("sweep-parameter") != SWEEP_SNR_DB:
            raise SchemaMismatch(f"{figure} needs an {SWEEP_SNR_DB} sweep")
        const_key = "sigma-s-inv2" if figure == "fig4" else "sigma-t-inv2"
        constant = table.manifest.get(const_key)
        if constant is None:
            raise SchemaMismatch(
                f"{figure} needs a uniform {const_key} in the manifest"
            )
        lines.append(f"snr_db,{const_key.replace('-', '_')},eoc_mean,bcrb_mean")
        for value in sweep_values:
            eoc = mean(value, "eoc-mean")
            bcrb = mean(value, "bcrb-mean")
            lines.append(
                f"{_fmt(value)},{_fmt(constant)},{_fmt(eoc)},{_fmt(bcrb)}"
            )
    elif figure == "fig6":
        lines.append("num_ris,beam_mode,eoc_mean,bcrb_mean")
        for value in sweep_values:
            for mode in ("aligned", "random"):
                eoc = mean(value, f"eoc-mean-{mode}")
                bcrb = mean(value, f"bcrb-mean-{mode}")
                lines.append(
                    f"{int(round(value))},{mode},{_fmt(eoc)},{_fmt(bcrb)}"
                )
    elif figure == "fig8":
        if table.manifest.get("sweep-parameter") != SWEEP_SIGMA_T:
            raise SchemaMismatch(f"fig8 needs a {SWEEP_SIGMA_T} sweep")
        lines.append("t,sigma_t_inv2,bcrb_mean,eoc_mean,theory_bcrb_star")
        for value in sweep_values:
            theory = mean(value, "theory-bcrb-star")
            for t in steps(value):
                lines.append(
                    f"{t},{_fmt(value)},{_fmt(mean(value, 'bcrb-mean', t))},"
                    f"{_fmt(mean(value, 'eoc-mean', t))},{_fmt(theory)}"
                )
    else:  # fig9 / fig10
        axis = "spatial" if figure == "fig9" else "temporal"
        lines.append("t,regime,bcrb_mean,eoc_mean")
        for value in sweep_values:
            label = _regime_label(value, axis)
            for t in steps(value):
                lines.append(
                    f"{t},{label},{_fmt(mean(value, 'bcrb-mean', t))},"
                    f"{_fmt(mean(value, 'eoc-mean', t))}"
                )

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return [path]
