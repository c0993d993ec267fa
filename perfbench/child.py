"""One benchmark subprocess, started in a fresh interpreter by ``run.py``.

``child.py timed <spec> <result.json>``
    Time the set-up (import, spec and scenario load, validation) and then
    one ``loctrack run <spec>`` campaign, with its CPU time and peak RSS.
``child.py traced <spec> <result.json> <spans.json>``
    Run the campaign serially through ``run_experiment`` with every layer
    function wrapped in a span, then check the outputs against the dense
    oracles.  Writes the spans and the check results.

Thread counts come from the environment the parent sets.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import resource
import sys
import time

# Evenly spaced runs whose EoC and BCRB are recomputed through the oracles.
ORACLE_SAMPLES = 6
ORACLE_RTOL = 1e-9


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def timed(spec_path: str, result_path: str) -> int:
    start = time.perf_counter()
    import loctrack  # noqa: F401  (the import is part of set-up)
    from loctrack import cli
    from loctrack.harness import load_experiment
    from loctrack.scenario import load_scenario, validate

    spec = load_experiment(spec_path)
    report = validate(load_scenario(spec.scenario_path))
    setup_s = time.perf_counter() - start
    if not report.ok:
        print(f"generated scenario is invalid: {report}", file=sys.stderr)
        return 2

    cpu0 = _cpu_s()
    start = time.perf_counter()
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink):
        code = cli.main(["run", spec_path])
    campaign_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    _write_json(result_path, {
        "exit_code": code,
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return 0


def _nbytes(obj, depth: int = 2) -> int:
    """Bytes held in numpy arrays of a result object (computed from sizes)."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if depth == 0:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item, depth - 1) for item in obj)
    fields = getattr(obj, "__dataclass_fields__", None) or {}
    return sum(_nbytes(getattr(obj, f, None), depth - 1) for f in fields)


class Capture:
    """Observers that count work and keep the values the checks need."""

    def __init__(self, sample_runs):
        from loctrack import scenario

        self._scenario = scenario
        self.sample_runs = set(sample_runs)
        self.eoc_calls: list = []        # (run, mean_eoc, mean_bcrb)
        self.samples: list = []          # (run, efim, split, report)
        self.efim_bytes = 0
        self.ptpm_bytes = 0
        self.mcmc_site_updates = 0
        self._ensemble_sig = inspect.signature(scenario.sample_trajectory_ensemble)
        self._eoc_sig = None

    def observers(self) -> dict:
        return {
            "coupling.eoc_report": self._eoc_report,
            "fim.assemble_efim": self._efim,
            "coupling.build_ptpm": self._ptpm,
            "scenario.sample_trajectory_ensemble": self._ensemble,
        }

    def _eoc_report(self, args, kwargs, result, run):
        self.eoc_calls.append((run, result.mean_eoc, result.mean_bcrb))
        if run in self.sample_runs:
            from loctrack import coupling

            if self._eoc_sig is None:
                self._eoc_sig = inspect.signature(coupling.eoc_report.__wrapped__)
            bound = self._eoc_sig.bind(*args, **kwargs).arguments
            self.samples.append((run, bound["efim"], bound["split"], result))

    def _efim(self, args, kwargs, result, run):
        self.efim_bytes = max(self.efim_bytes, _nbytes(result))

    def _ptpm(self, args, kwargs, result, run):
        self.ptpm_bytes = max(self.ptpm_bytes, _nbytes(result))

    def _ensemble(self, args, kwargs, result, run):
        bound = self._ensemble_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        config = bound.arguments["config"]
        if config.prior_kind == self._scenario.PRIOR_L1:
            self.mcmc_site_updates += (
                int(bound.arguments["count"]) * int(bound.arguments["burn_in"])
                * config.num_steps * config.num_users
            )


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _jobs(spec):
    values = spec.sweep_values if spec.sweep_parameter else (0.0,)
    return [(float(v), spec.base_seed + r) for v in values
            for r in range(spec.num_monte_carlo)]


def _eoc_metric_names(kind: str):
    """Table metric names of the i-th EoC report inside one run."""
    if kind == "EOC_VS_NUM_RIS":
        return (("eoc-mean-aligned", "bcrb-mean-aligned"),
                ("eoc-mean-random", "bcrb-mean-random"))
    return (("eoc-mean", "bcrb-mean"),)


def _check(name: str, ok: bool, detail: str, failed_runs=()) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail,
            "failed_runs": sorted(set(failed_runs))}


def run_checks(spec, table, capture: Capture, num_runs: int) -> list:
    import numpy as np
    from loctrack import fim

    jobs = _jobs(spec)
    failed_jobs = {(float(f["sweep-value"]), int(f["seed"]))
                   for f in table.manifest["failures"]}
    checks = [_check(
        "traced-run-count", num_runs == len(jobs),
        f"{num_runs} trajectory draws for {len(jobs)} jobs",
        range(len(jobs)) if num_runs != len(jobs) else (),
    )]
    rows = {(r.sweep_value, r.t, r.k, r.metric_name): r.mean for r in table.rows}
    values = sorted({v for v, _ in jobs})

    def runs_at(value):
        return [r for r, (v, _) in enumerate(jobs) if v == value]

    if spec.kind in ("EOC_VS_SNR", "EOC_VS_NUM_RIS") and num_runs == len(jobs):
        metric_names = _eoc_metric_names(spec.kind)
        per_run: dict = {}
        for run, eoc, bcrb in capture.eoc_calls:
            per_run.setdefault(run, []).append((eoc, bcrb))
        samples: dict = {}
        for run, (value, seed) in enumerate(jobs):
            if (value, seed) in failed_jobs:
                continue
            for index, pair in enumerate(per_run.get(run, ())[:len(metric_names)]):
                for metric, number in zip(metric_names[index], pair):
                    samples.setdefault((value, metric), []).append(float(number))
        bad_runs = []
        compared = 0
        for value in values:
            for names in metric_names:
                for metric in names:
                    got = samples.get((value, metric))
                    compared += 1
                    if not got or float(np.mean(got)) != rows.get((value, 0, 0, metric)):
                        bad_runs.extend(runs_at(value))
        checks.append(_check(
            "traced-means-equal-table", not bad_runs,
            f"{compared} table means against the mean of the traced per-run values",
            bad_runs,
        ))

        worst_bcrb = worst_eoc = 0.0
        bad_bcrb, bad_eoc = [], []
        states = 0
        for run, efim_mat, split, report in capture.samples:
            oracle = fim.bcrb(efim_mat).per_user
            err = max(_rel(float(a), float(b))
                      for a, b in zip(np.ravel(report.bcrb), np.ravel(oracle)))
            worst_bcrb = max(worst_bcrb, err)
            if not err <= ORACLE_RTOL:
                bad_bcrb.append(run)
            T, K = report.eoc.shape
            for t in range(T):
                for k in range(K):
                    marginal = fim.marginal_efim(efim_mat, t, k)
                    d_inv = np.linalg.inv(split.nominal_blocks[t, k])
                    expected = 0.5 * float(np.trace(d_inv @ marginal))
                    err = _rel(float(report.eoc[t, k]), expected)
                    worst_eoc = max(worst_eoc, err)
                    if not err <= ORACLE_RTOL:
                        bad_eoc.append(run)
                    states += 1
        sampled = len({s[0] for s in capture.samples})
        checks.append(_check(
            "oracle-bcrb", bool(capture.samples) and not bad_bcrb,
            f"fim.bcrb per-user traces on {sampled} sampled runs, "
            f"max rel err {worst_bcrb:.3g} (tol {ORACLE_RTOL:g})",
            bad_bcrb if capture.samples else range(len(jobs)),
        ))
        checks.append(_check(
            "oracle-eoc", bool(capture.samples) and not bad_eoc,
            f"1/2 tr(D^-1 marginal_efim) on {states} states of {sampled} sampled "
            f"runs, max rel err {worst_eoc:.3g} (tol {ORACLE_RTOL:g})",
            bad_eoc if capture.samples else range(len(jobs)),
        ))

    if spec.kind == "EP_CONVERGENCE":
        bad_runs = []
        worst = 0.0
        for value in values:
            last_t = max((t for (v, t, _, m) in rows if v == value and m == "bcrb-mean"),
                         default=None)
            theory = rows.get((value, 0, 0, "theory-bcrb-star"))
            ok = last_t is not None and theory is not None
            if ok:
                err = _rel(rows[(value, last_t, 0, "bcrb-mean")], theory)
                worst = max(worst, err)
                ok = err <= ORACLE_RTOL
            if not ok:
                bad_runs.extend(runs_at(value))
        checks.append(_check(
            "last-step-bcrb-equals-theory-star", not bad_runs,
            f"{len(values)} sweep values, max rel err {worst:.3g} "
            f"(tol {ORACLE_RTOL:g})",
            bad_runs,
        ))
    return checks


def traced(spec_path: str, result_path: str, spans_path: str) -> int:
    import loctrack  # noqa: F401
    from loctrack import harness, scenario
    from loctrack.errors import CampaignAborted

    from spans import Recorder

    spec = harness.load_experiment(spec_path)
    start = time.perf_counter()
    scenario.load_scenario(spec.scenario_path)
    load_scenario_s = time.perf_counter() - start

    num_jobs = len(_jobs(spec))
    picks = min(ORACLE_SAMPLES, num_jobs)
    sample_runs = sorted({round(i * (num_jobs - 1) / max(picks - 1, 1))
                          for i in range(picks)})
    capture = Capture(sample_runs)
    recorder = Recorder(capture.observers())
    recorder.install()
    try:
        start = time.perf_counter()
        table = harness.run_experiment(spec)
        harness.write_outputs(table, spec.output_dir)
        campaign_s = time.perf_counter() - start
    except CampaignAborted as exc:
        print(f"campaign aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        recorder.uninstall()

    checks = run_checks(spec, table, capture, recorder.run + 1)
    _write_json(spans_path, recorder.dump())
    _write_json(result_path, {
        "campaign_s": campaign_s,
        "load_scenario_s": load_scenario_s,
        "efim_bytes": capture.efim_bytes,
        "ptpm_bytes": capture.ptpm_bytes,
        "mcmc_site_updates": capture.mcmc_site_updates,
        "checks": checks,
    })
    return 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "timed":
        return timed(argv[1], argv[2])
    if len(argv) == 4 and argv[0] == "traced":
        return traced(argv[1], argv[2], argv[3])
    print("usage: child.py timed <spec> <result> | traced <spec> <result> <spans>",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
