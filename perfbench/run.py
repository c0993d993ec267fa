"""Campaign benchmark for loctrack.

Run from the repository root:

    python3 perfbench/run.py --workload eoc-coupled --seed 1 --seconds 28 --trace 0

Each workload is one ``loctrack run`` campaign over generated inputs: a spec
whose ``base-seed`` is ``--seed`` plus a scenario file, written to a work
directory under ``.perfbench_work/``.  Every repetition runs in a fresh
interpreter with BLAS pinned to one thread.

``--trace 0`` repeats the campaign with the default worker pool for
``--seconds`` and reports the end-to-end metrics (medians over the
repetitions), then runs it once serially with spans to check the outputs.
``--trace 1`` alternates untraced and traced serial campaigns for
``--seconds`` and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, ROOT_SPAN, analyse, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench_work"

# Every subprocess is killed once the invocation has run this long, so the
# benchmark always exits within 180 s.
HARD_LIMIT_S = 165.0
MIN_REPS = 3
BLAS_THREADS = 1

SNR_DB = [20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # shipped scenario under configs/
    derive: dict           # keys replaced in a derived scenario; empty = byte copy
    spec: dict             # experiment spec minus scenario, base-seed, output-dir
    tiny: dict             # spec overrides for the smoke test
    dominant: tuple        # layers predicted to hold the largest self-time share
    idle: tuple            # layers predicted to do (almost) no work
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="eoc-coupled",
        scenario="paper_baseline.json",
        derive={},
        spec={"kind": "EOC_VS_SNR", "num-monte-carlo": 4,
              "sweep": {"parameter": "snr-db", "values": SNR_DB}},
        tiny={"num-monte-carlo": 1,
              "sweep": {"parameter": "snr-db", "values": [20.0, 80.0]}},
        dominant=("coupling",),
        idle=("recursive",),
        why="EoC vs SNR 20-80 dB on the T=40, K=3, R=4 baseline: the coupling "
            "layer (dense inverse plus one (2TK-2) hitting solve per state) does "
            "most of the work; channel/fim measurement is next.",
    ),
    Workload(
        name="eoc-small-many",
        scenario="toy.json",
        derive={},
        spec={"kind": "EOC_VS_NUM_RIS", "num-monte-carlo": 500,
              "sweep": {"parameter": "num-ris", "values": [1.0, 2.0, 4.0]}},
        tiny={"num-monte-carlo": 4},
        dominant=("channel", "fim", "coupling"),
        idle=("recursive",),
        why="EoC vs number of surfaces on the T=2, K=2 toy, aligned and random "
            "phases: thousands of short runs where per-call overhead in "
            "channel, fim, coupling and the harness pool dominates.",
    ),
    Workload(
        name="track-long",
        scenario="paper_baseline_long.json",
        derive={},
        spec={"kind": "EP_CONVERGENCE", "num-monte-carlo": 4,
              "sweep": {"parameter": "sigma-t-inv2", "values": [1.0, 10.0, 100.0]},
              "snr-db-offset": 70.0,
              "disturbance": {"steps": [21, 22], "scale": 0.1},
              "constant-from-step": 2},
        tiny={"num-monte-carlo": 1,
              "sweep": {"parameter": "sigma-t-inv2", "values": [10.0]}},
        dominant=("recursive",),
        idle=("coupling",),
        why="Error propagation over T=1000 with the fig8 settings: the "
            "recursion and prior assembly dominate; coupling never runs and "
            "the channel runs once per run.",
    ),
    Workload(
        name="l1-prior",
        scenario="toy.json",
        # toy.json's spatial precision 10 puts the distance prior's mode at
        # coinciding users (each user is pulled 5 m against a unit anchor,
        # 10 m apart), where the prior Hessian is undefined: 1 of 50 probed
        # seeds sampled a pair within GEOMETRY_GUARD and the campaign aborted
        # with DegenerateGeometry.  At 2 the mode keeps them 8 m apart.
        derive={"prior-kind": "l1-norm", "spatial-precision": 2.0},
        spec={"kind": "EOC_VS_SNR", "num-monte-carlo": 3,
              "sweep": {"parameter": "snr-db",
                        "values": [-10.0, 0.0, 10.0, 20.0, 30.0]}},
        tiny={"num-monte-carlo": 1,
              "sweep": {"parameter": "snr-db", "values": [0.0]}},
        dominant=("scenario",),
        idle=("recursive",),
        why="EoC vs SNR on the toy geometry with the distance (l1-norm) prior "
            "at spatial precision 2: "
            "each run draws a 100-chain MCMC ensemble, the only workload that "
            "reaches the sampler.",
    ),
)}

END_TO_END = {
    "campaign_s": "s",
    "runs_per_s": "runs/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "run_ok_ratio": "1",
}

# Per-layer metrics: name -> unit.  Counts marked computed repeat exactly.
_SELF_S = (
    "coupling.eoc_report", "coupling.hitting_probabilities", "coupling.split_d_a",
    "coupling.build_ptpm", "channel.channel_jacobian", "fim.measurement_fim",
    "fim.measurement_blocks_at", "fim.prior_fim", "fim.assemble_efim",
    "recursive.run_recursion", "recursive.recursive_step",
    "recursive.constant_inputs", "recursive.stationary_point",
    "scenario.random_walk_trajectory", "scenario.prior_model",
    "scenario.sample_trajectory_ensemble",
)
_CALLS = ("coupling.hitting_probabilities", "channel.channel_jacobian",
          "recursive.recursive_step")
COMPUTED = (
    *(f"{name}.calls" for name in _CALLS),
    "coupling.ptpm_bytes", "fim.efim_bytes", "scenario.mcmc_site_updates",
    "harness.table_bytes",
)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "harness"},
    **{f"{name}.self_s": "s" for name in _SELF_S},
    **{f"{name}.calls": "count" for name in _CALLS},
    "coupling.ptpm_bytes": "bytes",
    "fim.efim_bytes": "bytes",
    "recursive.recursive_step.us.p50": "us",
    "recursive.recursive_step.us.tail": "us",
    "scenario.load_scenario.s": "s",
    "scenario.mcmc_site_updates": "count",
    "harness.serial_campaign_s": "s",
    "harness.self_s": "s",
    "harness.run_ms.p50": "ms",
    "harness.run_ms.tail": "ms",
    "harness.write_outputs.s": "s",
    "harness.table_bytes": "bytes",
    "harness.trace_overhead_s": "s",
}


# ---------------------------------------------------------------------------
# inputs and machine record


def write_inputs(workload: Workload, seed: int, workdir: Path, tiny: bool) -> Path:
    """Write the scenario and spec for one seed; returns the spec path."""
    workdir.mkdir(parents=True, exist_ok=True)
    source = CONFIGS / workload.scenario
    if workload.derive:
        payload = json.loads(source.read_text(encoding="utf-8"))
        payload.update(workload.derive)
        scenario_name = f"{source.stem}-derived.json"
        (workdir / scenario_name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        scenario_name = source.name
        shutil.copyfile(source, workdir / scenario_name)
    spec = dict(workload.spec)
    if tiny:
        spec.update(workload.tiny)
    spec.update({"scenario": scenario_name, "base-seed": seed, "output-dir": "out"})
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    return spec_path


def num_runs(spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    values = (spec.get("sweep") or {}).get("values") or [0.0]
    return len(values) * int(spec["num-monte-carlo"])


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(seed: int, pool_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "blas_threads_pinned": BLAS_THREADS,
        "loctrack_threads_pool": pool_threads,
        "loctrack_threads_serial": 1,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# subprocesses


@dataclasses.dataclass
class Campaign:
    """One campaign subprocess and what it left behind."""

    label: str
    runs: int
    exit_code: int
    result: dict | None
    digest: str | None
    manifest_failures: int
    stderr: str
    layers: dict | None = None

    @property
    def completed(self) -> bool:
        return self.exit_code == 0 and self.result is not None and self.digest is not None


class Bench:
    def __init__(self, spec_path: Path, deadline: float):
        self.spec_path = spec_path
        self.workdir = spec_path.parent
        self.deadline = deadline
        self.runs = num_runs(spec_path)
        self.campaigns: list = []

    def _env(self, threads: int) -> dict:
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(SRC),
            "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "OMP_NUM_THREADS": str(BLAS_THREADS),
            "MKL_NUM_THREADS": str(BLAS_THREADS),
            "LOCTRACK_THREADS": str(threads),
        })
        return env

    def run(self, label: str, mode: str, threads: int) -> Campaign:
        out_dir = self.workdir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path = self.workdir / "result.json"
        spans_path = self.workdir / "spans.json"
        for path in (result_path, spans_path):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               str(self.spec_path), str(result_path)]
        if mode == "traced":
            cmd.append(str(spans_path))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self._env(threads),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
            exit_code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            exit_code, stderr = -1, f"killed after {timeout:.0f} s"
        result = _read_json(result_path)
        if result is not None and result.get("exit_code", 0) != 0:
            exit_code = result["exit_code"]
        digest, failures = None, 0
        manifest = out_dir / "manifest.json"
        table = out_dir / "table.csv"
        if manifest.is_file() and table.is_file():
            digest = hashlib.sha256(table.read_bytes() + b"\0" + manifest.read_bytes()).hexdigest()
            failures = len(json.loads(manifest.read_text(encoding="utf-8"))["failures"])
            if result is not None:
                result["table_bytes"] = table.stat().st_size
        dump = _read_json(spans_path) if mode == "traced" else None
        layers = layer_values(result, dump) if result and dump else None
        campaign = Campaign(label, self.runs, exit_code, result, digest, failures,
                            stderr.strip()[-2000:], layers)
        self.campaigns.append(campaign)
        return campaign


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# checks and accounting


def check_outputs(campaigns) -> list:
    """Campaign-level checks; each failing campaign counts all its runs."""
    checks = []
    incomplete = [c for c in campaigns if not c.completed]
    checks.append({
        "name": "campaigns-complete", "ok": not incomplete,
        "detail": f"{len(campaigns) - len(incomplete)} of {len(campaigns)} campaigns "
                  "exited 0 with table.csv and manifest.json"
                  + "".join(f"; {c.label} exit {c.exit_code}: {c.stderr[-300:]}"
                            for c in incomplete),
        "campaigns": incomplete,
    })
    done = [c for c in campaigns if c.completed]
    if done:
        digests = [c.digest for c in done]
        reference = max(set(digests), key=digests.count)
        for name, group in (("bytes-identical-across-reps", [c for c in done if c.label == "pool"]),
                            ("bytes-identical-across-serial-reps",
                             [c for c in done if c.label != "pool"]),
                            ("bytes-identical-pool-vs-serial", done)):
            labels = {c.label for c in group}
            if len(group) < 2 or (name.endswith("pool-vs-serial") and
                                  ("pool" not in labels or len(labels) < 2)):
                continue
            bad = [c for c in group if c.digest != reference]
            checks.append({
                "name": name, "ok": not bad,
                "detail": f"table.csv + manifest.json of {len(group)} campaigns "
                          f"({', '.join(sorted(labels))}); {len(bad)} differ",
                "campaigns": bad,
            })
    for campaign in campaigns:
        for check in (campaign.result or {}).get("checks", ()):
            checks.append({**check, "campaign": campaign})
    return checks


def merge_checks(checks) -> list:
    """One line per check name: failed if any instance failed."""
    merged: dict = {}
    for check in checks:
        entry = merged.setdefault(check["name"], {"name": check["name"], "ok": True,
                                                  "detail": check["detail"], "n": 0})
        entry["n"] += 1
        if not check["ok"]:
            entry["ok"] = False
            entry["detail"] = check["detail"]
    return list(merged.values())


def count_failures(campaigns, checks) -> tuple:
    """(attempted, failed) Monte Carlo runs over every campaign."""
    failed_runs: dict = {id(c): set() for c in campaigns}
    whole = set()
    for check in checks:
        if check["ok"]:
            continue
        for campaign in check.get("campaigns", ()):
            whole.add(id(campaign))
        if "campaign" in check:
            failed_runs[id(check["campaign"])].update(check["failed_runs"])
    attempted = sum(c.runs for c in campaigns)
    failed = 0
    for c in campaigns:
        if id(c) in whole or not c.completed:
            failed += c.runs
        else:
            failed += min(c.runs, c.manifest_failures + len(failed_runs[id(c)]))
    return attempted, failed


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(pool) -> dict:
    done = [c for c in pool if c.completed]
    return {
        "campaign_s": _median(c.result["campaign_s"] for c in done),
        "runs_per_s": _median((c.runs - c.manifest_failures) / c.result["campaign_s"]
                              for c in done),
        "cpu_s": _median(c.result["cpu_s"] for c in done),
        "peak_rss_mb": _median(c.result["peak_rss_mb"] for c in done),
        "setup_s": _median(c.result["setup_s"] for c in done),
    }


def layer_values(result: dict, dump: dict) -> dict:
    """Per-layer figures of one traced campaign, keyed like PER_LAYER."""
    found = analyse(dump)
    names = found["per_name"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    step_us = [d * 1e6 for d in names.get("recursive.recursive_step", {})
               .get("durations", [])]
    run_ms = [d * 1e3 for d in found["run_durations"]]
    values = {f"{layer}.self_s": found["layer_self_s"][layer] for layer in LAYERS}
    values.update({f"{name}.self_s": get(name, "self_s") for name in _SELF_S})
    values.update({f"{name}.calls": get(name, "calls") for name in _CALLS})
    values.update({
        "coupling.ptpm_bytes": result["ptpm_bytes"],
        "fim.efim_bytes": result["efim_bytes"],
        "recursive.recursive_step.us.p50": _median(step_us),
        "recursive.recursive_step.us.tail": tail(step_us),
        "scenario.load_scenario.s": result["load_scenario_s"],
        "scenario.mcmc_site_updates": result["mcmc_site_updates"],
        "harness.run_ms.p50": _median(run_ms),
        "harness.run_ms.tail": tail(run_ms),
        "harness.write_outputs.s": get("harness.write_outputs", "total_s"),
        "harness.table_bytes": result.get("table_bytes", 0),
        "campaign_span_s": get(ROOT_SPAN, "total_s"),
        "traced_campaign_s": result["campaign_s"],
    })
    return values


def per_layer(traced, serial) -> tuple:
    """Per-layer metrics as medians over the traced campaigns.

    Returns (metrics, tail details, layer shares of the campaign span,
    number of traced campaigns, check that computed counts repeat)."""
    reps = [c.layers for c in traced if c.completed and c.layers is not None]
    tails = {name: value[1:] for name, value in (reps[-1].items() if reps else ())
             if isinstance(value, tuple)}
    serial_s = _median(c.result["campaign_s"] for c in serial if c.completed)
    metrics = {}
    for name in PER_LAYER:
        if name == "harness.serial_campaign_s":
            metrics[name] = serial_s
        elif name == "harness.trace_overhead_s":
            traced_s = _median(v["traced_campaign_s"] for v in reps)
            metrics[name] = traced_s - serial_s if reps else 0.0
        else:
            metrics[name] = _median(
                v[name][0] if isinstance(v[name], tuple) else v[name] for v in reps)
    span_s = _median(v["campaign_span_s"] for v in reps)
    shares = {layer: (metrics[f"{layer}.self_s"] / span_s if span_s else 0.0)
              for layer in LAYERS}
    differing = [name for name in COMPUTED if len({v[name] for v in reps}) > 1]
    counts_check = {
        "name": "computed-counts-repeat", "ok": not differing,
        "detail": f"{len(COMPUTED)} counts over {len(reps)} traced campaigns"
                  + (f"; differ: {', '.join(differing)}" if differing else ""),
    }
    return metrics, tails, shares, len(reps), counts_check


# ---------------------------------------------------------------------------
# report


def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def print_layers(workload: Workload, shares: dict) -> None:
    ranked = sorted(shares.items(), key=lambda kv: kv[1], reverse=True)
    print("layer self-time share of the traced serial campaign: "
          + ", ".join(f"{layer} {share:.1%}" for layer, share in ranked))
    top = ranked[0][0]
    combined = sum(shares[layer] for layer in workload.dominant)
    verdict = "holds" if top in workload.dominant else "does not hold"
    print(f"dominant layer: predicted {'/'.join(workload.dominant)} "
          f"(together {combined:.1%}); measured {top} -> {verdict}")
    print("idle layers: predicted " + ", ".join(
        f"{layer} (measured {shares[layer]:.1%})" for layer in workload.idle))


def print_checks(checks) -> None:
    print("output checks:")
    for check in merge_checks(checks):
        status = "PASS" if check["ok"] else "FAIL"
        print(f"  {status} {check['name']} (x{check['n']}): {check['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (for the smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "loctrack" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"error: no loctrack sources under {SRC} or no {CONFIGS}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    threads = nproc()
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(write_inputs(workload, args.seed, workdir, args.tiny),
                      started + HARD_LIMIT_S)
        min_reps = 2 if args.tiny else MIN_REPS
        print(f"perfbench workload={workload.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} runs/campaign={bench.runs}")
        print("machine: " + json.dumps(machine_record(args.seed, threads), sort_keys=True))
        print(f"why: {workload.why}")

        measure_start = time.monotonic()
        walls: list = []
        while True:
            rep_start = time.monotonic()
            if args.trace:
                bench.run("serial", "timed", 1)
                bench.run("traced", "traced", 1)
            else:
                bench.run("pool", "timed", threads)
            walls.append(time.monotonic() - rep_start)
            elapsed = time.monotonic() - measure_start
            reps = len(walls)
            if (args.trace or reps >= min_reps) and \
                    elapsed + statistics.median(walls) > args.seconds:
                break
            if time.monotonic() - started > HARD_LIMIT_S / 2:
                break
        if not args.trace:
            bench.run("traced", "traced", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    campaigns = bench.campaigns
    checks = check_outputs(campaigns)
    attempted, failed = count_failures(campaigns, checks)
    correct = all(check["ok"] for check in checks)
    traced = [c for c in campaigns if c.label == "traced"]
    layer_metrics, tails, shares, traced_n, counts_check = per_layer(
        traced, [c for c in campaigns if c.label == "serial"])
    if args.trace and traced_n > 1:
        checks.append(counts_check)
        correct = correct and counts_check["ok"]

    if args.trace:
        metrics = {name: layer_metrics[name] for name in PER_LAYER}
        units = PER_LAYER
        print(f"per-layer metrics (median of {traced_n} traced serial campaigns, "
              f"LOCTRACK_THREADS=1; harness.serial_campaign_s from "
              f"{sum(1 for c in campaigns if c.label == 'serial')} untraced ones):")
        for name, value in metrics.items():
            note = " (computed)" if name in COMPUTED else ""
            if name in tails:
                q, n = tails[name]
                note += f" (p{q:g} of {n} samples)"
            print(f"  {name:42s} {_fmt(value):>14s} {units[name]}{note}")
    else:
        pool = [c for c in campaigns if c.label == "pool"]
        metrics = end_to_end(pool)
        metrics["run_ok_ratio"] = 1.0 - failed / attempted if attempted else 0.0
        units = END_TO_END
        n = sum(1 for c in pool if c.completed)
        print(f"end-to-end metrics (median of {n} campaigns, "
              f"LOCTRACK_THREADS={threads}, BLAS threads {BLAS_THREADS}):")
        for name, value in metrics.items():
            spread = ""
            if name in ("campaign_s", "cpu_s", "peak_rss_mb", "setup_s"):
                vals = [c.result[name] for c in pool if c.completed]
                spread = f" (n={n}, min {_fmt(min(vals, default=0.0))}, " \
                         f"max {_fmt(max(vals, default=0.0))})"
            print(f"  {name:14s} {_fmt(value):>12s} {units[name]}{spread}")
        print(f"  run_fail_ratio {_fmt(failed / attempted if attempted else 1.0):>12s} 1 "
              f"({failed} of {attempted} runs, every campaign of this invocation)")
    print_checks(checks)
    if traced_n:
        print_layers(workload, shares)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
