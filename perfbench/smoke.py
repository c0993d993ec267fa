"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload at a tiny size with tracing off and on, and checks that
the result line carries exactly the metrics ``BENCHMARK.json`` declares,
with their units, that the report prints each of them, and that the
output checks ran and passed.  It also checks that the benchmark refuses
to run, without printing a result, where the package sources are missing.
Exits 0 when everything holds and prints one line per failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

EXPECTED_CHECKS = {
    "EOC_VS_SNR": ("oracle-bcrb", "oracle-eoc", "traced-means-equal-table"),
    "EOC_VS_NUM_RIS": ("oracle-bcrb", "oracle-eoc", "traced-means-equal-table"),
    "EP_CONVERGENCE": ("last-step-bcrb-equals-theory-star",),
}
COMMON_CHECKS = {
    0: ("campaigns-complete", "bytes-identical-across-reps",
        "bytes-identical-pool-vs-serial", "traced-run-count"),
    1: ("campaigns-complete", "bytes-identical-across-serial-reps", "traced-run-count"),
}


def _invoke(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(bench: dict, name: str, trace: int, problems: list) -> None:
    where = f"{name} trace={trace}"
    proc = _invoke(run.ROOT, name, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')} failed={result.get('failed')}")
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(declared))} "
                        "differ from BENCHMARK.json")
    report = lines[:-1]
    for metric, unit in declared.items():
        got = metrics.get(metric, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {metric} is {got}, want unit {unit!r}")
        if not any(line.split()[:1] == [metric] and f" {unit}" in line for line in report):
            problems.append(f"{where}: report has no line for {metric} with unit {unit}")
    if trace == 0 and not any(line.split()[:1] == ["run_fail_ratio"] for line in report):
        problems.append(f"{where}: report has no run_fail_ratio line")
    if not any(line.startswith("machine: ") for line in report):
        problems.append(f"{where}: report has no machine record")
    kind = run.WORKLOADS[name].spec["kind"]
    passed = {line.split()[1] for line in report if line.startswith("  PASS ")}
    for check in COMMON_CHECKS[trace] + EXPECTED_CHECKS[kind]:
        if check not in passed:
            problems.append(f"{where}: output check {check} did not run or did not pass")
    if not any(line.startswith("dominant layer: ") for line in report):
        problems.append(f"{where}: report has no dominant-layer verdict")


def check_declarations(bench: dict, problems: list) -> None:
    declared = [w["name"] for w in bench["workloads"]]
    if declared != list(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {declared} != {list(run.WORKLOADS)}")
    for entry in bench["workloads"]:
        workload = run.WORKLOADS.get(entry["name"])
        if workload is None:
            continue
        for label, layers in (("dominant", workload.dominant), ("idle", workload.idle)):
            if f"{label}: {'/'.join(layers)}" not in entry["why"]:
                problems.append(f"{entry['name']}: why does not name {label} "
                                f"layers {'/'.join(layers)}")
    if {m["name"]: m["unit"] for m in bench["end_to_end"]} != run.END_TO_END:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != run.PER_LAYER:
        problems.append("per_layer metrics differ from run.PER_LAYER")


def check_refuses_without_sources(problems: list) -> None:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _invoke(bare, next(iter(run.WORKLOADS)), 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {proc.returncode}, "
                            f"stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list = []
    check_declarations(bench, problems)
    for name in run.WORKLOADS:
        for trace in (0, 1):
            check_run(bench, name, trace, problems)
            print(f"ran {name} trace={trace}", flush=True)
    check_refuses_without_sources(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
