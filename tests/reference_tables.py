"""Reference tables: every shipped figure spec and the four benchmark spec
shapes, each at 2 Monte Carlo runs.

Run from the repository root to rewrite ``tests/reference/``:

    PYTHONPATH=src python tests/reference_tables.py

Each spec writes ``tests/reference/<name>/table.csv`` and
``manifest.json``. ``tests/test_reference_tables.py`` reruns the same
specs and compares. A change that moves numbers on purpose reruns this
script in the same change and records the largest relative move per spec.

The benchmark shapes copy the spec dicts of ``perfbench/run.py``'s
workloads at ``--seed 1``; the ``l1-prior`` scenario is ``toy.json`` with
the distance prior at spatial precision 2, written as ``scenario.json``
beside that spec's table.
"""

import json
import sys
from pathlib import Path

from loctrack.harness import experiment_from_json, run_experiment, write_outputs

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
REFERENCE = Path(__file__).resolve().parent / "reference"
RUNS = 2

SNR_DB = [20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]

# name -> (scenario under configs/, keys replaced in that scenario, spec)
BENCHMARK_SPECS = {
    "bench-eoc-coupled": ("paper_baseline.json", {}, {
        "kind": "EOC_VS_SNR",
        "sweep": {"parameter": "snr-db", "values": SNR_DB},
    }),
    "bench-eoc-small-many": ("toy.json", {}, {
        "kind": "EOC_VS_NUM_RIS",
        "sweep": {"parameter": "num-ris", "values": [1.0, 2.0, 4.0]},
    }),
    "bench-track-long": ("paper_baseline_long.json", {}, {
        "kind": "EP_CONVERGENCE",
        "sweep": {"parameter": "sigma-t-inv2", "values": [1.0, 10.0, 100.0]},
        "snr-db-offset": 70.0,
        "disturbance": {"steps": [21, 22], "scale": 0.1},
        "constant-from-step": 2,
    }),
    "bench-l1-prior": ("toy.json", {"prior-kind": "l1-norm", "spatial-precision": 2.0}, {
        "kind": "EOC_VS_SNR",
        "sweep": {"parameter": "snr-db", "values": [-10.0, 0.0, 10.0, 20.0, 30.0]},
    }),
}
BENCHMARK_SEED = 1

NAMES = tuple(sorted(path.stem for path in CONFIGS.glob("fig*.json"))) + tuple(
    BENCHMARK_SPECS
)


def _payload(name: str, work: Path) -> dict:
    """The spec of ``name`` at RUNS runs, writing to ``work/name``."""
    if name in BENCHMARK_SPECS:
        scenario, derive, spec = BENCHMARK_SPECS[name]
        payload = dict(spec, **{"scenario": str(CONFIGS / scenario), "base-seed": BENCHMARK_SEED})
        if derive:
            scene = json.loads((CONFIGS / scenario).read_text(encoding="utf-8"))
            scene.update(derive)
            path = work / name / "scenario.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(scene, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            payload["scenario"] = str(path)
    else:
        payload = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
        payload["scenario"] = str(CONFIGS / payload["scenario"])
    payload["num-monte-carlo"] = RUNS
    payload["output-dir"] = str(work / name)
    return payload


def write_reference(name: str, work: Path) -> Path:
    """Run spec ``name`` and write its table and manifest to ``work/name``."""
    spec = experiment_from_json(_payload(name, work))
    write_outputs(run_experiment(spec), spec.output_dir)
    return Path(spec.output_dir)


def main() -> int:
    for name in NAMES:
        print(write_reference(name, REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
