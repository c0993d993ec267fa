"""Outputs do not depend on the BLAS thread count.

Two fresh interpreters, one at ``OPENBLAS_NUM_THREADS=1`` and one at 2,
run the same small campaigns and measurement kernels, one after the
other, so no more than two compute threads run at once. Every file they
write must match byte for byte: ``table.csv`` and ``manifest.json`` of a
toy EoC-vs-SNR campaign, a toy EoC-vs-surface-count campaign (aligned and
random phases), an EoC-vs-SNR campaign the size of the ``eoc-coupled``
benchmark workload (``paper_baseline.json``, T=40, K=3), a short
error-propagation campaign on the toy, a constant-input error-propagation
campaign on ``paper_baseline.json`` (T=40, K=3, one disturbed step,
temporal precision up to 1000), one on ``paper_baseline_long.json``
(T=1000 at +70 dB, 2 runs, temporal precision 1 and 100) whose recursion
reaches a bitwise fixed point and repeats it after the disturbed step,
the raw bytes of ``measurement_fim`` on
``paper_baseline.json`` under aligned and random phases, and the raw
bytes of one l1-norm toy ensemble (100 chains, the default burn-in).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import dataclasses
import sys
from pathlib import Path

from loctrack.fim import measurement_fim
from loctrack.harness import ExperimentSpec, run_experiment, write_outputs
from loctrack.scenario import (
    PRIOR_L1,
    RandomPhases,
    load_scenario,
    random_walk_trajectory,
    sample_trajectory_ensemble,
)

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
campaigns = {
    "eoc-vs-snr": ("toy.json", "EOC_VS_SNR", "snr-db", (-10.0, 10.0, 30.0), 2, 4, 0.0),
    "eoc-vs-num-ris": ("toy.json", "EOC_VS_NUM_RIS", "num-ris", (1.0, 2.0, 4.0), 2, 4, 0.0),
    "eoc-coupled": ("paper_baseline.json", "EOC_VS_SNR", "snr-db", (20.0, 50.0, 80.0), 2, 4, 0.0),
    "ep-convergence": ("toy.json", "EP_CONVERGENCE", "sigma-t-inv2", (1.0, 10.0), None, 4, 0.0),
    "ep-baseline": ("paper_baseline.json", "EP_CONVERGENCE", "sigma-t-inv2", (1.0, 1000.0), 2, 4, 0.0),
    "ep-fixed-point": ("paper_baseline_long.json", "EP_CONVERGENCE", "sigma-t-inv2", (1.0, 100.0), 2, 2, 70.0),
}
for name, (scenario, kind, parameter, values, constant, runs, offset) in campaigns.items():
    spec = ExperimentSpec(
        scenario_path=str(configs / scenario),
        kind=kind,
        sweep_parameter=parameter,
        sweep_values=values,
        num_monte_carlo=runs,
        base_seed=7,
        snr_db_offset=offset,
        output_dir=str(out / name),
        disturbance_steps=(2,) if kind == "EP_CONVERGENCE" else (),
        disturbance_scale=0.5 if kind == "EP_CONVERGENCE" else 1.0,
        constant_from_step=constant,
    )
    write_outputs(run_experiment(spec), spec.output_dir)

config = load_scenario(str(configs / "paper_baseline.json"))
trajectory = random_walk_trajectory(config, 5)
for mode, cfg in (
    ("aligned", config),
    ("random", dataclasses.replace(config, ris_phase_profiles=RandomPhases(5))),
):
    (out / f"measurement-fim-{mode}.bin").write_bytes(
        measurement_fim(cfg, trajectory).tobytes()
    )

l1 = dataclasses.replace(load_scenario(str(configs / "toy.json")), prior_kind=PRIOR_L1)
(out / "l1-ensemble.bin").write_bytes(
    sample_trajectory_ensemble(l1.with_spatial_precision(2.0), 100, 7).tobytes()
)
"""


def run_child(threads: int, out: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "configs"), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_outputs_identical_at_one_and_two_blas_threads(tmp_path):
    one = run_child(1, tmp_path / "one")
    two = run_child(2, tmp_path / "two")
    assert len(one) == 15, sorted(one)
    assert sorted(one) == sorted(two)
    differing = [name for name in one if one[name] != two[name]]
    assert not differing, f"outputs differ between 1 and 2 BLAS threads: {differing}"
