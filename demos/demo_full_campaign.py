#!/usr/bin/env python3
"""
End-to-end campaign: spec file in, figure CSVs out
==================================================

Drives the experiment harness exactly the way the CLI does, on shrunk
copies of the shipped spec files (fewer Monte Carlo runs) so the whole
demo finishes in seconds:

1. efficiency vs SNR on the documented toy (7-point sweep);
2. error propagation on the stock deployment with a mid-campaign dropout;
3. figure-panel CSVs emitted from both tables.

Byte determinism is demonstrated at the end by rerunning campaign 1 and
hashing both tables.
"""

import dataclasses
import hashlib
import os

from loctrack.harness import emit_figure_data, load_experiment, run_experiment, write_outputs

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")
OUT = "/tmp/loctrack_demo_campaign"


def shrink(spec, runs, out_name):
    return dataclasses.replace(
        spec, num_monte_carlo=runs, output_dir=os.path.join(OUT, out_name)
    )


# =========================================================================
# CAMPAIGN 1: EFFICIENCY VS SNR
# =========================================================================

spec4 = shrink(load_experiment(os.path.join(CONFIGS, "fig4_eoc_vs_snr.json")), 20, "fig4")
table4 = run_experiment(spec4)
write_outputs(table4, spec4.output_dir)

print("=" * 70)
print("EOC VS SNR (toy, 20 Monte Carlo runs)")
print("=" * 70)
print("  snr_db    eoc_mean    bcrb_mean")
for value in spec4.sweep_values:
    eoc = next(r.mean for r in table4.rows
               if r.sweep_value == value and r.metric_name == "eoc-mean")
    bcrb = next(r.mean for r in table4.rows
                if r.sweep_value == value and r.metric_name == "bcrb-mean")
    print(f"  {value:+6.0f}    {eoc:.5f}     {bcrb:.5f}")
print(f"trend warnings: {table4.manifest['trend-warnings'] or 'none'}")

# =========================================================================
# CAMPAIGN 2: ERROR PROPAGATION WITH DROPOUT
# =========================================================================

spec8 = shrink(
    load_experiment(os.path.join(CONFIGS, "fig8_error_propagation.json")), 10, "fig8"
)
table8 = run_experiment(spec8)
write_outputs(table8, spec8.output_dir)

print()
print("=" * 70)
print("ERROR PROPAGATION (10 Monte Carlo runs per temporal precision)")
print("=" * 70)
for value in spec8.sweep_values:
    theory = next(r.mean for r in table8.rows
                  if r.sweep_value == value and r.metric_name == "theory-bcrb-star")
    last = next(r.mean for r in table8.rows
                if r.sweep_value == value and r.t == 40
                and r.metric_name == "bcrb-mean")
    peak = max(r.mean for r in table8.rows
               if r.sweep_value == value and r.t >= 21
               and r.metric_name == "bcrb-mean")
    print(f"  sigma_t^-2 = {value:5g}: settled {last:.5f}, theory {theory:.5f} "
          f"(gap {abs(last - theory) / theory:.1e}), dropout peak {peak:.5f}")

# =========================================================================
# FIGURE PANELS AND DETERMINISM
# =========================================================================

paths = emit_figure_data(table4, "fig4", spec4.output_dir)
paths += emit_figure_data(table8, "fig8", spec8.output_dir)

print()
print("=" * 70)
print("ARTIFACTS")
print("=" * 70)
for path in paths:
    print(f"  {path}")

rerun = run_experiment(spec4)
write_outputs(rerun, os.path.join(OUT, "fig4_rerun"))


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


h1 = digest(os.path.join(OUT, "fig4", "table.csv"))
h2 = digest(os.path.join(OUT, "fig4_rerun", "table.csv"))
print(f"  rerun table digest match: {h1 == h2}")
