#!/usr/bin/env python3
"""
Extreme correlation regimes of the recursive bound
==================================================

Freezes the recursion inputs at one slice of the stock deployment and
pushes the prior precisions to their limits:

* spatial precision -> 0: users decouple; each user's bound settles at its
  own Riccati fixed point.
* spatial precision -> infinity: users fuse into one super-user; the
  settled information is the common fixed point of the summed inputs, the
  first step already collapses to the summed measurement, and the
  efficiency of coupling dies.
* temporal precision -> infinity: the state stops moving, information
  accumulates linearly, and the per-step slope is the marginal slice
  information; the efficiency dies here too.

Stand-ins 1e3 and 1e-3 replace the actual limits, so each regime needs the
measurement information on the right side of its stand-in: the decoupled
limit wants measurements strong against the 1e-3 residual coupling (here
+70 dB over stock), the fused limit wants them weak against the 1e3
coupling yet strong enough to seat the consensus fixed point (+30 dB; at
stock SNR the coupling swamps them and the finite system fails the SPD
test of the closed-form fixed point, raising NotSpd), and
the frozen-trajectory limit runs at stock SNR, where the slice walk is too
slowly mixing for the series cross-check (reported as absent, not wrong).
"""

import json
import os

import numpy as np

from loctrack.asymptotics import (
    limit_spatial_inf,
    limit_spatial_zero,
    limit_temporal_inf,
)
from loctrack.scenario import scenario_from_json, static_trajectory

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")

with open(os.path.join(CONFIGS, "paper_baseline.json"), encoding="utf-8") as fh:
    STOCK = json.load(fh)
STOCK["num-steps"] = 4


def scenario_at(offset_db: float):
    config = scenario_from_json(STOCK).with_snr_offset_db(offset_db)
    return config, static_trajectory(config)


def show(report):
    print(f"  regime: {report.regime}")
    print(f"  stand-in precision: {report.finite_value:g}")
    print(f"  worst per-user relative trace gap: {report.relative_gaps.max():.2e}")
    print(f"  scalar EoC at the stand-in: {report.eoc:.4f}")
    if report.first_step_gap is not None:
        print(f"  first-step collapse gap: {report.first_step_gap:.2e}")
    if report.series_vs_direct is not None:
        print(f"  slope via walk series vs direct: {report.series_vs_direct:.2e}")
    elif report.regime == "temporal-inf":
        print("  slope walk series: skipped (slice walk mixes too slowly)")
    if report.finite_step_gap is not None:
        print(f"  two-step linear-growth gap: {report.finite_step_gap:.2e}")
    print()


print("=" * 70)
print("SPATIAL PRECISION -> 0 (users decouple, +70 dB)")
print("=" * 70)
show(limit_spatial_zero(*scenario_at(70.0)))

print("=" * 70)
print("SPATIAL PRECISION -> INFINITY (users fuse, +30 dB)")
print("=" * 70)
show(limit_spatial_inf(*scenario_at(30.0)))

print("=" * 70)
print("TEMPORAL PRECISION -> INFINITY (state freezes, stock SNR)")
print("=" * 70)
report = limit_temporal_inf(*scenario_at(0.0))
show(report)

slope = np.trace(report.predicted[0]) / 2
print(f"user 1 predicted slope, trace/2: {slope:.6g} per step")
print("the acceptance suite pins each gap above: 1% for the settled traces,")
print("2% for the growth slope, and EoC under 0.05 in both infinite regimes")
