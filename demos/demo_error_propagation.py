#!/usr/bin/env python3
"""
Error propagation through the recursive bound
=============================================

Runs the per-step information recursion on the stock deployment with a
raised SNR (70 dB off the configured noise floor) so the measurement term
is strong enough to track: the bound settles within a few steps, a two-step
measurement dropout (scale 0.1, steps 21 and 22) knocks it up, and the
recursion pulls it back down.

Also checks the two analytic companions:

* the closed-form stationary point of the constant-input recursion, which
  the settled bound must match;
* the monotone-convergence condition (a Loewner inequality), reported per
  step as a signed slack.
"""

import os

import numpy as np

from loctrack.recursive import constant_inputs, run_recursion, stationary_point
from loctrack.scenario import load_scenario, random_walk_trajectory

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")

SNR_OFFSET_DB = 70.0
DISTURBED = (20, 21)          # 0-based steps; printed 1-based below
SCALE = 0.1

stock = load_scenario(os.path.join(CONFIGS, "paper_baseline.json"))
config = stock.with_snr_offset_db(SNR_OFFSET_DB)
traj = random_walk_trajectory(config, seed=81)

states = run_recursion(
    config,
    traj,
    constant_from_step=1,
    disturbance_steps=DISTURBED,
    disturbance_scale=SCALE,
)

inputs = constant_inputs(config, traj, step=1)
point = stationary_point(inputs.m_full, inputs.t_full)
theory = float(np.trace(np.linalg.inv(point.j_star))) / point.j_star.shape[0]

print("=" * 70)
print("RECURSIVE BOUND ALONG 40 STEPS (constant inputs from step 2)")
print("=" * 70)
print(f"stationary-point residual: {point.residual:.2e}")
print(f"theoretical settled BCRB*: {theory:.6f} m^2 per dimension")
print()
print("  t   bcrb_mean    eoc_mean   condition  slack")
for t, state in enumerate(states):
    marker = " <- dropout" if t in DISTURBED else ""
    flag = "ok " if state.condition_satisfied else "VIOLATED"
    print(f" {t + 1:3d}  {state.bcrb_mean:10.6f}  {state.eoc_mean:9.6f}   "
          f"{flag}   {state.slack:+.3e}{marker}")

settled = states[-1].bcrb_mean
pre = states[DISTURBED[0] - 1].bcrb_mean
peak = max(s.bcrb_mean for s in states[DISTURBED[0]:])
recovery = next(
    (t for t in range(DISTURBED[1] + 1, len(states))
     if abs(states[t].bcrb_mean - pre) / pre < 0.05),
    None,
)

print()
print("=" * 70)
print("SUMMARY")
print("=" * 70)
print(f"settled vs theory: {settled:.6f} vs {theory:.6f} "
      f"(relative gap {abs(settled - theory) / theory:.2e})")
print(f"dropout peak {peak:.6f} m^2 against pre-dropout {pre:.6f} m^2")
if recovery is None:
    print("no recovery to within 5% before the horizon")
else:
    print(f"recovered to within 5% of the pre-dropout level at step "
          f"{recovery + 1}")
print("the convergence condition breaks when the dropout hits and stays")
print("formally violated through the climb back (the bound is still below")
print("its pre-dropout path); it holds again once the recursion has settled")
