#!/usr/bin/env python3
"""
Scenario setup, validation, and user tracks
===========================================

Loads the stock deployment from ``configs/paper_baseline.json`` (one base
station, four reflecting surfaces on a vertical line, three users), runs
the semantic validator, assembles the joint prior precision the bound
assumes, then generates user tracks with the generative motion model
(anchor draw + Gaussian random walk), which is what the experiment
campaigns simulate.

The tracks are not drawn from the joint prior: its spatial coupling term
at sigma_s^-2 = 10 would pull the users toward their centroid, and the
campaigns keep that coupling on the analysis side, in the bound.
"""

import os

import numpy as np

from loctrack.blocks import chain_matrix
from loctrack.fim import prior_fim
from loctrack.scenario import (
    load_scenario,
    prior_model,
    random_walk_trajectory,
    validate,
)

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")

# =========================================================================
# BUILD AND VALIDATE
# =========================================================================

config = load_scenario(os.path.join(CONFIGS, "paper_baseline.json"))

print("=" * 70)
print("SCENARIO")
print("=" * 70)
print(f"users: {config.num_users}, surfaces: {config.num_ris}, "
      f"steps: {config.num_steps}")
print(f"BS antennas: {config.n_bs_antennas}, "
      f"RIS elements: {config.n_ris_elements}")
print(f"carrier: {config.carrier_frequency_hz/1e9:.0f} GHz, "
      f"path loss exponent: {config.path_loss_exponent}")
print(f"noise variance: {config.noise_variance}, "
      f"transmit power: {config.transmit_power} W")

report = validate(config)
print(f"validation: {'ok' if report.ok else report.violations}")

# The joint prior precision: per-step spatial slices (the first-step anchor
# folded into step 0) chained by the transition precisions. It is SPD once
# the anchor is present.
pf = prior_fim(prior_model(config))
J_prior = chain_matrix(pf.spatial_slices, pf.temporal)
print(f"joint prior precision side: {J_prior.shape[0]} "
      f"(= 2 x T x K), symmetric: {np.array_equal(J_prior, J_prior.T)}, "
      f"smallest eigenvalue: {np.linalg.eigvalsh(J_prior)[0]:.3e}")

# =========================================================================
# GENERATIVE TRACKS (what campaigns simulate)
# =========================================================================

walk = random_walk_trajectory(config, seed=2024)

print()
print("=" * 70)
print("RANDOM WALK TRACKS (seed 2024)")
print("=" * 70)
print("start vs end position per user:")
for k in range(config.num_users):
    x0, y0 = walk.positions[0, k]
    x1, y1 = walk.positions[-1, k]
    drift = np.hypot(x1 - x0, y1 - y0)
    print(f"  user {k + 1}: ({x0:7.2f}, {y0:6.2f}) -> ({x1:7.2f}, {y1:6.2f})"
          f"   drift {drift:.2f} m")

step_sizes = np.linalg.norm(np.diff(walk.positions, axis=0), axis=2)
rayleigh_mean = np.sqrt(0.1 * np.pi / 2)
print(f"mean step size {step_sizes.mean():.3f} m "
      f"(Rayleigh mean sqrt(0.1 pi/2) = {rayleigh_mean:.3f} for Q = 0.1 I)")
