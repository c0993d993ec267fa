#!/usr/bin/env python3
"""
Information coupling as an absorbing random walk
================================================

The joint information matrix splits into a nominal part D (what each state
would know if every neighbour were a perfect anchor) and a coupling part A.
Normalising by D turns the system into an absorbing Markov chain over the
(step, user) grid: a walker either escapes to the measurement anchor
(information survives) or keeps bouncing between uncertain neighbours
(information is spent re-estimating them).

This demo verifies the three identities that make the picture exact:

1. PTPM rows sum to the identity (transition + absorption);
2. F + F_to_B = I per state (return before absorption vs absorb first);
3. D (I + Delta)^{-1} equals the marginal information of each state, with
   Delta summed from the walk's return series.
"""

import os

import numpy as np

from loctrack.blocks import block_slice
from loctrack.coupling import (
    build_ptpm,
    delta_direct,
    delta_series,
    eoc_report,
    hitting_probabilities,
    split_d_a,
)
from loctrack.fim import assemble_efim, marginal_efim, measurement_fim, prior_fim
from loctrack.scenario import load_scenario, prior_model, static_trajectory

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")

config = load_scenario(os.path.join(CONFIGS, "toy.json"))
traj = static_trajectory(config)
T, K = config.num_steps, config.num_users

lambda_d = measurement_fim(config, traj)
pfim = prior_fim(prior_model(config, include_anchor=True))
efim = assemble_efim(lambda_d, pfim)
# D is read off the EFIM's own diagonal blocks, so A = D - J is hollow; the
# prior only tells the split which states carry the step-0 anchor.
split = split_d_a(efim, pfim)
ptpm = build_ptpm(split, lambda_d)

# =========================================================================
# IDENTITY 1: ROW SUMS
# =========================================================================

print("=" * 70)
print("PTPM STRUCTURE")
print("=" * 70)
print(f"states: {T * K} (T = {T}, K = {K}), block side {2 * T * K}")
print(f"row-sum identity residual: {ptpm.row_sum_residual():.2e}")
# the split keeps only D; the walk readings build A = D - J when needed
coupling = split.coupling()
hollow = max(
    float(np.max(np.abs(coupling[block_slice(g), block_slice(g)])))
    for g in range(T * K)
)
print(f"largest entry on A's diagonal blocks: {hollow:.1e} (A is hollow)")

# =========================================================================
# IDENTITY 2: RETURN VS ABSORB
# =========================================================================

print()
print("=" * 70)
print("HITTING PROBABILITIES PER STATE")
print("=" * 70)
for t in range(T):
    for k in range(K):
        hp = hitting_probabilities(ptpm, t, k)
        print(f"  state (t={t + 1}, k={k + 1}): "
              f"tr(F)/2 = {np.trace(hp.return_before_absorb) / 2:.4f}, "
              f"tr(F_to_B)/2 = {np.trace(hp.absorb_first) / 2:.4f}, "
              f"|F + F_to_B - I| = {hp.identity_residual():.2e}")

# =========================================================================
# IDENTITY 3: SERIES VS DIRECT MARGINAL
# =========================================================================

print()
print("=" * 70)
print("COUPLING EXCESS: SERIES VS DIRECT")
print("=" * 70)
worst = 0.0
deltas = delta_direct(split)
for t in range(T):
    for k in range(K):
        series = delta_series(split, t, k)
        direct = deltas[t, k]
        err = np.linalg.norm(series.value - direct) / max(
            np.linalg.norm(direct), 1e-300
        )
        worst = max(worst, err)
        d_block = split.nominal_blocks[t, k]
        marg = marginal_efim(efim, t, k)
        recon = d_block @ np.linalg.inv(np.eye(2) + series.value)
        gap = np.linalg.norm(recon - marg) / np.linalg.norm(marg)
        print(f"  (t={t + 1}, k={k + 1}): series terms {series.terms_used:4d}, "
              f"series-vs-direct {err:.1e}, D(I+Delta)^-1 vs marginal {gap:.1e}")
print(f"spectral radius of the walk: {series.spectral_radius:.4f}")

# =========================================================================
# EFFICIENCY REPORT
# =========================================================================

print()
print("=" * 70)
print("EFFICIENCY OF COUPLING")
print("=" * 70)
# the report reads EoC off the chain pass (blocks.selected_inverse); the
# walk's absorb-first probability above is the same number seen as a
# random walk
report = eoc_report(efim, split)
for t in range(T):
    for k in range(K):
        walk_eoc = np.trace(hitting_probabilities(ptpm, t, k).absorb_first) / 2
        print(f"  (t={t + 1}, k={k + 1}): EoC = {report.eoc[t, k]:.4f} "
              f"(walk {walk_eoc:.4f}), BCRB = {report.bcrb[t, k]:.4f} m^2")
print(f"mean EoC {report.mean_eoc:.4f}, mean per-dimension BCRB "
      f"{report.mean_bcrb:.4f} m^2")
print("an EoC of 1 would mean neighbours cost nothing; the gap to 1 is the")
print("information spent absorbing their uncertainty")
