#!/usr/bin/env python3
"""
Cascaded channel, Jacobians, and the measurement information matrix
===================================================================

Walks one (step, user) pair through the physical layer:

* steering vectors, the per-step (R, N_r) phase stack, and the aligned
  reflection gain sqrt(N_r);
* the channel Jacobian in (angle, gain) coordinates, checked against
  central finite differences on the spot;
* the position Jacobian T_u mapping (angle, gain) sensitivities to (x, y);
* the per-user 2x2 measurement information block and its eigenstructure;
* the joint position bound on a static toy.
"""

import os

import numpy as np

from loctrack.channel import (
    cascade_from_parameters,
    cascaded_channel,
    channel_jacobian,
    resolve_phases,
    steering_vector,
)
from loctrack.fim import (
    assemble_efim,
    bcrb,
    measurement_fim,
    position_jacobian,
    prior_fim,
)
from loctrack.scenario import load_scenario, prior_model, static_trajectory

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")

config = load_scenario(os.path.join(CONFIGS, "toy.json"))
traj = static_trajectory(config)

# =========================================================================
# STEERING AND REFLECTION
# =========================================================================

print("=" * 70)
print("STEERING AND REFLECTION (step 1, user 1)")
print("=" * 70)

a_bs = steering_vector(np.deg2rad(40.0), config.n_bs_antennas)
print(f"BS steering vector: {config.n_bs_antennas} entries, "
      f"|a| = {np.linalg.norm(a_bs):.4f} (= sqrt(N_B))")

phases = resolve_phases(config, traj, t=0)
print(f"aligned phase stack at step 1: shape {phases.shape} "
      "(one row of N_r phases per surface)")

channel = cascaded_channel(config, traj, t=0, k=0)
print(f"user-side angles (deg): {np.rad2deg(channel.ru_angles).round(2)}")
print(f"cascade gains: {channel.ru_gains.round(6)}")
print(f"aligned reflection magnitudes: {np.abs(channel.reflection).round(3)} "
      f"(sqrt(N_r) = {np.sqrt(config.n_ris_elements):.3f})")
print(f"effective noise variance: {channel.effective_noise_variance:.3e} "
      f"(configured {config.noise_variance:.0e} + scattered-path leakage)")

# =========================================================================
# JACOBIAN SPOT CHECK
# =========================================================================

print()
print("=" * 70)
print("CHANNEL JACOBIAN VS CENTRAL DIFFERENCES")
print("=" * 70)

jac = channel_jacobian(config, traj, t=0, k=0)
R = config.num_ris
step = 1e-6
worst = 0.0
for col in range(2 * R):
    def shifted(delta, col=col):
        angles = channel.ru_angles.copy()
        gains = channel.ru_gains.copy()
        if col < R:
            angles[col] += delta
        else:
            gains[col - R] += delta
        return cascade_from_parameters(config, traj, 0, 0, angles, gains)

    numeric = (shifted(step) - shifted(-step)) / (2 * step)
    err = np.linalg.norm(numeric - jac.matrix[:, col]) / max(
        np.linalg.norm(numeric), 1e-300
    )
    worst = max(worst, err)
print(f"max relative column error over {2 * R} columns: {worst:.2e}")

T_u = position_jacobian(config, traj)
print(f"position Jacobians: shape {T_u.shape} (T x K x 2 x 2R), "
      f"one {T_u[0, 0].shape} T_u per (step, user)")

# =========================================================================
# MEASUREMENT INFORMATION AND THE JOINT BOUND
# =========================================================================

print()
print("=" * 70)
print("MEASUREMENT FIM AND JOINT BCRB (static toy)")
print("=" * 70)

lambda_d = measurement_fim(config, traj)
block = lambda_d[0, 0]
eigs = np.linalg.eigvalsh(block)
print(f"Lambda_D block (step 1, user 1):\n{block.round(3)}")
print(f"eigenvalues: {eigs.round(4)} "
      "(anisotropic: the surfaces sit on one line)")

pfim = prior_fim(prior_model(config, include_anchor=True))
efim = assemble_efim(lambda_d, pfim)
result = bcrb(efim)
print(f"joint BCRB (sum of position MSE lower bounds): {result.total:.4f} m^2")
for t in range(config.num_steps):
    row = ", ".join(
        f"user {k + 1}: {result.per_user[t, k]:.4f}"
        for k in range(config.num_users)
    )
    print(f"  step {t + 1}: {row}")
