"""Measurement and prior Fisher information, EFIM assembly, and the BCRB.

The joint information over all (step, user) positions splits into three
parts that this module builds separately and then sums:

* measurement: per-(t, k) blocks T_u Lambda_eta T_u^T where Lambda_eta is
  the channel-parameter information and T_u the position Jacobian of those
  parameters;
* spatial prior: one (2K x 2K) slice per step from the inter-user edges,
  plus the step-0 anchor on the diagonal when its precision is positive
  (``scenario.prior_slice``);
* temporal prior: the transition precisions Gamma = Q^{-1}, linking each
  user's state to its next step.

``measurement_fim`` returns the measurement part as a plain (T, K, 2, 2)
array and ``prior_fim`` the two prior parts, read from a
``scenario.PriorModel`` alone. ``assemble_efim`` lays the per-step slices
(spatial slice plus measurement blocks) and the temporal links out with
``blocks.chain_matrix`` and wraps the sum in a ``BlockMatrix`` once.

The Bayesian CRB is the trace of the inverse of the assembled matrix; the
per-user bound is the trace of the matching 2x2 diagonal block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .blocks import (
    BlockMatrix,
    block_diag,
    block_index,
    block_slice,
    chain_matrix,
    symmetrize,
)
from .channel import channel_jacobian
from .errors import DegenerateGeometry, DimensionMismatch, SingularEfim
from .scenario import (
    GEOMETRY_GUARD,
    PriorModel,
    ScenarioConfig,
    Trajectory,
    ensemble_positions,
    prior_slice,
)

__all__ = [
    "BcrbResult",
    "PriorFim",
    "assemble_efim",
    "bcrb",
    "marginal_efim",
    "measurement_fim",
    "position_jacobian",
    "prior_fim",
]


def position_jacobian(
    config: ScenarioConfig, trajectory: Trajectory, t: int, k: int
) -> np.ndarray:
    """Derivatives of the stacked channel parameters w.r.t. position.

    Returns a (2, 2R) matrix: row 0 differentiates by x, row 1 by y; columns
    follow the [angles(R), gains(R)] stacking of the channel module. The
    angle part needs the user off each surface's array axis, where arccos is
    not differentiable; such geometries raise DegenerateGeometry.
    """
    R = config.num_ris
    user = trajectory.position(t, k)
    out = np.zeros((2, 2 * R))
    alpha_mag = abs(config.path_loss_exponent)
    for i in range(R):
        delta = user - config.ris_positions[i]
        dist = float(np.linalg.norm(delta))
        if dist <= GEOMETRY_GUARD:
            raise DegenerateGeometry(
                f"user {k} within guard distance of surface {i} at step {t}"
            )
        if abs(delta[1]) <= GEOMETRY_GUARD:
            raise DegenerateGeometry(
                f"user {k} on the array axis of surface {i} at step {t}; "
                "the angle derivative is undefined there"
            )
        out[0, i] = -abs(delta[1]) / dist**2
        out[1, i] = delta[0] * np.sign(delta[1]) / dist**2
        out[:, R + i] = -(alpha_mag / 2.0) * dist ** (-alpha_mag / 2.0 - 2.0) * delta
    return out


def _measurement_cell(
    config: ScenarioConfig, trajectory: Trajectory, t: int, k: int
) -> np.ndarray:
    """One (t, k) cell: T_u Lambda_eta T_u^T in position coordinates."""
    jac = channel_jacobian(config, trajectory, t, k)
    info = symmetrize(
        (2.0 * config.transmit_power / jac.effective_noise_variance)
        * np.real(jac.matrix.conj().T @ jac.matrix)
    )
    t_u = position_jacobian(config, trajectory, t, k)
    return symmetrize(t_u @ info @ t_u.T)


def measurement_blocks_at(
    config: ScenarioConfig, trajectory: Trajectory, t: int
) -> np.ndarray:
    """(K, 2, 2) position-domain measurement blocks of one step."""
    return np.stack(
        [
            _measurement_cell(config, trajectory, t, k)
            for k in range(config.num_users)
        ]
    )


def measurement_fim(config: ScenarioConfig, trajectory: Trajectory) -> np.ndarray:
    """(T, K, 2, 2) position-domain measurement blocks, one per (step, user).

    Per pair: Lambda_eta = (2 P / sigma_eff^2) Re(J_h^H J_h) over the 2R
    channel parameters, mapped to position as T_u Lambda_eta T_u^T.
    """
    T, K = config.num_steps, config.num_users
    if trajectory.num_steps != T or trajectory.num_users != K:
        raise DimensionMismatch(
            f"trajectory is {trajectory.num_steps}x{trajectory.num_users}, "
            f"scenario wants {T}x{K}"
        )
    return np.stack([measurement_blocks_at(config, trajectory, t) for t in range(T)])


@dataclass(frozen=True)
class PriorFim:
    """Spatial and temporal prior information in block form.

    ``spatial_slices`` holds one (2K, 2K) matrix per step, with
    ``anchor_precision`` (0.0 when left out) folded into slice 0;
    ``temporal`` holds the (T-1, K, 2, 2) transition precisions, entry t
    coupling steps t and t+1.
    """

    spatial_slices: np.ndarray
    temporal: np.ndarray
    anchor_precision: float

    @property
    def n_steps(self) -> int:
        return self.spatial_slices.shape[0]

    @property
    def n_users(self) -> int:
        return self.spatial_slices.shape[1] // 2


def prior_fim(prior: PriorModel, trajectory_ensemble=None) -> PriorFim:
    """Prior information blocks of one prior model.

    One ``scenario.prior_slice`` per step; the distance kind needs a
    (n, T, K, 2) trajectory ensemble for its Monte Carlo edge weights.
    """
    T, K = len(prior.spatial_edges), prior.transition_precisions.shape[1]
    ensemble = ensemble_positions(trajectory_ensemble, T, K)
    slices = np.zeros((T, 2 * K, 2 * K))
    for t in range(T):
        slices[t] = prior_slice(prior, t, ensemble)
    return PriorFim(
        spatial_slices=slices,
        temporal=prior.transition_precisions,
        anchor_precision=prior.anchor_precision,
    )


def assemble_efim(lambda_d: np.ndarray, pfim: PriorFim) -> BlockMatrix:
    """Sum of the (T, K, 2, 2) measurement blocks and the prior information."""
    T, K = lambda_d.shape[:2]
    if (T, K) != (pfim.n_steps, pfim.n_users):
        raise DimensionMismatch(
            f"measurement grid {T}x{K} does not match "
            f"prior grid {pfim.n_steps}x{pfim.n_users}"
        )
    slices = pfim.spatial_slices + np.stack([block_diag(blocks) for blocks in lambda_d])
    total = chain_matrix(slices, pfim.temporal)
    return BlockMatrix(symmetrize(total, "assembled EFIM"), T, K)


@dataclass(frozen=True)
class BcrbResult:
    """Trace bound on the joint posterior covariance.

    ``total`` is the trace of the full inverse; ``per_user`` the (T, K)
    array of per-position traces, which sum to the total.
    """

    total: float
    per_user: np.ndarray


def bcrb(efim: BlockMatrix) -> BcrbResult:
    """Bayesian CRB from an assembled information matrix."""
    try:
        chol = cho_factor(efim.data, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularEfim("assembled EFIM is not positive definite") from exc
    inverse = cho_solve(chol, np.eye(efim.side))
    T, K = efim.n_steps, efim.n_users
    per_user = np.zeros((T, K))
    for t in range(T):
        for k in range(K):
            g = block_index(t, k, K)
            per_user[t, k] = np.trace(inverse[block_slice(g), block_slice(g)])
    return BcrbResult(total=float(np.trace(inverse)), per_user=per_user)


def marginal_efim(efim: BlockMatrix, t: int, k: int) -> np.ndarray:
    """Equivalent 2x2 information of one (step, user) after marginalisation.

    Direct Schur complement: J_gg - J_gr J_rr^{-1} J_rg with g the target
    block and r everything else. This is the reference route the coupling
    identities are checked against.
    """
    g = block_index(t, k, efim.n_users)
    idx = np.arange(efim.side)
    own = idx[block_slice(g)]
    rest = np.setdiff1d(idx, own)
    j_gg = efim.data[np.ix_(own, own)]
    j_gr = efim.data[np.ix_(own, rest)]
    j_rr = efim.data[np.ix_(rest, rest)]
    try:
        solved = np.linalg.solve(j_rr, j_gr.T)
    except np.linalg.LinAlgError as exc:
        raise SingularEfim(
            f"cannot marginalise block ({t}, {k}): complement is singular"
        ) from exc
    return symmetrize(j_gg - j_gr @ solved)
