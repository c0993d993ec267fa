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
array from one array kernel over every (step, user) cell: the channel
factors of ``channel.jacobian_factors``, one Gram matrix of the BS rows
(the N_b axis summed once per call) and the (T, K, 2, 2R) T_u of
``position_jacobian``. ``measurement_blocks_at`` is that kernel at one
step, the recursion's per-step input. ``prior_fim`` returns the two prior
parts, read from a ``scenario.PriorModel`` alone. ``assemble_efim``
returns the EFIM in chain form, a ``blocks.ChainEfim``: the per-step
slices (spatial slice plus measurement blocks) and the temporal links.

The Bayesian CRB is the trace of the inverse of the assembled matrix; the
per-user bound is the trace of the matching 2x2 diagonal block. The
campaigns read both through ``blocks.selected_inverse``
(``coupling.eoc_report``); ``bcrb`` and ``marginal_efim`` read the dense
view ``ChainEfim.data`` and are the oracles they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    ChainEfim,
    block_diag,
    block_index,
    block_slice,
    inverse_diag_blocks,
    symmetrize,
)
from .channel import jacobian_factors
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


def _link_offsets(config: ScenarioConfig, positions: np.ndarray, first_step: int):
    """(S, K, R, 2) user-minus-surface offsets of (S, K, 2) positions, and
    their (S, K, R) lengths.

    T_u needs every link outside the guard distance and off the surface's
    array axis, where arccos is not differentiable. The first (step, user,
    surface) that breaks either raises DegenerateGeometry; its step is
    counted from ``first_step``.
    """
    delta = positions[..., None, :] - config.ris_positions
    dist = np.sqrt(np.vecdot(delta, delta))
    near = dist <= GEOMETRY_GUARD
    bad = near | (np.abs(delta[..., 1]) <= GEOMETRY_GUARD)
    if np.any(bad):
        s, k, i = np.argwhere(bad)[0]
        t = first_step + s
        if near[s, k, i]:
            raise DegenerateGeometry(
                f"user {k} within guard distance of surface {i} at step {t}"
            )
        raise DegenerateGeometry(
            f"user {k} on the array axis of surface {i} at step {t}; "
            "the angle derivative is undefined there"
        )
    return delta, dist


def _position_jacobian(delta: np.ndarray, dist: np.ndarray, path_loss_exponent: float):
    """T_u of every cell: (..., 2, 2R) from (..., R, 2) offsets."""
    alpha_mag = abs(path_loss_exponent)
    dx, dy = delta[..., 0], delta[..., 1]
    sq = dist**2
    angle = np.stack([-np.abs(dy) / sq, dx * np.sign(dy) / sq], axis=-2)
    scale = -(alpha_mag / 2.0) * dist ** (-alpha_mag / 2.0 - 2.0)
    return np.concatenate([angle, scale[..., None, :] * delta.mT], -1)


def position_jacobian(config: ScenarioConfig, trajectory: Trajectory) -> np.ndarray:
    """Derivatives of the stacked channel parameters w.r.t. position.

    Returns (T, K, 2, 2R): per (step, user), row 0 differentiates by x and
    row 1 by y; columns follow the [angles(R), gains(R)] stacking of the
    channel module. The angle part needs the user off each surface's array
    axis and outside the guard distance; ``_link_offsets`` raises
    DegenerateGeometry for the first (step, user, surface) that is not.
    """
    delta, dist = _link_offsets(config, trajectory.positions, 0)
    return _position_jacobian(delta, dist, config.path_loss_exponent)


def _measurement_blocks(
    config: ScenarioConfig, trajectory: Trajectory, steps: range
) -> np.ndarray:
    """(S, K, 2, 2) position-domain measurement blocks of the cells at ``steps``.

    Per cell: Lambda_eta = (2 P / sigma_eff^2) Re(J_h^H J_h) over the 2R
    channel parameters, mapped to position as T_u Lambda_eta T_u^T. Column
    a of J_h is c_a b_a with b_a a BS row, so Re(J_h^H J_h) is
    Re(conj(c_a) c_b G_ab) with G the Gram matrix of the stacked BS rows,
    which sums the N_b axis once per call.
    """
    delta, dist = _link_offsets(
        config, trajectory.positions[steps.start : steps.stop], steps.start
    )
    coeffs, rows, noise = jacobian_factors(config, steps, delta, dist)
    stacked = np.concatenate([rows, rows])
    gram = stacked.conj() @ stacked.T
    info = np.real(coeffs.conj()[..., :, None] * coeffs[..., None, :] * gram)
    info = symmetrize((2.0 * config.transmit_power / noise)[..., None, None] * info)
    t_u = _position_jacobian(delta, dist, config.path_loss_exponent)
    return symmetrize(t_u @ info @ t_u.mT)


def measurement_blocks_at(
    config: ScenarioConfig, trajectory: Trajectory, t: int
) -> np.ndarray:
    """(K, 2, 2) position-domain measurement blocks of one step."""
    return _measurement_blocks(config, trajectory, range(t, t + 1))[0]


def measurement_fim(config: ScenarioConfig, trajectory: Trajectory) -> np.ndarray:
    """(T, K, 2, 2) position-domain measurement blocks, one per (step, user)."""
    T, K = config.num_steps, config.num_users
    if trajectory.num_steps != T or trajectory.num_users != K:
        raise DimensionMismatch(
            f"trajectory is {trajectory.num_steps}x{trajectory.num_users}, "
            f"scenario wants {T}x{K}"
        )
    return _measurement_blocks(config, trajectory, range(T))


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


def assemble_efim(lambda_d: np.ndarray, pfim: PriorFim) -> ChainEfim:
    """Sum of the (T, K, 2, 2) measurement blocks and the prior information,
    in chain form: each step's slice gains its measurement blocks."""
    T, K = lambda_d.shape[:2]
    if (T, K) != (pfim.n_steps, pfim.n_users):
        raise DimensionMismatch(
            f"measurement grid {T}x{K} does not match "
            f"prior grid {pfim.n_steps}x{pfim.n_users}"
        )
    slices = symmetrize(pfim.spatial_slices + block_diag(lambda_d), "assembled EFIM")
    return ChainEfim(slices, symmetrize(pfim.temporal, "temporal links"))


@dataclass(frozen=True)
class BcrbResult:
    """Trace bound on the joint posterior covariance.

    ``total`` is the trace of the full inverse, the sum of ``per_user``,
    the (T, K) array of per-position traces.
    """

    total: float
    per_user: np.ndarray


def bcrb(efim: ChainEfim) -> BcrbResult:
    """Bayesian CRB from the dense view of an assembled information matrix,
    by ``blocks.inverse_diag_blocks``; raises SingularEfim if J is not
    positive definite."""
    blocks = inverse_diag_blocks(efim.data)
    per_user = np.trace(blocks, axis1=1, axis2=2).reshape(efim.n_steps, efim.n_users)
    return BcrbResult(total=float(np.sum(per_user)), per_user=per_user)


def marginal_efim(efim: ChainEfim, t: int, k: int) -> np.ndarray:
    """Equivalent 2x2 information of one (step, user) after marginalisation.

    Direct Schur complement: J_gg - J_gr J_rr^{-1} J_rg with g the target
    block and r everything else. This is the reference route the coupling
    identities are checked against.
    """
    own = block_slice(block_index(t, k, efim.n_users))
    j_gr = np.delete(efim.data[own], own, axis=1)
    j_rr = np.delete(np.delete(efim.data, own, axis=0), own, axis=1)
    try:
        solved = np.linalg.solve(j_rr, j_gr.T)
    except np.linalg.LinAlgError as exc:
        raise SingularEfim(
            f"cannot marginalise block ({t}, {k}): complement is singular"
        ) from exc
    return symmetrize(efim.data[own, own] - j_gr @ solved)
