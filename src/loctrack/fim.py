"""Measurement and prior Fisher information, EFIM assembly, and the BCRB.

The joint information over all (step, user) positions splits into three
parts that this module builds separately and then sums:

* measurement: per-(t, k) blocks T_u Lambda_eta T_u^T where Lambda_eta is
  the channel-parameter information (optionally Schur-reduced against
  nuisance parameters) and T_u the position Jacobian of those parameters;
* spatial prior: one (2K x 2K) slice per step from the inter-user edges,
  plus the step-0 anchor on the diagonal when enabled;
* temporal prior: a block-tridiagonal chain of transition precisions.

The Bayesian CRB is the trace of the inverse of the assembled matrix; the
per-user bound is the trace of the matching 2x2 diagonal block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .blocks import (
    BlockMatrix,
    block_index,
    block_slice,
    blocks_to_matrix,
    diag_blocks,
    off_part,
    symmetrize,
)
from .channel import channel_jacobian
from .errors import (
    DegenerateGeometry,
    DimensionMismatch,
    EmptyEnsemble,
    SingularEfim,
    SingularNuisance,
)
from .scenario import (
    GEOMETRY_GUARD,
    PRIOR_L1,
    PRIOR_L2,
    PriorModel,
    ScenarioConfig,
    Trajectory,
    prior_model,
)

__all__ = [
    "BlockMatrix",
    "BcrbResult",
    "MeasurementFim",
    "NuisanceInfo",
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


@dataclass(frozen=True)
class NuisanceInfo:
    """Information blocks of per-(t, k) nuisance parameters.

    ``own`` has shape (T, K, m, m) and must be invertible per block;
    ``cross`` has shape (T, K, m, 2R) coupling nuisances to the channel
    parameters. The measurement FIM subtracts cross^T own^{-1} cross.
    """

    own: np.ndarray
    cross: np.ndarray


@dataclass(frozen=True)
class MeasurementFim:
    """Position-domain measurement information per (step, user).

    Attributes
    ----------
    lambda_d : ndarray
        (T, K, 2, 2) information blocks in position coordinates.
    channel_info : ndarray
        (T, K, 2R, 2R) information in channel-parameter coordinates after
        any nuisance reduction.
    position_jacobians : ndarray
        (T, K, 2, 2R) stacking-order Jacobians used for the mapping.
    noise_variances : ndarray
        (T, K) effective noise variances.
    """

    lambda_d: np.ndarray
    channel_info: np.ndarray
    position_jacobians: np.ndarray
    noise_variances: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.lambda_d.shape[0]

    @property
    def n_users(self) -> int:
        return self.lambda_d.shape[1]

    def as_block_matrix(self) -> BlockMatrix:
        return blocks_to_matrix(self.lambda_d, self.n_steps, self.n_users)

    def slice_blocks(self, t: int) -> np.ndarray:
        """(K, 2, 2) measurement blocks of step t."""
        return np.asarray(self.lambda_d[t])


def _measurement_cell(
    config: ScenarioConfig,
    trajectory: Trajectory,
    t: int,
    k: int,
    nuisance: NuisanceInfo | None,
):
    """One (t, k) cell: position info, channel info, Jacobian, noise."""
    jac = channel_jacobian(config, trajectory, t, k)
    info = (2.0 * config.transmit_power / jac.effective_noise_variance) * np.real(
        jac.matrix.conj().T @ jac.matrix
    )
    if nuisance is not None:
        own = nuisance.own[t, k]
        cross = nuisance.cross[t, k]
        try:
            reduced = np.linalg.solve(own, cross)
        except np.linalg.LinAlgError as exc:
            raise SingularNuisance(f"nuisance block ({t}, {k}) is singular") from exc
        info = info - cross.T @ reduced
    info = symmetrize(info)
    t_u = position_jacobian(config, trajectory, t, k)
    return (
        symmetrize(t_u @ info @ t_u.T),
        info,
        t_u,
        jac.effective_noise_variance,
    )


def measurement_blocks_at(
    config: ScenarioConfig,
    trajectory: Trajectory,
    t: int,
    nuisance: NuisanceInfo | None = None,
) -> np.ndarray:
    """(K, 2, 2) position-domain measurement blocks of one step."""
    return np.stack(
        [
            _measurement_cell(config, trajectory, t, k, nuisance)[0]
            for k in range(config.num_users)
        ]
    )


def measurement_fim(
    config: ScenarioConfig,
    trajectory: Trajectory,
    nuisance: NuisanceInfo | None = None,
) -> MeasurementFim:
    """Measurement information for every (step, user) pair.

    Per pair: Lambda_eta = (2 P / sigma_eff^2) Re(J_h^H J_h) over the 2R
    channel parameters, reduced by the nuisance Schur complement when given,
    then mapped to position as T_u Lambda_eta T_u^T.
    """
    T, K, R = config.num_steps, config.num_users, config.num_ris
    if trajectory.num_steps != T or trajectory.num_users != K:
        raise DimensionMismatch(
            f"trajectory is {trajectory.num_steps}x{trajectory.num_users}, "
            f"scenario wants {T}x{K}"
        )
    if nuisance is not None:
        m = nuisance.own.shape[2]
        if nuisance.own.shape != (T, K, m, m) or nuisance.cross.shape != (
            T,
            K,
            m,
            2 * R,
        ):
            raise DimensionMismatch(
                "nuisance blocks must be (T, K, m, m) and (T, K, m, 2R); got "
                f"{nuisance.own.shape} and {nuisance.cross.shape}"
            )

    lambda_d = np.zeros((T, K, 2, 2))
    channel_info = np.zeros((T, K, 2 * R, 2 * R))
    jacobians = np.zeros((T, K, 2, 2 * R))
    noise = np.zeros((T, K))
    for t in range(T):
        for k in range(K):
            lambda_d[t, k], channel_info[t, k], jacobians[t, k], noise[t, k] = (
                _measurement_cell(config, trajectory, t, k, nuisance)
            )

    return MeasurementFim(
        lambda_d=lambda_d,
        channel_info=channel_info,
        position_jacobians=jacobians,
        noise_variances=noise,
    )


@dataclass(frozen=True)
class PriorFim:
    """Spatial and temporal prior information in block form.

    ``spatial_slices`` holds one (2K, 2K) matrix per step (anchor folded
    into slice 0 when enabled); ``temporal`` holds the (T-1, K, 2, 2)
    transition precisions, entry t coupling steps t and t+1.
    """

    spatial_slices: np.ndarray
    temporal: np.ndarray
    include_anchor: bool
    anchor_precision: float

    @property
    def n_steps(self) -> int:
        return self.spatial_slices.shape[0]

    @property
    def n_users(self) -> int:
        return self.spatial_slices.shape[1] // 2

    def spatial_diag(self, t: int) -> np.ndarray:
        """(K, 2, 2) diagonal blocks of the step-t spatial slice."""
        return diag_blocks(self.spatial_slices[t])

    def spatial_off(self, t: int) -> np.ndarray:
        """Positive off-diagonal coupling part of the step-t slice.

        Zero diagonal blocks; entry (i, j) equals minus the slice's (i, j)
        block, so for a quadratic prior it is +precision * I per edge.
        """
        return off_part(self.spatial_slices[t])

    def lambda_ps(self) -> BlockMatrix:
        """Block-diagonal spatial prior over the full (step, user) grid."""
        T, K = self.n_steps, self.n_users
        side = 2 * T * K
        mat = np.zeros((side, side))
        for t in range(T):
            lo, hi = 2 * t * K, 2 * (t + 1) * K
            mat[lo:hi, lo:hi] = self.spatial_slices[t]
        return BlockMatrix(mat, T, K)

    def lambda_pt(self) -> BlockMatrix:
        """Block-tridiagonal temporal prior over the full grid."""
        T, K = self.n_steps, self.n_users
        side = 2 * T * K
        mat = np.zeros((side, side))
        for t in range(T - 1):
            for k in range(K):
                gamma = self.temporal[t, k]
                ga, gb = block_index(t, k, K), block_index(t + 1, k, K)
                mat[block_slice(ga), block_slice(ga)] += gamma
                mat[block_slice(gb), block_slice(gb)] += gamma
                mat[block_slice(ga), block_slice(gb)] -= gamma
                mat[block_slice(gb), block_slice(ga)] -= gamma
        return BlockMatrix(mat, T, K)

    def as_block_matrix(self) -> BlockMatrix:
        return BlockMatrix(
            self.lambda_ps().data + self.lambda_pt().data, self.n_steps, self.n_users
        )


def _unit_deviation_terms(diff: np.ndarray) -> np.ndarray:
    """Per-sample matrices (I - e e^T)/d for difference vectors (n, 2)."""
    dists = np.linalg.norm(diff, axis=1)
    if np.any(dists <= GEOMETRY_GUARD):
        raise DegenerateGeometry(
            "two users coincide in a prior sample; the distance potential "
            "has no curvature there"
        )
    e = diff / dists[:, None]
    outer = np.einsum("ni,nj->nij", e, e)
    return (np.eye(2)[None, :, :] - outer) / dists[:, None, None]


def prior_fim(
    config: ScenarioConfig,
    prior: PriorModel | None = None,
    trajectory_ensemble=None,
) -> PriorFim:
    """Prior information blocks for the configured prior kind.

    The quadratic kind is closed-form. The distance kind needs a trajectory
    ensemble: each edge block is the Monte Carlo average of
    precision * (I - e e^T) / (2 d) over the ensemble, where e is the unit
    vector between the two users and d their distance. Row sums over users
    vanish per sample by construction, so they also vanish on average.
    """
    if prior is None:
        prior = prior_model(config)
    T, K = config.num_steps, config.num_users

    slices = np.zeros((T, 2 * K, 2 * K))
    if prior.kind == PRIOR_L2:
        for t in range(T):
            for (i, j), c in zip(prior.spatial_edges[t], prior.spatial_precision[t]):
                eye = c * np.eye(2)
                si, sj = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
                slices[t][si, si] += eye
                slices[t][sj, sj] += eye
                slices[t][si, sj] -= eye
                slices[t][sj, si] -= eye
    elif prior.kind == PRIOR_L1:
        ensemble = _ensemble_positions(trajectory_ensemble, T, K)
        for t in range(T):
            for (i, j), c in zip(prior.spatial_edges[t], prior.spatial_precision[t]):
                diff = ensemble[:, t, i, :] - ensemble[:, t, j, :]
                block = 0.5 * c * np.mean(_unit_deviation_terms(diff), axis=0)
                si, sj = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
                slices[t][si, si] += block
                slices[t][sj, sj] += block
                slices[t][si, sj] -= block
                slices[t][sj, si] -= block
    else:
        raise DimensionMismatch(f"unknown prior kind {prior.kind!r}")

    if prior.include_anchor:
        for k in range(K):
            slices[0][2 * k : 2 * k + 2, 2 * k : 2 * k + 2] += (
                prior.anchor_precision * np.eye(2)
            )

    return PriorFim(
        spatial_slices=slices,
        temporal=np.asarray(prior.transition_precisions),
        include_anchor=prior.include_anchor,
        anchor_precision=prior.anchor_precision,
    )


def _ensemble_positions(trajectory_ensemble, T: int, K: int) -> np.ndarray:
    if trajectory_ensemble is None:
        raise EmptyEnsemble(
            "the distance prior needs a trajectory ensemble for its "
            "expectation; none was given"
        )
    if isinstance(trajectory_ensemble, np.ndarray):
        arr = trajectory_ensemble
    else:
        arr = np.stack([tr.positions for tr in trajectory_ensemble])
    if arr.ndim != 4 or arr.shape[0] == 0:
        raise EmptyEnsemble(
            f"trajectory ensemble must be a nonempty (n, T, K, 2) stack, "
            f"got shape {getattr(arr, 'shape', None)}"
        )
    if arr.shape[1:] != (T, K, 2):
        raise DimensionMismatch(
            f"ensemble trajectories are {arr.shape[1:]}, scenario wants ({T}, {K}, 2)"
        )
    return arr


def assemble_efim(mfim: MeasurementFim, pfim: PriorFim) -> BlockMatrix:
    """Sum of measurement, spatial, and temporal information."""
    if (mfim.n_steps, mfim.n_users) != (pfim.n_steps, pfim.n_users):
        raise DimensionMismatch(
            f"measurement grid {mfim.n_steps}x{mfim.n_users} does not match "
            f"prior grid {pfim.n_steps}x{pfim.n_users}"
        )
    total = (
        mfim.as_block_matrix().data
        + pfim.lambda_ps().data
        + pfim.lambda_pt().data
    )
    return BlockMatrix(
        symmetrize(total, "assembled EFIM"), mfim.n_steps, mfim.n_users
    )


@dataclass(frozen=True)
class BcrbResult:
    """Trace bound on the joint posterior covariance.

    ``total`` is the trace of the full inverse; ``per_user`` the (T, K)
    array of per-position traces, which sum to the total.
    """

    total: float
    per_user: np.ndarray

    def to_csv(self, path: str) -> None:
        """Write ``t,k,bcrb`` rows (1-based step/user ids)."""
        T, K = self.per_user.shape
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,k,bcrb\n")
            for t in range(T):
                for k in range(K):
                    fh.write(f"{t + 1},{k + 1},{self.per_user[t, k]!r}\n")


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
