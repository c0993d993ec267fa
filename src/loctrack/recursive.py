"""Step-recursive EFIM filtering and its stationary (Riccati) analysis.

Marginalising all past steps out of the joint information matrix leaves a
per-step recursion over (2K x 2K) slices:

    J_t = D_t - O_t - G_{t-1},   G_{t-1} = Gamma (J_{t-1} + Gamma)^{-1} Gamma

where D_t stacks each user's own information (measurement + spatial diagonal
+ transition precision), O_t the positive spatial couplings of the slice,
and G_{t-1} the information loss carried over the temporal link. The
matching efficiency slice is E_t = I - D_t^{-1} (O_t + G_{t-1}).

Under constant inputs the recursion J <- M + T - T (J + T)^{-1} T has a
closed-form fixed point

    J* = ( (1/2) T^{-1/2} (I + 4 T^{1/2} M^{-1} T^{1/2})^{1/2} T^{-1/2}
           - (1/2) T^{-1} )^{-1}

whose defining residual M + T - T (J* + T)^{-1} T - J* vanishes; the
residual is what this module verifies, scalar sanity check
j = (m + sqrt(m^2 + 4 m tau)) / 2.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl
from scipy.linalg import cho_factor, cho_solve

from .blocks import (
    block_diag,
    diag_blocks,
    off_part,
    require_spd,
    spd_sqrt_and_inv_sqrt,
    symmetrize,
)
from .errors import DimensionMismatch, SingularState
from .fim import measurement_blocks_at, prior_fim
from .scenario import (
    ScenarioConfig,
    Trajectory,
    ensemble_positions,
    prior_model,
    prior_slice,
)

__all__ = [
    "ConstantInputs",
    "ConvergenceCheck",
    "IterationResult",
    "RecursiveState",
    "StationaryPoint",
    "check_convergence",
    "constant_inputs",
    "inject_disturbance",
    "iterate_to_convergence",
    "recursive_step",
    "run_recursion",
    "stationary_point",
]

# Loewner comparisons tolerate eigenvalues this far below zero (relative to
# the spectral norm of the compared difference).
LOEWNER_SLACK = 1e-10


@dataclass(frozen=True)
class ConvergenceCheck:
    """Loewner condition D_t >= J_{t-1} + O_t + G_{t-1} and its margin.

    When it holds, the recursion cannot lose information at this step
    (J_t >= J_{t-1}); ``slack`` is the smallest eigenvalue of the
    difference, negative when the condition fails.
    """

    satisfied: bool
    slack: float


@dataclass(frozen=True)
class RecursiveState:
    """One step of the information recursion.

    ``efim`` is the (2K, 2K) per-step equivalent information; ``nominal``
    the (K, 2, 2) own-information blocks; ``spatial_off`` and
    ``temporal_carry`` the two subtracted couplings; ``efficiency`` the raw
    slice E = I - D^{-1}(O + G) and ``eoc_mean`` its normalised trace.
    The slice trace only sees block-diagonal coupling (the temporal carry),
    which is the dominant loss channel while tracking; a user's marginal
    efficiency D_k^{-1} ([J^{-1}]_kk)^{-1} also sees the spatial part.
    ``next_measurement_scale`` lets a caller scale the following
    step's measurement blocks (disturbance injection).
    """

    t: int
    efim: np.ndarray
    nominal: np.ndarray
    spatial_off: np.ndarray
    temporal_carry: np.ndarray
    efficiency: np.ndarray
    bcrb_mean: float
    eoc_mean: float
    condition_satisfied: bool
    slack: float
    next_measurement_scale: float = 1.0

    @property
    def n_users(self) -> int:
        return self.nominal.shape[0]


def check_convergence(
    prev_efim: np.ndarray,
    lambda_d_t: np.ndarray,
    spatial_slice_t: np.ndarray,
    gamma_prev: np.ndarray,
) -> ConvergenceCheck:
    """Evaluate the monotone-information condition for one prospective step."""
    prev = np.asarray(prev_efim, dtype=float)
    gamma = np.asarray(gamma_prev, dtype=float)
    slice_ps = np.asarray(spatial_slice_t, dtype=float)
    nominal = np.asarray(lambda_d_t, dtype=float) + diag_blocks(slice_ps) + gamma
    return _loewner_check(
        block_diag(nominal),
        prev,
        off_part(slice_ps),
        _temporal_carry(prev, block_diag(gamma)),
    )


def _loewner_check(
    nominal_full: np.ndarray,
    prev_efim: np.ndarray,
    spatial_off: np.ndarray,
    carry: np.ndarray,
) -> ConvergenceCheck:
    """Slack of D_t >= J_{t-1} + O_t + G_{t-1} from the step's own pieces."""
    diff = symmetrize(nominal_full - (prev_efim + spatial_off + carry))
    eigs = npl.eigvalsh(diff)
    slack = float(eigs[0])
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    return ConvergenceCheck(
        satisfied=slack >= -LOEWNER_SLACK * max(scale, 1.0), slack=slack
    )


def _temporal_carry(prev_efim: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    inner = prev_efim + gamma
    try:
        solved = npl.solve(inner, gamma)
    except npl.LinAlgError as exc:
        raise SingularState(
            "previous EFIM plus transition precision is singular"
        ) from exc
    return symmetrize(gamma @ solved)


def recursive_step(
    prev: RecursiveState | None,
    lambda_d_t: np.ndarray,
    spatial_slice_t: np.ndarray,
    gamma_prev: np.ndarray | None,
) -> RecursiveState:
    """Advance the per-step EFIM recursion by one step.

    ``prev`` is None for the first step (no temporal carry). ``lambda_d_t``
    holds the (K, 2, 2) measurement blocks, ``spatial_slice_t`` the full
    (2K, 2K) spatial slice, and ``gamma_prev`` the (K, 2, 2) precisions of
    the transition into this step (ignored when ``prev`` is None).
    """
    lam = np.asarray(lambda_d_t, dtype=float)
    K = lam.shape[0]
    slice_ps = np.asarray(spatial_slice_t, dtype=float)
    if lam.shape != (K, 2, 2) or slice_ps.shape != (2 * K, 2 * K):
        raise DimensionMismatch(
            f"measurement blocks {lam.shape} and spatial slice {slice_ps.shape} "
            f"disagree about the user count"
        )

    if prev is None:
        t = 0
        scale = 1.0
        gamma_blocks = np.zeros((K, 2, 2))
        carry = np.zeros((2 * K, 2 * K))
    else:
        if gamma_prev is None:
            raise DimensionMismatch("gamma_prev is required when prev is given")
        t = prev.t + 1
        scale = prev.next_measurement_scale
        gamma_blocks = np.asarray(gamma_prev, dtype=float)
        carry = _temporal_carry(prev.efim, block_diag(gamma_blocks))

    lam = scale * lam
    off = off_part(slice_ps)
    nominal = lam + diag_blocks(slice_ps) + gamma_blocks
    nominal_full = block_diag(nominal)
    condition = (
        ConvergenceCheck(satisfied=True, slack=float("inf"))
        if prev is None
        else _loewner_check(nominal_full, prev.efim, off, carry)
    )
    efim = symmetrize(nominal_full - off - carry)

    try:
        nominal_inv = np.stack([npl.inv(nominal[k]) for k in range(K)])
    except npl.LinAlgError as exc:
        raise SingularState(f"nominal block at step {t} is singular") from exc
    efficiency = np.eye(2 * K) - block_diag(nominal_inv) @ (off + carry)

    try:
        chol = cho_factor(efim, lower=True)
    except npl.LinAlgError as exc:
        raise SingularState(f"recursive EFIM at step {t} lost positivity") from exc
    inverse = cho_solve(chol, np.eye(2 * K))

    return RecursiveState(
        t=t,
        efim=efim,
        nominal=nominal,
        spatial_off=off,
        temporal_carry=carry,
        efficiency=efficiency,
        bcrb_mean=float(np.trace(inverse)) / (2 * K),
        eoc_mean=float(np.trace(efficiency)) / (2 * K),
        condition_satisfied=condition.satisfied,
        slack=condition.slack,
    )


def inject_disturbance(state: RecursiveState, scale: float) -> RecursiveState:
    """Scale the next step's measurement information (e.g. an SNR drop)."""
    if scale < 0.0:
        raise DimensionMismatch(f"measurement scale must be >= 0, got {scale}")
    return dataclasses.replace(state, next_measurement_scale=float(scale))


# ---------------------------------------------------------------------------
# constant inputs and the stationary point


@dataclass(frozen=True)
class ConstantInputs:
    """Per-step system inputs frozen at one slice.

    ``m_full`` = measurement blocks + full spatial slice (the constant
    per-step information gain); ``t_full`` the block-diagonal transition
    precision. The pieces are kept separately for efficiency bookkeeping.
    """

    lambda_d: np.ndarray
    spatial_slice: np.ndarray
    gamma: np.ndarray

    @property
    def n_users(self) -> int:
        return self.lambda_d.shape[0]

    @property
    def m_full(self) -> np.ndarray:
        return block_diag(self.lambda_d) + self.spatial_slice

    @property
    def t_full(self) -> np.ndarray:
        return block_diag(self.gamma)

    @property
    def spatial_off(self) -> np.ndarray:
        return off_part(self.spatial_slice)

    @property
    def nominal_diag(self) -> np.ndarray:
        """(K, 2, 2) own-information blocks D_k = Lambda_D_k + Xi_kk + Gamma_k."""
        return self.lambda_d + diag_blocks(self.spatial_slice) + self.gamma


def constant_inputs(
    config: ScenarioConfig,
    trajectory: Trajectory,
    step: int = 1,
    include_anchor: bool = False,
    trajectory_ensemble=None,
) -> ConstantInputs:
    """Freeze the recursion inputs at one step of a trajectory.

    Uses the measurement blocks and spatial slice of ``step`` and the
    precision of the transition into it. The default step 1 (second step)
    is the first one carrying temporal information.
    """
    if config.num_steps < 2:
        raise DimensionMismatch(
            "constant inputs need at least two steps for a transition"
        )
    step = int(step)
    if not (0 <= step < config.num_steps):
        raise DimensionMismatch(f"step {step} outside 0..{config.num_steps - 1}")
    lam = measurement_blocks_at(config, trajectory, step)
    prior = prior_model(config, include_anchor=include_anchor)
    ensemble = ensemble_positions(
        trajectory_ensemble, config.num_steps, config.num_users
    )
    gamma_index = min(max(step - 1, 0), config.num_steps - 2)
    return ConstantInputs(
        lambda_d=lam,
        spatial_slice=prior_slice(prior, step, ensemble),
        gamma=prior.transition_precisions[gamma_index],
    )


@dataclass(frozen=True)
class StationaryPoint:
    """Closed-form fixed point of the constant-input recursion."""

    measurement_info: np.ndarray
    transition_info: np.ndarray
    j_star: np.ndarray
    residual: float

    def to_json(self) -> dict:
        return {
            "m": self.measurement_info.tolist(),
            "t": self.transition_info.tolist(),
            "j-star": self.j_star.tolist(),
            "residual": self.residual,
        }


def _riccati_residual(m: np.ndarray, t_mat: np.ndarray, j: np.ndarray) -> float:
    inner = npl.solve(j + t_mat, t_mat)
    resid = m + t_mat - t_mat @ inner - j
    return float(np.linalg.norm(resid) / max(np.linalg.norm(j), 1e-300))


def stationary_point(m: np.ndarray, t_mat: np.ndarray) -> StationaryPoint:
    """Solve J = M + T - T (J + T)^{-1} T in closed form.

    Both inputs must be SPD. The returned residual is the relative Frobenius
    defect of the fixed-point equation at the computed J*.
    """
    m = symmetrize(np.asarray(m, dtype=float))
    t_mat = symmetrize(np.asarray(t_mat, dtype=float))
    require_spd(m, "per-step information M")
    require_spd(t_mat, "transition precision T")

    t_root, t_inv_root = spd_sqrt_and_inv_sqrt(t_mat)
    core = np.eye(m.shape[0]) + 4.0 * t_root @ npl.solve(m, t_root)
    core_root, _ = spd_sqrt_and_inv_sqrt(symmetrize(core))
    inv_j = 0.5 * t_inv_root @ core_root @ t_inv_root - 0.5 * npl.inv(t_mat)
    j_star = symmetrize(npl.inv(symmetrize(inv_j)))
    return StationaryPoint(
        measurement_info=m,
        transition_info=t_mat,
        j_star=j_star,
        residual=_riccati_residual(m, t_mat, j_star),
    )


@dataclass(frozen=True)
class IterationResult:
    """Outcome of iterating the constant-input recursion.

    ``converged`` is False when the step budget ran out; the last iterate is
    still returned.
    """

    j_limit: np.ndarray
    steps: int
    converged: bool


def iterate_to_convergence(
    m: np.ndarray,
    t_mat: np.ndarray,
    j_init: np.ndarray | None = None,
    max_steps: int = 500,
    tol: float = 1e-6,
) -> IterationResult:
    """Iterate J <- M + T - T (J + T)^{-1} T until relative stagnation.

    Starting from ``j_init`` (default M, the carry-free first step).
    """
    m = symmetrize(np.asarray(m, dtype=float))
    t_mat = symmetrize(np.asarray(t_mat, dtype=float))
    j = m.copy() if j_init is None else symmetrize(np.asarray(j_init, dtype=float))

    converged = False
    steps = 0
    for n in range(1, max_steps + 1):
        j_next = symmetrize(m + t_mat - _temporal_carry(j, t_mat))
        delta = np.linalg.norm(j_next - j) / max(np.linalg.norm(j), 1e-300)
        j = j_next
        steps = n
        if delta < tol:
            converged = True
            break
    return IterationResult(j_limit=j, steps=steps, converged=converged)


# ---------------------------------------------------------------------------
# trajectory-driven recursion


def run_recursion(
    config: ScenarioConfig,
    trajectory: Trajectory,
    constant_from_step: int | None = None,
    disturbance_steps=(),
    disturbance_scale: float = 1.0,
    include_anchor: bool = False,
    trajectory_ensemble=None,
) -> list[RecursiveState]:
    """Drive the per-step recursion along a trajectory.

    With ``constant_from_step`` set, every step reuses that step's
    measurement blocks, spatial slice, and transition precision (the
    constant-input regime of the stationary analysis). ``disturbance_steps``
    lists 0-based steps whose measurement information is scaled by
    ``disturbance_scale``; all other steps run at scale 1.
    """
    disturbed = {int(s) for s in disturbance_steps}
    if constant_from_step is not None:
        inputs = constant_inputs(
            config,
            trajectory,
            step=constant_from_step,
            include_anchor=include_anchor,
            trajectory_ensemble=trajectory_ensemble,
        )
    else:
        pfim = prior_fim(
            config,
            prior_model(config, include_anchor=include_anchor),
            trajectory_ensemble,
        )

    states: list[RecursiveState] = []
    prev: RecursiveState | None = None
    for t in range(config.num_steps):
        scale = disturbance_scale if t in disturbed else 1.0
        if constant_from_step is not None:
            lam, spatial, gamma = inputs.lambda_d, inputs.spatial_slice, inputs.gamma
        else:
            lam = measurement_blocks_at(config, trajectory, t)
            spatial = pfim.spatial_slices[t]
            gamma = pfim.temporal[t - 1] if t else None
        if prev is None:
            state = recursive_step(None, scale * lam, spatial, None)
        else:
            state = recursive_step(inject_disturbance(prev, scale), lam, spatial, gamma)
        states.append(state)
        prev = state
    return states
