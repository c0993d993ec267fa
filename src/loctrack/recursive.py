"""Step-recursive EFIM filtering and its stationary (Riccati) analysis.

Marginalising all past steps out of the joint information matrix leaves a
per-step recursion over (2K x 2K) slices:

    J_t = D_t - O_t - G_{t-1},   G_{t-1} = Gamma (J_{t-1} + Gamma)^{-1} Gamma

where D_t stacks each user's own information (measurement + spatial diagonal
+ transition precision), O_t the positive spatial couplings of the slice,
and G_{t-1} the information loss carried over the temporal link. Each
step reports the normalised trace of the efficiency slice
E_t = I - D_t^{-1} (O_t + G_{t-1}) and, computed on first read, the slack
of the Loewner condition D_t >= J_{t-1} + O_t + G_{t-1}, under which
J_t >= J_{t-1}. A disturbance is a scale on one step's measurement blocks,
applied by ``run_recursion``.

Everything but the carry G_{t-1} is fixed by the step's own inputs, so it
is prepared once per distinct input (``step_inputs``): D_t, its block
inverse, O_t and the block-diagonal Gamma. ``recursive_step`` then does
only the work that depends on J_{t-1}: the carry ``temporal_carry`` solves
J_{t-1} + Gamma against Gamma and the bound J_t against I, each by one
``blocks.spd_solve``. Under constant inputs a run prepares at most three
inputs (the first step, the ordinary steps and the disturbed steps);
otherwise it prepares one per step.

``constant_inputs`` freezes one step's inputs as that same ``StepInputs``:
the ordinary steps of a constant-input run step on it, and the stationary
and asymptotic analyses read M = Lambda_D + Xi (``m_full``) and
T = Gamma (``gamma_full``) off it. Under constant inputs the recursion
J <- M + T - T (J + T)^{-1} T has a closed-form fixed point

    J* = ( (1/2) T^{-1/2} (I + 4 T^{1/2} M^{-1} T^{1/2})^{1/2} T^{-1/2}
           - (1/2) T^{-1} )^{-1}

whose defining residual M + T - T (J* + T)^{-1} T - J* vanishes; the
residual is what this module verifies, scalar sanity check
j = (m + sqrt(m^2 + 4 m tau)) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.linalg as npl

from .blocks import (
    block_diag,
    diag_blocks,
    off_part,
    require_spd,
    spd_solve,
    spd_sqrt_and_inv_sqrt,
    symmetrize,
)
from .errors import DimensionMismatch, SingularState
from .fim import measurement_blocks_at, measurement_fim, prior_fim
from .scenario import (
    ScenarioConfig,
    Trajectory,
    ensemble_positions,
    prior_model,
    prior_slice,
)

__all__ = [
    "RecursiveState",
    "StationaryPoint",
    "StepInputs",
    "constant_inputs",
    "recursive_step",
    "run_recursion",
    "stationary_point",
    "step_inputs",
    "temporal_carry",
]

# Loewner comparisons tolerate eigenvalues this far below zero (relative to
# the spectral norm of the compared difference).
LOEWNER_SLACK = 1e-10


@dataclass(frozen=True)
class RecursiveState:
    """One step of the information recursion.

    ``efim`` is the (2K, 2K) per-step equivalent information; ``inputs`` the
    ``StepInputs`` the step ran on, whose ``nominal`` (K, 2, 2)
    own-information blocks the state also exposes; ``temporal_carry`` the
    loss G carried over the temporal link; ``eoc_mean`` the normalised trace
    of the efficiency slice E = I - D^{-1}(O + G). The slice trace only sees
    block-diagonal coupling (the temporal carry), which is the dominant
    loss channel while tracking; a user's marginal efficiency
    D_k^{-1} ([J^{-1}]_kk)^{-1} also sees the spatial part.
    ``previous_efim`` is J_{t-1}. ``condition_satisfied`` and ``slack``,
    computed on first read, report the Loewner condition
    D_t >= J_{t-1} + O_t + G_{t-1}; ``slack`` is the smallest eigenvalue of
    the difference (infinite at step 0, which has no predecessor).
    """

    t: int
    efim: np.ndarray
    inputs: StepInputs
    temporal_carry: np.ndarray
    bcrb_mean: float
    eoc_mean: float
    previous_efim: np.ndarray | None

    @property
    def nominal(self) -> np.ndarray:
        return self.inputs.nominal

    @cached_property
    def _loewner(self) -> tuple[bool, float]:
        """Whether D_t >= J_{t-1} + O_t + G_{t-1} holds, and its slack."""
        if self.previous_efim is None:
            return True, float("inf")
        own, off = self.inputs.nominal_full, self.inputs.off
        diff = symmetrize(own - (self.previous_efim + off + self.temporal_carry))
        eigs = npl.eigvalsh(diff)
        slack = float(eigs[0])
        scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
        return slack >= -LOEWNER_SLACK * max(scale, 1.0), slack

    @property
    def condition_satisfied(self) -> bool:
        return self._loewner[0]

    @property
    def slack(self) -> float:
        return self._loewner[1]


def temporal_carry(prev_efim: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Information lost over a temporal link: Gamma (J + Gamma)^{-1} Gamma."""
    message = "temporal carry: J_{t-1} + Gamma is not positive definite"
    return symmetrize(gamma @ spd_solve(prev_efim + gamma, gamma, SingularState, message))


@dataclass(frozen=True)
class StepInputs:
    """What one step of the recursion needs that does not depend on J_{t-1}.

    ``lambda_d`` holds the (K, 2, 2) measurement blocks, ``spatial_slice``
    the (2K, 2K) spatial slice and ``gamma`` the (K, 2, 2) transition
    precisions into the step (None for the first step, which has no
    temporal link). Derived from them: ``nominal``, the own-information
    blocks D_k = Lambda_D_k + Xi_kk + Gamma_k, ``nominal_full`` their block
    diagonal and ``nominal_inv_full`` the block diagonal of their inverses;
    ``off``, the positive spatial coupling O of the slice; ``gamma_full``,
    the block diagonal of ``gamma``. Steps with equal inputs can share one
    instance.
    """

    lambda_d: np.ndarray
    spatial_slice: np.ndarray
    gamma: np.ndarray | None
    nominal: np.ndarray
    nominal_full: np.ndarray
    nominal_inv_full: np.ndarray
    off: np.ndarray
    gamma_full: np.ndarray | None

    @property
    def m_full(self) -> np.ndarray:
        """Per-step information gain M: measurement blocks + spatial slice."""
        return block_diag(self.lambda_d) + self.spatial_slice


def step_inputs(
    t: int,
    lambda_d_t: np.ndarray,
    spatial_slice_t: np.ndarray,
    gamma_prev: np.ndarray | None,
) -> StepInputs:
    """Prepare the inputs of step ``t`` (``t`` only names it in errors).

    ``lambda_d_t`` holds the (K, 2, 2) measurement blocks,
    ``spatial_slice_t`` the full (2K, 2K) spatial slice, and ``gamma_prev``
    the (K, 2, 2) precisions of the transition into the step, or None for
    the first step.
    """
    lam = np.asarray(lambda_d_t, dtype=float)
    K = lam.shape[0]
    slice_ps = np.asarray(spatial_slice_t, dtype=float)
    if lam.shape != (K, 2, 2) or slice_ps.shape != (2 * K, 2 * K):
        raise DimensionMismatch(
            f"measurement blocks {lam.shape} and spatial slice {slice_ps.shape} "
            f"disagree about the user count"
        )
    gamma = None if gamma_prev is None else np.asarray(gamma_prev, dtype=float)
    nominal = lam + diag_blocks(slice_ps) + (0.0 if gamma is None else gamma)
    try:
        nominal_inv = np.stack([npl.inv(nominal[k]) for k in range(K)])
    except npl.LinAlgError as exc:
        raise SingularState(f"nominal block at step {t} is singular") from exc
    return StepInputs(
        lambda_d=lam,
        spatial_slice=slice_ps,
        gamma=gamma,
        nominal=nominal,
        nominal_full=block_diag(nominal),
        nominal_inv_full=block_diag(nominal_inv),
        off=off_part(slice_ps),
        gamma_full=None if gamma is None else block_diag(gamma),
    )


def recursive_step(prev: RecursiveState | None, inputs: StepInputs) -> RecursiveState:
    """Advance the per-step EFIM recursion by one step.

    ``prev`` is None for the first step (no temporal carry); ``inputs`` must
    then have been prepared without a transition precision, and with one
    for every later step.
    """
    K = inputs.nominal.shape[0]
    if (prev is None) != (inputs.gamma_full is None):
        raise DimensionMismatch(
            "the first step takes no transition precision and every later "
            "step needs one"
        )
    eye = np.eye(2 * K)
    if prev is None:
        t, carry = 0, np.zeros((2 * K, 2 * K))
    else:
        t, carry = prev.t + 1, temporal_carry(prev.efim, inputs.gamma_full)
    efim = symmetrize(inputs.nominal_full - inputs.off - carry)
    efficiency = eye - inputs.nominal_inv_full @ (inputs.off + carry)
    inverse = spd_solve(efim, eye, SingularState, f"recursive EFIM at step {t} lost positivity")

    return RecursiveState(
        t=t,
        efim=efim,
        inputs=inputs,
        temporal_carry=carry,
        bcrb_mean=float(inverse.trace()) / (2 * K),
        eoc_mean=float(efficiency.trace()) / (2 * K),
        previous_efim=None if prev is None else prev.efim,
    )


# ---------------------------------------------------------------------------
# constant inputs and the stationary point


def constant_inputs(
    config: ScenarioConfig,
    trajectory: Trajectory,
    step: int = 1,
    trajectory_ensemble=None,
) -> StepInputs:
    """Freeze the recursion inputs at one step of a trajectory.

    Uses the measurement blocks and spatial slice of ``step`` and the
    precision of the transition into it (into step 1 when ``step`` is 0),
    under the prior without the first-step anchor. The default step 1
    (second step) is the first one carrying temporal information.
    """
    if config.num_steps < 2:
        raise DimensionMismatch(
            "constant inputs need at least two steps for a transition"
        )
    step = int(step)
    if not (0 <= step < config.num_steps):
        raise DimensionMismatch(f"step {step} outside 0..{config.num_steps - 1}")
    prior = prior_model(config, include_anchor=False)
    ensemble = ensemble_positions(
        trajectory_ensemble, config.num_steps, config.num_users
    )
    gamma_index = min(max(step - 1, 0), config.num_steps - 2)
    return step_inputs(
        step,
        measurement_blocks_at(config, trajectory, step),
        prior_slice(prior, step, ensemble),
        prior.transition_precisions[gamma_index],
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
    resid = m + t_mat - temporal_carry(j, t_mat) - j
    return float(np.linalg.norm(resid) / max(np.linalg.norm(j), 1e-300))


def stationary_point(m: np.ndarray, t_mat: np.ndarray) -> StationaryPoint:
    """Solve J = M + T - T (J + T)^{-1} T in closed form.

    Both inputs must be SPD and of one square shape. The returned residual
    is the relative Frobenius defect of the fixed-point equation at the
    computed J*.
    """
    m = np.asarray(m, dtype=float)
    t_mat = np.asarray(t_mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape != t_mat.shape or not m.size:
        raise DimensionMismatch(
            f"M and T must be square matrices of one shape, got {m.shape} and "
            f"{t_mat.shape}"
        )
    m = symmetrize(m)
    t_mat = symmetrize(t_mat)
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


# ---------------------------------------------------------------------------
# trajectory-driven recursion


def run_recursion(
    config: ScenarioConfig,
    trajectory: Trajectory,
    constant_from_step: int | None = None,
    disturbance_steps=(),
    disturbance_scale: float = 1.0,
    trajectory_ensemble=None,
) -> list[RecursiveState]:
    """Drive the per-step recursion along a trajectory.

    The prior carries no first-step anchor. With ``constant_from_step``
    set, every step reuses that step's measurement blocks, spatial slice,
    and transition precision (the constant-input regime of the stationary
    analysis): the ordinary steps step on ``constant_inputs`` itself.
    ``disturbance_steps`` lists 0-based steps whose measurement information
    is scaled by ``disturbance_scale`` (at least 0); all other steps run at
    scale 1.
    """
    if disturbance_scale < 0.0:
        raise DimensionMismatch(
            f"measurement scale must be >= 0, got {disturbance_scale}"
        )
    disturbed = {int(s) for s in disturbance_steps}
    constant = constant_from_step is not None
    # Under constant inputs a step's inputs depend only on whether it is the
    # first step and on its scale, so at most three are prepared per run.
    prepared: dict[tuple[bool, float], StepInputs] = {}
    if constant:
        frozen = constant_inputs(
            config,
            trajectory,
            step=constant_from_step,
            trajectory_ensemble=trajectory_ensemble,
        )
        prepared[(False, 1.0)] = frozen
    else:
        pfim = prior_fim(prior_model(config, include_anchor=False), trajectory_ensemble)
        lambda_d = measurement_fim(config, trajectory)

    def prepare(t: int, scale: float) -> StepInputs:
        if constant:
            lam, spatial = frozen.lambda_d, frozen.spatial_slice
            gamma = frozen.gamma if t else None
        else:
            lam = lambda_d[t]
            spatial = pfim.spatial_slices[t]
            gamma = pfim.temporal[t - 1] if t else None
        return step_inputs(t, scale * lam, spatial, gamma)

    states: list[RecursiveState] = []
    prev: RecursiveState | None = None
    for t in range(config.num_steps):
        scale = disturbance_scale if t in disturbed else 1.0
        if constant:
            key = (t == 0, scale)
            if key not in prepared:
                prepared[key] = prepare(t, scale)
            inputs = prepared[key]
        else:
            inputs = prepare(t, scale)
        prev = recursive_step(prev, inputs)
        states.append(prev)
    return states
