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
applied by ``run_recursions``.

Everything but the carry G_{t-1} is fixed by the step's own inputs, so it
is prepared once per distinct input (``step_inputs``): D_t, its block
inverse, O_t and the block-diagonal Gamma. A step then does only the work
that depends on J_{t-1}: the carry ``temporal_carry`` solves
J_{t-1} + Gamma against Gamma and the bound J_t against I, each by one
Cholesky solve per run (``blocks.spd_solve_each``). Under constant inputs
a run prepares at most three inputs (the first step, the ordinary steps
and the disturbed steps); otherwise it prepares one per step.

``run_recursions`` steps many runs together: each run prepares its own
inputs (``run_inputs``), the runs' inputs and J_{t-1} are stacked along a
leading run axis, and each step is one numpy call per matmul, sum,
symmetrisation and trace over the stack, with the Cholesky solves run per
run. In floating point the constant-input recursion lands exactly on its
fixed point: once a step on the same inputs as its predecessor leaves a
run's J bit for bit unchanged, every later step on those inputs would
return the same state, so the run leaves the stack and its numbers repeat
until the inputs change (a disturbed step). A run whose factorisation
fails leaves the stack with its error; the others are unaffected.
``run_recursion`` is the one-run view, one ``RecursiveState`` per step, and
``recursive_step`` the one-run case of the step itself; repeated states
share their arrays, which the step makes read-only.

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
    spd_solve_each,
    spd_sqrt_and_inv_sqrt,
    symmetrize,
)
from .errors import DimensionMismatch, LocTrackError, SingularState
from .fim import PriorFim, measurement_blocks_at, measurement_fim, prior_fim
from .scenario import (
    ScenarioConfig,
    Trajectory,
    ensemble_positions,
    prior_model,
    prior_slice,
)

__all__ = [
    "RecursiveState",
    "RunInputs",
    "StationaryPoint",
    "StepInputs",
    "constant_inputs",
    "recursive_step",
    "run_inputs",
    "run_recursion",
    "run_recursions",
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


def _carries(prev: np.ndarray, gamma: np.ndarray, failed: dict) -> np.ndarray:
    """Gamma (J + Gamma)^{-1} Gamma for a (runs, 2K, 2K) stack."""
    message = "temporal carry: J_{t-1} + Gamma is not positive definite"
    return symmetrize(gamma @ spd_solve_each(prev + gamma, gamma, SingularState, message, failed))


def temporal_carry(prev_efim: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Information lost over a temporal link: Gamma (J + Gamma)^{-1} Gamma."""
    failed: dict = {}
    carry = _carries(prev_efim[None], gamma[None], failed)
    if failed:
        raise failed[0]
    return carry[0]


def _advance(t: int, prev: np.ndarray | None, stack: tuple):
    """Step ``t`` of the recursion for a stack of runs.

    ``prev`` holds each run's (2K, 2K) J_{t-1} (None at the first step) and
    ``stack`` the matching ``_stack`` of their inputs. Every operation but
    the Cholesky solves is one numpy call over the stack; the solves are
    per run. Returns the read-only J_t and carry stacks, the per-run bound
    and EoC means, and ``{position in the stack: SingularState}`` for the
    runs whose carry or bound factorisation failed (their rows are
    meaningless).
    """
    nominal_full, nominal_inv_full, off, gamma_full = stack
    n = nominal_full.shape[-1]
    eye = np.eye(n)
    failed: dict = {}
    carry = np.zeros(nominal_full.shape) if prev is None else _carries(prev, gamma_full, failed)
    efim = symmetrize(nominal_full - off - carry)
    efficiency = eye - nominal_inv_full @ (off + carry)
    inverse = spd_solve_each(
        efim, np.broadcast_to(eye, efim.shape), SingularState,
        f"recursive EFIM at step {t} lost positivity", failed,
    )
    # the one-run view hands these arrays to states that repeat them
    efim.flags.writeable = carry.flags.writeable = False
    bcrb = np.trace(inverse, axis1=-2, axis2=-1) / n
    eoc = np.trace(efficiency, axis1=-2, axis2=-1) / n
    return efim, carry, bcrb, eoc, failed


def _stack(inputs: list) -> tuple:
    """The arrays ``_advance`` reads, stacked along a leading run axis."""
    gamma = None if inputs[0].gamma_full is None else np.stack([i.gamma_full for i in inputs])
    return (
        np.stack([i.nominal_full for i in inputs]),
        np.stack([i.nominal_inv_full for i in inputs]),
        np.stack([i.off for i in inputs]),
        gamma,
    )


def recursive_step(prev: RecursiveState | None, inputs: StepInputs) -> RecursiveState:
    """Advance the per-step EFIM recursion by one step: the one-run case of
    the step ``run_recursions`` takes for a stack of runs.

    ``prev`` is None for the first step (no temporal carry); ``inputs`` must
    then have been prepared without a transition precision, and with one
    for every later step.
    """
    if (prev is None) != (inputs.gamma_full is None):
        raise DimensionMismatch(
            "the first step takes no transition precision and every later "
            "step needs one"
        )
    t = 0 if prev is None else prev.t + 1
    efim, carry, bcrb, eoc, failed = _advance(
        t, None if prev is None else prev.efim[None], _stack([inputs])
    )
    if failed:
        raise failed[0]
    return RecursiveState(
        t=t,
        efim=efim[0],
        inputs=inputs,
        temporal_carry=carry[0],
        bcrb_mean=float(bcrb[0]),
        eoc_mean=float(eoc[0]),
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
        prior.transition_precision(gamma_index),
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


@dataclass(frozen=True)
class RunInputs:
    """Where one run's step inputs come from.

    A constant-input run carries ``frozen``, the ``constant_inputs`` its
    ordinary steps step on; any other run carries its trajectory's
    (T, K, 2, 2) measurement blocks ``lambda_d`` and its prior information
    ``pfim``.
    """

    frozen: StepInputs | None = None
    lambda_d: np.ndarray | None = None
    pfim: PriorFim | None = None

    def at(self, t: int, scale: float) -> StepInputs:
        """Prepare step ``t``'s inputs, its measurement blocks scaled by
        ``scale``."""
        if self.frozen is not None:
            lam, spatial = self.frozen.lambda_d, self.frozen.spatial_slice
            gamma = self.frozen.gamma if t else None
        else:
            lam, spatial = self.lambda_d[t], self.pfim.spatial_slices[t]
            gamma = self.pfim.temporal[t - 1] if t else None
        return step_inputs(t, scale * lam, spatial, gamma)


def run_inputs(
    config: ScenarioConfig,
    trajectory: Trajectory,
    constant_from_step: int | None = None,
    trajectory_ensemble=None,
    pfim: PriorFim | None = None,
) -> RunInputs:
    """One run's inputs, under the prior without the first-step anchor.

    With ``constant_from_step`` (0-based) set, every step reuses that step's
    measurement blocks, spatial slice and transition precision (the
    constant-input regime of the stationary analysis); otherwise each step
    reads its own, and ``pfim`` is that prior's information when the
    caller already holds it (runs of one quadratic prior share it).
    """
    if constant_from_step is not None:
        return RunInputs(frozen=constant_inputs(
            config, trajectory, step=constant_from_step,
            trajectory_ensemble=trajectory_ensemble,
        ))
    if pfim is None:
        pfim = prior_fim(prior_model(config, include_anchor=False), trajectory_ensemble)
    return RunInputs(lambda_d=measurement_fim(config, trajectory), pfim=pfim)


def run_recursions(
    runs: list,
    out: np.ndarray,
    disturbance_steps=(),
    disturbance_scale: float = 1.0,
    columns=None,
    on_step=None,
) -> dict:
    """Drive the per-step recursion of every run in ``runs`` together.

    The runs share K and the T steps that ``out``'s 2T rows hold: run i
    writes step t's ``bcrb_mean`` to ``out[2t, c]`` and its ``eoc_mean``
    to ``out[2t + 1, c]``, with c = ``columns[i]`` (default i).
    ``disturbance_steps`` lists 0-based steps whose measurement
    information is scaled by ``disturbance_scale`` (at least 0); all other
    steps run at scale 1.
    ``on_step(t, runs, inputs, efim, carry)``, if given, sees every step
    that is stepped: the indices of the stacked runs, their ``StepInputs``
    and their read-only J_t and carry stacks.

    The steps fall into segments of equal inputs. Under constant inputs a
    step's inputs depend only on whether it is the first step and on its
    scale, so a run prepares at most three; otherwise each step is its own
    segment. A segment starts with every run that has not failed on the
    stack. A run whose J_t equals its J_{t-1} byte for byte leaves the
    stack: every later step of the segment would return that state bit for
    bit, so its numbers are written once for the rest of the segment.

    A run whose inputs, carry or bound fail leaves the stack for good, and
    the others go on unchanged. Returns ``{run index: error}`` for those
    runs; their columns are incomplete.
    """
    if disturbance_scale < 0.0:
        raise DimensionMismatch(
            f"measurement scale must be >= 0, got {disturbance_scale}"
        )
    num_steps = len(out) // 2
    disturbed = {int(s) for s in disturbance_steps}
    scales = [disturbance_scale if t in disturbed else 1.0 for t in range(num_steps)]
    constant = all(run.frozen is not None for run in runs)
    keys = [(t == 0, scale) if constant else t for t, scale in enumerate(scales)]
    columns = np.arange(len(runs)) if columns is None else np.asarray(columns)
    prepared = [{(False, 1.0): run.frozen} for run in runs]
    failed: dict = {}
    last = None  # each run's latest J, (runs, 2K, 2K)
    start = 0
    while start < num_steps:
        end = start + 1
        while end < num_steps and keys[end] == keys[start]:
            end += 1
        scale = scales[start]
        key = (start == 0, scale)
        idx, inputs = [], []
        for i, run in enumerate(runs):
            if i in failed:
                continue
            try:
                if run.frozen is None:
                    step_in = run.at(start, scale)
                elif key in prepared[i]:
                    step_in = prepared[i][key]
                else:
                    step_in = prepared[i][key] = run.at(start, scale)
            except LocTrackError as exc:
                failed[i] = exc
                continue
            idx.append(i)
            inputs.append(step_in)
        if not idx:
            start = end
            continue
        idx = np.array(idx)
        stack = _stack(inputs)
        if last is None:
            last = np.empty((len(runs),) + stack[0].shape[1:])
        prev = None if start == 0 else last[idx]
        repeats = []  # (run, step) whose numbers hold to the segment's end
        for t in range(start, end):
            efim, carry, bcrb, eoc, lost = _advance(t, prev, stack)
            if on_step is not None:
                on_step(t, idx, inputs, efim, carry)
            cols = columns[idx]
            out[2 * t, cols] = bcrb
            out[2 * t + 1, cols] = eoc
            keep = np.ones(len(idx), dtype=bool)
            for k, exc in lost.items():
                failed[int(idx[k])] = exc
                keep[k] = False
            if prev is not None and t + 1 < end:
                bits = efim.reshape(len(idx), -1).view(np.int64)
                fixed = keep & (bits == prev.reshape(len(idx), -1).view(np.int64)).all(axis=1)
                repeats += [(i, t) for i in idx[fixed].tolist()]
                last[idx[fixed]] = efim[fixed]
                keep &= ~fixed
            if not keep.all():
                idx, efim = idx[keep], efim[keep]
                stack = tuple(None if a is None else a[keep] for a in stack)
                inputs = [step_in for step_in, k in zip(inputs, keep) if k]
            prev = efim
            if not len(idx):
                break
        last[idx] = prev
        for i, t in repeats:
            c = columns[i]
            out[2 * t + 2:2 * end:2, c] = out[2 * t, c]
            out[2 * t + 3:2 * end:2, c] = out[2 * t + 1, c]
        start = end
    return failed


def run_recursion(
    config: ScenarioConfig,
    trajectory: Trajectory,
    constant_from_step: int | None = None,
    disturbance_steps=(),
    disturbance_scale: float = 1.0,
    trajectory_ensemble=None,
) -> list[RecursiveState]:
    """Drive the per-step recursion along one trajectory: the one-run view
    of ``run_recursions``, one ``RecursiveState`` per step.

    The arguments are those of ``run_inputs`` and ``run_recursions``; a
    failed step raises its error. A step that ``run_recursions`` does not
    step repeats its predecessor's state with ``t`` advanced, bit for bit
    what ``recursive_step`` would return, sharing its arrays.
    """
    run = run_inputs(config, trajectory, constant_from_step, trajectory_ensemble)
    stepped = {}

    def record(t, idx, inputs, efim, carry):
        stepped[t] = (inputs[0], efim[0], carry[0])

    out = np.empty((2 * config.num_steps, 1))
    failed = run_recursions([run], out, disturbance_steps, disturbance_scale, on_step=record)
    if failed:
        raise failed[0]
    states: list[RecursiveState] = []
    prev = None
    for t in range(config.num_steps):
        if t in stepped:
            inputs, efim, carry = stepped[t]
        else:
            inputs, efim, carry = prev.inputs, prev.efim, prev.temporal_carry
        prev = RecursiveState(
            t=t, efim=efim, inputs=inputs, temporal_carry=carry,
            bcrb_mean=float(out[2 * t, 0]), eoc_mean=float(out[2 * t + 1, 0]),
            previous_efim=None if prev is None else prev.efim,
        )
        states.append(prev)
    return states
