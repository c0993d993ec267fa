"""Scenario configuration, validation, and prior-model trajectory sampling.

A scenario fixes the deployment geometry (one BS, R reflecting surfaces, K
users over T steps), the radio constants, and the spatio-temporal prior that
ties user positions together. Two prior kinds are supported:

* ``l2-squared``: quadratic spatial potential per edge, Gaussian transitions.
  The joint prior is Gaussian, so its precision matrix is available in closed
  form and trajectories are drawn exactly through a Cholesky factor.
* ``l1-norm``: spatial potential proportional to the inter-user distance.
  The joint prior is not Gaussian; trajectories are drawn with a
  Metropolis-within-Gibbs sweep, vectorised across chains.

Scenarios are read from the kebab-case JSON files under ``configs/``.
Indices are 0-based throughout the API.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .blocks import (
    BlockMatrix,
    add_edge_blocks,
    block_index,
    block_slice,
    chain_matrix,
    require_spd,
)
from .errors import (
    DegenerateGeometry,
    DimensionMismatch,
    EmptyEnsemble,
    NotGaussian,
    SamplingUnsupported,
    SchemaMismatch,
)

PRIOR_L2 = "l2-squared"
PRIOR_L1 = "l1-norm"

# Guard distance below which a user and a RIS are considered co-located.
GEOMETRY_GUARD = 1e-3

# Metropolis-within-Gibbs burn-in sweeps for the l1-norm prior.
DEFAULT_BURN_IN = 1000


# ---------------------------------------------------------------------------
# phase profiles


@dataclass(frozen=True)
class ExplicitPhases:
    """RIS phase shifts given directly, shape (T, R, N_r), radians."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class AlignedPhases:
    """Each RIS focuses its cascade on one user in round-robin order.

    Surface i serves user i mod K for every step; the phase of element n
    cancels the cascade phase of that user so the reflection gain reaches
    sqrt(N_r). Resolution happens at channel-evaluation time because it
    needs the true user positions.
    """


@dataclass(frozen=True)
class RandomPhases:
    """Independent uniform phases per (step, surface), seeded for replay."""

    seed: int = 0

    def values_for(self, t: int, ris: int, n_elements: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, t, ris])
        return rng.uniform(0.0, 2.0 * np.pi, n_elements)


PhaseProfile = ExplicitPhases | AlignedPhases | RandomPhases


def _phase_profile_from_json(obj) -> PhaseProfile:
    if isinstance(obj, list):
        return ExplicitPhases(np.asarray(obj, dtype=float))
    if isinstance(obj, dict):
        policy = obj.get("policy")
        if policy == "aligned":
            return AlignedPhases()
        if policy == "random":
            return RandomPhases(_json_int(obj, "seed", 0))
    raise SchemaMismatch(f"unrecognised ris-phase-profiles entry: {obj!r}")


# ---------------------------------------------------------------------------
# scenario configuration


def _frozen_array(value, dtype=float) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one deployment.

    Notes
    -----
    ``path_loss_exponent`` is stored as configured; amplitudes always use the
    attenuating reading ``rho = d ** (-|alpha| / 2)`` so a negative sign in a
    source document does not silently turn path loss into path gain.

    ``first_step_anchor_variance`` is the variance (m^2) of the Gaussian
    anchor tying step-0 positions to ``user_initial_positions``. ``None``
    disables the anchor, which leaves the pure prior improper (translation
    invariant); sampling then refuses to run.

    ``temporal_covariance`` has shape (T-1, K, 2, 2): entry t is the
    transition covariance from step t to step t+1 for each user.
    """

    bs_position: np.ndarray
    ris_positions: np.ndarray
    user_initial_positions: np.ndarray
    num_users: int
    num_ris: int
    num_steps: int
    n_bs_antennas: int
    n_ris_elements: int
    carrier_frequency_hz: float
    path_loss_exponent: float
    rician_factor_br: float
    rician_factor_ru: float
    noise_variance: float
    transmit_power: float
    pilot_length: int
    ris_phase_profiles: PhaseProfile
    spatial_edges: tuple
    spatial_precision: tuple
    temporal_covariance: np.ndarray
    first_step_anchor_variance: float | None = 1.0
    prior_kind: str = PRIOR_L2
    bs_ris_gains: np.ndarray | None = None
    bs_ris_aoa: np.ndarray | None = None
    bs_ris_aod: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bs_position", _frozen_array(self.bs_position))
        object.__setattr__(self, "ris_positions", _frozen_array(self.ris_positions))
        object.__setattr__(
            self, "user_initial_positions", _frozen_array(self.user_initial_positions)
        )
        object.__setattr__(
            self, "temporal_covariance", _frozen_array(self.temporal_covariance)
        )
        for name in ("bs_ris_gains", "bs_ris_aoa", "bs_ris_aod"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _frozen_array(value))
        object.__setattr__(
            self, "spatial_edges", _normalize_edge_tuple(self.spatial_edges)
        )
        object.__setattr__(
            self, "spatial_precision", _normalize_precision_tuple(self.spatial_precision)
        )

    # -- derived radio geometry -------------------------------------------

    @property
    def path_loss_magnitude(self) -> float:
        return abs(self.path_loss_exponent)

    def bs_ris_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-surface (departure angle at BS, arrival angle at RIS, LoS gain).

        Explicit config values win; missing ones are derived from positions:
        angles via arccos of the x-offset over the distance, gain via the
        attenuating path-loss law.
        """
        delta = self.ris_positions - self.bs_position[None, :]
        dists = np.linalg.norm(delta, axis=1)
        if np.any(dists <= GEOMETRY_GUARD):
            raise DegenerateGeometry("a RIS sits on top of the BS")
        aod = np.arccos(np.clip(delta[:, 0] / dists, -1.0, 1.0))
        aoa = np.arccos(np.clip(-delta[:, 0] / dists, -1.0, 1.0))
        gains = dists ** (-self.path_loss_magnitude / 2.0)
        if self.bs_ris_aod is not None:
            aod = self.bs_ris_aod
        if self.bs_ris_aoa is not None:
            aoa = self.bs_ris_aoa
        if self.bs_ris_gains is not None:
            gains = self.bs_ris_gains
        return np.asarray(aod, dtype=float), np.asarray(aoa, dtype=float), np.asarray(
            gains, dtype=float
        )

    # -- prior accessors ---------------------------------------------------

    def edges_at(self, t: int) -> tuple:
        return self.spatial_edges[t]

    def edge_precisions_at(self, t: int) -> tuple:
        return self.spatial_precision[t]

    def transition_covariance(self, t: int) -> np.ndarray:
        """Covariance of the step t -> t+1 transition, shape (K, 2, 2)."""
        return np.asarray(self.temporal_covariance[t])

    @property
    def anchor_precision(self) -> float:
        if self.first_step_anchor_variance is None:
            return 0.0
        return 1.0 / self.first_step_anchor_variance

    # -- sweep helpers -----------------------------------------------------

    def with_noise_variance(self, value: float) -> "ScenarioConfig":
        return dataclasses.replace(self, noise_variance=float(value))

    def with_snr_offset_db(self, offset_db: float) -> "ScenarioConfig":
        """Scale the noise variance down by ``offset_db`` decibels."""
        return self.with_noise_variance(
            self.noise_variance * 10.0 ** (-offset_db / 10.0)
        )

    def with_spatial_precision(self, value: float) -> "ScenarioConfig":
        precision = tuple(
            tuple(float(value) for _ in step_edges) for step_edges in self.spatial_edges
        )
        return dataclasses.replace(self, spatial_precision=precision)

    def with_temporal_precision(self, value: float) -> "ScenarioConfig":
        cov = np.broadcast_to(
            np.eye(2) / float(value),
            (max(self.num_steps - 1, 0), self.num_users, 2, 2),
        ).copy()
        return dataclasses.replace(self, temporal_covariance=cov)

    def with_num_ris(self, count: int) -> "ScenarioConfig":
        """Keep the first ``count`` surfaces, dropping the rest."""
        if not (1 <= count <= self.num_ris):
            raise DimensionMismatch(
                f"cannot keep {count} of {self.num_ris} surfaces"
            )
        profile = self.ris_phase_profiles
        if isinstance(profile, ExplicitPhases):
            profile = ExplicitPhases(profile.values[:, :count])

        def trim(arr):
            return None if arr is None else np.asarray(arr)[:count]

        return dataclasses.replace(
            self,
            ris_positions=np.asarray(self.ris_positions)[:count],
            num_ris=count,
            ris_phase_profiles=profile,
            bs_ris_gains=trim(self.bs_ris_gains),
            bs_ris_aoa=trim(self.bs_ris_aoa),
            bs_ris_aod=trim(self.bs_ris_aod),
        )


def _normalize_edge_tuple(edges) -> tuple:
    """Canonical per-step edge structure: tuple over steps of (i, j) tuples."""
    return tuple(
        tuple((int(i), int(j)) for i, j in step_edges) for step_edges in edges
    )


def _normalize_precision_tuple(precision) -> tuple:
    return tuple(tuple(float(c) for c in step) for step in precision)


# ---------------------------------------------------------------------------
# prior model


@dataclass(frozen=True)
class PriorModel:
    """Spatio-temporal prior separated from the radio scenario.

    Attributes
    ----------
    kind : str
        ``l2-squared`` or ``l1-norm``.
    spatial_edges, spatial_precision : tuple
        Per-step edge lists and matching per-edge precisions.
    transition_precisions : ndarray
        Shape (T-1, K, 2, 2); entry t couples steps t and t+1.
    anchor_precision : float
        Step-0 anchor precision (0.0 when the anchor is disabled).
    include_anchor : bool
        Whether the anchor contributes to the spatial prior information.
    """

    kind: str
    spatial_edges: tuple
    spatial_precision: tuple
    transition_precisions: np.ndarray
    anchor_precision: float
    include_anchor: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "transition_precisions", _frozen_array(self.transition_precisions)
        )


def prior_model(config: ScenarioConfig, include_anchor: bool = True) -> PriorModel:
    """Extract the prior description a scenario implies.

    The only inversion of the transition covariances; consumers read the stack.
    """
    return PriorModel(
        kind=config.prior_kind,
        spatial_edges=config.spatial_edges,
        spatial_precision=config.spatial_precision,
        transition_precisions=np.linalg.inv(config.temporal_covariance),
        anchor_precision=config.anchor_precision,
        include_anchor=include_anchor and config.anchor_precision > 0.0,
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


def ensemble_positions(trajectory_ensemble, T: int, K: int) -> np.ndarray | None:
    """Trajectory ensemble as a checked (n, T, K, 2) stack; None stays None.

    Accepts an array or an iterable of ``Trajectory``.
    """
    if trajectory_ensemble is None:
        return None
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


def prior_slice(
    prior: PriorModel, t: int, ensemble: np.ndarray | None = None
) -> np.ndarray:
    """Spatial prior information of step t: one (2K, 2K) slice.

    Each edge (i, j) is stamped with its 2x2 weight: precision * I for the
    quadratic kind; for the distance kind the average over ``ensemble``
    (n, T, K, 2) of precision * (I - e e^T) / (2 d), e the unit vector
    between the users and d their distance. The anchor joins at t = 0.
    """
    edges = prior.spatial_edges[t]
    precisions = prior.spatial_precision[t]
    if prior.kind == PRIOR_L2:
        weights = [c * np.eye(2) for c in precisions]
    elif prior.kind == PRIOR_L1:
        if ensemble is None:
            raise EmptyEnsemble(
                "the distance prior needs a trajectory ensemble for its "
                "expectation; none was given"
            )
        weights = [
            0.5 * c * np.mean(
                _unit_deviation_terms(ensemble[:, t, i, :] - ensemble[:, t, j, :]),
                axis=0,
            )
            for (i, j), c in zip(edges, precisions)
        ]
    else:
        raise DimensionMismatch(f"unknown prior kind {prior.kind!r}")
    K = prior.transition_precisions.shape[1]
    mat = add_edge_blocks(np.zeros((2 * K, 2 * K)), edges, weights)
    if t == 0 and prior.include_anchor:
        mat += prior.anchor_precision * np.eye(2 * K)
    return mat


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of semantic scenario checks; ``ok`` when nothing was flagged."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0

    def __str__(self) -> str:
        if self.ok:
            return "scenario ok"
        return "\n".join(f"- {v}" for v in self.violations)


def validate(config: ScenarioConfig) -> ValidationReport:
    """Semantic checks on a scenario. Collects problems, never raises."""
    bad: list[str] = []
    K, R, T = config.num_users, config.num_ris, config.num_steps

    if K < 1:
        bad.append(f"num-users must be >= 1, got {K}")
    if R < 1:
        bad.append(f"num-ris must be >= 1, got {R}")
    if T < 1:
        bad.append(f"num-steps must be >= 1, got {T}")
    if config.n_bs_antennas < 1:
        bad.append("n-bs-antennas must be >= 1")
    if config.n_ris_elements < 1:
        bad.append("n-ris-elements must be >= 1")
    if config.carrier_frequency_hz <= 0:
        bad.append("carrier-frequency-hz must be positive")
    if config.noise_variance <= 0:
        bad.append("noise-variance must be positive")
    if config.transmit_power <= 0:
        bad.append("transmit-power must be positive")
    if config.pilot_length < K:
        bad.append(
            f"pilot-length {config.pilot_length} shorter than user count {K}; "
            "orthogonal pilots are infeasible"
        )
    if config.rician_factor_br < 0 or config.rician_factor_ru < 0:
        bad.append("rician factors must be nonnegative")
    if config.prior_kind not in (PRIOR_L2, PRIOR_L1):
        bad.append(f"unknown prior-kind {config.prior_kind!r}")
    if (
        config.first_step_anchor_variance is not None
        and config.first_step_anchor_variance <= 0
    ):
        bad.append("first-step-anchor-variance must be positive or null")

    if config.bs_position.shape != (2,):
        bad.append(f"bs-position must be a 2-vector, got {config.bs_position.shape}")
    if config.ris_positions.shape != (R, 2):
        bad.append(
            f"ris-positions must have shape ({R}, 2), got {config.ris_positions.shape}"
        )
    if config.user_initial_positions.shape != (K, 2):
        bad.append(
            f"user-initial-positions must have shape ({K}, 2), "
            f"got {config.user_initial_positions.shape}"
        )
    for name, arr in (
        ("bs-position", config.bs_position),
        ("ris-positions", config.ris_positions),
        ("user-initial-positions", config.user_initial_positions),
    ):
        if not np.all(np.isfinite(arr)):
            bad.append(f"{name} contains non-finite values")

    if config.ris_positions.shape == (R, 2) and config.user_initial_positions.shape == (
        K,
        2,
    ):
        dists = np.linalg.norm(
            config.user_initial_positions[:, None, :]
            - config.ris_positions[None, :, :],
            axis=2,
        )
        for k, i in zip(*np.nonzero(dists <= GEOMETRY_GUARD)):
            bad.append(
                f"initial position of user {k} within {GEOMETRY_GUARD} m of RIS {i}"
            )

    if len(config.spatial_edges) != T:
        bad.append(
            f"spatial-edges must list {T} steps, got {len(config.spatial_edges)}"
        )
    else:
        for t, step_edges in enumerate(config.spatial_edges):
            prec = config.spatial_precision[t] if t < len(config.spatial_precision) else ()
            if len(prec) != len(step_edges):
                bad.append(
                    f"step {t}: {len(step_edges)} edges but {len(prec)} precisions"
                )
            for (i, j) in step_edges:
                if i == j:
                    bad.append(f"step {t}: self-loop edge ({i}, {i})")
                if not (0 <= i < K and 0 <= j < K):
                    bad.append(f"step {t}: edge ({i}, {j}) outside user range")
            for c in prec:
                if not (c >= 0.0 and math.isfinite(c)):
                    bad.append(f"step {t}: spatial precision {c} invalid")
    if len(config.spatial_precision) != T:
        bad.append(
            "spatial-precision must list "
            f"{T} steps, got {len(config.spatial_precision)}"
        )

    expected_q = (max(T - 1, 0), K, 2, 2)
    if config.temporal_covariance.shape != expected_q:
        bad.append(
            f"temporal-covariance must have shape {expected_q}, "
            f"got {config.temporal_covariance.shape}"
        )
    else:
        finite = np.all(np.isfinite(config.temporal_covariance), axis=(-2, -1))
        q = np.where(finite[..., None, None], config.temporal_covariance, 0.0)
        q_t = np.swapaxes(q, -1, -2)
        scale = np.maximum(np.linalg.norm(q, axis=(-2, -1)), 1e-300)
        symmetric = np.linalg.norm(q - q_t, axis=(-2, -1)) <= 1e-12 * scale
        positive = np.linalg.eigvalsh(0.5 * (q + q_t))[..., 0] > 0
        for t, k in zip(*np.nonzero(~(finite & symmetric & positive))):
            if not finite[t, k]:
                bad.append(f"transition covariance ({t}, {k}) non-finite")
            elif not symmetric[t, k]:
                bad.append(f"transition covariance ({t}, {k}) not symmetric")
            else:
                bad.append(f"transition covariance ({t}, {k}) not positive definite")

    profile = config.ris_phase_profiles
    if isinstance(profile, ExplicitPhases):
        want = (T, R, config.n_ris_elements)
        if profile.values.shape != want:
            bad.append(
                f"explicit ris-phase-profiles must have shape {want}, "
                f"got {profile.values.shape}"
            )
        elif not np.all(np.isfinite(profile.values)):
            bad.append("explicit ris-phase-profiles contain non-finite values")

    for name, arr in (
        ("bs-ris-gains", config.bs_ris_gains),
        ("bs-ris-aoa", config.bs_ris_aoa),
        ("bs-ris-aod", config.bs_ris_aod),
    ):
        if arr is not None and arr.shape != (R,):
            bad.append(f"{name} must have shape ({R},), got {arr.shape}")

    return ValidationReport(tuple(bad))


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """User positions over time, shape (T, K, 2), plus the seed that made it."""

    positions: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        arr = _frozen_array(self.positions)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise DimensionMismatch(
                f"trajectory positions must have shape (T, K, 2), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DimensionMismatch("trajectory positions contain non-finite values")
        object.__setattr__(self, "positions", arr)

    @property
    def num_steps(self) -> int:
        return self.positions.shape[0]

    @property
    def num_users(self) -> int:
        return self.positions.shape[1]

    def position(self, t: int, k: int) -> np.ndarray:
        return self.positions[t, k]


def check_separation(config: ScenarioConfig, positions: np.ndarray) -> None:
    """Raise DegenerateGeometry if any user sits on a RIS at any step."""
    dists = np.linalg.norm(
        positions[:, :, None, :] - config.ris_positions[None, None, :, :], axis=3
    )
    if np.any(dists <= GEOMETRY_GUARD):
        t, k, i = np.unravel_index(int(np.argmin(dists)), dists.shape)
        raise DegenerateGeometry(
            f"user {k} within {GEOMETRY_GUARD} m of RIS {i} at step {t}"
        )


def make_trajectory(
    config: ScenarioConfig, positions: np.ndarray, seed: int | None = None
) -> Trajectory:
    """Wrap raw positions after checking shape and RIS separation."""
    arr = np.asarray(positions, dtype=float)
    want = (config.num_steps, config.num_users, 2)
    if arr.shape != want:
        raise DimensionMismatch(
            f"positions must have shape {want}, got {arr.shape}"
        )
    check_separation(config, arr)
    return Trajectory(arr, seed)


def static_trajectory(config: ScenarioConfig) -> Trajectory:
    """All users frozen at their initial positions; handy for toys and tests."""
    pos = np.broadcast_to(
        config.user_initial_positions[None, :, :],
        (config.num_steps, config.num_users, 2),
    ).copy()
    return make_trajectory(config, pos)


def random_walk_trajectory(config: ScenarioConfig, seed: int) -> Trajectory:
    """Generative tracks: anchor draw at step 0, then per-step Gaussian moves.

    This is the simulation-side motion model (each user wanders from its
    initial position with the configured transition covariances).  It is not
    a draw from the full analysis prior; the spatial coupling terms shape
    the bound, not the tracks.  Use ``sample_trajectory`` for exact draws
    from the joint prior itself.
    """
    T, K = config.num_steps, config.num_users
    rng = np.random.default_rng(seed)
    pos = np.empty((T, K, 2))
    pos[0] = config.user_initial_positions
    if config.first_step_anchor_variance is not None:
        pos[0] = pos[0] + math.sqrt(config.first_step_anchor_variance) * \
            rng.standard_normal((K, 2))
    for t in range(T - 1):
        cov = config.transition_covariance(t)
        for k in range(K):
            chol = np.linalg.cholesky(cov[k])
            pos[t + 1, k] = pos[t, k] + chol @ rng.standard_normal(2)
    return make_trajectory(config, pos, seed)


# ---------------------------------------------------------------------------
# joint prior precision (l2-squared only)


def joint_precision(
    config: ScenarioConfig, prior: PriorModel | None = None
) -> BlockMatrix:
    """Precision matrix of the joint prior over all (step, user) positions.

    Only the ``l2-squared`` prior is jointly Gaussian; the ``l1-norm`` kind
    raises NotGaussian. The anchor must be enabled, otherwise the prior is
    translation invariant and the precision is singular (raises NotSpd).
    """
    if prior is None:
        prior = prior_model(config)
    if prior.kind != PRIOR_L2:
        raise NotGaussian(
            f"joint precision is closed-form only for {PRIOR_L2!r}, "
            f"got {prior.kind!r}"
        )
    slices = [prior_slice(prior, t) for t in range(config.num_steps)]
    precision = chain_matrix(slices, prior.transition_precisions)
    require_spd(precision.data, "joint prior precision")
    return precision


def _anchor_linear_term(config: ScenarioConfig) -> np.ndarray:
    """Linear term b of the joint Gaussian, so the mean is solve(Lambda, b)."""
    T, K = config.num_steps, config.num_users
    b = np.zeros(2 * T * K)
    for k in range(K):
        g = block_index(0, k, K)
        b[block_slice(g)] = config.anchor_precision * config.user_initial_positions[k]
    return b


# ---------------------------------------------------------------------------
# sampling


def sample_trajectory(config: ScenarioConfig, seed: int) -> Trajectory:
    """Draw one trajectory from the scenario's spatio-temporal prior."""
    return Trajectory(
        sample_trajectory_ensemble(config, 1, seed)[0], seed
    )


def sample_trajectory_ensemble(
    config: ScenarioConfig,
    count: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> np.ndarray:
    """Draw ``count`` independent trajectories, shape (count, T, K, 2).

    l2-squared: exact joint-Gaussian draws through the Cholesky factor of the
    joint precision. l1-norm: independent Metropolis-within-Gibbs chains,
    vectorised across the ensemble, each burned in for ``burn_in`` sweeps.
    """
    if count < 1:
        raise DimensionMismatch(f"ensemble size must be >= 1, got {count}")
    if config.anchor_precision <= 0.0:
        raise SamplingUnsupported(
            "prior without a first-step anchor is translation invariant; "
            "it has no normalisable distribution to sample"
        )
    if config.prior_kind == PRIOR_L2:
        draws = _sample_gaussian(config, count, seed)
    elif config.prior_kind == PRIOR_L1:
        draws = _sample_l1_mcmc(config, count, seed, burn_in)
    else:
        raise SamplingUnsupported(f"no sampler for prior kind {config.prior_kind!r}")
    check_separation(config, draws.reshape(-1, config.num_users, 2))
    return draws


def _sample_gaussian(config: ScenarioConfig, count: int, seed: int) -> np.ndarray:
    T, K = config.num_steps, config.num_users
    precision = joint_precision(config).data
    b = _anchor_linear_term(config)
    chol, lower = cho_factor(precision, lower=True)
    mean = cho_solve((chol, lower), b)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2 * T * K, count))
    # x = mean + L^{-T} z has covariance (L L^T)^{-1} = precision^{-1}.
    dev = solve_triangular(chol, z, lower=lower, trans="T")
    flat = mean[:, None] + dev
    return np.ascontiguousarray(flat.T).reshape(count, T, K, 2)


def _log_prior_terms_l1(
    config: ScenarioConfig, gammas: np.ndarray, pos: np.ndarray, t: int, k: int
) -> np.ndarray:
    """Log-density terms touching site (t, k) for each chain.

    ``pos`` has shape (n_chains, T, K, 2) and ``gammas`` holds the
    (T-1, K, 2, 2) transition precisions. Includes the step-0 anchor, the
    temporal links to steps t-1 and t+1, and every spatial edge at step t
    incident to user k.
    """
    n = pos.shape[0]
    out = np.zeros(n)
    here = pos[:, t, k, :]
    if t == 0:
        diff = here - config.user_initial_positions[k]
        out -= 0.5 * config.anchor_precision * np.sum(diff * diff, axis=1)
    if t > 0:
        gamma = gammas[t - 1, k]
        diff = here - pos[:, t - 1, k, :]
        out -= 0.5 * np.einsum("ni,ij,nj->n", diff, gamma, diff)
    if t < config.num_steps - 1:
        gamma = gammas[t, k]
        diff = pos[:, t + 1, k, :] - here
        out -= 0.5 * np.einsum("ni,ij,nj->n", diff, gamma, diff)
    for (i, j), c in zip(config.edges_at(t), config.edge_precisions_at(t)):
        if k == i or k == j:
            other = j if k == i else i
            diff = here - pos[:, t, other, :]
            out -= 0.5 * c * np.linalg.norm(diff, axis=1)
    return out


def _sample_l1_mcmc(
    config: ScenarioConfig, count: int, seed: int, burn_in: int
) -> np.ndarray:
    T, K = config.num_steps, config.num_users
    rng = np.random.default_rng(seed)
    gammas = prior_model(config).transition_precisions

    eigs = np.linalg.eigvalsh(config.temporal_covariance).ravel()
    step = 0.5 * math.sqrt(min([config.first_step_anchor_variance, *eigs]))

    pos = np.broadcast_to(
        config.user_initial_positions[None, None, :, :], (count, T, K, 2)
    ).copy()
    pos += step * rng.standard_normal(pos.shape)

    for _ in range(burn_in):
        for t in range(T):
            for k in range(K):
                current = _log_prior_terms_l1(config, gammas, pos, t, k)
                move = step * rng.standard_normal((count, 2))
                pos[:, t, k, :] += move
                proposed = _log_prior_terms_l1(config, gammas, pos, t, k)
                reject = np.log(rng.uniform(size=count)) >= proposed - current
                pos[reject, t, k, :] -= move[reject]
    return pos


# ---------------------------------------------------------------------------
# JSON reader


def is_integer(value) -> bool:
    """The rule for every integer in a JSON input: no bool, no float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _json_int(obj: dict, key: str, default=None) -> int:
    """``obj[key]`` as an int; ``scenario_from_json`` reports the ValueError."""
    value = obj.get(key, default)
    if not is_integer(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


_REQUIRED_KEYS = (
    "bs-position",
    "ris-positions",
    "user-initial-positions",
    "num-users",
    "num-ris",
    "num-steps",
    "n-bs-antennas",
    "n-ris-elements",
    "carrier-frequency-hz",
    "path-loss-exponent",
    "rician-factor-br",
    "rician-factor-ru",
    "noise-variance",
    "transmit-power",
    "pilot-length",
    "ris-phase-profiles",
    "spatial-edges",
    "spatial-precision",
    "temporal-covariance",
    "prior-kind",
)


def scenario_from_json(obj: dict) -> ScenarioConfig:
    """Build a scenario from the documented kebab-case JSON mapping.

    Missing keys and unconvertible values raise SchemaMismatch.
    """
    missing = [key for key in _REQUIRED_KEYS if key not in obj]
    if missing:
        raise SchemaMismatch(f"scenario JSON missing keys: {', '.join(missing)}")
    try:
        return _config_from_json(obj)
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"scenario JSON has a malformed value: {exc}") from exc


def _config_from_json(obj: dict) -> ScenarioConfig:
    T = _json_int(obj, "num-steps")
    K = _json_int(obj, "num-users")

    edges_raw = obj["spatial-edges"]
    if edges_raw and edges_raw[0] and isinstance(edges_raw[0][0], (int, float)):
        # one flat edge list applied at every step
        per_step_edges = [edges_raw for _ in range(T)]
    else:
        per_step_edges = edges_raw if edges_raw else [[] for _ in range(T)]

    prec_raw = obj["spatial-precision"]
    if isinstance(prec_raw, (int, float)):
        per_step_prec = [
            [float(prec_raw)] * len(step_edges) for step_edges in per_step_edges
        ]
    elif prec_raw and isinstance(prec_raw[0], (int, float)):
        per_step_prec = [list(map(float, prec_raw)) for _ in range(T)]
    else:
        per_step_prec = prec_raw if prec_raw else [[] for _ in range(T)]

    q_raw = obj["temporal-covariance"]
    n_trans = max(T - 1, 0)
    if isinstance(q_raw, (int, float)):
        q = np.broadcast_to(float(q_raw) * np.eye(2), (n_trans, K, 2, 2)).copy()
    else:
        q_arr = np.asarray(q_raw, dtype=float)
        if q_arr.shape == (2, 2):
            q = np.broadcast_to(q_arr, (n_trans, K, 2, 2)).copy()
        elif q_arr.shape == (K, 2, 2):
            q = np.broadcast_to(q_arr[None, :, :, :], (n_trans, K, 2, 2)).copy()
        elif q_arr.shape == (n_trans, K, 2, 2):
            q = q_arr
        else:
            raise SchemaMismatch(
                "temporal-covariance must be a scalar, a 2x2 matrix, a (K,2,2) "
                f"array, or a ({n_trans},{K},2,2) array; got shape {q_arr.shape}"
            )

    anchor = obj.get("first-step-anchor-variance", 1.0)

    def opt_array(key):
        return None if obj.get(key) is None else np.asarray(obj[key], dtype=float)

    return ScenarioConfig(
        bs_position=np.asarray(obj["bs-position"], dtype=float),
        ris_positions=np.asarray(obj["ris-positions"], dtype=float),
        user_initial_positions=np.asarray(obj["user-initial-positions"], dtype=float),
        num_users=K,
        num_ris=_json_int(obj, "num-ris"),
        num_steps=T,
        n_bs_antennas=_json_int(obj, "n-bs-antennas"),
        n_ris_elements=_json_int(obj, "n-ris-elements"),
        carrier_frequency_hz=float(obj["carrier-frequency-hz"]),
        path_loss_exponent=float(obj["path-loss-exponent"]),
        rician_factor_br=float(obj["rician-factor-br"]),
        rician_factor_ru=float(obj["rician-factor-ru"]),
        noise_variance=float(obj["noise-variance"]),
        transmit_power=float(obj["transmit-power"]),
        pilot_length=_json_int(obj, "pilot-length"),
        ris_phase_profiles=_phase_profile_from_json(obj["ris-phase-profiles"]),
        spatial_edges=per_step_edges,
        spatial_precision=per_step_prec,
        temporal_covariance=q,
        first_step_anchor_variance=None if anchor is None else float(anchor),
        prior_kind=str(obj["prior-kind"]),
        bs_ris_gains=opt_array("bs-ris-gains"),
        bs_ris_aoa=opt_array("bs-ris-aoa"),
        bs_ris_aod=opt_array("bs-ris-aod"),
    )


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaMismatch(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise SchemaMismatch(f"{path}: scenario JSON must be an object")
    return scenario_from_json(obj)
