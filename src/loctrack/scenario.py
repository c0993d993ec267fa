"""Scenario configuration, validation, prior models and user tracks.

A scenario fixes the deployment geometry (one BS, R reflecting surfaces, K
users over T steps), the radio constants, and the spatio-temporal prior that
ties user positions together. Two prior kinds are supported:

* ``l2-squared``: quadratic spatial potential per edge, Gaussian transitions.
  Its prior information is the same for every trajectory, so nothing is
  sampled for it.
* ``l1-norm``: spatial potential proportional to the inter-user distance.
  Its prior information is an expectation over the prior, taken over an
  ensemble drawn with Metropolis-within-Gibbs sweeps that update each
  colour class of sites (sites sharing no prior term) in one step,
  vectorised across the class and the chains.

Tracks are drawn with the generative random walk
(``random_walk_trajectory``), not from the joint prior: the spatial
coupling shapes the bound, not the motion.

Scenarios are read from the kebab-case JSON files under ``configs/``.
Indices are 0-based throughout the API.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .blocks import add_edge_blocks
from .errors import (
    DegenerateGeometry,
    DimensionMismatch,
    EmptyEnsemble,
    SamplingUnsupported,
    SchemaMismatch,
)
from .schema import Field, enum, is_number, read

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
        object.__setattr__(self, "values", _frozen_array(self.values))


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

    @property
    def anchor_precision(self) -> float:
        if self.first_step_anchor_variance is None:
            return 0.0
        return 1.0 / self.first_step_anchor_variance

    # -- sweep helpers -----------------------------------------------------

    def with_snr_offset_db(self, offset_db: float) -> "ScenarioConfig":
        """Scale the noise variance down by ``offset_db`` decibels."""
        noise = self.noise_variance * 10.0 ** (-offset_db / 10.0)
        return dataclasses.replace(self, noise_variance=float(noise))

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
        Step-0 anchor precision; 0.0 when the anchor is left out.
    """

    kind: str
    spatial_edges: tuple
    spatial_precision: tuple
    transition_precisions: np.ndarray
    anchor_precision: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "transition_precisions", _frozen_array(self.transition_precisions)
        )


def prior_model(config: ScenarioConfig, include_anchor: bool = True) -> PriorModel:
    """Extract the prior description a scenario implies.

    ``include_anchor`` keeps the step-0 anchor (EoC) or leaves it out (the
    recursion). The only inversion of the transition covariances; consumers
    read the stack.
    """
    return PriorModel(
        kind=config.prior_kind,
        spatial_edges=config.spatial_edges,
        spatial_precision=config.spatial_precision,
        transition_precisions=np.linalg.inv(config.temporal_covariance),
        anchor_precision=config.anchor_precision if include_anchor else 0.0,
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
    """Trajectory ensemble as a checked (n, T, K, 2) array; None stays None."""
    if trajectory_ensemble is None:
        return None
    arr = np.asarray(trajectory_ensemble)
    if arr.ndim != 4 or arr.shape[0] == 0:
        raise EmptyEnsemble(
            f"trajectory ensemble must be a nonempty (n, T, K, 2) stack, "
            f"got shape {arr.shape}"
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
    between the users and d their distance. A positive anchor precision
    joins the diagonal at t = 0.
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
    if t == 0 and prior.anchor_precision > 0.0:
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
    """Checks across fields (``SCENARIO`` checks each value on its own):
    shapes against K, R and T, edges inside the user range, pilot length
    against K, SPD transition covariances and RIS separation."""
    bad: list[str] = []
    K, R, T = config.num_users, config.num_ris, config.num_steps

    if config.pilot_length < K:
        bad.append(
            f"pilot-length {config.pilot_length} shorter than user count {K}; "
            "orthogonal pilots are infeasible"
        )

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
        q = config.temporal_covariance
        q_t = np.swapaxes(q, -1, -2)
        scale = np.maximum(np.linalg.norm(q, axis=(-2, -1)), 1e-300)
        symmetric = np.linalg.norm(q - q_t, axis=(-2, -1)) <= 1e-12 * scale
        positive = np.linalg.eigvalsh(0.5 * (q + q_t))[..., 0] > 0
        for t, k in zip(*np.nonzero(~(symmetric & positive))):
            if not symmetric[t, k]:
                bad.append(f"transition covariance ({t}, {k}) not symmetric")
            else:
                bad.append(f"transition covariance ({t}, {k}) not positive definite")

    profile = config.ris_phase_profiles
    want = (T, R, config.n_ris_elements)
    if isinstance(profile, ExplicitPhases) and profile.values.shape != want:
        bad.append(
            f"explicit ris-phase-profiles must have shape {want}, "
            f"got {profile.values.shape}"
        )

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
    """User positions over time, shape (T, K, 2)."""

    positions: np.ndarray

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


def make_trajectory(config: ScenarioConfig, positions: np.ndarray) -> Trajectory:
    """Wrap raw positions after checking shape and RIS separation."""
    arr = np.asarray(positions, dtype=float)
    want = (config.num_steps, config.num_users, 2)
    if arr.shape != want:
        raise DimensionMismatch(
            f"positions must have shape {want}, got {arr.shape}"
        )
    check_separation(config, arr)
    return Trajectory(arr)


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
    the bound, not the tracks.

    All moves are drawn as one (T-1, K, 2) block, in the order a per-step,
    per-user loop would draw them, and summed along the steps.
    """
    T, K = config.num_steps, config.num_users
    rng = np.random.default_rng(seed)
    pos = np.empty((T, K, 2))
    pos[0] = config.user_initial_positions
    if config.first_step_anchor_variance is not None:
        pos[0] = pos[0] + math.sqrt(config.first_step_anchor_variance) * \
            rng.standard_normal((K, 2))
    chol = np.linalg.cholesky(config.temporal_covariance)
    pos[1:] = (chol @ rng.standard_normal((T - 1, K, 2, 1)))[..., 0]
    return make_trajectory(config, np.cumsum(pos, axis=0))


# ---------------------------------------------------------------------------
# sampling


def sample_trajectory_ensemble(
    config: ScenarioConfig,
    count: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> np.ndarray:
    """Draw ``count`` independent l1-norm prior trajectories, (count, T, K, 2).

    Independent Metropolis-within-Gibbs chains, each burned in for
    ``burn_in`` sweeps. A sweep visits the colour classes of the (t, k)
    sites (``_colour_classes``): sites in one class share no prior term, so
    they are conditionally independent and every site of a class, in every
    chain, takes one Metropolis step together. The chains draw from a
    stream spawned off ``seed``, so they share no normals with
    ``random_walk_trajectory(config, seed)``. Only the l1-norm prior is
    sampled (its prior information is an ensemble expectation); any other
    kind raises SamplingUnsupported.
    """
    if count < 1:
        raise DimensionMismatch(f"ensemble size must be >= 1, got {count}")
    if config.anchor_precision <= 0.0:
        raise SamplingUnsupported(
            "prior without a first-step anchor is translation invariant; "
            "it has no normalisable distribution to sample"
        )
    if config.prior_kind != PRIOR_L1:
        raise SamplingUnsupported(f"no sampler for prior kind {config.prior_kind!r}")
    draws = _sample_l1_mcmc(config, count, seed, burn_in)
    check_separation(config, draws.reshape(-1, config.num_users, 2))
    return draws


def _colour_classes(num_steps: int, num_users: int, spatial_edges) -> list:
    """Greedy colouring of the sites s = t*K + k, visited in (t, k) order.

    Two sites interact when they share a prior term: user k's temporal link
    between steps t and t+1, or a spatial edge of step t. Each class is an
    array of sites no two of which interact. A site has at most K + 1
    neighbours, so there are at most K + 2 classes.
    """
    K = num_users
    neighbours = [set() for _ in range(num_steps * K)]
    for s in range(K, num_steps * K):
        neighbours[s].add(s - K)
    for t, step_edges in enumerate(spatial_edges):
        for i, j in step_edges:
            if i != j:
                neighbours[t * K + i].add(t * K + j)
                neighbours[t * K + j].add(t * K + i)
    colour = []
    for s, near in enumerate(neighbours):
        used = {colour[n] for n in near if n < s}
        colour.append(next(c for c in range(len(used) + 1) if c not in used))
    colour = np.asarray(colour)
    return [np.flatnonzero(colour == c) for c in range(colour.max() + 1)]


def _class_tables(config: ScenarioConfig) -> tuple:
    """The sites in slot order, and one tuple of gather tables per class.

    The sampler stores the sites class by class: slot n holds site
    ``order[n]``, with ``order`` the colour classes concatenated, so a
    class is a slice of slots. With the state x as (2TK, count) rows, row
    2n + d holding coordinate d of slot n, the quadratic part of the
    log-density (anchor and transition precisions) is -x^T Q x / 2 + b^T x.
    Row r of Q x is ``sum(coef[r] * x[rows[r]])``: the site's own 2x2
    block and the -Gamma blocks to the same user at t-1 and t+1 (zero
    where there is no link); ``lin`` is b and ``half_own`` half the own
    block. ``others`` lists the slot at the far end of each spatial edge of
    a site and ``half_weights`` half its precision, padded with the slot
    itself at weight 0.
    """
    T, K = config.num_steps, config.num_users
    classes = _colour_classes(T, K, config.spatial_edges)
    order = np.concatenate(classes)
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    t, k = np.divmod(order, K)
    links = np.zeros((T + 1, K, 2, 2))
    links[1:T] = prior_model(config).transition_precisions
    before, after = links[t, k], links[t + 1, k]
    anchor = np.where(t == 0, config.anchor_precision, 0.0)
    own = before + after + anchor[:, None, None] * np.eye(2)
    coef = np.stack([own, -before, -after], axis=2).reshape(-1, 6)
    ends = slot[np.stack(
        [order, np.where(t > 0, order - K, order), np.where(t < T - 1, order + K, order)],
        axis=1,
    )]
    rows = np.repeat(2 * ends[:, :, None] + np.arange(2), 2, axis=0).reshape(-1, 6)
    lin = (anchor[:, None] * config.user_initial_positions[k]).reshape(-1, 1)

    edges = [[] for _ in order]
    for s, (step_edges, precisions) in enumerate(
        zip(config.spatial_edges, config.spatial_precision)
    ):
        for (i, j), c in zip(step_edges, precisions):
            if i != j:
                a, b = slot[s * K + i], slot[s * K + j]
                edges[a].append((b, c))
                edges[b].append((a, c))
    others = np.repeat(np.arange(order.size)[:, None], max(map(len, edges)), axis=1)
    half_weights = np.zeros(others.shape)
    for n, site_edges in enumerate(edges):
        for e, (other, c) in enumerate(site_edges):
            others[n, e], half_weights[n, e] = other, 0.5 * c

    bounds = np.cumsum([0] + [members.size for members in classes])
    return order, [
        (slice(a, b), rows[2 * a:2 * b], coef[2 * a:2 * b], lin[2 * a:2 * b],
         0.5 * own[a:b], others[a:b], half_weights[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def _log_ratio(sites: np.ndarray, move: np.ndarray, table: tuple) -> np.ndarray:
    """Log-density change of moving each site of one class, (n, count).

    ``sites`` is the (TK, 2, count) state in slot order and ``move`` the
    (n, 2, count) proposal for the class's slots. The quadratic part
    changes by move . (b - Q x - Q_ss move / 2); each spatial edge by half
    its precision times the change in distance.
    """
    span, rows, coef, lin, half_own, others, half_weights = table
    here = sites[span]
    state = sites.reshape(-1, sites.shape[-1])
    grad = (lin - np.einsum("rj,rjc->rc", coef, state[rows])).reshape(here.shape)
    quadratic = np.einsum(
        "ndc,ndc->nc", move, grad - np.einsum("nde,nec->ndc", half_own, move)
    )
    gap = here[:, None] - sites[others]
    moved = gap + move[:, None]
    stretch = np.sqrt(np.einsum("neic,neic->nec", moved, moved)) - np.sqrt(
        np.einsum("neic,neic->nec", gap, gap)
    )
    return quadratic - np.einsum("ne,nec->nc", half_weights, stretch)


def _sample_l1_mcmc(
    config: ScenarioConfig, count: int, seed: int, burn_in: int
) -> np.ndarray:
    T, K = config.num_steps, config.num_users
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    eigs = np.linalg.eigvalsh(config.temporal_covariance).ravel()
    step = 0.5 * math.sqrt(min([config.first_step_anchor_variance, *eigs]))

    order, tables = _class_tables(config)
    sites = np.repeat(config.user_initial_positions[order % K][:, :, None], count, axis=2)
    sites += step * rng.standard_normal(sites.shape)
    for _ in range(burn_in):
        moves = step * rng.standard_normal(sites.shape)
        log_uniforms = np.log(rng.uniform(size=(T * K, count)))
        for table in tables:
            span = table[0]
            here, move = sites[span], moves[span]
            here += move * (log_uniforms[span] < _log_ratio(sites, move, table))[:, None]
    draws = sites[np.argsort(order)].reshape(T, K, 2, count)
    return np.ascontiguousarray(draws.transpose(3, 0, 1, 2))


# ---------------------------------------------------------------------------
# JSON reader


_PHASE_POLICY = {"policy": Field(enum("aligned", "random")), "seed": Field("index", 0)}

# One entry per scenario key; ``validate`` adds the rules across keys.
SCENARIO = {
    "bs-position": Field("array"),
    "ris-positions": Field("array"),
    "user-initial-positions": Field("array"),
    "num-users": Field("count"),
    "num-ris": Field("count"),
    "num-steps": Field("count"),
    "n-bs-antennas": Field("count"),
    "n-ris-elements": Field("count"),
    "carrier-frequency-hz": Field("positive"),
    "path-loss-exponent": Field("number"),
    "rician-factor-br": Field("nonnegative"),
    "rician-factor-ru": Field("nonnegative"),
    "noise-variance": Field("positive"),
    "transmit-power": Field("positive"),
    "pilot-length": Field("count"),
    "ris-phase-profiles": Field("array", table=_PHASE_POLICY),
    "spatial-edges": Field("nested", of="index"),
    "spatial-precision": Field("nested", of="nonnegative"),
    "temporal-covariance": Field("array"),
    "prior-kind": Field(enum(PRIOR_L2, PRIOR_L1)),
    "first-step-anchor-variance": Field("positive", 1.0, null=True),
    "bs-ris-gains": Field("array", None, null=True),
    "bs-ris-aoa": Field("array", None, null=True),
    "bs-ris-aod": Field("array", None, null=True),
}


def _is_pair(edge) -> bool:
    return isinstance(edge, list) and len(edge) == 2 and not any(
        isinstance(i, list) for i in edge
    )


def _per_step(key: str, raw, T: int, is_item) -> list:
    """One list for every step, or one list per step, as a list per step."""
    if isinstance(raw, list) and all(map(is_item, raw)):
        return [raw] * T
    if not (isinstance(raw, list) and all(
        isinstance(step, list) and all(map(is_item, step)) for step in raw
    )):
        raise SchemaMismatch(
            f"scenario JSON has a malformed value: {key} must be one list for "
            "every step or one list per step"
        )
    return raw


def scenario_from_json(obj: dict) -> ScenarioConfig:
    """Build a scenario from its JSON mapping, each value checked by ``SCENARIO``."""
    v = read(SCENARIO, obj, "scenario JSON")
    T, K = v["num-steps"], v["num-users"]

    edges = _per_step("spatial-edges", v["spatial-edges"], T, _is_pair)
    prec = v["spatial-precision"]
    if isinstance(prec, list):
        prec = _per_step("spatial-precision", prec, T, is_number)
    else:
        prec = [[prec] * len(step_edges) for step_edges in edges]

    q = v["temporal-covariance"]
    if q.shape == ():
        q = q * np.eye(2)
    n_trans = max(T - 1, 0)
    if q.shape in ((2, 2), (K, 2, 2)):
        q = np.broadcast_to(q, (n_trans, K, 2, 2)).copy()
    elif q.shape != (n_trans, K, 2, 2):
        raise SchemaMismatch(
            "scenario JSON has a malformed value: temporal-covariance must be "
            f"a scalar, a 2x2 matrix, a (K,2,2) array, or a ({n_trans},{K},2,2) "
            f"array; got shape {q.shape}"
        )

    phases = v["ris-phase-profiles"]
    if isinstance(phases, np.ndarray):
        phases = ExplicitPhases(phases)
    elif phases["policy"] == "aligned":
        if "seed" in obj["ris-phase-profiles"]:
            raise SchemaMismatch(
                "scenario JSON has a key that does not apply: "
                "ris-phase-profiles.seed (the aligned policy draws no phases)"
            )
        phases = AlignedPhases()
    else:
        phases = RandomPhases(phases["seed"])

    v.update({"spatial-edges": edges, "spatial-precision": prec,
              "temporal-covariance": q, "ris-phase-profiles": phases})
    # Each key names the config field of the same name, with "_" for "-".
    return ScenarioConfig(**{key.replace("-", "_"): value for key, value in v.items()})


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaMismatch(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_json(obj)
