"""Shared generators and helpers for the test suite.

Fixed scenarios are the shipped ``configs/*.json`` with a few keys
overridden (``config_dict``, ``shipped_scenario``).
Random scenarios keep the reflecting surfaces at well-spread bearings
around the user cluster. That keeps every surface-to-user link away from
the horizontal axis (where the arrival-angle derivative degenerates) and
keeps the measurement blocks well conditioned, so the information walk
contracts and the coupling identities can be checked at tight tolerances.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from loctrack.fim import measurement_fim, prior_fim
from loctrack.recursive import constant_inputs, recursive_step, step_inputs
from loctrack.scenario import (
    DEFAULT_BURN_IN,
    PRIOR_L2,
    AlignedPhases,
    ExplicitPhases,
    RandomPhases,
    ScenarioConfig,
    prior_model,
    random_walk_trajectory,
    scenario_from_json,
    validate,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_dict(name: str = "toy", num_users: int | None = None, **overrides) -> dict:
    """``configs/<name>.json`` as a dict, with overrides for its keys.

    A keyword names a kebab-case key with ``_`` for ``-`` (``num_steps``
    sets ``num-steps``). A new ``num_users`` takes the first K users of
    ``paper_baseline.json`` and links every pair of them.
    """
    obj = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    if num_users is not None:
        users = config_dict("paper_baseline")["user-initial-positions"]
        obj["num-users"] = num_users
        obj["user-initial-positions"] = users[:num_users]
        obj["spatial-edges"] = [
            [i, j] for i in range(num_users) for j in range(i + 1, num_users)
        ]
    obj.update({key.replace("_", "-"): value for key, value in overrides.items()})
    return obj


def shipped_scenario(name: str = "toy", **overrides) -> ScenarioConfig:
    """The scenario of ``config_dict(name, **overrides)``."""
    return scenario_from_json(config_dict(name, **overrides))


# Links this far (in sine terms) off the horizontal keep the angle
# derivative well defined even after a few random-walk steps.
_BEARING_SINE_FLOOR = 0.3


def spread_bearings(rng: np.random.Generator, count: int) -> np.ndarray:
    """Roughly evenly spaced bearings, nudged off the horizontal axis."""
    base = rng.uniform(0.0, 2.0 * math.pi)
    bearings = base + np.arange(count) * (2.0 * math.pi / max(count, 1))
    bearings = bearings + rng.uniform(-0.2, 0.2, size=count)
    for idx in range(count):
        while abs(math.sin(bearings[idx])) < _BEARING_SINE_FLOOR:
            bearings[idx] += 0.35
    return np.mod(bearings, 2.0 * math.pi)


def random_scenario(
    rng: np.random.Generator,
    num_users: int | None = None,
    num_steps: int | None = None,
    num_ris: int | None = None,
    noise_variance: float | None = None,
    prior_kind: str = PRIOR_L2,
    phase_style: str = "aligned",
):
    """Random small deployment plus a random-walk trajectory on it.

    Users sit on a small circle around a random centre, surfaces 30-60 m
    out at spread bearings, the base station 80-120 m away. Returns the
    validated config and a seeded trajectory.
    """
    K = int(num_users if num_users is not None else rng.integers(1, 4))
    T = int(num_steps if num_steps is not None else rng.integers(2, 5))
    R = int(num_ris if num_ris is not None else rng.integers(2, 5))

    centre = rng.uniform(-20.0, 20.0, size=2)
    user_radius = rng.uniform(2.5, 4.0)
    user_angles = rng.uniform(0.0, 2.0 * math.pi) + np.arange(K) * (
        2.0 * math.pi / max(K, 1)
    )
    users = centre + user_radius * np.stack(
        [np.cos(user_angles), np.sin(user_angles)], axis=1
    )
    users = users + rng.uniform(-0.3, 0.3, size=(K, 2))

    bearings = spread_bearings(rng, R)
    ris_dists = rng.uniform(30.0, 60.0, size=R)
    surfaces = centre + ris_dists[:, None] * np.stack(
        [np.cos(bearings), np.sin(bearings)], axis=1
    )

    bs_bearing = rng.uniform(0.0, 2.0 * math.pi)
    bs = centre + rng.uniform(80.0, 120.0) * np.array(
        [math.cos(bs_bearing), math.sin(bs_bearing)]
    )

    if noise_variance is None:
        noise_variance = float(10.0 ** rng.uniform(-9.0, -7.0))
    spatial = float(10.0 ** rng.uniform(0.0, 1.3))
    walk_var = float(10.0 ** rng.uniform(-1.3, -0.5))
    edges = [(i, j) for i in range(K) for j in range(i + 1, K)]

    if phase_style == "aligned":
        phases = AlignedPhases()
    elif phase_style == "random":
        phases = RandomPhases(seed=int(rng.integers(2**31)))
    elif phase_style == "explicit":
        phases = ExplicitPhases(rng.uniform(0.0, 2.0 * math.pi, size=(T, R, 16)))
    else:
        raise ValueError(f"unknown phase style {phase_style!r}")

    config = ScenarioConfig(
        bs_position=bs,
        ris_positions=surfaces,
        user_initial_positions=users,
        num_users=K,
        num_ris=R,
        num_steps=T,
        n_bs_antennas=16,
        n_ris_elements=16,
        carrier_frequency_hz=28e9,
        path_loss_exponent=-2.08,
        rician_factor_br=100.0,
        rician_factor_ru=100.0,
        noise_variance=noise_variance,
        transmit_power=0.01,
        pilot_length=8,
        ris_phase_profiles=phases,
        spatial_edges=[edges] * T,
        spatial_precision=[[spatial] * len(edges)] * T,
        temporal_covariance=np.broadcast_to(
            walk_var * np.eye(2), (max(T - 1, 0), K, 2, 2)
        ).copy(),
        first_step_anchor_variance=float(rng.uniform(0.5, 2.0)),
        prior_kind=prior_kind,
    )
    report = validate(config)
    assert report.ok, str(report)
    trajectory = random_walk_trajectory(config, seed=int(rng.integers(2**31)))
    return config, trajectory


def rel_frobenius(actual: np.ndarray, expected: np.ndarray) -> float:
    """Relative Frobenius distance, guarded against a zero reference."""
    denom = max(float(np.linalg.norm(expected)), 1e-300)
    return float(np.linalg.norm(np.asarray(actual) - np.asarray(expected))) / denom


def iterate_fixed_point(
    m: np.ndarray,
    t_mat: np.ndarray,
    j_init: np.ndarray,
    max_steps: int = 20_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Iterate J <- M + T - T (J + T)^{-1} T from ``j_init`` to stagnation.

    The oracle the closed-form fixed point is checked against: it stops
    once a step moves J by less than ``tol`` (relative Frobenius) and
    fails the test if ``max_steps`` steps do not get there.
    """
    j = np.asarray(j_init, dtype=float)
    for _ in range(max_steps):
        j_next = m + t_mat - t_mat @ np.linalg.solve(j + t_mat, t_mat)
        j_next = 0.5 * (j_next + j_next.T)
        moved = np.linalg.norm(j_next - j) / max(np.linalg.norm(j), 1e-300)
        j = j_next
        if moved < tol:
            return j
    raise AssertionError(f"fixed-point iteration did not settle in {max_steps} steps")


def stepwise_recursion(
    config: ScenarioConfig,
    trajectory,
    constant_from_step: int | None = None,
    disturbance_steps=(),
    disturbance_scale: float = 1.0,
    trajectory_ensemble=None,
) -> list:
    """Oracle ``run_recursion``: one ``recursive_step`` call at every step.

    Prepares the same inputs as ``run_recursion`` (under constant inputs
    one shared ``StepInputs`` per first-step flag and scale) but never
    repeats a state, so a state that ``run_recursion`` repeats at a fixed
    point must equal the step this runs there bit for bit.
    """
    disturbed = {int(s) for s in disturbance_steps}
    constant = constant_from_step is not None
    if constant:
        frozen = constant_inputs(
            config, trajectory, step=constant_from_step,
            trajectory_ensemble=trajectory_ensemble,
        )
        prepared = {(False, 1.0): frozen}
    else:
        pfim = prior_fim(prior_model(config, include_anchor=False), trajectory_ensemble)
        lambda_d = measurement_fim(config, trajectory)

    def prepare(t: int, scale: float):
        if constant:
            lam, spatial = frozen.lambda_d, frozen.spatial_slice
            gamma = frozen.gamma if t else None
        else:
            lam, spatial = lambda_d[t], pfim.spatial_slices[t]
            gamma = pfim.temporal[t - 1] if t else None
        return step_inputs(t, scale * lam, spatial, gamma)

    states, prev = [], None
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
    for (i, j), c in zip(config.spatial_edges[t], config.spatial_precision[t]):
        if k == i or k == j:
            other = j if k == i else i
            diff = here - pos[:, t, other, :]
            out -= 0.5 * c * np.linalg.norm(diff, axis=1)
    return out


def site_by_site_l1_ensemble(
    config: ScenarioConfig, count: int, seed: int, burn_in: int = DEFAULT_BURN_IN
) -> np.ndarray:
    """Oracle l1-norm sampler: one Metropolis step per (t, k) site in turn.

    Metropolis-within-Gibbs in its plainest form, vectorised only across
    chains, with the step size rule of ``sample_trajectory_ensemble``. It
    draws the chains' jitter and moves from ``default_rng(seed)``. The
    colour-class sampler must match its distribution, not its bytes.
    """
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


def central_difference(f, x: np.ndarray, h: float) -> np.ndarray:
    """Columnwise central differences of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        hi = np.zeros_like(x)
        hi[i] = h
        cols.append((np.asarray(f(x + hi)) - np.asarray(f(x - hi))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so each call appends to the returned list."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20240824)
