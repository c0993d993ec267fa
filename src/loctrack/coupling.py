"""Information-coupling analysis of the assembled EFIM.

The assembled information J splits as J = D - A: D keeps each state's own
(nominal) information, the diagonal blocks of J (measurement block plus
the diagonal blocks of both prior parts), and A carries the nonnegative
couplings between states (zero diagonal blocks). ``split_d_a(efim, pfim)``
reads D off J itself; the prior supplies only its step-0 anchor precision.
A is not kept: the random-walk readings build it from J when they need it.
Left-normalising by D gives a transition operator Q = D^{-1} A whose rows,
together with the absorption column R = D^{-1} (measurement + anchor)
blocks, sum to identity: the information flow behaves like an absorbing
random walk over (step, user) states. ``build_ptpm(split, lambda_d)`` takes
the measurement part as the (T, K, 2, 2) array ``fim.measurement_fim``
returns and adds the anchor at step 0.

Three quantities per state follow:

* the coupling excess Delta = sum_{n>=1} [Q^n] restricted to the state,
  so that the marginal EFIM is D (I + Delta)^{-1};
* the efficiency-of-coupling matrix E = (I + Delta)^{-1}, whose half-trace
  in [0, 1] scores how much nominal information survives marginalisation;
* first-passage probabilities of the walk: F (return to the state before
  absorption) and F_to_B (absorption first), with F + F_to_B = I and
  F_to_B = E.

``eoc_report`` takes Delta and E from the diagonal blocks of one dense
inverse of J. The walk itself (``build_ptpm``, ``hitting_probabilities``,
``delta_series``) is the random-walk reading of the same numbers and the
reference the identities are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

import numpy.linalg as npl

from .blocks import (
    BlockMatrix,
    block_diag,
    block_index,
    block_slice,
    diag_blocks,
    neumann_diag_block,
    off_part,
    spd_sqrt_and_inv_sqrt,
)
from .errors import (
    DimensionMismatch,
    SeriesDiverged,
    SingularBlock,
    SingularEfim,
    SingularInner,
)
from .fim import PriorFim

__all__ = [
    "DASplit",
    "EocReport",
    "HittingProbabilities",
    "Ptpm",
    "SeriesResult",
    "build_ptpm",
    "delta_direct",
    "delta_series",
    "eoc_report",
    "hitting_probabilities",
    "split_d_a",
]

# Truncation of the coupling Neumann series.
SERIES_MAX_TERMS = 10_000
SERIES_TOL = 1e-10


@dataclass(frozen=True)
class DASplit:
    """Diagonal/coupling split J = D - A of an assembled EFIM.

    ``nominal_blocks`` holds the (T, K, 2, 2) diagonal D and ``efim`` the
    split matrix J itself (not a copy). The coupling A = D - J, with zero
    diagonal blocks and +precision couplings off them, is built only by
    the random-walk readings that need it (``coupling``).
    ``anchor_precision`` is the step-0 anchor (0.0 when left out), prior
    information that the walk absorbs like a measurement, so that
    absorption rows balance.
    """

    nominal_blocks: np.ndarray
    efim: BlockMatrix
    anchor_precision: float

    @property
    def n_steps(self) -> int:
        return self.nominal_blocks.shape[0]

    @property
    def n_users(self) -> int:
        return self.nominal_blocks.shape[1]

    def coupling(self) -> np.ndarray:
        """The dense (2TK, 2TK) coupling A = D - J, built on each call."""
        return off_part(self.efim.data)


def split_d_a(efim: BlockMatrix, pfim: PriorFim) -> DASplit:
    """Split the EFIM into nominal diagonal and coupling off-diagonal parts.

    A is hollow by definition, so D is read off the EFIM's own diagonal
    blocks and A = D - J has exactly zero diagonal blocks.
    """
    T, K = efim.n_steps, efim.n_users
    if (pfim.n_steps, pfim.n_users) != (T, K):
        raise DimensionMismatch("EFIM and prior grids disagree")
    return DASplit(
        nominal_blocks=diag_blocks(efim.data).reshape(T, K, 2, 2),
        efim=efim,
        anchor_precision=pfim.anchor_precision,
    )


@dataclass(frozen=True)
class Ptpm:
    """Pseudo transition probability matrix of the information walk.

    ``transient`` is the (2TK, 2TK) operator Q = D^{-1} A between transient
    states; ``absorption`` the (2TK, 2) column R into the absorbing state.
    Every block row of [Q, R] sums to the 2x2 identity.
    """

    transient: np.ndarray
    absorption: np.ndarray
    n_steps: int
    n_users: int

    def row_sum_residual(self) -> float:
        """Largest block-row deviation from the identity row sum."""
        stacked = np.tile(np.eye(2), (self.n_steps * self.n_users, 1))
        resid = self.transient @ stacked + self.absorption - stacked
        return float(np.max(np.abs(resid)))


def _solve_nominal(split: DASplit, t: int, k: int, rhs: np.ndarray) -> np.ndarray:
    try:
        return npl.solve(split.nominal_blocks[t, k], rhs)
    except npl.LinAlgError as exc:
        raise SingularBlock(
            f"nominal information block ({t}, {k}) is singular"
        ) from exc


def _transient(split: DASplit, coupling: np.ndarray) -> np.ndarray:
    """The walk operator Q = D^{-1} A, solved block row by block row."""
    T, K = split.n_steps, split.n_users
    transient = np.zeros_like(coupling)
    for t in range(T):
        for k in range(K):
            rows = block_slice(block_index(t, k, K))
            transient[rows, :] = _solve_nominal(split, t, k, coupling[rows, :])
    return transient


def build_ptpm(split: DASplit, lambda_d: np.ndarray) -> Ptpm:
    """Left-normalise the split by D into walk operators Q and R.

    The absorption column collects the truly external information of each
    state: its (T, K, 2, 2) measurement block plus, at step 0, the anchor
    precision times I. Both tie the state to something outside the
    (step, user) grid, which is exactly what absorption means for the walk.
    """
    T, K = split.n_steps, split.n_users
    external = np.array(lambda_d, dtype=float)
    external[0] += split.anchor_precision * np.eye(2)
    absorption = np.zeros((2 * T * K, 2))
    for t in range(T):
        for k in range(K):
            rows = block_slice(block_index(t, k, K))
            absorption[rows, :] = _solve_nominal(split, t, k, external[t, k])
    return Ptpm(
        transient=_transient(split, split.coupling()),
        absorption=absorption,
        n_steps=T,
        n_users=K,
    )


@dataclass(frozen=True)
class SeriesResult:
    """Truncated Neumann sum of the coupling excess for one state.

    ``value`` is the raw (possibly asymmetric) 2x2 sum; ``terms_used`` how
    many powers were accumulated; ``converged`` whether the propagated slab
    fell below tolerance before the term budget ran out.
    """

    value: np.ndarray
    terms_used: int
    converged: bool
    spectral_radius: float


def coupling_spectral_radius(nominal_blocks: np.ndarray, coupling: np.ndarray) -> float:
    """Spectral radius of Q = D^{-1} A via its symmetric similar form.

    ``nominal_blocks`` holds the SPD 2x2 diagonal blocks of D in state
    order (any leading shape), ``coupling`` the symmetric A.
    D^{1/2} Q D^{-1/2} = D^{-1/2} A D^{-1/2} shares Q's (real) spectrum and
    is symmetric, so a symmetric eigensolver reads the radius off it.
    """
    inv_roots = block_diag(
        np.stack(
            [
                spd_sqrt_and_inv_sqrt(block)[1]
                for block in nominal_blocks.reshape(-1, 2, 2)
            ]
        )
    )
    similar = inv_roots @ coupling @ inv_roots
    return float(np.max(np.abs(npl.eigvalsh(similar))))


def delta_series(split: DASplit, t: int, k: int) -> SeriesResult:
    """Coupling excess of state (t, k) by explicit Neumann summation.

    Accumulates the (t, k) diagonal blocks of Q^n for n >= 1 with Q built
    once as in ``build_ptpm``. Raises SeriesDiverged when the walk operator
    has spectral radius >= 1.
    """
    coupling = split.coupling()
    radius = coupling_spectral_radius(split.nominal_blocks, coupling)
    if radius >= 1.0:
        raise SeriesDiverged(
            f"coupling operator has spectral radius {radius:.6f} >= 1; "
            "the Neumann series has no sum"
        )
    g = block_index(t, k, split.n_users)
    total, terms, converged = neumann_diag_block(
        _transient(split, coupling), g, SERIES_MAX_TERMS, SERIES_TOL
    )
    return SeriesResult(
        value=total, terms_used=terms, converged=converged, spectral_radius=radius
    )


def delta_direct(split: DASplit, t: int, k: int) -> np.ndarray:
    """Coupling excess from the full inverse: [J^{-1}]_gg D_g - I.

    J is the EFIM the split was read off (``split.efim``). Returns the raw
    matrix; it is generally not symmetric (D and the inverse block need not
    commute), and symmetrising it would break the exact identity
    D (I + Delta)^{-1} = marginal EFIM that consumers rely on.
    """
    efim = split.efim
    g = block_index(t, k, efim.n_users)
    rows = block_slice(g)
    try:
        chol = cho_factor(efim.data, lower=True)
    except npl.LinAlgError as exc:
        raise SingularEfim("EFIM is not positive definite") from exc
    rhs = np.zeros((efim.side, 2))
    rhs[rows, :] = np.eye(2)
    inv_cols = cho_solve(chol, rhs)
    inv_block = inv_cols[rows, :]
    return inv_block @ split.nominal_blocks[t, k] - np.eye(2)


@dataclass(frozen=True)
class HittingProbabilities:
    """First-passage split of the information walk started at one state.

    ``return_before_absorb`` is F (come back to the start before hitting
    the absorbing state); ``absorb_first`` is F_to_B. They sum to identity,
    and F_to_B equals the efficiency matrix (I + Delta)^{-1}.
    """

    return_before_absorb: np.ndarray
    absorb_first: np.ndarray

    def identity_residual(self) -> float:
        return float(
            np.max(np.abs(self.return_before_absorb + self.absorb_first - np.eye(2)))
        )


def hitting_probabilities(ptpm: Ptpm, t: int, k: int) -> HittingProbabilities:
    """First-passage probabilities by eliminating the other transient states.

    With the start state's rows/columns removed from Q, one linear solve
    yields both where the walk goes first: back to the start
    (F = Q_{g,-g} (I - Q_{-g})^{-1} Q_{-g,g}, the start has no self loop)
    or into absorption (F_to_B = R_g + Q_{g,-g} (I - Q_{-g})^{-1} R_{-g}).
    """
    K = ptpm.n_users
    side = 2 * ptpm.n_steps * K
    g = block_index(t, k, K)
    own = np.arange(2 * g, 2 * g + 2)
    rest = np.setdiff1d(np.arange(side), own)

    q_or = ptpm.transient[np.ix_(own, rest)]
    q_ro = ptpm.transient[np.ix_(rest, own)]
    q_rr = ptpm.transient[np.ix_(rest, rest)]
    rhs = np.concatenate([q_ro, ptpm.absorption[rest, :]], axis=1)
    try:
        solved = npl.solve(np.eye(rest.size) - q_rr, rhs)
    except npl.LinAlgError as exc:
        raise SingularInner(
            f"taboo system for state ({t}, {k}) is singular"
        ) from exc
    ret = q_or @ solved[:, :2]
    absorb = ptpm.absorption[own, :] + q_or @ solved[:, 2:]
    return HittingProbabilities(return_before_absorb=ret, absorb_first=absorb)


@dataclass(frozen=True)
class EocReport:
    """Per-state efficiency-of-coupling summary of one EFIM.

    Scalar fields are (T, K) arrays: ``eoc`` = half-trace of the efficiency
    matrix and ``bcrb`` the per-state trace bound.
    """

    eoc: np.ndarray
    bcrb: np.ndarray
    mean_eoc: float
    mean_bcrb: float
    total_bcrb: float


def eoc_report(efim: BlockMatrix, split: DASplit) -> EocReport:
    """Efficiency and bounds from one dense inverse.

    The efficiency matrix (I + Delta)^{-1} equals the walk's absorb-first
    probability F_to_B (``hitting_probabilities``), so the walk is not
    solved here.
    """
    T, K = efim.n_steps, efim.n_users
    try:
        chol = cho_factor(efim.data, lower=True)
    except npl.LinAlgError as exc:
        raise SingularEfim("EFIM is not positive definite") from exc
    inverse = cho_solve(chol, np.eye(efim.side))

    eoc = np.zeros((T, K))
    per_bcrb = np.zeros((T, K))
    for t in range(T):
        for k in range(K):
            rows = block_slice(block_index(t, k, K))
            inv_block = inverse[rows, rows]
            delta = inv_block @ split.nominal_blocks[t, k] - np.eye(2)
            eff = npl.inv(np.eye(2) + delta)
            eoc[t, k] = 0.5 * float(np.trace(eff))
            per_bcrb[t, k] = float(np.trace(inv_block))

    return EocReport(
        eoc=eoc,
        bcrb=per_bcrb,
        mean_eoc=float(np.mean(eoc)),
        mean_bcrb=float(np.mean(per_bcrb)),
        total_bcrb=float(np.trace(inverse)),
    )
