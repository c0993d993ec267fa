"""Block-structured matrices over the (step, user) grid.

All joint information matrices in this package are square with side 2*T*K,
organised in 2x2 position blocks. Block (t, k) with 0-based t in [0, T) and
k in [0, K) occupies rows/cols [2*g, 2*g+2) where g = t*K + k: step-major,
user-minor, matching the stacking order of the state vector.

A track's joint information is a time chain, block tridiagonal in steps:
``ChainEfim`` keeps its per-step slices and temporal links, and
``selected_inverse`` reads the diagonal blocks of its inverse in O(T);
``ChainEfim.data`` and ``inverse_diag_blocks`` are the dense oracles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import DimensionMismatch, NotSpd, SingularEfim

# Relative eigenvalue threshold below which an information matrix is treated
# as indefinite rather than merely ill-conditioned.
SPD_RELATIVE_FLOOR = 1e-10

# Relative asymmetry above which symmetrisation is considered lossy.
ASYMMETRY_WARN = 1e-8


def block_index(t: int, k: int, n_users: int) -> int:
    """Flat block index of step t, user k (both 0-based)."""
    return t * n_users + k


def block_slice(g: int) -> slice:
    """Row/column slice of flat block index g."""
    return slice(2 * g, 2 * g + 2)


def symmetrize(mat: np.ndarray, warn_label: str | None = None) -> np.ndarray:
    """Return (X + X^T)/2 over the last two axes, warning if the raw
    asymmetry is beyond round-off.

    Parameters
    ----------
    mat : ndarray
        Square matrix, or a stack of them, nominally symmetric up to
        floating-point noise.
    warn_label : str, optional
        If given, emit a warning naming this quantity when the relative
        asymmetry of the whole stack exceeds the documented threshold.
    """
    sym = 0.5 * (mat + mat.mT)
    if warn_label is not None:
        scale = np.linalg.norm(mat)
        if scale > 0.0:
            asym = np.linalg.norm(mat - mat.mT) / scale
            if asym > ASYMMETRY_WARN:
                warnings.warn(
                    f"{warn_label}: relative asymmetry {asym:.3e} exceeds "
                    f"{ASYMMETRY_WARN:.0e}; symmetrised result may hide a bug",
                    stacklevel=2,
                )
    return sym


def is_spd(mat: np.ndarray) -> bool:
    """Whether a symmetric matrix is positive definite to working tolerance.

    The cutoff scales with the spectral norm: min eig > 1e-10 * ||X||_2,
    so a pure zero matrix is rejected and grading is scale-free.
    """
    sym = 0.5 * (mat + mat.T)
    eigs = np.linalg.eigvalsh(sym)
    top = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if top == 0.0:
        return False
    return float(eigs[0]) > SPD_RELATIVE_FLOOR * top


def require_spd(mat: np.ndarray, label: str) -> None:
    """Raise NotSpd if ``mat`` fails the scale-free SPD test."""
    if not is_spd(mat):
        raise NotSpd(f"{label} is not symmetric positive definite")


def spd_sqrt_and_inv_sqrt(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix square root and inverse square root of an SPD matrix.

    Eigenvalues are floored at 1e-14 * ||X||_2 before taking roots so that
    nearly singular inputs fail loudly downstream instead of producing NaNs.
    """
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    floor = 1e-14 * float(np.max(np.abs(vals))) if vals.size else 0.0
    if np.any(vals <= floor):
        raise NotSpd("matrix square root requested for a non-PD matrix")
    root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    inv_root = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    return root, inv_root


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """(..., K, 2, 2) stack -> (..., 2K, 2K) block diagonal."""
    K = blocks.shape[-3]
    out = np.zeros(blocks.shape[:-3] + (2 * K, 2 * K))
    for k in range(K):
        out[..., 2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = blocks[..., k, :, :]
    return out


def diag_blocks(mat: np.ndarray) -> np.ndarray:
    """(..., 2K, 2K) matrix -> (..., K, 2, 2) stack of its diagonal blocks."""
    K = mat.shape[-1] // 2
    return np.stack(
        [mat[..., 2 * k : 2 * k + 2, 2 * k : 2 * k + 2] for k in range(K)], axis=-3
    )


def inverse_diag_blocks(mat: np.ndarray) -> np.ndarray:
    """(2n, 2n) information matrix -> (n, 2, 2) diagonal blocks of its inverse.

    One Cholesky factorisation and one solve against the identity; raises
    SingularEfim when ``mat`` is not positive definite.
    """
    try:
        chol = cho_factor(mat, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularEfim("EFIM is not positive definite") from exc
    return diag_blocks(cho_solve(chol, np.eye(mat.shape[0])))


def off_part(mat: np.ndarray) -> np.ndarray:
    """Positive coupling part: minus the matrix with its diagonal blocks zeroed."""
    return block_diag(diag_blocks(mat)) - mat


def neumann_diag_block(
    walk: np.ndarray, g: int, max_terms: int, tol: float
) -> tuple[np.ndarray, int, bool]:
    """Sum over n >= 1 of the (g, g) 2x2 block of walk^n.

    Propagates a (side, 2) slab so no matrix power is ever formed. The sum
    stops once the whole slab's norm drops below ``tol``: a single diagonal
    term can vanish structurally (odd powers of a hollow walk) long before
    the tail does. Returns the sum, the number of powers accumulated, and
    whether the tolerance was met within ``max_terms``.
    """
    rows = block_slice(g)
    slab = np.zeros((walk.shape[0], 2))
    slab[rows, :] = np.eye(2)
    total = np.zeros((2, 2))
    for n in range(1, max_terms + 1):
        slab = walk @ slab
        total = total + slab[rows, :]
        if np.linalg.norm(slab) < tol:
            return total, n, True
    return total, max_terms, False


def add_edge_blocks(mat: np.ndarray, pairs, weights) -> np.ndarray:
    """Stamp weighted edges between 2x2 blocks of ``mat``, in place.

    An edge (g, h) with 2x2 weight W adds +W to blocks (g, g) and (h, h)
    and -W to blocks (g, h) and (h, g), so block rows of the stamp sum to
    zero. Edges are stamped in the order given. Returns ``mat``.
    """
    for (g, h), weight in zip(pairs, weights):
        sg, sh = block_slice(g), block_slice(h)
        mat[sg, sg] += weight
        mat[sh, sh] += weight
        mat[sg, sh] -= weight
        mat[sh, sg] -= weight
    return mat


@dataclass(frozen=True)
class ChainEfim:
    """Information matrix J of a time chain, kept in chain form.

    ``slices`` (T, 2K, 2K) holds one slice per step and ``links``
    (T-1, K, 2, 2) the temporal weights, entry (t, k) an edge between
    states (t, k) and (t+1, k); both are read-only copies. J's diagonal
    blocks A_t (``own``) are the slices plus every link into and out of
    step t; its off-diagonal blocks are -Gamma_t, the block diagonal of
    ``links[t]``. ``data``, the dense (2TK, 2TK) J, is built on first read.
    """

    slices: np.ndarray
    links: np.ndarray
    n_steps: int = field(init=False)
    n_users: int = field(init=False)

    def __post_init__(self) -> None:
        slices, links = np.array(self.slices, dtype=float), np.array(self.links, dtype=float)
        T, K = len(slices), slices.shape[-1] // 2
        if slices.shape != (T, 2 * K, 2 * K) or links.shape != (T - 1, K, 2, 2):
            raise DimensionMismatch(
                f"chain slices {slices.shape} and links {links.shape} are not (T, 2K, 2K), (T-1, K, 2, 2)"
            )
        slices.flags.writeable = links.flags.writeable = False
        for name, value in (("slices", slices), ("links", links), ("n_steps", T), ("n_users", K)):
            object.__setattr__(self, name, value)

    @property
    def side(self) -> int:
        return 2 * self.n_steps * self.n_users

    @cached_property
    def own(self) -> np.ndarray:
        """(T, 2K, 2K) diagonal blocks A_t of J."""
        pad = np.zeros((1,) + self.links.shape[1:])
        into, out = np.concatenate([pad, self.links]), np.concatenate([self.links, pad])
        return self.slices + block_diag(into + out)

    @cached_property
    def data(self) -> np.ndarray:
        """The dense (2TK, 2TK) J, read-only."""
        T, side, steps = self.n_steps, 2 * self.n_users, np.arange(self.n_steps)
        dense = np.zeros((T, side, T, side))
        dense[steps, :, steps, :] = self.own
        links = -block_diag(self.links)
        dense[steps[:-1], :, steps[1:], :] = links
        dense[steps[1:], :, steps[:-1], :] = links
        dense = dense.reshape(self.side, self.side)
        dense.flags.writeable = False
        return dense


def selected_inverse(efim: ChainEfim) -> np.ndarray:
    """(T, 2K, 2K) diagonal blocks Sigma_t of J^{-1}, without forming J.

    Forward: S_0 = A_0 and S_t = A_t - Gamma_{t-1} S_{t-1}^{-1} Gamma_{t-1},
    one Cholesky per step; a failed pivot raises SingularEfim. Backward
    (Rauch, Tung & Striebel 1965; Takahashi, Fagan & Chin 1973):
    Sigma_t = S_t^{-1} + L_t Sigma_{t+1} L_t^T, L_t = S_t^{-1} Gamma_t.
    """
    gamma = block_diag(np.asarray_chkfinite(efim.links))
    sigma = np.empty_like(efim.own)  # S_t^{-1}, then Sigma_t from the last step back
    for t, own in enumerate(np.asarray_chkfinite(efim.own)):
        schur = own - gamma[t - 1] @ sigma[t - 1] @ gamma[t - 1] if t else own
        chol, info = dpotrf(schur, lower=1)
        if info:
            raise SingularEfim(f"EFIM is not positive definite: pivot of step {t} failed")
        inv_chol = dtrtri(chol, lower=1)[0]
        sigma[t] = inv_chol.T @ inv_chol
    gain = sigma[:-1] @ gamma
    for t in range(efim.n_steps - 2, -1, -1):
        sigma[t] += gain[t] @ sigma[t + 1] @ gain[t].T
    return sigma
