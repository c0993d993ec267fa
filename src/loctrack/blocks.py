"""Dense block-structured matrices over the (step, user) grid.

All joint information matrices in this package are square with side 2*T*K,
organised in 2x2 position blocks. Block (t, k) with 0-based t in [0, T) and
k in [0, K) occupies rows/cols [2*g, 2*g+2) where g = t*K + k: step-major,
user-minor, matching the stacking order of the state vector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSpd

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
    """Return (X + X.T)/2, warning if the raw asymmetry is beyond round-off.

    Parameters
    ----------
    mat : ndarray
        Square matrix, nominally symmetric up to floating-point noise.
    warn_label : str, optional
        If given, emit a warning naming this quantity when the relative
        asymmetry exceeds the documented threshold.
    """
    sym = 0.5 * (mat + mat.T)
    if warn_label is not None:
        scale = np.linalg.norm(mat)
        if scale > 0.0:
            asym = np.linalg.norm(mat - mat.T) / scale
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


@dataclass(frozen=True)
class BlockMatrix:
    """Square matrix over the (step, user) grid of 2x2 position blocks.

    Attributes
    ----------
    data : ndarray
        Dense (2*T*K, 2*T*K) array. Marked read-only on construction.
    n_steps, n_users : int
        Grid dimensions T and K.
    """

    data: np.ndarray
    n_steps: int
    n_users: int

    def __post_init__(self) -> None:
        side = 2 * self.n_steps * self.n_users
        arr = np.asarray(self.data, dtype=float)
        if arr.shape != (side, side):
            raise DimensionMismatch(
                f"block matrix must be {side}x{side} for T={self.n_steps}, "
                f"K={self.n_users}; got {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def side(self) -> int:
        return 2 * self.n_steps * self.n_users


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """(K, 2, 2) stack -> (2K, 2K) block diagonal."""
    K = blocks.shape[0]
    out = np.zeros((2 * K, 2 * K))
    for k in range(K):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = blocks[k]
    return out


def diag_blocks(mat: np.ndarray) -> np.ndarray:
    """(2K, 2K) matrix -> (K, 2, 2) stack of its diagonal blocks."""
    K = mat.shape[0] // 2
    return np.stack([mat[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] for k in range(K)])


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


def chain_matrix(slices: np.ndarray, temporal: np.ndarray) -> np.ndarray:
    """Dense (2TK, 2TK) time-chain information matrix over the (step, user) grid.

    ``slices`` (T, 2K, 2K) go on the block diagonal, one per step;
    ``temporal`` (T-1, K, 2, 2) holds the link weights, entry (t, k) stamped
    as an edge between states (t, k) and (t+1, k). The links are summed in
    their own matrix and added to the slices once.
    """
    slices = np.asarray(slices, dtype=float)
    T, K = slices.shape[0], slices.shape[1] // 2
    mat = np.zeros((2 * T * K, 2 * T * K))
    for t in range(T):
        mat[2 * t * K : 2 * (t + 1) * K, 2 * t * K : 2 * (t + 1) * K] = slices[t]
    pairs = [(g, g + K) for g in range(K * (T - 1))]
    weights = np.asarray(temporal, dtype=float).reshape(-1, 2, 2)
    mat += add_edge_blocks(np.zeros_like(mat), pairs, weights)
    return mat
