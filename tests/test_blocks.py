"""Block-matrix utilities against direct linear-algebra oracles."""

import numpy as np
import pytest

from loctrack.blocks import (
    BlockMatrix,
    add_edge_blocks,
    block_diag,
    block_index,
    block_slice,
    chain_matrix,
    is_spd,
    neumann_diag_block,
    require_spd,
    spd_sqrt_and_inv_sqrt,
    spectral_radius,
    symmetrize,
)
from loctrack.errors import DimensionMismatch, NotSpd


def random_spd(rng, n, condition=1e3):
    """SPD matrix with log-uniform spectrum up to the given condition."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = 10.0 ** rng.uniform(0.0, np.log10(condition), size=n)
    return q @ np.diag(eigs) @ q.T


def test_symmetrize_returns_symmetric_average(rng):
    mat = rng.standard_normal((5, 5))
    sym = symmetrize(mat)
    assert np.array_equal(sym, sym.T)
    assert np.allclose(sym, 0.5 * (mat + mat.T))


def test_symmetrize_warns_on_gross_asymmetry(rng):
    mat = np.eye(3)
    mat[0, 1] = 0.5
    with pytest.warns(UserWarning):
        symmetrize(mat, warn_label="test matrix")


def test_symmetrize_quiet_below_threshold():
    mat = np.eye(3)
    mat[0, 1] = 1e-12
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        symmetrize(mat, warn_label="test matrix")


def test_is_spd_accepts_random_spd(rng):
    for n in (1, 2, 5, 8):
        assert is_spd(random_spd(rng, n))


def test_is_spd_rejects_indefinite_and_zero(rng):
    assert not is_spd(np.zeros((3, 3)))
    assert not is_spd(np.diag([1.0, -1.0, 2.0]))
    require_spd(np.eye(2), "identity")
    with pytest.raises(NotSpd):
        require_spd(np.diag([1.0, 0.0]), "singular diag")


def test_spd_sqrt_round_trip(rng):
    for _ in range(10):
        mat = random_spd(rng, 4)
        root, inv_root = spd_sqrt_and_inv_sqrt(mat)
        assert np.allclose(root @ root, mat, rtol=1e-10, atol=1e-12)
        assert np.allclose(root @ inv_root, np.eye(4), rtol=0, atol=1e-10)
        assert np.allclose(root, root.T)


def test_spd_sqrt_rejects_singular():
    with pytest.raises(NotSpd):
        spd_sqrt_and_inv_sqrt(np.diag([1.0, 0.0]))


def test_spectral_radius_matches_eigvals(rng):
    for _ in range(10):
        mat = rng.standard_normal((6, 6))
        want = float(np.max(np.abs(np.linalg.eigvals(mat))))
        got = spectral_radius(mat)
        assert got == pytest.approx(want, rel=1e-5)


def test_block_index_layout_matches_manual_embedding(rng):
    T, K = 3, 2
    blocks = rng.standard_normal((T, K, 2, 2))
    slices = np.stack([block_diag(blocks[t]) for t in range(T)])
    bm = chain_matrix(slices, np.zeros((T - 1, K, 2, 2)))
    manual = np.zeros((2 * T * K, 2 * T * K))
    for t in range(T):
        for k in range(K):
            g = block_index(t, k, K)
            manual[block_slice(g), block_slice(g)] = blocks[t, k]
    assert np.array_equal(bm.data, manual)
    for t in range(T):
        for k in range(K):
            assert np.array_equal(bm.diag_block(t, k), blocks[t, k])


def test_add_edge_blocks_stamps_four_blocks(rng):
    weights = rng.standard_normal((2, 2, 2))
    mat = add_edge_blocks(np.zeros((6, 6)), [(0, 2), (2, 1)], weights)
    w0, w1 = weights
    want = np.zeros((3, 3, 2, 2))
    want[0, 0] += w0
    want[2, 2] += w0 + w1
    want[1, 1] += w1
    want[0, 2] -= w0
    want[2, 0] -= w0
    want[2, 1] -= w1
    want[1, 2] -= w1
    assert np.array_equal(mat, want.transpose(0, 2, 1, 3).reshape(6, 6))


def test_chain_matrix_links_each_user_to_its_next_step(rng):
    """x^T C x = sum_t x_t^T S_t x_t + sum_{t,k} d^T Gamma_{t,k} d, d = x_{t+1,k} - x_{t,k}."""
    T, K = 3, 2
    slices = rng.standard_normal((T, 2 * K, 2 * K))
    temporal = rng.standard_normal((T - 1, K, 2, 2))
    mat = chain_matrix(slices, temporal).data
    for _ in range(5):
        x = rng.standard_normal((T, K, 2))
        want = sum(x[t].ravel() @ slices[t] @ x[t].ravel() for t in range(T))
        for t in range(T - 1):
            for k in range(K):
                d = x[t + 1, k] - x[t, k]
                want += d @ temporal[t, k] @ d
        assert x.ravel() @ mat @ x.ravel() == pytest.approx(want, rel=1e-12)


def test_block_matrix_rejects_wrong_side():
    with pytest.raises(DimensionMismatch):
        BlockMatrix(np.zeros((5, 5)), 1, 2)


def test_block_matrix_data_is_read_only(rng):
    bm = BlockMatrix(block_diag(rng.standard_normal((2, 2, 2))), 2, 1)
    with pytest.raises(ValueError):
        bm.data[0, 0] = 1.0


def test_neumann_sum_survives_zero_odd_terms():
    """A hollow two-state walk has zero diagonal blocks on every odd power,
    so the sum must not stop on a vanishing diagonal term."""
    a = 0.5
    walk = np.zeros((4, 4))
    walk[0:2, 2:4] = a * np.eye(2)
    walk[2:4, 0:2] = a * np.eye(2)
    total, terms, converged = neumann_diag_block(walk, 0, 10_000, 1e-10)
    assert converged
    assert terms > 2
    # sum over even n >= 2 of a^n
    assert np.allclose(total, a**2 / (1.0 - a**2) * np.eye(2), rtol=0, atol=1e-10)
    # one term is the zero odd power; the budget runs out before tol is met
    first, terms, converged = neumann_diag_block(walk, 0, 1, 1e-10)
    assert (terms, converged) == (1, False)
    assert np.array_equal(first, np.zeros((2, 2)))
