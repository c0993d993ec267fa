"""Block-matrix utilities and the chain pass against direct linear-algebra oracles."""

import numpy as np
import pytest

from loctrack.blocks import (
    ChainEfim,
    add_edge_blocks,
    block_diag,
    block_index,
    block_slice,
    diag_blocks,
    inverse_diag_blocks,
    is_spd,
    neumann_diag_block,
    require_spd,
    selected_inverse,
    spd_sqrt_and_inv_sqrt,
    symmetrize,
)
from loctrack.errors import DimensionMismatch, NotSpd, SingularEfim


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


def test_block_index_layout_matches_manual_embedding(rng):
    T, K = 3, 2
    blocks = rng.standard_normal((T, K, 2, 2))
    slices = np.stack([block_diag(blocks[t]) for t in range(T)])
    mat = ChainEfim(slices, np.zeros((T - 1, K, 2, 2))).data
    manual = np.zeros((2 * T * K, 2 * T * K))
    for t in range(T):
        for k in range(K):
            g = block_index(t, k, K)
            manual[block_slice(g), block_slice(g)] = blocks[t, k]
    assert np.array_equal(mat, manual)
    for t in range(T):
        for k in range(K):
            g = block_slice(block_index(t, k, K))
            assert np.array_equal(mat[g, g], blocks[t, k])


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
    """The dense view C of a chain has x^T C x = sum_t x_t^T S_t x_t
    + sum_{t,k} d^T Gamma_{t,k} d, d = x_{t+1,k} - x_{t,k}."""
    T, K = 3, 2
    slices = rng.standard_normal((T, 2 * K, 2 * K))
    temporal = rng.standard_normal((T - 1, K, 2, 2))
    mat = ChainEfim(slices, temporal).data
    for _ in range(5):
        x = rng.standard_normal((T, K, 2))
        want = sum(x[t].ravel() @ slices[t] @ x[t].ravel() for t in range(T))
        for t in range(T - 1):
            for k in range(K):
                d = x[t + 1, k] - x[t, k]
                want += d @ temporal[t, k] @ d
        assert x.ravel() @ mat @ x.ravel() == pytest.approx(want, rel=1e-12)


def test_chain_efim_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        ChainEfim(np.zeros((1, 5, 5)), np.zeros((0, 2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        ChainEfim(np.zeros((3, 4, 4)), np.zeros((3, 2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        ChainEfim(np.zeros((3, 4, 4)), np.zeros((2, 1, 2, 2)))


def test_chain_efim_arrays_are_read_only(rng):
    slices = rng.standard_normal((2, 2, 2))
    chain = ChainEfim(slices, rng.standard_normal((1, 1, 2, 2)))
    slices[0, 0, 0] = 7.0
    assert chain.slices[0, 0, 0] != 7.0
    for arr in (chain.slices, chain.links, chain.data):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def random_chain(rng, T, K, link_scale=1.0):
    """SPD chain: random SPD slices plus SPD links of the given size."""
    slices = np.stack([random_spd(rng, 2 * K, condition=1e2) for _ in range(T)])
    links = np.array(
        [[link_scale * random_spd(rng, 2, condition=10.0) for _ in range(K)] for _ in range(T - 1)]
    ).reshape(T - 1, K, 2, 2)
    return ChainEfim(slices, links)


def test_chain_own_blocks_are_the_dense_diagonal(rng):
    chain = random_chain(rng, 4, 3)
    side = 2 * chain.n_users
    for t in range(chain.n_steps):
        rows = slice(t * side, (t + 1) * side)
        assert np.array_equal(chain.own[t], chain.data[rows, rows])


@pytest.mark.parametrize(("T", "K"), [(1, 1), (1, 3), (2, 2), (7, 3), (40, 2)])
@pytest.mark.parametrize("link_scale", [1e-3, 1.0, 1e3])
def test_selected_inverse_matches_the_dense_inverse(rng, T, K, link_scale):
    """Sigma_t of the chain pass equals J^{-1}'s diagonal slices, and its
    2x2 diagonal blocks the dense Cholesky route's."""
    chain = random_chain(rng, T, K, link_scale)
    sigma = selected_inverse(chain)
    inverse = np.linalg.inv(chain.data)
    side = 2 * K
    for t in range(T):
        rows = slice(t * side, (t + 1) * side)
        want = inverse[rows, rows]
        assert np.linalg.norm(sigma[t] - want) <= 1e-12 * np.linalg.norm(want)
    dense = inverse_diag_blocks(chain.data).reshape(T, K, 2, 2)
    gap = np.linalg.norm(diag_blocks(sigma) - dense, axis=(2, 3))
    assert np.all(gap <= 1e-12 * np.linalg.norm(dense, axis=(2, 3)))


@pytest.mark.parametrize("step", [0, 3, 5])
def test_selected_inverse_raises_at_the_failed_pivot(rng, step):
    """An indefinite J fails the forward Cholesky at the first step whose
    Schur complement is not positive definite."""
    chain = random_chain(rng, 6, 2)
    slices = np.array(chain.slices)
    slices[step] -= (np.linalg.eigvalsh(chain.data)[-1] + 1.0) * np.eye(4)
    bad = ChainEfim(slices, chain.links)
    with pytest.raises(SingularEfim, match=f"pivot of step {step} failed"):
        selected_inverse(bad)


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
