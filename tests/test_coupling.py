"""Information-coupling walk: splits, transition matrix, and identities."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenario, rel_frobenius, shipped_scenario
from loctrack.blocks import BlockMatrix, block_diag, block_index, block_slice
from loctrack.coupling import (
    DASplit,
    build_ptpm,
    delta_direct,
    delta_series,
    eoc_report,
    hitting_probabilities,
    split_d_a,
)
from loctrack.errors import SeriesDiverged
from loctrack.fim import assemble_efim, marginal_efim, measurement_fim, prior_fim
from loctrack.scenario import prior_model, static_trajectory


def build_all(config, traj, include_anchor=True):
    lambda_d = measurement_fim(config, traj)
    pfim = prior_fim(prior_model(config, include_anchor=include_anchor))
    efim = assemble_efim(lambda_d, pfim)
    split = split_d_a(efim, pfim)
    return lambda_d, pfim, efim, split


def test_split_reconstructs_efim(rng):
    for _ in range(5):
        config, traj = random_scenario(rng)
        _, _, efim, split = build_all(config, traj)
        T, K = config.num_steps, config.num_users
        assert split.efim is efim
        coupling = split.coupling()
        rebuilt = block_diag(split.nominal_blocks.reshape(T * K, 2, 2)) - coupling
        assert rel_frobenius(rebuilt, efim.data) < 1e-12
        # the coupling part carries no diagonal blocks beyond roundoff
        for t in range(T):
            for k in range(K):
                g = block_index(t, k, K)
                diag = coupling[block_slice(g), block_slice(g)]
                scale = np.linalg.norm(split.nominal_blocks[t, k])
                assert np.max(np.abs(diag)) <= 1e-12 * scale


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1))
def test_split_reads_nominal_blocks_off_the_efim(seed):
    """A is hollow, D is J's diagonal, and D (I + Delta)^{-1} is the marginal."""
    config, traj = random_scenario(np.random.default_rng(seed))
    _, _, efim, split = build_all(config, traj)
    coupling = split.coupling()
    for t in range(config.num_steps):
        for k in range(config.num_users):
            rows = block_slice(block_index(t, k, config.num_users))
            assert np.array_equal(coupling[rows, rows], np.zeros((2, 2)))
            assert np.array_equal(split.nominal_blocks[t, k], efim.data[rows, rows])
            delta = delta_direct(split, t, k)
            lhs = split.nominal_blocks[t, k] @ np.linalg.inv(np.eye(2) + delta)
            assert rel_frobenius(lhs, marginal_efim(efim, t, k)) <= 1e-8


def test_split_allocates_no_dense_matrix():
    """split_d_a keeps a reference to J and builds no (2TK x 2TK) array."""
    config = shipped_scenario("paper_baseline")
    traj = static_trajectory(config)
    pfim = prior_fim(prior_model(config, include_anchor=True))
    efim = assemble_efim(measurement_fim(config, traj), pfim)
    tracemalloc.start()
    try:
        split = split_d_a(efim, pfim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert split.efim is efim
    assert peak < efim.data.nbytes // 4


def test_absorb_extra_holds_only_step0_anchor():
    """The split keeps the anchor precision; the walk absorbs it at step 0 only."""
    config = shipped_scenario(num_steps=3)
    traj = static_trajectory(config)
    lambda_d, _, _, split = build_all(config, traj, include_anchor=True)
    anchor = 1.0 / config.first_step_anchor_variance
    assert split.anchor_precision == anchor
    T, K = config.num_steps, config.num_users
    absorption = build_ptpm(split, lambda_d).absorption.reshape(T, K, 2, 2)
    for t in range(T):
        for k in range(K):
            external = lambda_d[t, k] + (anchor * np.eye(2) if t == 0 else 0.0)
            want = np.linalg.solve(split.nominal_blocks[t, k], external)
            assert np.allclose(absorption[t, k], want, rtol=1e-13, atol=0.0)
    _, _, _, bare = build_all(config, traj, include_anchor=False)
    assert bare.anchor_precision == 0.0


@pytest.mark.parametrize("include_anchor", [True, False])
def test_split_anchor_precision_is_the_first_slice_anchor(include_anchor):
    """Slice 0 gains exactly anchor_precision * I, the value the split carries."""
    config = shipped_scenario(num_steps=3)
    traj = static_trajectory(config)
    bare = prior_fim(prior_model(config, include_anchor=False))
    _, pfim, _, split = build_all(config, traj, include_anchor=include_anchor)
    K = config.num_users
    gained = pfim.spatial_slices[0] - bare.spatial_slices[0]
    assert np.array_equal(gained, pfim.anchor_precision * np.eye(2 * K))
    assert split.anchor_precision == pfim.anchor_precision
    assert (pfim.anchor_precision > 0.0) == include_anchor


def test_ptpm_block_rows_sum_to_identity(rng):
    for _ in range(5):
        config, traj = random_scenario(rng)
        lambda_d, _, efim, split = build_all(config, traj)
        ptpm = build_ptpm(split, lambda_d)
        T, K = config.num_steps, config.num_users
        full = np.hstack([ptpm.transient, ptpm.absorption])
        for g in range(T * K):
            row = full[block_slice(g), :]
            total = sum(row[:, 2 * h : 2 * h + 2] for h in range(T * K + 1))
            assert np.max(np.abs(total - np.eye(2))) < 1e-10


def test_delta_direct_definition(rng):
    """Delta must satisfy its defining relation against the full inverse."""
    config, traj = random_scenario(rng)
    _, _, efim, split = build_all(config, traj)
    inv = np.linalg.inv(efim.data)
    K = config.num_users
    for t in range(config.num_steps):
        for k in range(K):
            g = block_index(t, k, K)
            want = inv[block_slice(g), block_slice(g)] @ split.nominal_blocks[
                t, k
            ] - np.eye(2)
            got = delta_direct(split, t, k)
            assert rel_frobenius(got, want) < 1e-10


def test_marginal_identity_through_delta(rng):
    """D (I + Delta)^{-1} equals the direct Schur marginal everywhere."""
    for _ in range(5):
        config, traj = random_scenario(rng)
        _, _, efim, split = build_all(config, traj)
        for t in range(config.num_steps):
            for k in range(config.num_users):
                delta = delta_direct(split, t, k)
                lhs = split.nominal_blocks[t, k] @ np.linalg.inv(
                    np.eye(2) + delta
                )
                assert rel_frobenius(lhs, marginal_efim(efim, t, k)) < 1e-10


def test_delta_series_matches_direct(rng):
    config, traj = random_scenario(rng)
    _, _, efim, split = build_all(config, traj)
    for t in range(config.num_steps):
        for k in range(config.num_users):
            series = delta_series(split, t, k)
            assert series.converged
            assert series.spectral_radius < 1.0
            assert series.terms_used >= 1
            direct = delta_direct(split, t, k)
            assert rel_frobenius(series.value, direct) < 1e-7


def test_series_radius_is_the_dense_walk_radius(rng):
    """delta_series reports the spectral radius of the walk operator Q."""
    for _ in range(5):
        config, traj = random_scenario(rng)
        lambda_d, _, _, split = build_all(config, traj)
        transient = build_ptpm(split, lambda_d).transient
        want = float(np.max(np.abs(np.linalg.eigvals(transient))))
        assert abs(delta_series(split, 0, 0).spectral_radius - want) <= 1e-10


def test_delta_series_raises_on_expanding_walk():
    """A hand-built split with overwhelming coupling must be rejected."""
    T, K = 1, 2
    nominal = np.stack([[np.eye(2), np.eye(2)]])
    coupling = np.zeros((4, 4))
    coupling[0:2, 2:4] = 3.0 * np.eye(2)
    coupling[2:4, 0:2] = 3.0 * np.eye(2)
    split = DASplit(
        nominal_blocks=nominal,
        efim=BlockMatrix(block_diag(nominal.reshape(T * K, 2, 2)) - coupling, T, K),
        anchor_precision=0.0,
    )
    with pytest.raises(SeriesDiverged):
        delta_series(split, 0, 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1))
def test_hitting_probabilities_partition_and_efficiency(seed):
    """F + F_to_B = I and F_to_B = (I + Delta)^{-1} on random scenarios."""
    config, traj = random_scenario(np.random.default_rng(seed))
    lambda_d, _, efim, split = build_all(config, traj)
    ptpm = build_ptpm(split, lambda_d)
    for t in range(config.num_steps):
        for k in range(config.num_users):
            hp = hitting_probabilities(ptpm, t, k)
            total = hp.return_before_absorb + hp.absorb_first
            assert np.max(np.abs(total - np.eye(2))) < 1e-10
            delta = delta_direct(split, t, k)
            want = np.linalg.inv(np.eye(2) + delta)
            assert rel_frobenius(hp.absorb_first, want) < 1e-8


def test_eoc_report_cross_field_identities(rng):
    config, traj = random_scenario(rng, num_users=2, num_steps=3)
    lambda_d, _, efim, split = build_all(config, traj)
    ptpm = build_ptpm(split, lambda_d)
    report = eoc_report(efim, split)
    T, K = config.num_steps, config.num_users
    inv = np.linalg.inv(efim.data)

    assert report.eoc.shape == (T, K)
    for t in range(T):
        for k in range(K):
            g = block_index(t, k, K)
            # efficiency trace agrees with the walk's absorb-first trace
            absorb_first = hitting_probabilities(ptpm, t, k).absorb_first
            assert report.eoc[t, k] == pytest.approx(
                0.5 * float(np.trace(absorb_first)), rel=1e-8
            )
            # per-state bound comes from the full inverse
            want_bcrb = float(np.trace(inv[block_slice(g), block_slice(g)]))
            assert report.bcrb[t, k] == pytest.approx(want_bcrb, rel=1e-10)
            assert 0.0 < report.eoc[t, k] <= 1.0 + 1e-12
    assert report.mean_eoc == pytest.approx(float(report.eoc.mean()), rel=1e-12)
    assert report.mean_bcrb == pytest.approx(float(report.bcrb.mean()), rel=1e-12)
    assert report.total_bcrb == pytest.approx(float(np.trace(inv)), rel=1e-10)


def test_efficiency_shrinks_when_coupling_strengthens():
    """More prior coupling always moves the mean efficiency down."""
    base = shipped_scenario()
    traj = static_trajectory(base)
    values = []
    for precision in (1.0, 10.0, 100.0):
        config = base.with_spatial_precision(precision)
        _, _, efim, split = build_all(config, traj)
        values.append(eoc_report(efim, split).mean_eoc)
    assert values[0] > values[1] > values[2]
