"""Extreme-correlation limits against the finite-parameter recursion."""

import mpmath
import numpy as np
import pytest

from conftest import random_scenario, shipped_scenario
from loctrack.asymptotics import (
    ASYMPTOTIC_LARGE,
    ASYMPTOTIC_SMALL,
    _per_user_blocks,
    limit_spatial_inf,
    limit_spatial_zero,
    limit_temporal_inf,
)
from loctrack.errors import NotSpd
from loctrack.recursive import constant_inputs, stationary_point
from loctrack.scenario import static_trajectory


def boosted_scenario(offset_db=70.0, num_steps=4):
    config = shipped_scenario(num_steps=num_steps).with_snr_offset_db(offset_db)
    return config, static_trajectory(config)


def test_spatial_zero_report_structure():
    config, traj = boosted_scenario()
    report = limit_spatial_zero(config, traj)
    K = config.num_users
    assert report.regime == "spatial-zero"
    assert report.finite_value == ASYMPTOTIC_SMALL
    assert report.predicted.shape == (K, 2, 2)
    assert report.empirical.shape == (K, 2, 2)
    assert report.relative_gaps.shape == (K,)
    assert np.all(report.relative_gaps >= 0.0)
    assert 0.0 < report.eoc <= 1.0 + 1e-12
    assert report.first_step_gap is None
    assert report.series_vs_direct is None


def test_single_user_is_already_decoupled(rng):
    """With one user the spatial precision is inert, so both sides agree."""
    config, traj = random_scenario(rng, num_users=1)
    zero = limit_spatial_zero(config, traj)
    assert float(np.max(zero.relative_gaps)) < 1e-8
    inf = limit_spatial_inf(config, traj)
    assert float(np.max(inf.relative_gaps)) < 1e-8
    assert np.allclose(zero.predicted, inf.predicted)


@pytest.mark.parametrize(
    "limit, offset_db",
    [(limit_spatial_zero, 70.0), (limit_spatial_inf, 30.0)],
    ids=["spatial-zero", "spatial-inf"],
)
def test_spatial_limits_read_the_closed_form_fixed_point(limit, offset_db):
    """The finite side is the closed-form fixed point at the stand-in."""
    config, traj = boosted_scenario(offset_db=offset_db)
    report = limit(config, traj)
    finite = constant_inputs(
        config.with_spatial_precision(report.finite_value), traj
    )
    j_star = stationary_point(finite.m_full, finite.gamma_full).j_star
    assert np.array_equal(
        report.empirical, _per_user_blocks(j_star)
    )


def test_spatial_inf_stand_in_fails_spd_test_at_stock_snr():
    """At the stock SNR the 1e3 spatial stand-in swamps the measurement
    information, so M fails the SPD test and the limit raises."""
    config = shipped_scenario("paper_baseline")
    with pytest.raises(NotSpd):
        limit_spatial_inf(config, static_trajectory(config))


def test_spatial_inf_report_fields():
    config, traj = boosted_scenario(offset_db=30.0)
    report = limit_spatial_inf(config, traj)
    assert report.regime == "spatial-inf"
    assert report.finite_value == ASYMPTOTIC_LARGE
    assert report.first_step_gap is not None
    assert report.first_step_gap >= 0.0
    assert 0.0 < report.eoc <= 1.0 + 1e-12
    # every user is predicted to share one common fixed point
    for k in range(1, config.num_users):
        assert np.allclose(report.predicted[k], report.predicted[0])


def test_temporal_slope_equals_slice_marginal():
    """The additive limit is exactly linear, so the measured slope is exact."""
    report = limit_temporal_inf(*boosted_scenario(offset_db=0.0))
    assert report.regime == "temporal-inf"
    assert float(np.max(report.relative_gaps)) < 1e-9
    assert report.finite_step_gap is not None


def test_temporal_series_gate():
    """Neumann cross-check runs only when the spatial walk contracts fast."""
    sticky = shipped_scenario(num_steps=4).with_spatial_precision(100.0)
    assert limit_temporal_inf(sticky, static_trajectory(sticky)).series_vs_direct is None
    gap = limit_temporal_inf(*boosted_scenario(offset_db=0.0)).series_vs_direct
    assert gap is not None
    assert gap < 1e-8


# J at the temporal stand-in has condition number about 5.6e8, so a float
# oracle loses as many digits as the route it checks; 50 digits do not.
ORACLE_DIGITS = 50


def _oracle_eoc(nominal, j_state):
    """mean_k tr(D_k^{-1} ([J^{-1}]_kk)^{-1}) / 2, at ``ORACLE_DIGITS`` digits.

    ``j_state`` is a nested list of floats or an mpmath matrix; call it inside
    ``mpmath.workdps(ORACLE_DIGITS)``.
    """
    inverse = mpmath.matrix(j_state) ** -1
    efficiencies = []
    for k in range(nominal.shape[0]):
        marginal = inverse[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] ** -1
        product = mpmath.matrix(nominal[k].tolist()) ** -1 * marginal
        efficiencies.append((product[0, 0] + product[1, 1]) / 2)
    return float(mpmath.fsum(efficiencies) / len(efficiencies))


def _criterion_8_scenario(offset_db):
    config = shipped_scenario("paper_baseline", num_steps=4).with_snr_offset_db(offset_db)
    return config, static_trajectory(config)


@pytest.mark.parametrize(
    "limit, offset_db, precision",
    [
        (limit_spatial_zero, 70.0, "spatial"),
        (limit_spatial_inf, 30.0, "spatial"),
        (limit_temporal_inf, 0.0, "temporal"),
    ],
    ids=["spatial-zero", "spatial-inf", "temporal-inf"],
)
def test_limit_eoc_matches_marginal_oracle(limit, offset_db, precision):
    """Each limit's eoc is the mean marginal efficiency of the finite state:
    the spatial fixed point, or the temporal limit's two-step EFIM."""
    config, traj = _criterion_8_scenario(offset_db)
    report = limit(config, traj)
    with mpmath.workdps(ORACLE_DIGITS):
        if precision == "spatial":
            finite = constant_inputs(config.with_spatial_precision(report.finite_value), traj)
            j_state = stationary_point(finite.m_full, finite.gamma_full).j_star.tolist()
        else:
            finite = constant_inputs(config.with_temporal_precision(report.finite_value), traj)
            m_full = mpmath.matrix(finite.m_full.tolist())
            gamma = mpmath.matrix(finite.gamma_full.tolist())
            j_state = m_full + gamma - gamma * (m_full + gamma) ** -1 * gamma
        want = _oracle_eoc(finite.nominal, j_state)
    assert report.eoc == pytest.approx(want, rel=1e-9)
