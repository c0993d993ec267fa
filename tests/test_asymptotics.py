"""Extreme-correlation limits against the finite-parameter recursion."""

import numpy as np
import pytest

from conftest import random_scenario, shipped_scenario
from loctrack.asymptotics import (
    ASYMPTOTIC_LARGE,
    ASYMPTOTIC_SMALL,
    ScenarioConstants,
    limit_spatial_inf,
    limit_spatial_zero,
    limit_temporal_inf,
)
from loctrack.errors import DimensionMismatch
from loctrack.recursive import constant_inputs
from loctrack.scenario import static_trajectory


def boosted_constants(offset_db=70.0, num_steps=4):
    config = shipped_scenario(num_steps=num_steps).with_snr_offset_db(offset_db)
    return ScenarioConstants.from_scenario(config, static_trajectory(config))


def test_scenario_constants_rebuild_slices():
    config = shipped_scenario(num_steps=3)
    traj = static_trajectory(config)
    constants = ScenarioConstants.from_scenario(config, traj)
    rebuilt = constants.with_spatial_precision(5.0)
    direct = constant_inputs(config.with_spatial_precision(5.0), traj)
    assert np.allclose(rebuilt.m_full, direct.m_full)
    assert np.allclose(rebuilt.t_full, direct.t_full)
    retimed = constants.with_temporal_precision(25.0)
    assert np.allclose(retimed.t_full, 25.0 * np.eye(retimed.t_full.shape[0]))


def test_spatial_zero_report_structure():
    constants = boosted_constants()
    report = limit_spatial_zero(constants)
    K = constants.inputs.n_users
    assert report.regime == "spatial-zero"
    assert report.finite_value == ASYMPTOTIC_SMALL
    assert report.predicted.shape == (K, 2, 2)
    assert report.empirical.shape == (K, 2, 2)
    assert report.relative_gaps.shape == (K,)
    assert np.all(report.relative_gaps >= 0.0)
    assert 0.0 < report.eoc <= 1.0 + 1e-12
    assert report.first_step_gap is None
    assert report.series_vs_direct is None
    assert report.horizon is None


def test_single_user_is_already_decoupled(rng):
    """With one user the spatial precision is inert, so gaps reach iteration tol."""
    config, traj = random_scenario(rng, num_users=1)
    constants = ScenarioConstants.from_scenario(config, traj)
    zero = limit_spatial_zero(constants)
    assert float(np.max(zero.relative_gaps)) < 1e-8
    inf = limit_spatial_inf(constants)
    assert float(np.max(inf.relative_gaps)) < 1e-8
    assert np.allclose(zero.predicted, inf.predicted)


def test_spatial_inf_report_fields():
    constants = boosted_constants(offset_db=30.0)
    report = limit_spatial_inf(constants)
    assert report.regime == "spatial-inf"
    assert report.finite_value == ASYMPTOTIC_LARGE
    assert report.first_step_gap is not None
    assert report.first_step_gap >= 0.0
    assert 0.0 < report.eoc <= 1.0 + 1e-12
    # every user is predicted to share one common fixed point
    for k in range(1, constants.inputs.n_users):
        assert np.allclose(report.predicted[k], report.predicted[0])


def test_temporal_slope_equals_slice_marginal():
    """The additive limit is exactly linear, so the measured slope is exact."""
    constants = boosted_constants(offset_db=0.0)
    report = limit_temporal_inf(constants)
    assert report.regime == "temporal-inf"
    assert report.horizon == 1000
    assert float(np.max(report.relative_gaps)) < 1e-9
    assert report.finite_step_gap is not None


def test_temporal_series_gate():
    """Neumann cross-check runs only when the spatial walk contracts fast."""
    sticky = shipped_scenario(num_steps=4).with_spatial_precision(100.0)
    near_one = ScenarioConstants.from_scenario(sticky, static_trajectory(sticky))
    assert limit_temporal_inf(near_one).series_vs_direct is None
    contracting = boosted_constants(offset_db=0.0)
    gap = limit_temporal_inf(contracting).series_vs_direct
    assert gap is not None
    assert gap < 1e-8


def test_temporal_horizon_guard():
    constants = boosted_constants()
    with pytest.raises(DimensionMismatch):
        limit_temporal_inf(constants, horizon=3)
