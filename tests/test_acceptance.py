"""Acceptance gate: ten numbered end-to-end checks, one verdict line each.

Every test prints ``CRITERION n: PASS`` or ``CRITERION n: FAIL (...)`` so a
plain ``pytest -v -s tests/test_acceptance.py`` doubles as the sign-off
sheet. Tolerances are stated inline next to each check.
"""

import json
import time
from pathlib import Path

import numpy as np
import numpy.linalg as npl

from conftest import (
    central_difference,
    config_dict,
    iterate_fixed_point,
    random_scenario,
    rel_frobenius,
    shipped_scenario,
)
from loctrack.asymptotics import (
    limit_spatial_inf,
    limit_spatial_zero,
    limit_temporal_inf,
)
from loctrack.blocks import block_index, block_slice, chain_matrix
from loctrack.channel import cascade_from_parameters, cascaded_channel, channel_jacobian, geometry_params
from loctrack.coupling import (
    build_ptpm,
    delta_direct,
    eoc_report,
    hitting_probabilities,
    split_d_a,
)
from loctrack.fim import (
    assemble_efim,
    marginal_efim,
    measurement_fim,
    position_jacobian,
    prior_fim,
)
from loctrack.harness import load_experiment, run_experiment, write_outputs
from loctrack.recursive import run_recursion, stationary_point
from loctrack.scenario import (
    PRIOR_L1,
    prior_model,
    sample_trajectory_ensemble,
    static_trajectory,
)


def _verdict(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {n}: {status} ({detail})"
    print(line)
    assert ok, line


def _pipeline(config, trajectory, include_anchor=True):
    lambda_d = measurement_fim(config, trajectory)
    pfim = prior_fim(prior_model(config, include_anchor=include_anchor))
    efim = assemble_efim(lambda_d, pfim)
    split = split_d_a(efim, pfim)
    return lambda_d, pfim, efim, split


def _twenty_scenarios():
    rng = np.random.default_rng(8101)
    return [random_scenario(rng) for _ in range(20)]


def test_criterion_01_marginal_identity():
    """D (I + Delta)^{-1} equals the direct Schur marginal, 20 scenarios."""
    started = time.monotonic()
    worst = 0.0
    for config, traj in _twenty_scenarios():
        _, _, efim, split = _pipeline(config, traj)
        for t in range(config.num_steps):
            for k in range(config.num_users):
                delta = delta_direct(split, t, k)
                lhs = split.nominal_blocks[t, k] @ npl.inv(np.eye(2) + delta)
                err = rel_frobenius(lhs, marginal_efim(efim, t, k))
                worst = max(worst, err)
    elapsed = time.monotonic() - started
    _verdict(
        1,
        worst <= 1e-8 and elapsed < 10.0,
        f"worst rel {worst:.2e} (<=1e-8), {elapsed:.2f} s (<10 s)",
    )


def test_criterion_02_hitting_probabilities():
    """F + F_to_B = I, F_to_B = (I + Delta)^{-1}, PTPM rows sum to one."""
    worst_partition = 0.0
    worst_inverse = 0.0
    worst_rows = 0.0
    for config, traj in _twenty_scenarios():
        lambda_d, _, efim, split = _pipeline(config, traj)
        ptpm = build_ptpm(split, lambda_d)
        TK = config.num_steps * config.num_users
        full = np.hstack([ptpm.transient, ptpm.absorption])
        for g in range(TK):
            row = full[block_slice(g), :]
            total = sum(row[:, 2 * h : 2 * h + 2] for h in range(TK + 1))
            worst_rows = max(worst_rows, float(np.max(np.abs(total - np.eye(2)))))
        for t in range(config.num_steps):
            for k in range(config.num_users):
                hp = hitting_probabilities(ptpm, t, k)
                part = hp.return_before_absorb + hp.absorb_first
                worst_partition = max(
                    worst_partition, float(np.max(np.abs(part - np.eye(2))))
                )
                want = npl.inv(np.eye(2) + delta_direct(split, t, k))
                worst_inverse = max(
                    worst_inverse, rel_frobenius(hp.absorb_first, want)
                )
    _verdict(
        2,
        worst_partition <= 1e-10 and worst_inverse <= 1e-8 and worst_rows <= 1e-10,
        f"partition {worst_partition:.2e} (<=1e-10), inverse {worst_inverse:.2e} "
        f"(<=1e-8), row sums {worst_rows:.2e} (<=1e-10)",
    )


def _block_row_defect(mat, groups):
    worst = 0.0
    for g in range(groups):
        row = mat[2 * g : 2 * g + 2, :]
        total = sum(row[:, 2 * h : 2 * h + 2] for h in range(groups))
        worst = max(worst, float(np.max(np.abs(total))))
    return worst


def _tridiagonal_defect(mat, n_steps, n_users):
    worst = 0.0
    for t in range(n_steps):
        for k in range(n_users):
            g = block_index(t, k, n_users)
            for t2 in range(n_steps):
                for k2 in range(n_users):
                    if k2 == k and abs(t2 - t) <= 1:
                        continue
                    h = block_index(t2, k2, n_users)
                    block = mat[block_slice(g), block_slice(h)]
                    worst = max(worst, float(np.max(np.abs(block))))
    return worst


def _spatial_part(pfim):
    return chain_matrix(pfim.spatial_slices, np.zeros_like(pfim.temporal))


def _temporal_part(pfim):
    return chain_matrix(np.zeros_like(pfim.spatial_slices), pfim.temporal)


def test_criterion_03_prior_row_sums():
    """Spatial prior rows vanish; temporal prior is a zero-row tridiagonal."""
    quad = shipped_scenario(num_steps=4, num_users=3)
    pfim_l2 = prior_fim(prior_model(quad, include_anchor=False))
    groups = quad.num_steps * quad.num_users
    l2_ps = _block_row_defect(_spatial_part(pfim_l2), groups)
    l2_pt = _block_row_defect(_temporal_part(pfim_l2), groups)
    l2_tri = _tridiagonal_defect(
        _temporal_part(pfim_l2), quad.num_steps, quad.num_users
    )

    # attraction 1.0: at the toy's default 10.0 the constant pull overwhelms
    # the anchor and samples collapse users to contact, which the curvature
    # guard rightly rejects
    dist = shipped_scenario(num_steps=3, prior_kind=PRIOR_L1).with_spatial_precision(1.0)
    ensemble = sample_trajectory_ensemble(dist, 10_000, 8103)
    pfim_l1 = prior_fim(prior_model(dist, include_anchor=False), ensemble)
    l1_groups = dist.num_steps * dist.num_users
    l1_ps = _block_row_defect(_spatial_part(pfim_l1), l1_groups)
    l1_pt = _block_row_defect(_temporal_part(pfim_l1), l1_groups)

    _verdict(
        3,
        l2_ps <= 1e-12
        and l2_pt <= 1e-12
        and l2_tri == 0.0
        and l1_ps <= 1e-3
        and l1_pt <= 1e-12,
        f"quadratic spatial {l2_ps:.2e} / temporal {l2_pt:.2e} (<=1e-12, "
        f"off-tridiagonal {l2_tri:.1e}), deviation-prior spatial {l1_ps:.2e} "
        f"(<=1e-3 on 1e4 samples) / temporal {l1_pt:.2e}",
    )


def test_criterion_04_jacobians_match_finite_differences():
    """Analytic position and channel Jacobians against central differences."""
    rng = np.random.default_rng(8104)
    worst_pos = 0.0
    worst_chan = 0.0
    for _ in range(100):
        config, traj = random_scenario(rng, num_steps=2)
        k = int(rng.integers(config.num_users))
        R = config.num_ris
        base = traj.positions[1, k]

        def params_at(pos):
            out = np.zeros(2 * R)
            for i in range(R):
                geo = geometry_params(
                    config.ris_positions[i], pos, config.path_loss_exponent
                )
                out[i], out[R + i] = geo.angle, geo.gain
            return out

        analytic = position_jacobian(config, traj, 1, k)
        fd = central_difference(params_at, base, 1e-4)
        worst_pos = max(worst_pos, rel_frobenius(analytic, fd.T))

        chan = cascaded_channel(config, traj, 1, k)
        jac = channel_jacobian(config, traj, 1, k)
        params = np.concatenate([chan.ru_angles, chan.ru_gains])
        fd_chan = np.zeros((config.n_bs_antennas, 2 * R), dtype=complex)
        for i in range(2 * R):
            h = 1e-6 * max(1.0, abs(params[i]))
            up, dn = params.copy(), params.copy()
            up[i] += h
            dn[i] -= h
            fd_chan[:, i] = (
                cascade_from_parameters(config, traj, 1, k, up[:R], up[R:])
                - cascade_from_parameters(config, traj, 1, k, dn[:R], dn[R:])
            ) / (2 * h)
        worst_chan = max(
            worst_chan,
            float(np.linalg.norm(jac.matrix - fd_chan) / np.linalg.norm(fd_chan)),
        )
    _verdict(
        4,
        worst_pos < 1e-5 and worst_chan < 1e-5,
        f"position {worst_pos:.2e}, channel {worst_chan:.2e} (both <1e-5, "
        f"100 geometries)",
    )


def _random_spd(rng, side):
    q, _ = np.linalg.qr(rng.standard_normal((side, side)))
    spectrum = 10.0 ** rng.uniform(-1.0, 1.0, size=side)
    return (q * spectrum) @ q.T


def test_criterion_05_stationary_point():
    """Closed-form Riccati solution: residual and basin of attraction."""
    rng = np.random.default_rng(8105)
    worst_residual = 0.0
    pairs = []
    for i in range(100):
        side = (2, 4, 6)[i % 3]
        m, t_mat = _random_spd(rng, side), _random_spd(rng, side)
        point = stationary_point(m, t_mat)
        worst_residual = max(worst_residual, point.residual)
        if i < 10:
            pairs.append((m, t_mat, point))
    worst_spread = 0.0
    for m, t_mat, point in pairs:
        for _ in range(10):
            j0 = _random_spd(rng, m.shape[0])
            j_limit = iterate_fixed_point(m, t_mat, j0)
            worst_spread = max(worst_spread, rel_frobenius(j_limit, point.j_star))
    _verdict(
        5,
        worst_residual < 1e-8 and worst_spread < 1e-6,
        f"residual {worst_residual:.2e} (<1e-8, 100 SPD pairs), init spread "
        f"{worst_spread:.2e} (<1e-6, 10 pairs x 10 starts)",
    )


def test_criterion_06_recursion_equals_batch_schur():
    """Forward recursion lands on the batch marginal of the final step
    (prior without the first-step anchor, as the recursion runs)."""
    rng = np.random.default_rng(8106)
    worst = 0.0
    for _ in range(10):
        config, traj = random_scenario(rng, num_steps=int(rng.integers(2, 7)))
        states = run_recursion(config, traj)
        lambda_d, pfim, efim, _ = _pipeline(config, traj, include_anchor=False)
        joint = efim.data
        keep = 2 * config.num_users
        past = joint.shape[0] - keep
        want = joint[past:, past:] - joint[:past, past:].T @ npl.solve(
            joint[:past, :past], joint[:past, past:]
        )
        worst = max(worst, rel_frobenius(states[-1].efim, want))
    _verdict(6, worst <= 1e-8, f"worst rel {worst:.2e} (<=1e-8, t<=6, K<=3)")


def test_criterion_07_error_propagation_campaign():
    """Tracking campaign: convergence to theory, disturbance recovery,
    correlation ordering, single-core wall-time budget."""
    spec = load_experiment("configs/fig8_error_propagation.json")
    started = time.monotonic()
    table = run_experiment(spec)
    elapsed = time.monotonic() - started

    cell = {}
    theory = {}
    for row in table.rows:
        if row.metric_name == "theory-bcrb-star":
            theory[row.sweep_value] = row.mean
        elif row.t > 0:
            cell[(row.sweep_value, row.t, row.metric_name)] = row.mean

    values = sorted(theory)
    worst_converged = 0.0
    recovery_ok = True
    details = []
    for v in values:
        final = cell[(v, 40, "bcrb-mean")]
        gap = abs(final - theory[v]) / theory[v]
        worst_converged = max(worst_converged, gap)
        pre = cell[(v, 20, "bcrb-mean")]
        recovered = [
            t
            for t in range(23, 40)
            if abs(cell[(v, t, "bcrb-mean")] - pre) / pre <= 0.05
        ]
        recovery_ok = recovery_ok and bool(recovered)
        details.append(f"v={v:g}: gap {gap:.4f}, recovery t={recovered[0] if recovered else '-'}")

    final_bcrb = [cell[(v, 40, "bcrb-mean")] for v in values]
    final_eoc = [cell[(v, 40, "eoc-mean")] for v in values]
    ordering_ok = all(a > b for a, b in zip(final_bcrb, final_bcrb[1:])) and all(
        a > b for a, b in zip(final_eoc, final_eoc[1:])
    )
    spike_ok = all(
        cell[(v, 21, "bcrb-mean")] > cell[(v, 20, "bcrb-mean")] for v in values
    )
    _verdict(
        7,
        worst_converged < 0.02
        and recovery_ok
        and ordering_ok
        and spike_ok
        and elapsed < 600.0,
        f"{'; '.join(details)}; converged gap <2%, ordering "
        f"{'ok' if ordering_ok else 'broken'}, {elapsed:.1f} s (<600 s)",
    )


def test_criterion_08_asymptotic_regimes():
    """Stand-in precisions 1e-3 / 1e3 against the three closed-form limits."""

    def scenario(offset_db):
        config = shipped_scenario("paper_baseline", num_steps=4).with_snr_offset_db(offset_db)
        return config, static_trajectory(config)

    zero = limit_spatial_zero(*scenario(70.0))
    inf = limit_spatial_inf(*scenario(30.0))
    temp = limit_temporal_inf(*scenario(0.0))

    zero_gap = float(np.max(zero.relative_gaps))
    inf_gap = float(np.max(inf.relative_gaps))
    slope_gap = float(np.max(temp.relative_gaps))
    _verdict(
        8,
        zero_gap < 0.01
        and inf_gap < 0.01
        and slope_gap < 0.02
        and inf.eoc < 0.05
        and temp.eoc < 0.05,
        f"spatial-zero gap {zero_gap:.2e} (<1%), spatial-inf gap {inf_gap:.2e} "
        f"(<1%) eoc {inf.eoc:.4f}, temporal slope gap {slope_gap:.2e} (<2%) "
        f"eoc {temp.eoc:.4f} (both eoc <0.05)",
    )


def _strict(values, direction, margin=1e-9):
    sign = 1.0 if direction == "up" else -1.0
    return all(sign * (b - a) > margin for a, b in zip(values, values[1:]))


def test_criterion_09_toy_trends():
    """Deterministic toy sweeps: efficiency and bound move as expected."""
    base = shipped_scenario(num_steps=3)

    def measure(config):
        traj = static_trajectory(config)
        _, _, efim, split = _pipeline(config, traj, include_anchor=False)
        report = eoc_report(efim, split)
        return report.mean_eoc, report.total_bcrb

    snr = [measure(base.with_snr_offset_db(db)) for db in range(-30, 31, 10)]
    sig_s = [
        measure(base.with_spatial_precision(v)) for v in (1.0, 10.0, 100.0, 1000.0)
    ]
    sig_t = [
        measure(base.with_temporal_precision(v)) for v in (1.0, 10.0, 100.0, 1000.0)
    ]
    ris = [measure(base.with_num_ris(r)) for r in (1, 2, 4)]

    eoc_ok = (
        _strict([e for e, _ in snr], "up")
        and _strict([e for e, _ in sig_s], "down")
        and _strict([e for e, _ in sig_t], "down")
        and _strict([e for e, _ in ris], "up")
    )
    # the bound falls on every sweep: more SNR, more prior precision, and
    # more surfaces all add information (opposite sign to the efficiency on
    # the precision sweeps, same on the others)
    bcrb_ok = (
        _strict([b for _, b in snr], "down")
        and _strict([b for _, b in sig_s], "down")
        and _strict([b for _, b in sig_t], "down")
        and _strict([b for _, b in ris], "down")
    )
    _verdict(
        9,
        eoc_ok and bcrb_ok,
        f"eoc trends {'ok' if eoc_ok else 'broken'} (snr up, precisions down, "
        f"surfaces up), bcrb trends {'ok' if bcrb_ok else 'broken'} (down on "
        f"all four), margin 1e-9",
    )


def test_criterion_10_campaign_determinism(tmp_path):
    """Identical spec and seed produce byte-identical table and manifest."""
    scenario = tmp_path / "scene.json"
    scenario.write_text(json.dumps(config_dict(num_steps=3)))
    from loctrack.harness import ExperimentSpec

    def spec(out):
        return ExperimentSpec(
            scenario_path=str(scenario),
            kind="EOC_VS_SNR",
            sweep_parameter="snr-db",
            sweep_values=(0.0, 10.0),
            num_monte_carlo=30,
            base_seed=42,
            output_dir=str(out),
        )

    paths_a = write_outputs(run_experiment(spec(tmp_path / "a")), str(tmp_path / "a"))
    paths_b = write_outputs(run_experiment(spec(tmp_path / "b")), str(tmp_path / "b"))
    same = all(
        Path(pa).read_bytes() == Path(pb).read_bytes()
        for pa, pb in zip(paths_a, paths_b)
    )
    _verdict(10, same, "table.csv and manifest.json byte-identical across reruns")
