"""Monte Carlo evaluation and sweep tests (toy-grid scale)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dlrplan.affine_policy import procure_affine
from dlrplan.errors import InfeasibleError, InputError
from dlrplan.evaluation import (
    ScenarioConfig,
    audit_robust_feasibility,
    draw_realizations,
    evaluate_scenario,
    monte_carlo_eval,
    status_quo_cost,
    sweep_flow_limits,
    sweep_mu_sigma,
)
from dlrplan.network import compute_ptdf
from dlrplan.robust_dispatch import procure_vertex_robust
from dlrplan.uncertainty import RatingForecast, build_ellipsoid, build_polytope

from test_network import two_bus_grid


def two_bus_cfg(sd=0.2, limit=250.0, **kw):
    g = two_bus_grid(limit=limit)
    ptdf = compute_ptdf(g)
    f = RatingForecast(mu=np.array([1.5]), sigma=np.array([[sd**2]]),
                       line_ids=ptdf.dlr_line_index)
    return ScenarioConfig(grid=g, ptdf=ptdf, forecast=f, **kw)


def test_status_quo_uncongested_cheapest_only():
    g = two_bus_grid(limit=400.0, is_dlr=False)
    ptdf = compute_ptdf(g)
    # 300 MW at 10 $/MWh from the cheap unit
    assert status_quo_cost(g, ptdf) == pytest.approx(3000.0, abs=1e-3)


def test_status_quo_congested_hand_value():
    g = two_bus_grid(limit=250.0)
    ptdf = compute_ptdf(g)
    # 250 MW cheap + 50 MW expensive = 2500 + 2500
    assert status_quo_cost(g, ptdf) == pytest.approx(5000.0, abs=1e-3)


def test_monte_carlo_zero_variance_single_realization_cost():
    cfg = two_bus_cfg(sd=0.0, sample_count=64, seed=1)
    # degenerate polytope: both vertices at mu
    w = build_polytope(build_ellipsoid(cfg.forecast, cfg.gamma))
    proc = procure_vertex_robust(cfg.grid, cfg.ptdf, w, alpha=0.0)
    rep = monte_carlo_eval(cfg, proc)
    row = rep.rows[0]
    assert row.feasibility_rate == 1.0
    assert row.mean_operational_cost == pytest.approx(0.0, abs=1e-9)
    assert row.total_cost == pytest.approx(
        row.dispatch_cost + row.procurement_cost + row.mean_operational_cost)


def test_monte_carlo_deterministic_given_seed():
    cfg = two_bus_cfg(sample_count=200, seed=7)
    w = build_polytope(build_ellipsoid(cfg.forecast, cfg.gamma))
    proc = procure_vertex_robust(cfg.grid, cfg.ptdf, w, alpha=0.0)
    a = monte_carlo_eval(cfg, proc)
    b = monte_carlo_eval(cfg, proc)
    assert a.rows[0].mean_operational_cost == b.rows[0].mean_operational_cost
    assert np.array_equal(a.rows[0].feasible, b.rows[0].feasible)
    assert a.rows[0].total_cost == b.rows[0].total_cost


def test_draws_deterministic_and_positive():
    f = RatingForecast(mu=np.array([1.5, 1.5]), sigma=np.diag([0.04, 0.04]))
    a = draw_realizations(f, 500, seed=3)
    b = draw_realizations(f, 500, seed=3)
    assert np.array_equal(a, b)
    assert np.all(a > 0)


def test_report_arithmetic_recomputes():
    cfg = two_bus_cfg(sample_count=300, seed=5)
    rep = evaluate_scenario(cfg)
    for row in rep.rows:
        assert row.total_cost == pytest.approx(
            row.dispatch_cost + row.procurement_cost + row.mean_operational_cost,
            abs=1e-9)
        assert row.savings_pct == pytest.approx(
            100.0 * (rep.status_quo_cost - row.total_cost) / rep.status_quo_cost,
            abs=1e-9)


def test_feasibility_rate_at_least_gamma():
    cfg = two_bus_cfg(sample_count=2000, seed=11)
    w = build_polytope(build_ellipsoid(cfg.forecast, cfg.gamma))
    proc = procure_vertex_robust(cfg.grid, cfg.ptdf, w, alpha=0.0)
    rep = monte_carlo_eval(cfg, proc)
    assert rep.rows[0].feasibility_rate >= cfg.gamma


def test_audit_inside_polytope_is_full_coverage():
    cfg = two_bus_cfg()
    w = build_polytope(build_ellipsoid(cfg.forecast, cfg.gamma))
    proc = procure_vertex_robust(cfg.grid, cfg.ptdf, w, alpha=0.0)
    assert audit_robust_feasibility(cfg, proc, count=500, seed=2) == 1.0


def test_audit_inside_ellipsoid_policy_coverage():
    cfg = two_bus_cfg(flow_caps_mw=(300.0,))
    e = build_ellipsoid(cfg.forecast, cfg.gamma)
    pp = procure_affine(cfg.grid, cfg.ptdf, e, [300.0])
    assert audit_robust_feasibility(cfg, pp, count=500, seed=2) == 1.0


def test_policy_monte_carlo_matches_expected_cost():
    cfg = two_bus_cfg(sample_count=100_000, seed=13)
    e = build_ellipsoid(cfg.forecast, cfg.gamma)
    pp = procure_affine(cfg.grid, cfg.ptdf, e, [300.0])
    rep = monte_carlo_eval(cfg, pp)
    draws = draw_realizations(cfg.forecast, cfg.sample_count, cfg.seed)
    u = np.maximum(0.0, 300.0 - draws[:, 0] * 250.0)
    per_mw = 50.0 * pp.policy.d_up[1, 0] + 20.0 * pp.policy.d_dn[0, 0]
    se = (per_mw * u).std(ddof=1) / math.sqrt(u.size)
    assert abs(rep.rows[0].mean_operational_cost - pp.cost_expected_operation) <= 3 * se


def test_penalty_recorded_separately():
    cfg = two_bus_cfg(sample_count=4000, seed=17, infeasibility_penalty=5000.0)
    w = build_polytope(build_ellipsoid(cfg.forecast, cfg.gamma))
    proc = procure_vertex_robust(cfg.grid, cfg.ptdf, w, alpha=0.0)
    rep = monte_carlo_eval(cfg, proc)
    row = rep.rows[0]
    assert row.feasibility_rate < 1.0  # 5% of draws fall outside the 95% set
    assert row.mean_penalty_cost == pytest.approx(
        5000.0 * (1.0 - row.feasibility_rate), abs=1e-9)
    # the penalty is NOT inside the reported mean operating cost
    assert row.total_cost == pytest.approx(
        row.dispatch_cost + row.procurement_cost + row.mean_operational_cost)


# -- sweeps ---------------------------------------------------------------------

def test_sweep_caps_zero_procurement_at_nlr():
    cfg = two_bus_cfg(sample_count=50, seed=3)
    rows = sweep_flow_limits(cfg, [(250.0,), (300.0,), (330.0,)])
    by = {(r["cap_mw_1"], r["approach"]): r for r in rows}
    assert by[(250.0, "I")]["procured_mw"] == pytest.approx(0.0, abs=1e-4)
    assert by[(250.0, "II")]["procured_mw"] == pytest.approx(0.0, abs=1e-3)


def test_sweep_caps_procurement_nondecreasing():
    cfg = two_bus_cfg(sample_count=50, seed=3, approach="I")
    caps = [(250.0,), (290.0,), (320.0,), (350.0,)]
    rows = sweep_flow_limits(cfg, caps)
    got = [r["procured_mw"] for r in rows]
    assert all(b >= a - 1e-6 for a, b in zip(got, got[1:]))


def test_sweep_caps_more_uncertainty_needs_more_reserves():
    rows_tight = sweep_flow_limits(two_bus_cfg(sd=0.1, sample_count=50, approach="I"),
                                   [(320.0,)])
    rows_wide = sweep_flow_limits(two_bus_cfg(sd=0.2, sample_count=50, approach="I"),
                                  [(320.0,)])
    assert rows_wide[0]["procured_mw"] >= rows_tight[0]["procured_mw"] - 1e-6


def test_sweep_infeasible_cap_reported_not_fatal():
    # caps above mu + 3 sigma are rejected for approach II but the sweep continues
    cfg = two_bus_cfg(sample_count=50, approach="II")
    rows = sweep_flow_limits(cfg, [(300.0,), (2000.0,)])
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("infeasible")
    assert math.isnan(rows[1]["procured_mw"])


def test_sweep_mu_sigma_orderings():
    cfg = two_bus_cfg(sample_count=400, seed=23)
    rows = sweep_mu_sigma(cfg, mu_grid=[1.3, 1.5], sigma_grid=[0.05, 0.2])
    by = {(r["mu_pu"], r["sigma_pu"], r["approach"]): r for r in rows}
    for approach in ("I", "II"):
        # operating cost grows with sigma at fixed mu
        assert by[(1.5, 0.2, approach)]["mean_operational_cost"] >= \
            by[(1.5, 0.05, approach)]["mean_operational_cost"] - 1e-6
        # savings grow with mu at fixed sigma
        assert by[(1.5, 0.05, approach)]["savings_pct"] >= \
            by[(1.3, 0.05, approach)]["savings_pct"] - 1e-6


def test_evaluate_scenario_raises_the_error_each_sweep_row_reports():
    # at mu = 0.1 neither approach can be procured; the sweep reports each
    # approach's own error, and evaluate_scenario raises the same one
    cfg = two_bus_cfg(sample_count=40, seed=3)
    rows = {r["approach"]: r["status"] for r in sweep_mu_sigma(cfg, [0.1], [0.1])}
    assert rows["I"] != rows["II"]
    forecast = RatingForecast(mu=np.array([0.1]), sigma=np.array([[0.01]]),
                              line_ids=cfg.ptdf.dlr_line_index)
    for approach in ("both", "II"):
        sub = two_bus_cfg(sample_count=40, seed=3, approach=approach)
        with pytest.raises(InfeasibleError) as err:
            evaluate_scenario(replace(sub, forecast=forecast))
        assert f"infeasible: {err.value}" == rows["I" if approach == "both" else "II"]


def test_sweep_mu_sigma_rejects_empty_grid():
    cfg = two_bus_cfg()
    with pytest.raises(InputError):
        sweep_mu_sigma(cfg, [], [0.1])


def test_scenario_config_validation():
    with pytest.raises(InputError):
        two_bus_cfg(sample_count=0)
    with pytest.raises(InputError):
        two_bus_cfg(approach="III")
    with pytest.raises(InputError):
        two_bus_cfg(flow_caps_mw=(-5.0,))
