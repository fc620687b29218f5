"""Approach II tests: affine policies and their procurement."""

import math

import numpy as np
import pytest

from dlrplan import data as bundled
from dlrplan.affine_policy import (
    AffinePolicy,
    export_policy,
    policy_action,
    procure_affine,
    select_y,
)
from dlrplan.errors import InfeasibleError, InputError
from dlrplan.network import GridModel, Line, compute_ptdf, load_grid
from dlrplan.robust_dispatch import dc_opf, procure_vertex_robust
from dlrplan.uncertainty import (
    RatingForecast,
    build_ellipsoid,
    build_polytope,
    chi2_quantile,
    load_forecast,
)

from test_network import two_bus_grid


def two_bus_ellipsoid(mu=1.5, sd=0.2, gamma=0.95):
    f = RatingForecast(mu=np.array([mu]), sigma=np.array([[sd**2]]))
    return build_ellipsoid(f, gamma)


def simple_policy():
    return AffinePolicy(
        d=np.array([[-1.0], [1.0]]),
        d_up=np.array([[0.0], [1.0]]),
        d_dn=np.array([[1.0], [0.0]]),
        y_mw=np.array([300.0]),
        dlr_base_mw=np.array([250.0]),
        delta_up=np.array([0.0, 25.0]),
        delta_dn=np.array([-25.0, 0.0]),
    )


# -- policy evaluation ---------------------------------------------------------

def test_action_zero_at_kink():
    pol = simple_policy()
    assert policy_action(pol, [300.0 / 250.0]) == pytest.approx([0.0, 0.0])


def test_action_zero_above_guarantee():
    pol = simple_policy()
    assert policy_action(pol, [1.4]) == pytest.approx([0.0, 0.0])
    assert policy_action(pol, [2.0]) == pytest.approx([0.0, 0.0])


def test_action_single_line_deficit():
    pol = simple_policy()
    act = policy_action(pol, [1.1])  # 275 MW, deficit 25
    assert act == pytest.approx([-25.0, 25.0])


def test_action_continuous_and_lipschitz():
    pol = simple_policy()
    lip = np.abs(pol.d).sum(axis=1).max() * pol.dlr_base_mw.max()
    deltas = np.linspace(1.0, 1.4, 81)
    prev = policy_action(pol, [deltas[0]])
    for d in deltas[1:]:
        cur = policy_action(pol, [d])
        step = np.abs(cur - prev).max()
        assert step <= lip * (deltas[1] - deltas[0]) + 1e-12
        prev = cur


def test_column_sum_zero_gives_balanced_actions():
    rng = np.random.default_rng(8)
    d_up = rng.uniform(0.0, 2.0, size=(5, 2))
    d_dn = d_up.copy()
    d_dn[0] += 1.0  # column sums: force balance by construction below
    d = d_up - d_dn
    d -= d.sum(axis=0, keepdims=True) / 5.0
    pol = AffinePolicy(
        d=d, d_up=np.maximum(d, 0), d_dn=np.maximum(-d, 0),
        y_mw=np.array([300.0, 280.0]), dlr_base_mw=np.array([250.0, 250.0]),
        delta_up=np.full(5, 10.0), delta_dn=np.full(5, -10.0),
    )
    for delta in rng.uniform(0.8, 1.6, size=(50, 2)):
        assert abs(policy_action(pol, delta).sum()) < 1e-10


# -- procurement on the two-bus grid ------------------------------------------

def test_two_bus_policy_matches_hand_solution():
    """At y = 300 MW the worst covered rating is 277.0 MW, so the slope
    pair must shift at least 23 MW from bus 1 to bus 2; unit slopes and
    that exact procurement are optimal."""
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    e = two_bus_ellipsoid()
    pp = procure_affine(g, ptdf, e, [300.0])
    worst = 250.0 * (1.5 - 0.2 * math.sqrt(chi2_quantile(1, 0.95)))
    need = 300.0 - worst
    assert need == pytest.approx(23.0, abs=2e-3)
    assert pp.p_gen == pytest.approx([300.0, 0.0], abs=1e-4)
    assert pp.policy.d[:, 0] == pytest.approx([-1.0, 1.0], abs=1e-6)
    assert pp.policy.delta_up[1] >= need - 1e-4
    assert -pp.policy.delta_dn[0] >= need - 1e-4
    assert pp.cost_procurement == pytest.approx(10.0 * 2 * need, abs=0.01)


def test_two_bus_policy_action_at_case_realization():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    pp = procure_affine(g, ptdf, two_bus_ellipsoid(), [300.0])
    act = policy_action(pp.policy, [1.1])
    assert act == pytest.approx([-25.0, 25.0], abs=1e-4)


def test_zero_guarantee_reduces_to_worst_vertex_dispatch():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    e = two_bus_ellipsoid()
    pp = procure_affine(g, ptdf, e, [0.0])
    worst = 250.0 * (1.5 - 0.2 * math.sqrt(e.rho))
    p_ref, cost_ref = dc_opf(g, ptdf, dlr_limits_mw=np.array([worst]))
    assert pp.p_gen == pytest.approx(p_ref, abs=1e-3)
    assert pp.cost_dispatch == pytest.approx(cost_ref, abs=0.05)
    assert pp.procured_mw == pytest.approx(0.0, abs=1e-3)
    assert np.abs(pp.policy.d).max() < 1e-3


def test_expected_operation_cost_matches_formula():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    e = two_bus_ellipsoid()
    pp = procure_affine(g, ptdf, e, [300.0])
    from dlrplan.uncertainty import truncated_deficit_expectation

    f = RatingForecast(mu=e.mu, sigma=e.sigma())
    e_mw = 250.0 * truncated_deficit_expectation(f, [300.0 / 250.0])
    ga_up = np.array([50.0, 50.0])
    ga_dn = np.array([20.0, 20.0])
    ref = float(ga_up @ (pp.policy.d_up @ e_mw) + ga_dn @ (pp.policy.d_dn @ e_mw))
    assert pp.cost_expected_operation == pytest.approx(ref, rel=1e-9)


def test_expected_cost_consistent_with_monte_carlo():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    e = two_bus_ellipsoid()
    pp = procure_affine(g, ptdf, e, [300.0])
    rng = np.random.default_rng(17)
    draws = rng.normal(1.5, 0.2, size=100_000)
    u = np.maximum(0.0, 300.0 - draws * 250.0)
    costs = (50.0 * pp.policy.d_up[1, 0] + 20.0 * pp.policy.d_dn[0, 0]) * u
    se = costs.std(ddof=1) / math.sqrt(costs.size)
    assert abs(costs.mean() - pp.cost_expected_operation) <= 3 * se


def test_policy_keeps_flows_feasible_inside_set():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    e = two_bus_ellipsoid()
    pp = procure_affine(g, ptdf, e, [300.0])
    r = math.sqrt(e.rho)
    for z in np.linspace(-r, r, 101):
        delta = 1.5 + 0.2 * z
        act = policy_action(pp.policy, [delta])
        flow = (pp.p_gen[0] + act[0])  # injection at bus 1 = line flow
        assert abs(flow) <= delta * 250.0 + 1e-4
        assert np.all(act <= pp.policy.delta_up + 1e-4)
        assert np.all(act >= pp.policy.delta_dn - 1e-4)


def test_guarantee_above_cap_rejected():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    with pytest.raises(InputError, match="cap"):
        procure_affine(g, ptdf, two_bus_ellipsoid(), [1000.0])


def _gen_small_caps(name, bus, c1, p_max=400.0):
    from dlrplan.network import Generator

    return Generator(
        name=name, bus=bus, p_min_mw=0.0, p_max_mw=p_max,
        cost_quad=0.0, cost_linear=c1,
        reserve_up_max_mw=1.0, reserve_down_max_mw=1.0,
        price_reserve_up=10.0, price_reserve_down=10.0,
        price_activation_up=50.0, price_activation_down=20.0,
    )


def test_infeasible_guarantee_names_lines():
    # 400 MW of load behind a 50 MW local unit forces at least 350 MW over
    # the line, but reserves are capped at 1 MW: no policy can cover the
    # low ratings.
    starved = GridModel(
        name="starved", buses=(1, 2),
        lines=(Line("1-2", 1, 2, 0.1, 250.0, is_dlr=True),),
        generators=(_gen_small_caps("cheap", 1, 10.0),
                    _gen_small_caps("dear", 2, 50.0, p_max=50.0)),
        loads=((2, 400.0),), slack_bus=2,
    )
    ptdf = compute_ptdf(starved)
    with pytest.raises(InfeasibleError) as err:
        procure_affine(starved, ptdf, two_bus_ellipsoid(), [300.0])
    assert "1-2" in err.value.lines


# -- y selection ---------------------------------------------------------------

def test_select_y_single_candidate_passthrough():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    e = two_bus_ellipsoid()
    y, pp = select_y(g, ptdf, e, [[300.0]])
    assert y == pytest.approx([300.0])
    direct = procure_affine(g, ptdf, e, [300.0])
    assert pp.total_planning_cost == pytest.approx(direct.total_planning_cost, rel=1e-9)


def test_select_y_matches_exhaustive_scan():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    e = two_bus_ellipsoid()
    grid_y = [[260.0], [280.0], [300.0], [320.0], [340.0]]
    totals = []
    for y in grid_y:
        pp = procure_affine(g, ptdf, e, y)
        totals.append(pp.total_planning_cost)
    y_star, pp_star = select_y(g, ptdf, e, grid_y)
    assert pp_star.total_planning_cost == pytest.approx(min(totals), rel=1e-9)
    assert y_star[0] == grid_y[int(np.argmin(np.round(totals, 6)))][0]


def test_select_y_all_infeasible_raises():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    with pytest.raises(InfeasibleError):
        select_y(g, ptdf, two_bus_ellipsoid(), [[2000.0], [3000.0]])


def test_select_y_cost_curve_unimodal_on_coarse_grid():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    e = two_bus_ellipsoid()
    ys = [250.0, 275.0, 300.0, 325.0, 350.0]
    totals = [procure_affine(g, ptdf, e, [y]).total_planning_cost for y in ys]
    k = int(np.argmin(totals))
    tol = 0.05  # flat stretches carry solver noise well below any price signal
    assert all(totals[i] >= totals[i + 1] - tol for i in range(k))
    assert all(totals[i] <= totals[i + 1] + tol for i in range(k, len(ys) - 1))


# -- export and RTS comparison --------------------------------------------------

def test_export_policy_document():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    pp = procure_affine(g, ptdf, two_bus_ellipsoid(), [300.0])
    doc = export_policy(pp, ptdf.dlr_line_index)
    assert doc["dlr_lines"] == ["1-2"]
    assert doc["y_mw"] == pytest.approx([300.0])
    assert len(doc["generators"]) == 2
    assert doc["generators"][0]["slope_mw_per_mw"] == pytest.approx([-1.0], abs=1e-6)


@pytest.mark.slow
def test_rts96_policy_procures_at_least_approach_one():
    """At matched flow limits, the rigid policy needs at least as much
    reserve as the freely re-optimizing approach I."""
    g = load_grid(bundled.rts96_grid_path())
    ptdf = compute_ptdf(g)
    f = RatingForecast(mu=np.array([1.5, 1.5]), sigma=np.diag([0.04, 0.04]),
                       line_ids=ptdf.dlr_line_index)
    e = build_ellipsoid(f, 0.95)
    w = build_polytope(e, facets_per_2d_cycle=8)
    y = np.array([330.0, 330.0])
    proc_i = procure_vertex_robust(g, ptdf, w, alpha=0.0, schedule_caps_mw=y)
    pp = procure_affine(g, ptdf, e, y)
    assert pp.procured_mw >= proc_i.procured_mw - 1e-3


@pytest.mark.slow
def test_rts96_infeasible_guarantee_names_binding_lines():
    """The elastic LP behind the diagnosis drives its barrier weights to
    the cap; the solver's retry must still reach its optimum."""
    g = load_grid(bundled.rts96_grid_path())
    ptdf = compute_ptdf(g)
    f = load_forecast(bundled.forecast_path("24h"))
    wide = RatingForecast(mu=f.mu, sigma=25.0 * f.sigma, line_ids=f.line_ids)
    with pytest.raises(InfeasibleError) as err:
        procure_affine(g, ptdf, build_ellipsoid(wide, 0.95), 1.05 * f.mu * ptdf.dlr_base_mw)
    assert err.value.lines == ["214-216", "216-219"]
