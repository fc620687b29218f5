"""Approach I tests: vertex-robust procurement and online re-dispatch."""

import numpy as np
import pytest
from scipy.optimize import linprog

from dlrplan import data as bundled
from dlrplan.errors import InfeasibleError, InputError, UncoveredRealizationError
from dlrplan.network import compute_ptdf, load_grid
from dlrplan.robust_dispatch import dc_opf, operate_online, procure_vertex_robust
from dlrplan.uncertainty import (
    EllipsoidSet,
    RatingForecast,
    build_ellipsoid,
    build_polytope,
    load_forecast,
    uniform_polytope_samples,
)

from test_network import two_bus_grid


def interval_polytope(mu=1.2, half_width=0.1):
    """1-D polytope with vertices mu -/+ half_width (p.u.)."""
    e = EllipsoidSet(mu=np.array([mu]), b=np.array([[half_width / 2.0]]),
                     rho=4.0, gamma=0.95)
    return build_polytope(e)


@pytest.fixture(scope="module")
def rts():
    g = load_grid(bundled.rts96_grid_path())
    return g, compute_ptdf(g)


# -- two-bus hand oracle -------------------------------------------------------

def test_two_bus_procurement_matches_hand_lp():
    """Hand LP: schedule 300 over the line, procure 25 down / 25 up.

    Dispatch 300 MW from the cheap unit costs 3000; covering the 275 MW
    vertex needs a 25 MW shift priced 10 $/MW in each direction (500).
    Any schedule backing off x MW to the expensive unit saves 20x of
    procurement but costs 40x extra dispatch, so 300/25/25 is optimal.
    """
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    w = interval_polytope()  # vertices 1.1, 1.3 p.u. = 275, 325 MW
    proc = procure_vertex_robust(g, ptdf, w, alpha=0.0)
    assert proc.p_gen == pytest.approx([300.0, 0.0], abs=1e-5)
    assert proc.delta_up == pytest.approx([0.0, 25.0], abs=1e-5)
    assert proc.delta_dn == pytest.approx([-25.0, 0.0], abs=1e-5)
    assert proc.cost_dispatch == pytest.approx(3000.0, abs=1e-3)
    assert proc.cost_procurement == pytest.approx(500.0, abs=1e-3)
    assert proc.cost_worst_case == pytest.approx(25 * 50.0 + 25 * 20.0, abs=1e-3)


def test_two_bus_vertex_actions_cover_low_vertex():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    proc = procure_vertex_robust(g, ptdf, interval_polytope(), alpha=0.0)
    low = np.argmin(proc.vertices_mw[:, 0])
    up, dn = proc.per_vertex_actions[low]
    assert up == pytest.approx([0.0, 25.0], abs=1e-5)
    assert dn == pytest.approx([-25.0, 0.0], abs=1e-5)
    high = np.argmax(proc.vertices_mw[:, 0])
    up_h, dn_h = proc.per_vertex_actions[high]
    assert np.allclose(up_h, 0.0, atol=1e-5)
    assert np.allclose(dn_h, 0.0, atol=1e-5)


def test_two_bus_online_action_at_low_realization():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    proc = procure_vertex_robust(g, ptdf, interval_polytope(), alpha=0.0)
    act = operate_online(g, ptdf, proc, np.array([1.1]))
    assert act.delta_minus == pytest.approx([-25.0, 0.0], abs=1e-5)
    assert act.delta_plus == pytest.approx([0.0, 25.0], abs=1e-5)
    assert act.cost == pytest.approx(1750.0, abs=1e-2)


def test_online_zero_action_when_schedule_feasible():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    proc = procure_vertex_robust(g, ptdf, interval_polytope(), alpha=0.0)
    act = operate_online(g, ptdf, proc, np.array([1.3]))
    assert np.all(act.delta_plus == 0.0)
    assert np.all(act.delta_minus == 0.0)
    assert act.cost == 0.0


def test_online_rejects_nonpositive_realization():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    proc = procure_vertex_robust(g, ptdf, interval_polytope(), alpha=0.0)
    with pytest.raises(InputError):
        operate_online(g, ptdf, proc, np.array([0.0]))


def test_online_uncovered_realization_names_line():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    proc = procure_vertex_robust(g, ptdf, interval_polytope(), alpha=0.0)
    with pytest.raises(UncoveredRealizationError) as err:
        operate_online(g, ptdf, proc, np.array([0.2]))  # 50 MW: beyond reserves
    assert err.value.lines == ["1-2"]


def test_degenerate_polytope_equals_plain_dispatch():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    f = RatingForecast(mu=np.array([1.5]), sigma=np.zeros((1, 1)))
    w = build_polytope(build_ellipsoid(f, 0.95))
    assert np.allclose(w.vertices, 1.5)
    proc = procure_vertex_robust(g, ptdf, w, alpha=0.0)
    p_ref, cost_ref = dc_opf(g, ptdf, dlr_limits_mw=np.array([1.5 * 250.0]))
    assert proc.p_gen == pytest.approx(p_ref, abs=1e-4)
    assert proc.cost_dispatch == pytest.approx(cost_ref, abs=1e-3)
    assert proc.procured_mw == pytest.approx(0.0, abs=1e-5)


def test_brute_force_grid_search_agrees():
    """1 MW-resolution exhaustive search over the two-bus schedule space."""
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    w = interval_polytope()
    proc = procure_vertex_robust(g, ptdf, w, alpha=0.0)

    best_cost, best_p1 = np.inf, None
    for p1 in range(0, 401):
        p2 = 300 - p1
        if p2 < 0:
            continue
        flow = float(p1)
        proc_up = np.zeros(2)
        proc_dn = np.zeros(2)
        ok = True
        for vert in (275.0, 325.0):
            need = max(0.0, flow - vert)  # shift from bus 1 to bus 2
            if need > 400.0 or p2 + need > 400.0:
                ok = False
                break
            proc_dn[0] = max(proc_dn[0], need)
            proc_up[1] = max(proc_up[1], need)
        if not ok:
            continue
        cost = 10.0 * p1 + 50.0 * p2 + 10.0 * (proc_up.sum() + proc_dn.sum())
        if cost < best_cost:
            best_cost, best_p1 = cost, p1
    total_qp = proc.cost_dispatch + proc.cost_procurement
    assert abs(total_qp - best_cost) <= 1.0 + 1e-6
    assert abs(proc.p_gen[0] - best_p1) <= 1.0 + 1e-6


# -- invariants ---------------------------------------------------------------

def test_procured_bounds_dominate_vertex_actions():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    proc = procure_vertex_robust(g, ptdf, interval_polytope(), alpha=0.5)
    for up, dn in proc.per_vertex_actions:
        assert np.all(up <= proc.delta_up + 1e-7)
        assert np.all(dn >= proc.delta_dn - 1e-7)
        assert abs(up.sum() + dn.sum()) <= 1e-6


def test_robust_feasibility_across_polytope_samples():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    w = interval_polytope()
    proc = procure_vertex_robust(g, ptdf, w, alpha=0.0)
    draws = uniform_polytope_samples(w, 300, seed=3)
    for delta in draws:
        act = operate_online(g, ptdf, proc, delta)
        assert abs(act.delta_plus.sum() + act.delta_minus.sum()) <= 1e-6


def test_infeasible_procurement_names_vertex():
    from dlrplan.network import GridModel, Line

    from test_network import _gen

    # 300 MW load at bus 2 but only 50 MW local: at least 250 MW must flow,
    # far above the ~25 MW vertices.
    g = GridModel(
        name="starved", buses=(1, 2),
        lines=(Line("1-2", 1, 2, 0.1, 250.0, is_dlr=True),),
        generators=(_gen("cheap", 1, c1=10.0), _gen("small", 2, p_max=50.0, c1=50.0)),
        loads=((2, 300.0),), slack_bus=2,
    )
    ptdf = compute_ptdf(g)
    w = interval_polytope(mu=0.1, half_width=0.05)
    with pytest.raises(InfeasibleError) as err:
        procure_vertex_robust(g, ptdf, w, alpha=0.0)
    assert err.value.vertices  # the uncoverable vertices are called out


def test_uncoverable_vertex_named_in_plain_floats():
    from dlrplan.network import GridModel, Line

    from test_affine_policy import _gen_small_caps

    # 300 MW of load behind a 50 MW local unit puts at least 250 MW on the
    # line: the 0.95 p.u. (237.5 MW) vertex cannot be met, 1.05 p.u. can.
    g = GridModel(
        name="starved", buses=(1, 2),
        lines=(Line("1-2", 1, 2, 0.1, 250.0, is_dlr=True),),
        generators=(_gen_small_caps("cheap", 1, 10.0),
                    _gen_small_caps("small", 2, 50.0, p_max=50.0)),
        loads=((2, 300.0),), slack_bus=2,
    )
    w = interval_polytope(mu=1.0, half_width=0.05)
    with pytest.raises(InfeasibleError) as err:
        procure_vertex_robust(g, compute_ptdf(g), w, alpha=0.0)
    assert err.value.vertices == [(0.95,)]
    assert all(type(v) is float for vert in err.value.vertices for v in vert)
    assert "[(0.95,)]" in str(err.value)


def test_dimension_mismatch_rejected(rts):
    g, ptdf = rts
    with pytest.raises(InputError):
        procure_vertex_robust(g, ptdf, interval_polytope(), alpha=0.0)


def test_line_id_alignment_checked(rts):
    g, ptdf = rts
    f = RatingForecast(mu=np.array([1.5, 1.5]), sigma=np.diag([0.04, 0.04]),
                       line_ids=("216-219", "214-216"))  # swapped
    w = build_polytope(build_ellipsoid(f, 0.95))
    with pytest.raises(InputError, match="do not match"):
        procure_vertex_robust(g, ptdf, w, alpha=0.0)


# -- RTS-96 case study --------------------------------------------------------

def test_rts96_procurement_beats_status_quo(rts):
    g, ptdf = rts
    f = RatingForecast(mu=np.array([1.5, 1.5]), sigma=np.diag([0.04, 0.04]),
                       line_ids=ptdf.dlr_line_index)
    w = build_polytope(build_ellipsoid(f, 0.95), facets_per_2d_cycle=8)
    proc = procure_vertex_robust(g, ptdf, w, alpha=0.0)
    _, cost_nlr = dc_opf(g, ptdf)
    assert proc.cost_dispatch < cost_nlr
    assert proc.procured_mw > 0.0
    # schedule exceeds nominal on the congested DLR line
    sched = ptdf.gen_dlr @ proc.p_gen - ptdf.load_dlr
    assert np.max(np.abs(sched)) > 250.0


def test_rts96_alpha_shifts_procurement(rts):
    g, ptdf = rts
    f = RatingForecast(mu=np.array([1.5, 1.5]), sigma=np.diag([0.04, 0.04]),
                       line_ids=ptdf.dlr_line_index)
    w = build_polytope(build_ellipsoid(f, 0.95), facets_per_2d_cycle=8)
    p0 = procure_vertex_robust(g, ptdf, w, alpha=0.0)
    p1 = procure_vertex_robust(g, ptdf, w, alpha=0.1)
    assert p1.procured_mw >= p0.procured_mw - 1e-4
    assert p1.cost_worst_case <= p0.cost_worst_case + 1e-4


def _highs_online_cost(g, ptdf, proc, delta_pu):
    """Optimum of the online re-dispatch LP over every unit and every line,
    by HiGHS; None when that LP is infeasible."""
    ga = g.gen_arrays
    n = g.n_gens
    m_inc = g.gen_incidence()
    load = g.load_vector()
    h = np.vstack([ptdf.h_dlr, ptdf.h_nlr])
    shift = h @ m_inc
    f0 = shift @ proc.p_gen - h @ load
    limit = {ln.id: ln.limit_mw for ln in g.lines}
    lim = np.concatenate([delta_pu * [limit[i] for i in ptdf.dlr_line_index],
                          [limit[i] for i in ptdf.nlr_line_index]])
    res = linprog(
        c=np.concatenate([ga.act_up, ga.act_dn]),
        A_ub=np.vstack([np.hstack([shift, -shift]), np.hstack([-shift, shift])]),
        b_ub=np.concatenate([lim - f0, lim + f0]),
        A_eq=np.concatenate([np.ones(n), -np.ones(n)])[None, :], b_eq=[0.0],
        bounds=np.column_stack([np.zeros(2 * n), np.concatenate([proc.delta_up, -proc.delta_dn])]),
        method="highs",
    )
    if res.status == 2:     # infeasible: the realization is not covered
        return None
    assert res.status == 0, res.message
    return res.fun


def test_rts96_online_cost_matches_highs(rts):
    """Samples inside W_P that need action: the online LP's cost is HiGHS's optimum."""
    g, ptdf = rts
    f = load_forecast(bundled.forecast_path("24h"))
    w = build_polytope(build_ellipsoid(f, 0.95), facets_per_2d_cycle=8)
    proc = procure_vertex_robust(g, ptdf, w, alpha=0.0)
    checked = 0
    for delta in uniform_polytope_samples(w, 60, seed=42):
        act = operate_online(g, ptdf, proc, delta)
        if act.cost == 0.0:
            continue
        ref = _highs_online_cost(g, ptdf, proc, delta)
        assert act.cost == pytest.approx(ref, rel=1e-6)
        checked += 1
        if checked == 6:
            break
    assert checked == 6


def test_rts96_uncovered_exactly_where_highs_finds_no_redispatch(rts):
    """24h-forecast draws against the 3h alpha-0 plan, about 10% uncovered:
    ``operate_online`` raises exactly where HiGHS finds the LP infeasible,
    and elsewhere its cost is HiGHS's optimum."""
    g, ptdf = rts
    w3 = build_polytope(build_ellipsoid(load_forecast(bundled.forecast_path("3h")), 0.95),
                        facets_per_2d_cycle=8)
    proc = procure_vertex_robust(g, ptdf, w3, alpha=0.0)
    f24 = load_forecast(bundled.forecast_path("24h"))
    draws = np.random.default_rng(7).multivariate_normal(f24.mu, f24.sigma, size=120)
    uncovered = action = 0
    for delta in np.maximum(draws, 1e-6):
        ref = _highs_online_cost(g, ptdf, proc, delta)
        if ref is None:
            with pytest.raises(UncoveredRealizationError):
                operate_online(g, ptdf, proc, delta)
            uncovered += 1
            continue
        cost = operate_online(g, ptdf, proc, delta).cost
        assert cost == pytest.approx(ref, rel=1e-6)
        action += cost > 0.0
    assert uncovered >= 3 and action >= 3
