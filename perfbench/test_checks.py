"""The benchmark's output checks accept the program's outputs and reject
corrupted ones.  Run with ``python3 -m pytest perfbench``."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles as orc  # noqa: E402
from workloads import GAMMA, FACETS, Sweep, check_approach_two  # noqa: E402

from dlrplan import (  # noqa: E402
    UncoveredRealizationError,
    build_ellipsoid,
    build_polytope,
    compute_ptdf,
    load_forecast,
    load_grid,
    operate_online,
    procure_affine,
    procure_vertex_robust,
)
import dlrplan.qp as qp  # noqa: E402

DATA = ROOT / "src" / "dlrplan" / "data"


@pytest.fixture(scope="module")
def case():
    grid = load_grid(DATA / "rts96_two_area.json")
    ptdf = compute_ptdf(grid)
    forecast = load_forecast(DATA / "forecast_3h.json")
    e_set = build_ellipsoid(forecast, GAMMA)
    programs = []
    solve = qp.solve

    def keep(program, *args, **kwargs):
        sol = solve(program, *args, **kwargs)
        programs.append((program, sol))
        return sol

    qp.solve = keep
    try:
        plan = procure_vertex_robust(grid, ptdf, build_polytope(e_set, facets_per_2d_cycle=FACETS))
    finally:
        qp.solve = solve
    program, sol = max(programs, key=lambda ps: ps[0].n)
    return {"grid": grid, "ptdf": ptdf, "forecast": forecast, "e_set": e_set, "plan": plan,
            "program": program, "x": sol.x, "dc": orc.DcGrid(DATA / "rts96_two_area.json")}


def _vertex_problems(case, plan, cost_worst_case=None):
    dc = case["dc"]
    f = case["forecast"]
    verts = orc.polytope_vertices_pu(f.mu, f.sigma, GAMMA, FACETS) * dc.limit[dc.dlr]
    return orc.check_vertex_plan(dc, plan.p_gen, plan.delta_up, -plan.delta_dn, verts,
                                 plan.cost_worst_case if cost_worst_case is None else cost_worst_case)


def test_vertex_check_accepts_the_plan(case):
    assert _vertex_problems(case, case["plan"]) == []


def test_vertex_check_rejects_raised_worst_case_cost(case):
    assert _vertex_problems(case, case["plan"], case["plan"].cost_worst_case * (1 + 1e-3))


def test_vertex_check_rejects_bound_cut_below_a_vertex_need(case):
    plan = case["plan"]
    dc = case["dc"]
    costs = [float(dc.act_up @ up - dc.act_dn @ dn) for up, dn in plan.per_vertex_actions]
    up, _ = plan.per_vertex_actions[int(np.argmax(costs))]
    unit = int(np.argmax(up))
    delta_up = plan.delta_up.copy()
    delta_up[unit] = up[unit] - 1.0
    assert _vertex_problems(case, dataclasses.replace(plan, delta_up=delta_up))


def test_first_order_check_accepts_the_solution_and_rejects_a_worse_point(case):
    program, x = case["program"], case["x"]
    assert orc.check_first_order_optimal(program, x) == []
    worse = x.copy()
    worse[case["grid"].n_gens] += 1.0          # one more MW of upward reserve
    assert orc.check_first_order_optimal(program, worse)


def _covered_realization(case):
    grid, ptdf, plan, dc = case["grid"], case["ptdf"], case["plan"], case["dc"]
    rng = np.random.default_rng(0)
    for delta in case["forecast"].mu + 0.2 * rng.standard_normal((500, 2)):
        try:
            act = operate_online(grid, ptdf, plan, delta)
        except UncoveredRealizationError:
            continue
        if act.cost > 0.0:
            return delta * dc.limit[dc.dlr], act
    raise AssertionError("no covered realization that needs an action")


def test_redispatch_check_rejects_raised_cost_and_off_balance_action(case):
    dc, plan = case["dc"], case["plan"]
    dlr_mw, act = _covered_realization(case)
    oracle = dc.cheapest_redispatch(plan.p_gen, plan.delta_up, -plan.delta_dn, dlr_mw)

    def problems(plus, minus, cost):
        return orc.check_redispatch(dc, plan.p_gen, plan.delta_up, -plan.delta_dn, dlr_mw,
                                    plus, minus, cost, oracle)

    assert problems(act.delta_plus, act.delta_minus, act.cost) == []
    raised = act.cost * (1 + 1e-3)
    assert any("HiGHS optimum" in p for p in problems(act.delta_plus, act.delta_minus, raised))
    moved = act.delta_plus.copy()
    moved[int(np.argmax(moved))] += 0.01
    assert any("off balance" in p for p in problems(moved, act.delta_minus, act.cost))


def test_policy_check_rejects_off_balance_action(case):
    grid, ptdf, forecast = case["grid"], case["ptdf"], case["forecast"]
    base = case["dc"].limit[case["dc"].dlr]
    pp = procure_affine(grid, ptdf, case["e_set"], 0.95 * forecast.mu * base)
    assert check_approach_two(case["dc"], pp, forecast, np.random.default_rng(1)) == []
    d = pp.policy.d.copy()
    d[int(np.argmax(np.abs(d).sum(axis=1)))] += 0.01
    bad = dataclasses.replace(pp, policy=dataclasses.replace(pp.policy, d=d))
    assert any("off balance" in p
               for p in check_approach_two(case["dc"], bad, forecast, np.random.default_rng(1)))


def test_sweep_check_rejects_raised_dispatch_cost(tmp_path):
    dc = orc.DcGrid(DATA / "rts96_two_area.json")
    opf = orc.dc_opf_cost(dc, np.array([150.0, 150.0]))

    def sweep_with(cost_150):
        sw = Sweep(ROOT, 0, None, tmp_path)
        rows, plots = [], {"I": [], "II": []}
        for cap in Sweep.CAPS:
            for label in ("I", "II"):
                cost = cost_150 if (cap, label) == (150.0, "I") else opf
                rows.append({"cap_mw_1": str(cap), "approach": label, "status": "ok",
                             "procured_mw": "0", "dispatch_cost": repr(cost),
                             "feasibility_rate": "1", "savings_pct": "1"})
                plots[label].append({"cap_mw_1": str(cap), "savings_pct": "1"})
        sw.runs = [{"rows": rows, "plots": plots}]
        return sw.check()

    assert sweep_with(opf) == []
    assert sweep_with(opf * (1 + 1e-3)) == [(0, [f"dispatch cost {opf * (1 + 1e-3)!r} != "
                                                 f"DC-OPF {opf:.10g}"])]
