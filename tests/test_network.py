"""Grid model and PTDF tests."""

import numpy as np
import pytest

from dlrplan import data as bundled
from dlrplan.errors import InputError
from dlrplan.network import (
    GridModel,
    Generator,
    Line,
    compute_ptdf,
    dlr_base_mw,
    flows,
    load_grid,
)


def _gen(name, bus, p_max=400.0, p_min=0.0, c1=10.0):
    return Generator(
        name=name, bus=bus, p_min_mw=p_min, p_max_mw=p_max,
        cost_quad=0.0, cost_linear=c1,
        reserve_up_max_mw=p_max, reserve_down_max_mw=p_max,
        price_reserve_up=10.0, price_reserve_down=10.0,
        price_activation_up=50.0, price_activation_down=20.0,
    )


def two_bus_grid(limit=250.0, is_dlr=True):
    return GridModel(
        name="two-bus",
        buses=(1, 2),
        lines=(Line(id="1-2", from_bus=1, to_bus=2, reactance_pu=0.1,
                    limit_mw=limit, is_dlr=is_dlr),),
        generators=(_gen("cheap", 1, c1=10.0), _gen("dear", 2, c1=50.0)),
        loads=((2, 300.0),),
        slack_bus=2,
    )


def test_two_bus_ptdf_is_one():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    assert ptdf.h_full[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert ptdf.h_full[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_two_bus_flow():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    f = flows(g, ptdf, np.array([100.0, -100.0]))
    assert f[0] == pytest.approx(100.0, abs=1e-9)


def test_zero_injections_zero_flows():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    assert flows(g, ptdf, np.zeros(2)) == pytest.approx(np.zeros(1))


def test_three_bus_ring_split():
    """Equal reactances, slack at 3, inject at 1: 2/3 direct, 1/3 two-hop.

    Hand oracle: theta solves B theta = p with the 2x2 reduced matrix
    [[2, -1], [-1, 2]] / x; injection e1 gives theta = x*(2/3, 1/3),
    so flow(1-3) = 2/3, flow(1-2) = 1/3, flow(2-3) = 1/3.
    """
    g = GridModel(
        name="ring",
        buses=(1, 2, 3),
        lines=(
            Line("1-2", 1, 2, 0.1, 100.0),
            Line("2-3", 2, 3, 0.1, 100.0),
            Line("1-3", 1, 3, 0.1, 100.0),
        ),
        generators=(_gen("g1", 1), _gen("g3", 3)),
        loads=((2, 50.0),),
        slack_bus=3,
    )
    ptdf = compute_ptdf(g)
    col = ptdf.h_full[:, 0]  # injection at bus 1
    assert col[ptdf_row(g, "1-3")] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert col[ptdf_row(g, "1-2")] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert col[ptdf_row(g, "2-3")] == pytest.approx(1.0 / 3.0, abs=1e-12)


def ptdf_row(grid, line_id):
    return [ln.id for ln in grid.lines].index(line_id)


def _brute_force_dc_flows(grid, injections):
    """Full susceptance solve per injection (independent of the PTDF path)."""
    idx = grid.bus_index()
    n = grid.n_buses
    b = np.zeros((n, n))
    for ln in grid.lines:
        i, j = idx[ln.from_bus], idx[ln.to_bus]
        y = 1.0 / ln.reactance_pu
        b[i, i] += y
        b[j, j] += y
        b[i, j] -= y
        b[j, i] -= y
    slack = idx[grid.slack_bus]
    keep = [i for i in range(n) if i != slack]
    theta = np.zeros(n)
    theta[keep] = np.linalg.solve(b[np.ix_(keep, keep)], injections[keep])
    return np.array([
        (theta[idx[ln.from_bus]] - theta[idx[ln.to_bus]]) / ln.reactance_pu
        for ln in grid.lines
    ])


def test_rts96_loads_with_expected_shape():
    g = load_grid(bundled.rts96_grid_path())
    assert g.n_buses == 48
    dlr = {ln.id: ln for ln in g.dlr_lines()}
    assert set(dlr) == {"214-216", "216-219"}
    assert dlr["214-216"].limit_mw == 250.0
    assert dlr["216-219"].limit_mw == 250.0
    assert dlr["214-216"].rating_spec is not None
    assert g.total_load == pytest.approx(5700.0)


def test_rts96_ptdf_matches_brute_force_dc():
    g = load_grid(bundled.rts96_grid_path())
    ptdf = compute_ptdf(g)
    rng = np.random.default_rng(0)
    for _ in range(5):
        inj = rng.normal(scale=50.0, size=g.n_buses)
        inj -= inj.mean()
        ref = _brute_force_dc_flows(g, inj)
        assert np.allclose(ptdf.h_full @ inj, ref, atol=1e-8)


def test_rts96_base_case_flows_match_full_solve():
    g = load_grid(bundled.rts96_grid_path())
    ptdf = compute_ptdf(g)
    load = g.load_vector()
    # proportional dispatch meeting the load
    caps = np.array([gen.p_max_mw for gen in g.generators])
    p = caps * (load.sum() / caps.sum())
    inj = g.gen_incidence() @ p - load
    ref = _brute_force_dc_flows(g, inj)
    assert np.allclose(flows(g, ptdf, inj), ref, atol=1e-6)


def test_flow_superposition():
    g = load_grid(bundled.rts96_grid_path())
    ptdf = compute_ptdf(g)
    rng = np.random.default_rng(1)
    p1 = rng.normal(scale=30.0, size=g.n_buses)
    p1 -= p1.mean()
    p2 = rng.normal(scale=30.0, size=g.n_buses)
    p2 -= p2.mean()
    lhs = flows(g, ptdf, p1 + p2)
    rhs = flows(g, ptdf, p1) + flows(g, ptdf, p2)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_slack_choice_does_not_change_physics():
    base = load_grid(bundled.rts96_grid_path())
    moved = GridModel(
        name=base.name, buses=base.buses, lines=base.lines,
        generators=base.generators, loads=base.loads, slack_bus=218,
    )
    p1 = compute_ptdf(base)
    p2 = compute_ptdf(moved)
    assert not np.allclose(p1.h_full, p2.h_full)
    rng = np.random.default_rng(2)
    inj = rng.normal(scale=40.0, size=base.n_buses)
    inj -= inj.mean()
    assert np.allclose(p1.h_full @ inj, p2.h_full @ inj, atol=1e-8)


def test_slack_injection_maps_to_zero_flow_change():
    g = load_grid(bundled.rts96_grid_path())
    ptdf = compute_ptdf(g)
    slack_col = list(g.buses).index(g.slack_bus)
    assert np.allclose(ptdf.h_full[:, slack_col], 0.0, atol=1e-12)


def test_dlr_nlr_rows_partition():
    g = load_grid(bundled.rts96_grid_path())
    ptdf = compute_ptdf(g)
    assert ptdf.h_dlr.shape[0] + ptdf.h_nlr.shape[0] == ptdf.h_full.shape[0]
    assert len(ptdf.nlr_limit_mw) == ptdf.h_nlr.shape[0]
    assert dlr_base_mw(g, ptdf) == pytest.approx([250.0, 250.0])


def test_compiled_flow_arrays_match_reference():
    g = load_grid(bundled.rts96_grid_path())
    ptdf = compute_ptdf(g)
    m_inc = g.gen_incidence()
    load = g.load_vector()
    assert np.array_equal(ptdf.gen_dlr, ptdf.h_dlr @ m_inc)
    assert np.array_equal(ptdf.gen_nlr, ptdf.h_nlr @ m_inc)
    assert np.array_equal(ptdf.load_dlr, ptdf.h_dlr @ load)
    assert np.array_equal(ptdf.load_nlr, ptdf.h_nlr @ load)
    limit = {ln.id: ln.limit_mw for ln in g.lines}
    assert ptdf.dlr_base_mw.tolist() == [limit[i] for i in ptdf.dlr_line_index]
    assert ptdf.nlr_limit_mw.tolist() == [limit[i] for i in ptdf.nlr_line_index]
    assert g.gen_arrays is g.gen_arrays
    assert g.gen_arrays.p_max.tolist() == [gen.p_max_mw for gen in g.generators]
    with pytest.raises(ValueError):
        ptdf.nlr_limit_mw[0] = 1.0


def test_imbalanced_injections_rejected():
    g = two_bus_grid()
    ptdf = compute_ptdf(g)
    with pytest.raises(InputError, match="sum"):
        flows(g, ptdf, np.array([100.0, 0.0]))


def test_two_bus_document_roundtrip(tmp_path):
    doc = {
        "name": "toy",
        "slack_bus": 2,
        "buses": [1, 2],
        "lines": [{"id": "1-2", "from_bus": 1, "to_bus": 2,
                   "reactance_pu": 0.1, "limit_mw": 100.0}],
        "generators": [{
            "name": "g1", "bus": 1, "p_min_mw": 0, "p_max_mw": 400,
            "cost_quad": 0, "cost_linear": 10,
            "reserve_up_max_mw": 100, "reserve_down_max_mw": 100,
            "price_reserve_up": 10, "price_reserve_down": 10,
            "price_activation_up": 50, "price_activation_down": 20}],
        "loads": [{"bus": 2, "mw": 50.0}],
    }
    g = load_grid(doc)
    assert len(g.lines) == 1
    import json
    p = tmp_path / "toy.json"
    p.write_text(json.dumps(doc))
    assert load_grid(p).lines == g.lines


def test_zero_reactance_rejected():
    doc = {
        "name": "bad", "slack_bus": 2, "buses": [1, 2],
        "lines": [{"id": "1-2", "from_bus": 1, "to_bus": 2,
                   "reactance_pu": 0.0, "limit_mw": 100.0}],
        "generators": [{
            "name": "g1", "bus": 1, "p_min_mw": 0, "p_max_mw": 400,
            "cost_quad": 0, "cost_linear": 10,
            "reserve_up_max_mw": 100, "reserve_down_max_mw": 100,
            "price_reserve_up": 10, "price_reserve_down": 10,
            "price_activation_up": 50, "price_activation_down": 20}],
        "loads": [{"bus": 2, "mw": 50.0}],
    }
    with pytest.raises(InputError, match="reactance"):
        load_grid(doc)


def test_disconnected_graph_rejected():
    with pytest.raises(InputError, match="connected"):
        GridModel(
            name="island", buses=(1, 2, 3),
            lines=(Line("1-2", 1, 2, 0.1, 100.0),),
            generators=(_gen("g1", 1),),
            loads=((2, 10.0),),
            slack_bus=1,
        )


def test_duplicate_line_ids_rejected():
    with pytest.raises(InputError, match="duplicate"):
        GridModel(
            name="dup", buses=(1, 2),
            lines=(Line("1-2", 1, 2, 0.1, 100.0), Line("1-2", 1, 2, 0.2, 100.0)),
            generators=(_gen("g1", 1),),
            loads=((2, 10.0),),
            slack_bus=1,
        )
