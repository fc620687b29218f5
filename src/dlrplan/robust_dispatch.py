"""Centrally coordinated robust reserve procurement (approach I).

Procurement co-optimizes the dispatch, the reserve bounds and one
candidate re-dispatch per vertex of the polyhedral uncertainty set in
a single convex QP: if every vertex admits a covered re-dispatch, every
realization inside the set does too, by convexity.  The procured bound
is then the envelope of the per-vertex activations.

During operation the realized ratings are known and the cheapest
re-dispatch inside the procured bounds is a small LP; a schedule that
is already feasible needs (and gets) zero action.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import qp
from .errors import InfeasibleError, InputError, UncoveredRealizationError
from .network import GridModel, PtdfMatrices
from .uncertainty import PolytopeSet, check_dlr_alignment

# Deterministic preference for the lowest-index provider among equals.
_TIE_EPS = 1e-7


@dataclass(frozen=True)
class ProcurementResult:
    """Dispatch plus procured reserve bounds and the vertex actions behind them."""

    p_gen: np.ndarray            # MW per generator
    delta_up: np.ndarray         # procured upward bound, >= 0
    delta_dn: np.ndarray         # procured downward bound, <= 0
    cost_dispatch: float
    cost_procurement: float
    cost_worst_case: float       # max over vertices of the activation cost
    per_vertex_actions: tuple[tuple[np.ndarray, np.ndarray], ...]
    vertices_mw: np.ndarray      # the enforced DLR limits per vertex
    alpha: float
    objective: float

    @property
    def procured_mw(self) -> float:
        return float(self.delta_up.sum() - self.delta_dn.sum())


@dataclass(frozen=True)
class RedispatchAction:
    delta_plus: np.ndarray       # MW >= 0 per generator
    delta_minus: np.ndarray      # MW <= 0 per generator
    cost: float


def dc_opf(grid: GridModel, ptdf: PtdfMatrices,
           dlr_limits_mw: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Plain DC optimal dispatch; DLR lines at the given limits (default nominal).

    Returns (generation MW, dispatch cost).
    """
    ga = grid.gen_arrays
    n = grid.n_gens
    d_lim = np.asarray(dlr_limits_mw, dtype=float) if dlr_limits_mw is not None \
        else ptdf.dlr_base_mw
    lay = qp.VariableLayout()
    s_p = lay.add("p", n)
    g, h = qp.stack([lay.band([(s_p, ptdf.gen_dlr)], -ptdf.load_dlr, d_lim),
                     lay.band([(s_p, ptdf.gen_nlr)], -ptdf.load_nlr, ptdf.nlr_limit_mw)])
    sol = qp.solve(qp.ConvexProgram(
        c=ga.cost_linear, q=2.0 * np.diag(ga.cost_quad),
        a_eq=lay.rows((s_p, np.ones(n))), b_eq=[grid.total_load],
        g_ineq=g, h_ineq=h, lb=ga.p_min, ub=ga.p_max,
    ))
    if sol.status is qp.SolveStatus.INFEASIBLE:
        raise InfeasibleError("dispatch infeasible at the given line limits")
    if not sol.optimal:
        raise InfeasibleError(f"dispatch solve failed with status {sol.status.value}")
    p = np.clip(sol.x, ga.p_min, ga.p_max)
    return p, float(ga.cost_quad @ p**2 + ga.cost_linear @ p)


def procure_vertex_robust(grid: GridModel, ptdf: PtdfMatrices, w: PolytopeSet,
                          alpha: float = 0.0,
                          schedule_caps_mw: np.ndarray | None = None) -> ProcurementResult:
    """Joint dispatch + reserve procurement covering every vertex of ``w``.

    ``w`` is in per-unit over the DLR lines (same order as
    ``ptdf.dlr_line_index``); vertices convert to MW at each line's
    nominal base.  ``schedule_caps_mw`` optionally caps the scheduled
    (pre-redispatch) DLR flows, the knob swept in the case study.
    """
    if alpha < 0:
        raise InputError("alpha must be >= 0")
    check_dlr_alignment(w, ptdf.dlr_line_index)

    ga = grid.gen_arrays
    verts_mw = np.atleast_2d(w.vertices) * ptdf.dlr_base_mw[None, :]
    program, (s_p, s_up, s_dn, s_v) = _procurement_program(
        grid, ptdf, verts_mw, alpha, schedule_caps_mw)
    sol = qp.solve(program)
    if sol.status is qp.SolveStatus.INFEASIBLE:
        bad = _diagnose_vertices(grid, ptdf, verts_mw, alpha, schedule_caps_mw)
        raise InfeasibleError(
            "procurement infeasible: no covered re-dispatch exists"
            + (f"; violating vertices (p.u.): {bad}" if bad else ""),
            vertices=bad)
    if not sol.optimal:
        raise InfeasibleError(f"procurement solve failed with status {sol.status.value}")

    x = sol.x
    p = np.clip(x[s_p], ga.p_min, ga.p_max)
    raw_actions = []
    for sv_up, sv_dn in s_v:
        up = np.maximum(x[sv_up], 0.0)
        dn = np.maximum(x[sv_dn], 0.0)
        raw_actions.append((up, -dn))
    d_up = np.maximum(np.maximum(x[s_up], 0.0),
                      np.max([a[0] for a in raw_actions], axis=0))
    d_dn = np.maximum(np.maximum(x[s_dn], 0.0),
                      np.max([-a[1] for a in raw_actions], axis=0))
    d_up = np.minimum(d_up, ga.res_up_max)
    d_dn = np.minimum(d_dn, ga.res_dn_max)

    cost_disp = float(ga.cost_quad @ p**2 + ga.cost_linear @ p)
    cost_proc = float(ga.price_up @ d_up + ga.price_dn @ d_dn)
    prelim = ProcurementResult(
        p_gen=p, delta_up=d_up, delta_dn=-d_dn,
        cost_dispatch=cost_disp, cost_procurement=cost_proc, cost_worst_case=0.0,
        per_vertex_actions=tuple(raw_actions), vertices_mw=verts_mw,
        alpha=alpha, objective=float(sol.objective),
    )
    # Replace the QP's vertex actions (accurate only to the barrier
    # tolerance) with the exact minimal-cost action at each vertex, the
    # action the operator would in fact take.
    actions = []
    for i, vert in enumerate(np.atleast_2d(w.vertices)):
        try:
            act = operate_online(grid, ptdf, prelim, vert)
            actions.append((act.delta_plus, act.delta_minus))
        except (InfeasibleError, InputError):
            actions.append(raw_actions[i])
    cost_wc = max(float(ga.act_up @ up + ga.act_dn @ (-dn)) for up, dn in actions)
    return replace(prelim, per_vertex_actions=tuple(actions), cost_worst_case=cost_wc)


def _procurement_program(grid, ptdf, verts_mw, alpha, schedule_caps_mw):
    """The procurement program over the vertices ``verts_mw`` (MW).

    Returns it with its blocks: dispatch, procured up and down bounds,
    and one (up, down) action pair per vertex.
    """
    ga = grid.gen_arrays
    n = grid.n_gens
    k = len(ptdf.dlr_line_index)
    hd, hn, fd0, fn0 = ptdf.gen_dlr, ptdf.gen_nlr, ptdf.load_dlr, ptdf.load_nlr

    lay = qp.VariableLayout()
    s_p = lay.add("p", n)
    s_up = lay.add("d_up", n)
    s_dn = lay.add("d_dn", n)
    s_v = [(lay.add(f"v_up{i}", n), lay.add(f"v_dn{i}", n)) for i in range(len(verts_mw))]
    s_wc = lay.add("c_wc", 1) if alpha > 0 else None
    nx = lay.size

    tie = _TIE_EPS * np.arange(1, n + 1)
    c = np.zeros(nx)
    c[s_p] = ga.cost_linear
    c[s_up] = ga.price_up + tie
    c[s_dn] = ga.price_dn + tie
    # vanishing activation cost: slack vertices get the zero action, binding
    # ones the cheapest covering action, without disturbing the optimum
    for sv_up, sv_dn in s_v:
        c[sv_up] = 1e-6 * ga.act_up
        c[sv_dn] = 1e-6 * ga.act_dn
    if s_wc is not None:
        c[s_wc] = alpha
    q_diag = np.zeros(nx)
    q_diag[s_p] = 2.0 * ga.cost_quad
    q = sp.diags(q_diag)

    lb = np.full(nx, 0.0)
    ub = np.full(nx, np.inf)
    lb[s_p], ub[s_p] = ga.p_min, ga.p_max
    ub[s_up], ub[s_dn] = ga.res_up_max, ga.res_dn_max

    # balance of the schedule and of every vertex action
    ones, eye = np.ones(n), np.eye(n)
    a_eq = sp.vstack([lay.rows((s_p, ones))]
                     + [lay.rows((sv_up, ones), (sv_dn, -ones)) for sv_up, sv_dn in s_v],
                     format="csr")
    b_eq = np.concatenate([[grid.total_load], np.zeros(len(s_v))])

    blocks = []
    for lim, (sv_up, sv_dn) in zip(verts_mw, s_v):
        # activation within the procured envelope
        blocks.append((lay.rows((sv_up, eye), (s_up, -eye)), np.zeros(n)))
        blocks.append((lay.rows((sv_dn, eye), (s_dn, -eye)), np.zeros(n)))
        # line limits after the vertex's re-dispatch
        blocks.append(lay.band([(s_p, hd), (sv_up, hd), (sv_dn, -hd)], -fd0, lim))
        blocks.append(lay.band([(s_p, hn), (sv_up, hn), (sv_dn, -hn)], -fn0,
                               ptdf.nlr_limit_mw))
        if s_wc is not None:
            blocks.append((lay.rows((sv_up, ga.act_up), (sv_dn, ga.act_dn), (s_wc, -1.0)),
                           np.zeros(1)))
    if schedule_caps_mw is not None:
        caps = np.asarray(schedule_caps_mw, dtype=float)
        if caps.size != k:
            raise InputError(f"schedule_caps_mw must have length {k}")
        blocks.append(lay.band([(s_p, hd)], -fd0, caps))
    g, h = qp.stack(blocks)
    # each vertex's action couples to the others only through p, d_up, d_dn and c_wc
    program = qp.ConvexProgram(c=c, q=q, a_eq=a_eq, b_eq=b_eq, g_ineq=g, h_ineq=h,
                               lb=lb, ub=ub,
                               blocks=tuple(slice(sv_up.start, sv_dn.stop) for sv_up, sv_dn in s_v))
    return program, (s_p, s_up, s_dn, s_v)


def _diagnose_vertices(grid, ptdf, verts_mw, alpha, schedule_caps_mw):
    """Vertices (p.u.) that no covered re-dispatch reaches: the procurement
    program over that vertex alone is infeasible."""
    bad = []
    for lim in verts_mw:
        program, _ = _procurement_program(grid, ptdf, lim[None, :], alpha, schedule_caps_mw)
        if qp.solve(program).status is qp.SolveStatus.INFEASIBLE:
            bad.append(tuple(np.round(lim / ptdf.dlr_base_mw, 6).tolist()))
    return bad


def operate_online(grid: GridModel, ptdf: PtdfMatrices, proc: ProcurementResult,
                   delta_realized_pu: np.ndarray) -> RedispatchAction:
    """Cheapest re-dispatch inside procured bounds for the realized ratings.

    Raises UncoveredRealizationError (naming the overloaded lines) when
    the realization lies outside what the procurement can cover.
    """
    delta = np.atleast_1d(np.asarray(delta_realized_pu, dtype=float))
    k = len(ptdf.dlr_line_index)
    if delta.size != k:
        raise InputError(f"realization must have length {k}")
    if np.any(delta <= 0):
        raise InputError("realized ratings must be positive")

    ga = grid.gen_arrays
    n = grid.n_gens
    lim_d = delta * ptdf.dlr_base_mw
    lim_n = ptdf.nlr_limit_mw
    hd, hn = ptdf.gen_dlr, ptdf.gen_nlr
    f_d0 = hd @ proc.p_gen - ptdf.load_dlr
    f_n0 = hn @ proc.p_gen - ptdf.load_nlr

    if np.all(np.abs(f_d0) <= lim_d + 1e-9) and np.all(np.abs(f_n0) <= lim_n + 1e-9):
        zero = np.zeros(n)
        return RedispatchAction(delta_plus=zero, delta_minus=zero.copy(), cost=0.0)

    # Only generators with procured headroom can act; the LP stays small.
    act = np.flatnonzero((proc.delta_up > 1e-9) | (-proc.delta_dn > 1e-9))
    na = act.size
    if na == 0:
        lines = _overloaded_lines(ptdf, f_d0, lim_d, f_n0, lim_n)
        raise UncoveredRealizationError(
            f"no reserves procured but lines {lines} are overloaded", lines=lines)

    hd_a, hn_a = hd[:, act], hn[:, act]
    bound = np.maximum(proc.delta_up[act], -proc.delta_dn[act])
    # NLR rows whose zero-action slack exceeds any reachable flow change
    # can never bind; dropping them keeps the LP tiny.
    reach_n = np.abs(hn_a) @ bound
    keep_n = np.flatnonzero(np.abs(f_n0) + reach_n >= lim_n - 1e-9)
    hn_k = hn_a[keep_n]

    lay = qp.VariableLayout()
    s_up = lay.add("up", na)
    s_dn = lay.add("dn", na)
    nx = lay.size
    c = np.zeros(nx)
    c[s_up] = ga.act_up[act]
    c[s_dn] = ga.act_dn[act]
    lb = np.zeros(nx)
    ub = np.concatenate([proc.delta_up[act], -proc.delta_dn[act]])
    g, h = qp.stack([lay.band([(s_up, hd_a), (s_dn, -hd_a)], f_d0, lim_d),
                     lay.band([(s_up, hn_k), (s_dn, -hn_k)], f_n0[keep_n], lim_n[keep_n])])
    program = qp.ConvexProgram(c=c, a_eq=lay.rows((s_up, np.ones(na)), (s_dn, -np.ones(na))),
                               b_eq=[0.0], g_ineq=g, h_ineq=h, lb=lb, ub=ub)
    sol = qp.solve(program)
    if sol.status is qp.SolveStatus.INFEASIBLE:
        # One slack per line over both sides of its band.  The NLR lines
        # dropped above cannot bind, so they are not overloaded either.
        slack = qp.min_violation(program, np.concatenate(
            [np.tile(np.arange(k), 2), k + np.tile(np.arange(keep_n.size), 2)]))
        if slack is None:
            lines = _overloaded_lines(ptdf, f_d0, lim_d, f_n0, lim_n)
        else:
            ids = list(ptdf.dlr_line_index) + [ptdf.nlr_line_index[j] for j in keep_n]
            lines = [ids[i] for i in np.flatnonzero(slack > 1e-6)]
        raise UncoveredRealizationError(
            f"realization outside the covered set; overloaded lines: {lines}",
            lines=lines)
    if not sol.optimal:
        raise InfeasibleError(f"online re-dispatch failed with status {sol.status.value}")

    up = np.zeros(n)
    dn = np.zeros(n)
    up[act] = np.maximum(sol.x[s_up], 0.0)
    dn[act] = np.maximum(sol.x[s_dn], 0.0)
    cost = float(ga.act_up @ up + ga.act_dn @ dn)
    return RedispatchAction(delta_plus=up, delta_minus=-dn, cost=cost)


def procurement_to_doc(proc: ProcurementResult, grid: GridModel,
                       ptdf: PtdfMatrices) -> dict:
    """Documented report: costs, reserves per generator, per-vertex actions."""
    return {
        "approach": "I",
        "grid_name": grid.name,
        "dlr_lines": list(ptdf.dlr_line_index),
        "alpha": proc.alpha,
        "generators": [g.name for g in grid.generators],
        "p_gen_mw": proc.p_gen.tolist(),
        "delta_up_mw": proc.delta_up.tolist(),
        "delta_dn_mw": proc.delta_dn.tolist(),
        "cost_dispatch": proc.cost_dispatch,
        "cost_procurement": proc.cost_procurement,
        "cost_worst_case": proc.cost_worst_case,
        "objective": proc.objective,
        "vertices_pu": (proc.vertices_mw / ptdf.dlr_base_mw[None, :]).tolist(),
        "per_vertex_actions": [
            {"plus_mw": up.tolist(), "minus_mw": dn.tolist()}
            for up, dn in proc.per_vertex_actions
        ],
    }


def procurement_from_doc(doc: dict, grid: GridModel,
                         ptdf: PtdfMatrices) -> ProcurementResult:
    """Rebuild a ProcurementResult from its report document."""
    if doc.get("approach") != "I":
        raise InputError("not an approach-I procurement report")
    names = [g.name for g in grid.generators]
    if doc.get("generators") != names:
        raise InputError("procurement report generators do not match the grid")
    if tuple(doc.get("dlr_lines", ())) != ptdf.dlr_line_index:
        raise InputError("procurement report DLR lines do not match the grid")
    verts_pu = np.asarray(doc["vertices_pu"], dtype=float)
    actions = tuple(
        (np.asarray(a["plus_mw"], dtype=float), np.asarray(a["minus_mw"], dtype=float))
        for a in doc["per_vertex_actions"]
    )
    return ProcurementResult(
        p_gen=np.asarray(doc["p_gen_mw"], dtype=float),
        delta_up=np.asarray(doc["delta_up_mw"], dtype=float),
        delta_dn=np.asarray(doc["delta_dn_mw"], dtype=float),
        cost_dispatch=float(doc["cost_dispatch"]),
        cost_procurement=float(doc["cost_procurement"]),
        cost_worst_case=float(doc["cost_worst_case"]),
        per_vertex_actions=actions,
        vertices_mw=verts_pu * ptdf.dlr_base_mw[None, :],
        alpha=float(doc.get("alpha", 0.0)),
        objective=float(doc.get("objective", 0.0)),
    )


def _overloaded_lines(ptdf, f_d0, lim_d, f_n0, lim_n):
    lines = [ptdf.dlr_line_index[i] for i in np.flatnonzero(np.abs(f_d0) > lim_d + 1e-9)]
    lines += [ptdf.nlr_line_index[i] for i in np.flatnonzero(np.abs(f_n0) > lim_n + 1e-9)]
    return lines
