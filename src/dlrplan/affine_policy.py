"""Decentralized corrective control via affine policies (approach II).

Each reserve provider receives a slope matrix D and a guaranteed
transmission capacity y per DLR line.  When a measured rating delta
falls below y, the provider moves its setpoint by D times the deficit:

    action(delta) = D . max(0, y - delta)

No coordination is needed online; the zero-column-sum constraint on D
keeps any realized action balanced.  Procurement optimizes D, the
dispatch and the reserve envelope against every realization in the
gamma-ellipsoid.  The expected activation is priced with the
truncated-normal deficit expectation, so the objective carries the
expected (not worst-case) operating cost.

Robust constraints are enforced on vertices of the conservative
polyhedral outer approximation of the ellipsoid, split into the cells
where each line's deficit clamp is active or not; the policy is linear
on every cell, making vertex enforcement exact for the polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from . import qp
from .errors import InfeasibleError, InputError
from .network import GridModel, PtdfMatrices
from .uncertainty import (
    EllipsoidSet,
    RatingForecast,
    build_polytope,
    check_dlr_alignment,
    clip_polytope_z,
    truncated_deficit_expectation,
)

_DUST_EPS = 1e-9
# A guarantee may not exceed the forecast mean plus this many standard deviations.
_Y_CAP_SIGMA = 3.0


@dataclass(frozen=True)
class AffinePolicy:
    """Deployable policy artifact: slopes, thresholds, and procured envelope.

    The slopes ``d`` are always ``d_up - d_dn``.  A ``d`` given that
    differs (``dataclasses.replace(policy, d=...)``) replaces the split
    by its positive and negative parts.
    """

    d_up: np.ndarray             # nonnegative split of the slopes
    d_dn: np.ndarray
    y_mw: np.ndarray             # guaranteed capacity per DLR line
    dlr_base_mw: np.ndarray      # per-unit base converting realizations
    delta_up: np.ndarray         # procured upward bound, >= 0
    delta_dn: np.ndarray         # procured downward bound, <= 0
    d: np.ndarray | None = None  # generators x DLR lines, MW per MW deficit

    def __post_init__(self):
        if self.d is not None and not np.array_equal(self.d, self.d_up - self.d_dn):
            object.__setattr__(self, "d_up", np.maximum(self.d, 0.0))
            object.__setattr__(self, "d_dn", np.maximum(-self.d, 0.0))
        object.__setattr__(self, "d", self.d_up - self.d_dn)

    @property
    def n_gens(self) -> int:
        return self.d.shape[0]

    @property
    def n_lines(self) -> int:
        return self.d.shape[1]

    def deficit_mw(self, delta_realized_pu) -> np.ndarray:
        delta = np.atleast_1d(np.asarray(delta_realized_pu, dtype=float))
        if delta.size != self.n_lines:
            raise InputError(f"realization must have length {self.n_lines}")
        if not np.all(np.isfinite(delta)):
            raise InputError(f"realized ratings must be finite, got {delta.tolist()}")
        return np.maximum(0.0, self.y_mw - delta * self.dlr_base_mw)


def policy_action(policy: AffinePolicy, delta_realized_pu) -> np.ndarray:
    """Setpoint changes (MW per generator) for a realized rating vector.

    Piecewise linear and continuous; identically zero once every line
    delivers its guaranteed capacity.
    """
    return policy.d @ policy.deficit_mw(delta_realized_pu)


@dataclass(frozen=True)
class PolicyProcurement:
    p_gen: np.ndarray
    policy: AffinePolicy
    cost_dispatch: float
    cost_procurement: float
    cost_expected_operation: float
    objective: float
    enforcement_vertices_pu: np.ndarray

    @property
    def procured_mw(self) -> float:
        return float(self.policy.delta_up.sum() - self.policy.delta_dn.sum())

    @property
    def total_planning_cost(self) -> float:
        return self.cost_dispatch + self.cost_procurement + self.cost_expected_operation


def _enforcement_points(e_set: EllipsoidSet, y_mw: np.ndarray, base: np.ndarray,
                        facets: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the outer polytope split by per-line clamp activity.

    Returns (delta_mw points, deficit_mw points); within each activity
    cell the deficit is linear in delta, so these points make vertex
    enforcement exact for the polytope.
    """
    k = e_set.dim
    poly = build_polytope(e_set, facets_per_2d_cycle=facets)
    y_pu = y_mw / base
    thresh = y_pu - e_set.mu           # (B z)_i <= thresh_i means line i active
    points: list[np.ndarray] = []
    for r in range(k + 1):
        for active in combinations(range(k), r):
            normals, offsets = [], []
            for i in range(k):
                row = poly.b[i, :]
                if i in active:
                    normals.append(row)
                    offsets.append(thresh[i])
                else:
                    normals.append(-row)
                    offsets.append(-thresh[i])
            verts_z = clip_polytope_z(poly, normals, offsets)
            for z in np.atleast_2d(verts_z):
                if z.size:
                    points.append(e_set.mu + poly.b @ z)
    if not points:
        raise InfeasibleError("uncertainty set produced no enforcement points")
    delta_pu = np.unique(np.round(np.array(points), 9), axis=0)
    delta_mw = delta_pu * base[None, :]
    deficit = np.maximum(0.0, y_mw[None, :] - delta_mw)
    return delta_mw, deficit


def procure_affine(grid: GridModel, ptdf: PtdfMatrices, e_set: EllipsoidSet,
                   y_mw, facets: int = 8) -> PolicyProcurement:
    """Optimize dispatch, slopes D and reserve envelope for a given guarantee y.

    ``y_mw`` must stay below mu + 3 sigma per line (guaranteeing more
    than the forecast can deliver is rejected).
    """
    check_dlr_alignment(e_set, ptdf.dlr_line_index)
    k = len(ptdf.dlr_line_index)
    base = ptdf.dlr_base_mw
    y = np.atleast_1d(np.asarray(y_mw, dtype=float))
    if y.size != k:
        raise InputError(f"y must have length {k}")
    if not (np.all(np.isfinite(y)) and np.all(y >= 0)):
        raise InputError(f"guaranteed capacities must be finite and >= 0, got {y.tolist()}")
    sd_mw = np.sqrt(np.diag(e_set.sigma())) * base
    cap = e_set.mu * base + _Y_CAP_SIGMA * sd_mw
    if np.any(y > cap + 1e-9):
        raise InputError(
            f"y={y.tolist()} exceeds the conservative cap mu + {_Y_CAP_SIGMA} sigma "
            f"= {cap.tolist()}")

    f_pu = RatingForecast(mu=e_set.mu, sigma=e_set.sigma())
    e_mw = base * truncated_deficit_expectation(f_pu, y / base)

    delta_mw, deficits = _enforcement_points(e_set, y, base, facets)
    n_pts = delta_mw.shape[0]

    ga = grid.gen_arrays
    n = grid.n_gens

    lay = qp.VariableLayout()
    s_p = ga.add_schedule(lay)
    s_up, s_dn = ga.add_envelope(lay)
    # row-major: gen g, line j at g*k + j
    s_dup = lay.add("D_up", n * k, cost=np.kron(ga.act_up, e_mw) + _DUST_EPS)
    s_ddn = lay.add("D_dn", n * k, cost=np.kron(ga.act_dn, e_mw) + _DUST_EPS)

    a_eq, b_eq = _equalities(lay, s_p, s_dup, s_ddn, grid.total_load, k)
    blocks = []
    eye_n = np.eye(n)
    for v in range(n_pts):
        u = deficits[v]
        if u.max() > 0.0:
            mix = np.kron(eye_n, u[None, :])         # rows: (D u)_g
            blocks.append((lay.rows((s_dup, mix), (s_ddn, -mix), (s_up, -eye_n)), np.zeros(n)))
            blocks.append((lay.rows((s_dup, -mix), (s_ddn, mix), (s_dn, -eye_n)), np.zeros(n)))
        blocks += _flow_bands(lay, s_p, s_dup, s_ddn, ptdf, delta_mw[v], u)

    g, h = qp.stack(blocks)
    sol = qp.solve(lay.program(a_eq=a_eq, b_eq=b_eq, g_ineq=g, h_ineq=h))
    if sol.status is qp.SolveStatus.INFEASIBLE:
        lines = _binding_lines(grid, ptdf, delta_mw, deficits)
        raise InfeasibleError(
            f"no affine policy can guarantee y={y.tolist()} MW"
            + (f"; binding lines: {lines}" if lines else ""), lines=lines)
    if not sol.optimal:
        raise InfeasibleError(f"policy procurement failed with status {sol.status.value}")

    x = sol.x
    p = np.clip(x[s_p], ga.p_min, ga.p_max)
    d_up_m = np.maximum(x[s_dup], 0.0).reshape(n, k)
    d_dn_m = np.maximum(x[s_ddn], 0.0).reshape(n, k)
    # remove the common part: only the net slope matters and the split
    # must price the true up/down activations
    common = np.minimum(d_up_m, d_dn_m)
    d_up_m -= common
    d_dn_m -= common
    env_up = np.minimum(np.maximum(x[s_up], 0.0), ga.res_up_max)
    env_dn = np.minimum(np.maximum(x[s_dn], 0.0), ga.res_dn_max)
    act_mat = (d_up_m - d_dn_m) @ deficits.T         # n x n_pts actions
    env_up = np.maximum(env_up, act_mat.max(axis=1))
    env_dn = np.maximum(env_dn, -act_mat.min(axis=1))

    policy = AffinePolicy(d_up=d_up_m, d_dn=d_dn_m, y_mw=y, dlr_base_mw=base,
                          delta_up=env_up, delta_dn=-env_dn)
    cost_disp = float(ga.cost_quad @ p**2 + ga.cost_linear @ p)
    cost_proc = float(ga.price_up @ env_up + ga.price_dn @ env_dn)
    cost_op = float(ga.act_up @ (d_up_m @ e_mw) + ga.act_dn @ (d_dn_m @ e_mw))
    return PolicyProcurement(
        p_gen=p, policy=policy, cost_dispatch=cost_disp, cost_procurement=cost_proc,
        cost_expected_operation=cost_op, objective=float(sol.objective),
        enforcement_vertices_pu=delta_mw / base[None, :],
    )


def _equalities(lay, s_p, s_dup, s_ddn, total_load, k):
    """Power balance and zero column sums of D = D_up - D_dn."""
    n = s_p.stop - s_p.start
    cols = np.kron(np.ones(n), np.eye(k))       # row j sums D[:, j]
    a_eq = sp.vstack([lay.rows((s_p, np.ones(n))), lay.rows((s_dup, cols), (s_ddn, -cols))],
                     format="csr")
    return a_eq, np.concatenate([[total_load], np.zeros(k)])


def _flow_bands(lay, s_p, s_dup, s_ddn, ptdf, delta_mw, u):
    """DLR and NLR flow limits at one enforcement point: the schedule plus
    the policy's action for that point's deficits ``u``."""
    def terms(gen):
        shift = np.kron(gen, u[None, :])         # rows: flow change
        return [(s_p, gen), (s_dup, shift), (s_ddn, -shift)]
    return ptdf.bands(lay, terms, delta_mw)


def _binding_lines(grid, ptdf, delta_mw, deficits):
    """Lines that stay overloaded at the violation-minimizing policy,
    with the reserve envelope left out."""
    n = grid.n_gens
    k = delta_mw.shape[1]

    lay = qp.VariableLayout()
    s_p = grid.gen_arrays.add_schedule(lay)
    s_dup = lay.add("D_up", n * k)
    s_ddn = lay.add("D_dn", n * k)
    a_eq, b_eq = _equalities(lay, s_p, s_dup, s_ddn, grid.total_load, k)
    g, h = qp.stack([blk for point, u in zip(delta_mw, deficits)
                     for blk in _flow_bands(lay, s_p, s_dup, s_ddn, ptdf, point, u)])
    # one slack per line over both sides of its band, at every point
    n_nlr = len(ptdf.nlr_line_index)
    per_point = np.concatenate([np.tile(np.arange(k), 2), k + np.tile(np.arange(n_nlr), 2)])
    # min_violation reads the program's constraints and bounds, not its costs
    slack = qp.min_violation(lay.program(a_eq=a_eq, b_eq=b_eq, g_ineq=g, h_ineq=h),
                             np.tile(per_point, len(delta_mw)))
    if slack is None:
        return []
    ids = list(ptdf.dlr_line_index) + list(ptdf.nlr_line_index)
    return [ids[i] for i in np.flatnonzero(slack > 1e-6)]


def select_y(grid: GridModel, ptdf: PtdfMatrices, e_set: EllipsoidSet,
             y_grid_mw, facets: int = 8) -> tuple[np.ndarray, PolicyProcurement]:
    """Grid search over guarantee candidates; lowest planning cost wins.

    Ties break to the lexicographically smallest y.  Infeasible
    candidates are skipped; if every candidate fails, the collected
    reasons are raised.
    """
    candidates = [np.atleast_1d(np.asarray(y, dtype=float)) for y in y_grid_mw]
    if not candidates:
        raise InputError("y_grid_mw must be nonempty")
    best: tuple[float, tuple, np.ndarray, PolicyProcurement] | None = None
    failures: list[str] = []
    for y in candidates:
        try:
            pp = procure_affine(grid, ptdf, e_set, y, facets=facets)
        except (InfeasibleError, InputError) as exc:
            failures.append(f"y={y.tolist()}: {exc}")
            continue
        key = (round(pp.total_planning_cost, 6), tuple(y))
        if best is None or key < (best[0], best[1]):
            best = (key[0], key[1], y, pp)
    if best is None:
        raise InfeasibleError(
            "every y candidate failed:\n" + "\n".join(failures))
    return best[2], best[3]


def policy_procurement_to_doc(pp: PolicyProcurement, grid: GridModel,
                              ptdf: PtdfMatrices) -> dict:
    """Documented report for an approach-II procurement."""
    return {
        "approach": "II",
        "grid_name": grid.name,
        "dlr_lines": list(ptdf.dlr_line_index),
        "generators": [g.name for g in grid.generators],
        "p_gen_mw": pp.p_gen.tolist(),
        "cost_dispatch": pp.cost_dispatch,
        "cost_procurement": pp.cost_procurement,
        "cost_expected_operation": pp.cost_expected_operation,
        "objective": pp.objective,
        "enforcement_vertices_pu": pp.enforcement_vertices_pu.tolist(),
        "policy": export_policy(pp, ptdf.dlr_line_index),
    }


def policy_procurement_from_doc(doc: dict, grid: GridModel,
                                ptdf: PtdfMatrices) -> PolicyProcurement:
    """Rebuild a PolicyProcurement from its report document."""
    if doc.get("approach") != "II":
        raise InputError("not an approach-II procurement report")
    if doc.get("generators") != [g.name for g in grid.generators]:
        raise InputError("procurement report generators do not match the grid")
    if tuple(doc.get("dlr_lines", ())) != ptdf.dlr_line_index:
        raise InputError("procurement report DLR lines do not match the grid")
    policy = policy_from_doc(doc["policy"])
    return PolicyProcurement(
        p_gen=np.asarray(doc["p_gen_mw"], dtype=float),
        policy=policy,
        cost_dispatch=float(doc["cost_dispatch"]),
        cost_procurement=float(doc["cost_procurement"]),
        cost_expected_operation=float(doc["cost_expected_operation"]),
        objective=float(doc.get("objective", 0.0)),
        enforcement_vertices_pu=np.asarray(doc.get("enforcement_vertices_pu", []),
                                           dtype=float),
    )


def policy_from_doc(doc: dict) -> AffinePolicy:
    """Rebuild an AffinePolicy from its export document."""
    gens = doc["generators"]
    d = np.array([g["slope_mw_per_mw"] for g in gens], dtype=float)
    d_up = np.array([g["slope_up"] for g in gens], dtype=float)
    d_dn = np.array([g["slope_down"] for g in gens], dtype=float)
    if not (np.all(d_up >= 0) and np.all(d_dn >= 0)):
        raise InputError("policy slopes slope_up and slope_down must be >= 0")
    if d.shape != d_up.shape or d_up.shape != d_dn.shape \
            or not np.allclose(d, d_up - d_dn, rtol=1e-9, atol=1e-9):
        raise InputError("policy slope_mw_per_mw differs from slope_up - slope_down")
    return AffinePolicy(
        d_up=d_up,
        d_dn=d_dn,
        y_mw=np.asarray(doc["y_mw"], dtype=float),
        dlr_base_mw=np.asarray(doc["dlr_base_mw"], dtype=float),
        delta_up=np.array([g["procured_up_mw"] for g in gens], dtype=float),
        delta_dn=np.array([g["procured_down_mw"] for g in gens], dtype=float),
    )


def export_policy(pp: PolicyProcurement, line_ids) -> dict:
    """Serializable policy document a reserve provider would receive."""
    pol = pp.policy
    return {
        "dlr_lines": list(line_ids),
        "y_mw": pol.y_mw.tolist(),
        "dlr_base_mw": pol.dlr_base_mw.tolist(),
        "generators": [
            {
                "index": g,
                "slope_mw_per_mw": pol.d[g].tolist(),
                "slope_up": pol.d_up[g].tolist(),
                "slope_down": pol.d_dn[g].tolist(),
                "procured_up_mw": float(pol.delta_up[g]),
                "procured_down_mw": float(pol.delta_dn[g]),
            }
            for g in range(pol.n_gens)
        ],
    }
