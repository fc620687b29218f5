"""Output checks made apart from dlrplan.

Nothing here calls the package's solver or its network code.  The grid
is read from its JSON document, line flows come from the benchmark's
own B-theta DC power flow, linear programs go to HiGHS
(``scipy.optimize.linprog(method="highs")``) and the one quadratic
dispatch goes to ``scipy.optimize.minimize``.  Each check returns a list
of problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.optimize import LinearConstraint, linprog, minimize

REL_TOL = 1e-6        # costs and objectives, relative
MW_TOL = 1e-5         # balance and bound slack of an action, MW
FLOW_REL_TOL = 1e-7   # line-flow slack, relative to the line limit
DUST_MW = 1e-6        # widening of procured bounds when HiGHS finds them short


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


class DcGrid:
    """The grid document as arrays, with a B-theta DC power flow."""

    def __init__(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        self.buses = [int(b) for b in doc["buses"]]
        pos = {b: i for i, b in enumerate(self.buses)}
        lines = doc["lines"]
        self.line_ids = [str(ln["id"]) for ln in lines]
        self.frm = np.array([pos[int(ln["from_bus"])] for ln in lines])
        self.to = np.array([pos[int(ln["to_bus"])] for ln in lines])
        self.x = np.array([float(ln["reactance_pu"]) for ln in lines])
        self.limit = np.array([float(ln["limit_mw"]) for ln in lines])
        self.is_dlr = np.array([bool(ln.get("is_dlr", False)) for ln in lines])
        self.dlr = np.flatnonzero(self.is_dlr)          # document order
        gens = doc["generators"]
        self.gen_bus = np.array([pos[int(g["bus"])] for g in gens])
        col = lambda key: np.array([float(g[key]) for g in gens])
        self.p_min, self.p_max = col("p_min_mw"), col("p_max_mw")
        self.cost_quad, self.cost_linear = col("cost_quad"), col("cost_linear")
        self.act_up = col("price_activation_up")
        self.act_dn = col("price_activation_down")
        self.load = np.zeros(len(self.buses))
        for ld in doc["loads"]:
            self.load[pos[int(ld["bus"])]] += float(ld["mw"])
        self.slack = pos[int(doc["slack_bus"])]
        self.n_bus, self.n_line, self.n_gen = len(self.buses), len(lines), len(gens)

        # Bbus = A' diag(1/x) A for the branch-bus incidence A.
        inc = sp.csr_matrix(
            (np.r_[np.ones(self.n_line), -np.ones(self.n_line)],
             (np.r_[np.arange(self.n_line), np.arange(self.n_line)], np.r_[self.frm, self.to])),
            shape=(self.n_line, self.n_bus))
        self.b_branch = sp.diags(1.0 / self.x) @ inc
        self.b_bus = (inc.T @ self.b_branch).tocsr()
        self.keep = np.array([i for i in range(self.n_bus) if i != self.slack])
        self._chol = sla.cho_factor(self.b_bus[self.keep][:, self.keep].toarray())
        self.gen_inc = sp.csr_matrix((np.ones(self.n_gen), (self.gen_bus, np.arange(self.n_gen))),
                                     shape=(self.n_bus, self.n_gen))

    def flows(self, p_gen) -> np.ndarray:
        """Line flows (MW) for generation ``p_gen`` (gens, or gens x cases)."""
        p = np.asarray(p_gen, dtype=float)
        inj = self.gen_inc @ p - (self.load if p.ndim == 1 else self.load[:, None])
        theta = np.zeros(inj.shape)
        theta[self.keep] = sla.cho_solve(self._chol, inj[self.keep])
        return self.b_branch @ theta

    def limits(self, dlr_mw) -> np.ndarray:
        """Line limits with the DLR lines at ``dlr_mw`` (document order)."""
        lim = self.limit.copy()
        lim[self.dlr] = dlr_mw
        return lim

    def redispatch_lp(self, p_gen, up_max, dn_max, dlr_mw, widen: float = 0.0):
        """Cheapest re-dispatch of every unit within its bounds (widened by
        ``widen`` MW), every line within its limit, in B-theta form.
        Returns the HiGHS result.

        As in ``flows``, the slack bus absorbs any mismatch of the schedule
        (procured schedules are off balance by dust, 1.5e-5 MW at 24h), and
        the re-dispatch itself sums to zero."""
        n, nb = self.n_gen, self.n_bus
        lim = self.limits(dlr_mw)
        # variables: up (n), dn (n), theta (nb); rows: nodal balance off the
        # slack bus, theta at the slack bus, and the balance of the action
        c = np.r_[self.act_up, self.act_dn, np.zeros(nb)]
        nodal = sp.hstack([-self.gen_inc, self.gen_inc, self.b_bus], format="csr")[self.keep]
        slack_theta = sp.csr_matrix(([1.0], ([0], [2 * n + self.slack])), shape=(1, 2 * n + nb))
        action_sum = sp.csr_matrix(np.r_[np.ones(n), -np.ones(n), np.zeros(nb)][None, :])
        a_eq = sp.vstack([nodal, slack_theta, action_sum], format="csr")
        b_eq = np.r_[(self.gen_inc @ p_gen - self.load)[self.keep], 0.0, 0.0]
        flow = sp.hstack([sp.csr_matrix((self.n_line, 2 * n)), self.b_branch], format="csr")
        a_ub = sp.vstack([flow, -flow], format="csr")
        b_ub = np.r_[lim, lim]
        bounds = [(0.0, u + widen) for u in up_max] + [(0.0, d + widen) for d in dn_max] \
            + [(None, None)] * nb
        return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                       method="highs")

    def cheapest_redispatch(self, p_gen, up_max, dn_max, dlr_mw) -> float | None:
        """The least re-dispatch cost, or None when no re-dispatch covers
        the realization.  Procured bounds carry barrier dust (plans short
        of a vertex's need by up to 1e-7 MW were seen), so an LP that is
        infeasible as given is retried with bounds widened by DUST_MW."""
        res = self.redispatch_lp(p_gen, up_max, dn_max, dlr_mw)
        if res.status == 2:
            res = self.redispatch_lp(p_gen, up_max, dn_max, dlr_mw, widen=DUST_MW)
        if res.status not in (0, 2):
            raise RuntimeError(f"HiGHS ends with status {res.status}: {res.message}")
        return float(res.fun) if res.status == 0 else None


def check_redispatch(grid: DcGrid, p_gen, up_max, dn_max, dlr_mw,
                     plus, minus, cost, oracle_cost: float) -> list[str]:
    """A re-dispatch the program returned: balanced, inside its bounds,
    every line within its limit after it, priced as reported, and as
    cheap as the HiGHS optimum ``oracle_cost``.  Actions are not compared:
    identical units make them non-unique."""
    out = []
    net = np.asarray(plus) + np.asarray(minus)
    if abs(net.sum()) > MW_TOL:
        out.append(f"action off balance by {net.sum():.3e} MW")
    if np.any(plus < -MW_TOL) or np.any(plus > up_max + MW_TOL) \
            or np.any(minus > MW_TOL) or np.any(-minus > dn_max + MW_TOL):
        out.append("action outside the procured bounds")
    lim = grid.limits(dlr_mw)
    over = np.abs(grid.flows(p_gen + net)) - lim
    if np.any(over > FLOW_REL_TOL * lim):
        out.append(f"line {grid.line_ids[int(np.argmax(over / lim))]} over its limit "
                   f"by {over.max():.3e} MW after the action")
    priced = float(grid.act_up @ plus - grid.act_dn @ minus)
    if rel_gap(priced, cost) > REL_TOL:
        out.append(f"reported cost {cost:.9g} != priced action {priced:.9g}")
    if rel_gap(cost, oracle_cost) > REL_TOL:
        out.append(f"re-dispatch cost {cost:.9g} != HiGHS optimum {oracle_cost:.9g}")
    return out


def polytope_vertices_pu(mu, sigma, gamma: float, facets: int) -> np.ndarray:
    """Vertices of the regular polygon circumscribing the gamma-ellipsoid of
    a two-line forecast (chi-squared with two degrees of freedom in closed
    form)."""
    mu = np.asarray(mu, dtype=float)
    if mu.size != 2:
        raise ValueError("the vertex oracle covers two DLR lines")
    w, v = np.linalg.eigh(np.asarray(sigma, dtype=float))
    b = v * np.sqrt(np.maximum(w, 0.0))
    r = math.sqrt(-2.0 * math.log(1.0 - gamma)) / math.cos(math.pi / facets)
    ang = 2.0 * math.pi * np.arange(facets) / facets + math.pi / facets
    return mu[None, :] + (r * np.column_stack([np.cos(ang), np.sin(ang)])) @ b.T


def check_vertex_plan(grid: DcGrid, p_gen, up_max, dn_max, vertices_mw, cost_worst_case) -> list[str]:
    """Approach I: every vertex has a covering re-dispatch, and the dearest
    one costs ``cost_worst_case``."""
    out, costs = [], []
    for vert in vertices_mw:
        cost = grid.cheapest_redispatch(p_gen, up_max, dn_max, vert)
        if cost is None:
            out.append(f"vertex {np.round(vert, 3).tolist()} MW has no covering re-dispatch")
        else:
            costs.append(cost)
    if not out and rel_gap(max(costs), cost_worst_case) > REL_TOL:
        out.append(f"cost_worst_case {cost_worst_case:.9g} != largest vertex optimum "
                   f"{max(costs):.9g}")
    return out


def check_same_vertices(own_mw, program_mw) -> list[str]:
    key = lambda m: np.array(sorted(map(tuple, np.round(np.asarray(m), 6))))
    a, b = key(own_mw), key(program_mw)
    if a.shape != b.shape or np.abs(a - b).max() > 1e-5:
        return ["the plan's vertices are not those of the forecast's polytope"]
    return []


def check_first_order_optimal(program, x) -> list[str]:
    """Linearise the program's objective at ``x``; HiGHS minimises that
    linear function over the program's feasible set.  A descent larger
    than REL_TOL of the objective means ``x`` is not optimal."""
    c = np.asarray(program.c, dtype=float)
    q = program.q
    grad = c + (q @ x if q is not None else 0.0)
    f = float(c @ x + (0.5 * x @ (q @ x) if q is not None else 0.0))
    n = c.size
    lb = program.lb if program.lb is not None else np.full(n, -np.inf)
    ub = program.ub if program.ub is not None else np.full(n, np.inf)
    bounds = np.column_stack([np.where(np.isfinite(lb), lb, np.nan),
                              np.where(np.isfinite(ub), ub, np.nan)])
    bounds = [tuple(None if math.isnan(v) else v for v in row) for row in bounds]
    res = linprog(grad, A_ub=program.g_ineq, b_ub=program.h_ineq,
                  A_eq=program.a_eq, b_eq=program.b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        return [f"HiGHS could not minimise the linearised program (status {res.status})"]
    descent = float(grad @ x - res.fun)
    if descent > REL_TOL * max(1.0, abs(f)):
        return [f"linearised program descends by {descent:.6g} from objective {f:.9g}"]
    return []


def ellipsoid_points(mu, sigma, gamma: float, count: int, rng) -> np.ndarray:
    """Uniform points inside the gamma-ellipsoid of a two-line forecast."""
    mu = np.asarray(mu, dtype=float)
    if mu.size != 2:
        raise ValueError("the ellipsoid oracle covers two DLR lines")
    chol = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    d = rng.standard_normal((count, 2))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = math.sqrt(-2.0 * math.log(1.0 - gamma)) * np.sqrt(rng.uniform(0.0, 1.0, count))
    return mu[None, :] + (d * r[:, None]) @ chol.T


def check_policy(grid: DcGrid, p_gen, d, y_mw, base_mw, env_up, env_dn, deltas_pu) -> list[str]:
    """Approach II at rating realizations ``deltas_pu``: every action sums to
    zero, stays in its envelope and leaves every line within its limit."""
    deficit = np.maximum(0.0, y_mw[None, :] - deltas_pu * base_mw[None, :])
    actions = deficit @ np.asarray(d).T                         # cases x gens
    out = []
    if np.abs(actions.sum(axis=1)).max() > MW_TOL:
        out.append(f"policy action off balance by {np.abs(actions.sum(axis=1)).max():.3e} MW")
    if np.any(actions > env_up[None, :] + MW_TOL) or np.any(actions < env_dn[None, :] - MW_TOL):
        out.append("policy action outside its procured envelope")
    f = grid.flows(p_gen[:, None] + actions.T)                   # lines x cases
    lim = np.repeat(grid.limit[:, None], deltas_pu.shape[0], axis=1)
    lim[grid.dlr] = (deltas_pu * base_mw[None, :]).T
    over = np.abs(f) - lim
    if np.any(over > FLOW_REL_TOL * lim):
        out.append(f"policy overloads a line by {over.max():.3e} MW")
    return out


def check_expected_cost(d_up, d_dn, y_mw, base_mw, act_up, act_dn, mu, sigma,
                        closed_form: float, count: int, rng) -> list[str]:
    """The closed-form expected activation cost against a Monte Carlo mean."""
    chol = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    draws = np.asarray(mu)[None, :] + rng.standard_normal((count, len(mu))) @ chol.T
    deficit = np.maximum(0.0, y_mw[None, :] - draws * base_mw[None, :])
    cost = deficit @ (np.asarray(d_up).T @ act_up + np.asarray(d_dn).T @ act_dn)
    se = cost.std(ddof=1) / math.sqrt(count)
    if abs(cost.mean() - closed_form) > 3.0 * se + 1e-9:
        return [f"expected operation cost {closed_form:.6g} vs Monte Carlo "
                f"{cost.mean():.6g} +- {se:.3g}"]
    return []


def dc_opf_cost(grid: DcGrid, dlr_mw) -> float:
    """Least dispatch cost with the DLR lines at ``dlr_mw``, a quadratic
    program solved by trust-constr over the B-theta flow sensitivities."""
    n = grid.n_gen
    theta_gen = np.zeros((grid.n_bus, n))
    theta_gen[grid.keep] = sla.cho_solve(grid._chol, grid.gen_inc.toarray()[grid.keep])
    sens = grid.b_branch @ theta_gen                     # flow per MW of each unit
    f_load = grid.flows(np.zeros(n))                     # flows of the load alone
    lim = grid.limits(dlr_mw)
    cons = [LinearConstraint(np.ones((1, n)), grid.load.sum(), grid.load.sum()),
            LinearConstraint(sens, -lim - f_load, lim - f_load)]
    cq, cl = grid.cost_quad, grid.cost_linear
    x0 = grid.p_min + (grid.p_max - grid.p_min) * (grid.load.sum() - grid.p_min.sum()) \
        / (grid.p_max - grid.p_min).sum()
    res = minimize(lambda p: float(cq @ p**2 + cl @ p), x0,
                   jac=lambda p: 2.0 * cq * p + cl, hess=lambda p: np.diag(2.0 * cq),
                   method="trust-constr", constraints=cons,
                   bounds=list(zip(grid.p_min, grid.p_max)),
                   options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000})
    return float(res.fun)
