"""Monte Carlo evaluation and case-study sweeps.

Costs are compared against the status quo, the dispatch with every line
at its nominal (static) rating.  For each sampled rating realization,
approach I runs the online re-dispatch LP and approach II evaluates its
affine policy; per-sample feasibility is recorded, and realizations the
plan cannot cover are priced with a separate penalty, never folded
silently into the mean operating cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import affine_policy as ap
from . import robust_dispatch as rd
from .errors import InfeasibleError, InputError, UncoveredRealizationError
from .network import GridModel, PtdfMatrices
from .uncertainty import (
    EllipsoidSet,
    PolytopeSet,
    RatingForecast,
    build_ellipsoid,
    build_polytope,
    uniform_polytope_samples,
)

# Default guarantee candidates for approach II, as fractions of the
# forecast mean, when the scenario does not pin the flow caps.
DEFAULT_Y_FRACTIONS = (0.85, 0.95, 1.0, 1.05)


@dataclass(frozen=True)
class ScenarioConfig:
    """One evaluation scenario: grid, forecast, and method parameters."""

    grid: GridModel
    ptdf: PtdfMatrices
    forecast: RatingForecast
    gamma: float = 0.95
    alpha: float = 0.0
    approach: str = "both"               # "I", "II" or "both"
    flow_caps_mw: tuple[float, ...] | None = None
    sample_count: int = 1000
    seed: int = 0
    facets: int = 8
    infeasibility_penalty: float = 10_000.0   # $ per uncovered sample

    def __post_init__(self):
        if self.sample_count < 1:
            raise InputError("sample_count must be >= 1")
        if self.approach not in ("I", "II", "both"):
            raise InputError(f"approach must be I, II or both, got {self.approach!r}")
        if self.flow_caps_mw is not None:
            caps = tuple(float(c) for c in self.flow_caps_mw)
            if any(c <= 0 for c in caps):
                raise InputError("flow caps must be positive")
            object.__setattr__(self, "flow_caps_mw", caps)

    def ellipsoid(self) -> EllipsoidSet:
        return build_ellipsoid(self.forecast, self.gamma)

    def polytope(self) -> PolytopeSet:
        return build_polytope(self.ellipsoid(), facets_per_2d_cycle=self.facets)


@dataclass(frozen=True)
class ApproachReport:
    label: str
    dispatch_cost: float
    procured_mw: float
    procurement_cost: float
    mean_operational_cost: float
    total_cost: float
    savings_pct: float
    feasible: np.ndarray
    mean_penalty_cost: float

    @property
    def feasibility_rate(self) -> float:
        return float(np.mean(self.feasible))


@dataclass(frozen=True)
class EvaluationReport:
    status_quo_cost: float
    rows: tuple[ApproachReport, ...]
    sample_count: int
    seed: int


def status_quo_cost(grid: GridModel, ptdf: PtdfMatrices) -> float:
    """Dispatch cost with every line at its nominal rating."""
    _, cost = rd.dc_opf(grid, ptdf)
    return cost


def draw_realizations(forecast: RatingForecast, count: int, seed: int) -> np.ndarray:
    """Seeded N(mu, Sigma) rating draws, floored at a tiny positive value."""
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(forecast.mu, forecast.sigma, size=count,
                                    method="svd")
    return np.maximum(draws, 1e-6)


def _eval_approach_one(cfg: ScenarioConfig, proc: rd.ProcurementResult,
                       draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    costs = np.zeros(draws.shape[0])
    feasible = np.ones(draws.shape[0], dtype=bool)
    for i, delta in enumerate(draws):
        try:
            act = rd.operate_online(cfg.grid, cfg.ptdf, proc, delta)
            costs[i] = act.cost
        except (UncoveredRealizationError, InfeasibleError, InputError):
            feasible[i] = False
    return costs, feasible


def _eval_approach_two(cfg: ScenarioConfig, pp: ap.PolicyProcurement,
                       draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ga, ptdf = cfg.grid.gen_arrays, cfg.ptdf
    pol = pp.policy
    base = pol.dlr_base_mw
    deficits = np.maximum(0.0, pol.y_mw[None, :] - draws * base[None, :])
    cost_coef = pol.d_up.T @ ga.act_up + pol.d_dn.T @ ga.act_dn
    costs = deficits @ cost_coef

    hd_m, hn_m = ptdf.gen_dlr, ptdf.gen_nlr
    f_d0 = hd_m @ pp.p_gen - ptdf.load_dlr
    f_n0 = hn_m @ pp.p_gen - ptdf.load_nlr
    actions = deficits @ pol.d.T                      # samples x gens
    flows_d = f_d0[None, :] + deficits @ (hd_m @ pol.d).T
    flows_n = f_n0[None, :] + deficits @ (hn_m @ pol.d).T
    tol = 1e-6
    ok_d = np.all(np.abs(flows_d) <= draws * base[None, :] + tol, axis=1)
    ok_n = np.all(np.abs(flows_n) <= ptdf.nlr_limit_mw[None, :] + tol, axis=1)
    ok_env = np.all(actions <= pol.delta_up[None, :] + tol, axis=1) & \
        np.all(actions >= pol.delta_dn[None, :] - tol, axis=1)
    return costs, ok_d & ok_n & ok_env


def monte_carlo_eval(cfg: ScenarioConfig, proc) -> EvaluationReport:
    """Evaluate one procurement over seeded N(mu, Sigma) realizations.

    ``proc`` is a ProcurementResult (approach I) or PolicyProcurement
    (approach II).  The mean operating cost of approach I runs over the
    covered samples; uncovered ones appear in the feasibility flags and
    the separate penalty mean.
    """
    draws = draw_realizations(cfg.forecast, cfg.sample_count, cfg.seed)
    sq = status_quo_cost(cfg.grid, cfg.ptdf)
    return EvaluationReport(status_quo_cost=sq, rows=(_approach_row(cfg, proc, draws, sq),),
                            sample_count=cfg.sample_count, seed=cfg.seed)


def _approach_row(cfg: ScenarioConfig, proc, draws: np.ndarray, sq: float) -> ApproachReport:
    """One procurement's costs over the given draws, against status-quo cost ``sq``."""
    if isinstance(proc, rd.ProcurementResult):
        label = "I"
        costs, feasible = _eval_approach_one(cfg, proc, draws)
        mean_op = float(costs[feasible].mean()) if feasible.any() else 0.0
    elif isinstance(proc, ap.PolicyProcurement):
        label = "II"
        costs, feasible = _eval_approach_two(cfg, proc, draws)
        mean_op = float(costs.mean())
    else:
        raise InputError(f"unsupported procurement type {type(proc).__name__}")
    disp, proc_cost = proc.cost_dispatch, proc.cost_procurement
    total = disp + proc_cost + mean_op
    return ApproachReport(
        label=label, dispatch_cost=disp, procured_mw=proc.procured_mw,
        procurement_cost=proc_cost, mean_operational_cost=mean_op,
        total_cost=total, savings_pct=100.0 * (sq - total) / sq,
        feasible=feasible,
        mean_penalty_cost=cfg.infeasibility_penalty * float(1.0 - feasible.mean()),
    )


def procure_for_config(cfg: ScenarioConfig):
    """Run the procurement(s) the scenario asks for.

    Returns {label: procurement}.  Approach I uses the flow caps as
    schedule limits; approach II uses them as the guarantee y, or grid
    searches its default candidates.
    """
    out = {}
    caps = np.asarray(cfg.flow_caps_mw, dtype=float) if cfg.flow_caps_mw else None
    if cfg.approach in ("I", "both"):
        w = cfg.polytope()
        out["I"] = rd.procure_vertex_robust(cfg.grid, cfg.ptdf, w, alpha=cfg.alpha,
                                            schedule_caps_mw=caps)
    if cfg.approach in ("II", "both"):
        e = cfg.ellipsoid()
        if caps is not None:
            out["II"] = ap.procure_affine(cfg.grid, cfg.ptdf, e, caps,
                                          facets=cfg.facets)
        else:
            grid_y = [frac * cfg.forecast.mu * cfg.ptdf.dlr_base_mw
                      for frac in DEFAULT_Y_FRACTIONS]
            _, out["II"] = ap.select_y(cfg.grid, cfg.ptdf, e, grid_y,
                                       facets=cfg.facets)
    return out


def evaluate_scenario(cfg: ScenarioConfig) -> EvaluationReport:
    """Procure per the scenario and Monte Carlo-evaluate each approach.

    Raises the first approach's error when one cannot be procured.
    """
    sq, outcomes = _approach_outcomes(cfg)
    for _, outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return EvaluationReport(status_quo_cost=sq, rows=tuple(r for _, r in outcomes),
                            sample_count=cfg.sample_count, seed=cfg.seed)


def _approach_outcomes(cfg: ScenarioConfig):
    """The status-quo cost (None when it fails) and, per approach, its
    report or the error that stopped it.

    The approaches are procured and evaluated separately, so one that
    fails leaves the other's report intact; the status quo and the
    draws are shared.
    """
    labels = ("I", "II") if cfg.approach == "both" else (cfg.approach,)
    try:
        sq = status_quo_cost(cfg.grid, cfg.ptdf)
    except (InfeasibleError, InputError) as exc:
        return None, [(label, exc) for label in labels]
    draws = draw_realizations(cfg.forecast, cfg.sample_count, cfg.seed)
    out = []
    for label in labels:
        try:
            proc = procure_for_config(replace(cfg, approach=label))[label]
        except (InfeasibleError, InputError) as exc:
            out.append((label, exc))
            continue
        out.append((label, _approach_row(cfg, proc, draws, sq)))
    return sq, out


def audit_robust_feasibility(cfg: ScenarioConfig, proc, count: int = 10_000,
                             seed: int | None = None) -> float:
    """Feasibility rate over samples drawn inside the uncertainty set.

    Approach I audits against the polytope it procured for; approach II
    against the gamma-ellipsoid.
    """
    seed = cfg.seed if seed is None else seed
    if isinstance(proc, rd.ProcurementResult):
        draws = uniform_polytope_samples(cfg.polytope(), count, seed)
        _, feasible = _eval_approach_one(cfg, proc, draws)
        return float(feasible.mean())
    if isinstance(proc, ap.PolicyProcurement):
        e = cfg.ellipsoid()
        rng = np.random.default_rng(seed)
        k = e.dim
        direction = rng.standard_normal((count, k))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = np.sqrt(e.rho) * rng.uniform(0.0, 1.0, size=count) ** (1.0 / k)
        draws = e.mu[None, :] + (direction * radius[:, None]) @ e.b.T
        draws = np.maximum(draws, 1e-6)
        _, feasible = _eval_approach_two(cfg, proc, draws)
        return float(feasible.mean())
    raise InputError(f"unsupported procurement type {type(proc).__name__}")


# The report fields of each sweep's rows, in column order.
_SWEEP_FIELDS = ("procured_mw", "dispatch_cost", "procurement_cost", "mean_operational_cost",
                 "total_cost", "savings_pct", "feasibility_rate")
_MU_SIGMA_FIELDS = ("procured_mw", "mean_operational_cost", "total_cost", "savings_pct")


def _sweep_rows(cfg: ScenarioConfig, point: dict, fields) -> list[dict]:
    """One row per approach at a sweep point: the point's coordinates, the
    approach and its status, then its report's ``fields`` (NaN when the
    approach failed)."""
    rows = []
    for label, r in _approach_outcomes(cfg)[1]:
        failed = isinstance(r, Exception)
        rows.append({**point, "approach": label, "status": f"infeasible: {r}" if failed else "ok",
                     **{f: float("nan") if failed else getattr(r, f) for f in fields}})
    return rows


def sweep_flow_limits(cfg: ScenarioConfig, limits_grid) -> list[dict]:
    """Procured reserves and savings for each DLR flow-limit cap.

    One output row per (cap vector, approach); an approach that is
    infeasible at a cap is reported with a status instead of failing
    the sweep.
    """
    limits_grid = list(limits_grid)
    if not limits_grid:
        raise InputError("limits_grid must be nonempty")
    rows: list[dict] = []
    for caps in limits_grid:
        caps_t = tuple(float(c) for c in np.atleast_1d(caps))
        sub = replace(cfg, flow_caps_mw=caps_t)
        rows += _sweep_rows(sub, {f"cap_mw_{i + 1}": c for i, c in enumerate(caps_t)},
                            _SWEEP_FIELDS)
    return rows


def sweep_mu_sigma(cfg: ScenarioConfig, mu_grid, sigma_grid) -> list[dict]:
    """Cost reduction and operating cost across forecast (mu, sigma) points.

    Every DLR line gets the same mu and standard deviation, matching the
    case study's uncorrelated sweep.
    """
    mu_grid = [float(m) for m in mu_grid]
    sigma_grid = [float(s) for s in sigma_grid]
    if not mu_grid or not sigma_grid:
        raise InputError("mu_grid and sigma_grid must be nonempty")
    k = cfg.forecast.dim
    rows: list[dict] = []
    for mu in mu_grid:
        for sd in sigma_grid:
            forecast = RatingForecast(
                mu=np.full(k, mu), sigma=np.diag(np.full(k, sd**2)),
                lead_time_hours=cfg.forecast.lead_time_hours,
                line_ids=cfg.forecast.line_ids,
            )
            sub = replace(cfg, forecast=forecast)
            rows += _sweep_rows(sub, {"mu_pu": mu, "sigma_pu": sd}, _MU_SIGMA_FIELDS)
    return rows
