"""The benchmark's workloads: the planner, the operator and the analyst.

Each workload has a set-up, a round of operations that is timed and
repeated until the run's seconds are spent, and checks made apart
from the program after the timed part.  All inputs come from ``--seed``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import oracles as orc

GAMMA = 0.95
FACETS = 8


class Workload:
    """Shared plumbing.  Subclasses define ``setup``, ``prepare``,
    ``run_round`` and ``check``."""

    ops_per_round = 0

    def __init__(self, root: Path, seed: int, tracer, out_dir: Path):
        self.root, self.seed, self.tracer, self.out_dir = root, seed, tracer, out_dir
        self.data = root / "src" / "dlrplan" / "data"
        # wall seconds of each timed unit of a round, one entry per round
        self.unit_times: dict[object, list[float]] = {}

    def _op(self, index: int) -> None:
        self.tracer.op = index

    def timed(self, key, fn, *args, **kwargs):
        """Call ``fn`` as the timed unit ``key``; return its result, or the
        exception it raised (the checks count it as a failure)."""
        t = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            out = exc
        self.unit_times.setdefault(key, []).append(time.perf_counter() - t)
        return out

    def round_s(self) -> float:
        """One round with each timed unit at its best over the run's rounds:
        the minimum of repeats filters the host's bursts of contention."""
        return sum(min(ts) for ts in self.unit_times.values())

    def prepare(self) -> None:
        """Benchmark-side work after the set-up and before the timed part."""


class Procure(Workload):
    """The planner's day-ahead run on the 24h forecast: approach I at
    alpha 0 and 0.1, then approach II's guarantee search."""

    ops_per_round = 3
    ALPHAS = (0.0, 0.1)

    def setup(self):
        import dlrplan.qp as qp
        import dlrplan.robust_dispatch as rd
        from dlrplan import build_ellipsoid, build_polytope, compute_ptdf, load_forecast, load_grid
        from dlrplan.evaluation import DEFAULT_Y_FRACTIONS
        from dlrplan.network import dlr_base_mw
        from tracing import rebind

        self.grid = load_grid(self.data / "rts96_two_area.json")
        self.ptdf = compute_ptdf(self.grid)
        self.forecast = load_forecast(self.data / "forecast_24h.json")
        if self.forecast.line_ids != self.ptdf.dlr_line_index:
            raise RuntimeError("forecast lines are not in the grid's DLR order")
        self.e_set = build_ellipsoid(self.forecast, GAMMA)
        self.w_set = build_polytope(self.e_set, facets_per_2d_cycle=FACETS)
        base = dlr_base_mw(self.grid, self.ptdf)
        self.y_grid = [frac * self.forecast.mu * base for frac in DEFAULT_Y_FRACTIONS]
        self.dense_max_n = qp.DENSE_MAX_N
        self.rd = rd
        # Keep every procurement program with its solution for the
        # optimality check; storing a reference costs nothing measurable.
        self.programs: list[tuple[int, object, object]] = []
        self.current = None

        def capture(solve):
            def solve_and_keep(program, *args, **kwargs):
                sol = solve(program, *args, **kwargs)
                if program.n > self.dense_max_n and self.current is not None:
                    self.programs.append((self.current, program, sol))
                return sol
            return solve_and_keep

        rebind(qp, "solve", capture)
        self.results: list[dict] = []

    def run_round(self):
        import dlrplan.affine_policy as ap

        for alpha in self.ALPHAS:
            self.current = len(self.results)
            self._op(self.current)
            out = self.timed(f"I-alpha{alpha}", self.rd.procure_vertex_robust,
                             self.grid, self.ptdf, self.w_set, alpha=alpha)
            self.results.append({"kind": "I", "out": out})
        self.current = len(self.results)
        self._op(self.current)
        out = self.timed("II", ap.select_y, self.grid, self.ptdf, self.e_set, self.y_grid,
                         facets=FACETS)
        self.results.append({"kind": "II", "out": out if isinstance(out, Exception) else out[1]})
        self.current = None

    def check(self):
        grid = orc.DcGrid(self.data / "rts96_two_area.json")
        rng = np.random.default_rng([self.seed, 1])
        own_vertices = orc.polytope_vertices_pu(self.forecast.mu, self.forecast.sigma,
                                                GAMMA, FACETS) * grid.limit[grid.dlr]
        failed = []
        for op, res in enumerate(self.results):
            out = res["out"]
            if isinstance(out, Exception):
                failed.append((op, [f"raised {type(out).__name__}: {out}"]))
                continue
            problems = [p for i, prog, sol in self.programs if i == op
                        for p in (orc.check_first_order_optimal(prog, sol.x) if sol.optimal
                                  else [f"solve status {sol.status.value}"])]
            if res["kind"] == "I":
                problems += orc.check_same_vertices(own_vertices, out.vertices_mw)
                problems += orc.check_vertex_plan(grid, out.p_gen, out.delta_up, -out.delta_dn,
                                                  own_vertices, out.cost_worst_case)
            else:
                problems += check_approach_two(grid, out, self.forecast, rng)
            if problems:
                failed.append((op, problems))
        return failed


def check_approach_two(grid: orc.DcGrid, pp, forecast, rng) -> list[str]:
    """Policy checks at points of the gamma-ellipsoid drawn from ``rng``,
    and the closed-form expected cost against Monte Carlo.  The Monte
    Carlo draws are fixed: a 3-standard-error test on fresh draws fails
    one seed in 370 on a correct program."""
    pol = pp.policy
    points = orc.ellipsoid_points(forecast.mu, forecast.sigma, GAMMA, 2000, rng)
    problems = orc.check_policy(grid, pp.p_gen, pol.d, pol.y_mw, pol.dlr_base_mw,
                                pol.delta_up, pol.delta_dn, points)
    problems += orc.check_expected_cost(pol.d_up, pol.d_dn, pol.y_mw, pol.dlr_base_mw,
                                        grid.act_up, grid.act_dn, forecast.mu, forecast.sigma,
                                        pp.cost_expected_operation, 20_000,
                                        np.random.default_rng(0))
    return problems


class Operate(Workload):
    """The operator's closed loop: one realization at a time through
    ``operate_online``, each call waiting for the previous reply.

    The stream has fixed counts per outcome, so that every seed loads
    the zero-action path, the re-dispatch LP and the uncovered path
    alike; the counts follow the shares seen on long seeded streams.
    """

    # part name, plan, sampler, outcome counts per round
    PARTS = (
        ("24h-draws", "24h", "normal", {"zero": 77, "action": 22, "uncovered": 1}),
        ("24h-polytope", "24h", "polytope", {"zero": 40, "action": 20}),
        ("3h-plan-24h-draws", "3h", "normal", {"zero": 64, "action": 8, "uncovered": 8}),
    )

    def setup(self):
        import dlrplan.robust_dispatch as rd
        from dlrplan import build_ellipsoid, build_polytope, compute_ptdf, load_forecast, load_grid

        self.rd = rd
        self.grid = load_grid(self.data / "rts96_two_area.json")
        self.ptdf = compute_ptdf(self.grid)
        self.forecasts, self.plans = {}, {}
        for lead in ("24h", "3h"):
            f = load_forecast(self.data / f"forecast_{lead}.json")
            if f.line_ids != self.ptdf.dlr_line_index:
                raise RuntimeError("forecast lines are not in the grid's DLR order")
            w = build_polytope(build_ellipsoid(f, GAMMA), facets_per_2d_cycle=FACETS)
            self.plans[lead] = rd.procure_vertex_robust(self.grid, self.ptdf, w, alpha=0.0)
            self.forecasts[lead] = f

    def prepare(self):
        """Draw the stream and classify each realization with HiGHS."""
        self.dc = orc.DcGrid(self.data / "rts96_two_area.json")
        base = self.dc.limit[self.dc.dlr]
        f24 = self.forecasts["24h"]
        rng = np.random.default_rng([self.seed, 2])
        chol = np.linalg.cholesky(f24.sigma)
        verts_z = orc.polytope_vertices_pu(np.zeros(2), np.eye(2), GAMMA, FACETS)
        normals = np.column_stack([np.cos(2 * np.pi * np.arange(FACETS) / FACETS),
                                   np.sin(2 * np.pi * np.arange(FACETS) / FACETS)])
        radius = math.sqrt(-2.0 * math.log(1.0 - GAMMA))
        w, v = np.linalg.eigh(f24.sigma)
        b_poly = v * np.sqrt(w)

        def candidates(sampler):
            while True:
                if sampler == "normal":
                    yield from f24.mu[None, :] + rng.standard_normal((256, 2)) @ chol.T
                else:
                    z = rng.uniform(verts_z.min(axis=0), verts_z.max(axis=0), size=(256, 2))
                    z = z[np.all(z @ normals.T <= radius, axis=1)]
                    yield from f24.mu[None, :] + z @ b_poly.T

        self.stream = []
        for part, lead, sampler, quota in self.PARTS:
            plan = self.plans[lead]
            f0 = self.dc.flows(plan.p_gen)
            left = dict(quota)
            for n_drawn, delta in enumerate(candidates(sampler)):
                if not any(n > 0 for n in left.values()):
                    break
                if n_drawn > 100_000:
                    raise RuntimeError(f"stream part {part} cannot fill its quota {quota}")
                delta = np.maximum(delta, 1e-6)
                lim = self.dc.limits(delta * base)
                cost = 0.0
                if np.any(np.abs(f0) > lim + 1e-9):
                    cost = self.dc.cheapest_redispatch(plan.p_gen, plan.delta_up,
                                                       -plan.delta_dn, delta * base)
                    kind = "action" if cost is not None else "uncovered"
                else:
                    kind = "zero"
                # A W_P draw that HiGHS finds uncovered stays in the stream
                # and fails its check: the plan must cover all of W_P.
                wanted = left.get(kind, 0) > 0
                if wanted:
                    left[kind] -= 1
                if wanted or (sampler == "polytope" and kind == "uncovered"):
                    self.stream.append({"part": part, "plan": lead, "delta": delta,
                                        "kind": kind, "oracle_cost": cost})
        self.ops_per_round = len(self.stream)
        self.outcomes = [[] for _ in self.stream]

    def _operate(self, plan, delta):
        from dlrplan.errors import UncoveredRealizationError

        try:
            return self.rd.operate_online(self.grid, self.ptdf, plan, delta)
        except UncoveredRealizationError:
            return "uncovered"

    def run_round(self):
        for i, item in enumerate(self.stream):
            self._op(i)
            self.outcomes[i].append(self.timed(i, self._operate, self.plans[item["plan"]],
                                               item["delta"]))

    def check(self):
        base = self.dc.limit[self.dc.dlr]
        failed = []
        for i, item in enumerate(self.stream):
            plan = self.plans[item["plan"]]
            for rnd, out in enumerate(self.outcomes[i]):
                problems = []
                if isinstance(out, Exception):
                    problems.append(f"raised {type(out).__name__}: {out}")
                elif item["kind"] == "uncovered":
                    if item["part"] == "24h-polytope":
                        problems.append("a draw inside W_P is uncovered by the plan")
                    if out != "uncovered":
                        problems.append(f"HiGHS finds no covering re-dispatch but the "
                                        f"program returned cost {out.cost}")
                elif out == "uncovered":
                    problems.append("reported uncovered but HiGHS finds a covering re-dispatch")
                else:
                    problems += orc.check_redispatch(
                        self.dc, plan.p_gen, plan.delta_up, -plan.delta_dn, item["delta"] * base,
                        out.delta_plus, out.delta_minus, out.cost, item["oracle_cost"])
                if problems:
                    failed.append((i + rnd * len(self.stream), problems))
        return failed


class Sweep(Workload):
    """The analyst's flow-limit sweep for both approaches, through the
    command line in the same process."""

    BELOW_VERTICES = 150.0    # every W_P vertex rates 252.6 MW or more
    BINDING = 340.0           # the caps bind for both approaches
    CAPS = (BELOW_VERTICES, 250.0, BINDING)
    SAMPLES = 300
    ops_per_round = 2 * len(CAPS)

    def setup(self):
        import dlrplan.cli as cli

        self.cli = cli
        self.sweep_dir = self.out_dir / f"sweep-seed{self.seed}"
        self.sweep_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = self.sweep_dir / "manifest.json"
        doc = {"grid": str(self.data / "rts96_two_area.json"),
               "forecast": str(self.data / "forecast_24h.json"),
               "output_dir": str(self.sweep_dir / "out"),
               "gamma": GAMMA, "alpha": 0.0, "approach": "both", "facets": FACETS,
               "sample_count": self.SAMPLES, "seed": self.seed,
               "limits_grid_mw": [[c, c] for c in self.CAPS]}
        self.manifest.write_text(json.dumps(doc, indent=1) + "\n")
        self.runs: list[object] = []

    def run_round(self):
        argv = ["sweep", "--manifest", str(self.manifest), "--kind", "flow-limits",
                "--emit-plot-data"]
        self._op(len(self.runs))
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.timed("sweep", self.cli.main, argv)
        if isinstance(code, Exception):
            self.runs.append(code)
        else:
            self.runs.append(self._read_outputs() if code == 0 else
                             RuntimeError(f"exit code {code}"))

    def _read_outputs(self):
        out = self.sweep_dir / "out"
        with open(out / "sweep_flow_limits.csv") as fh:
            rows = list(csv.DictReader(fh))
        plots = {}
        for label in ("I", "II"):
            with open(out / f"plotdata_savings_{label}.csv") as fh:
                plots[label] = list(csv.DictReader(fh))
        return {"rows": rows, "plots": plots}

    def check(self):
        grid = orc.DcGrid(self.data / "rts96_two_area.json")
        opf_150 = None
        floor = GAMMA - 3.0 * math.sqrt(GAMMA * (1.0 - GAMMA) / self.SAMPLES)
        failed = []
        for rnd, out in enumerate(self.runs):
            first = rnd * self.ops_per_round
            if isinstance(out, Exception):
                failed += [(first + j, [f"sweep failed: {out}"]) for j in range(self.ops_per_round)]
                continue
            by_point = {(float(r["cap_mw_1"]), r["approach"]): r for r in out["rows"]}
            for j, (cap, label) in enumerate((c, a) for c in self.CAPS for a in ("I", "II")):
                row = by_point.get((cap, label))
                problems = []
                if row is None or row["status"] != "ok":
                    problems.append(f"no ok row: {row and row['status']}")
                else:
                    plot = [p for p in out["plots"][label] if float(p["cap_mw_1"]) == cap]
                    if len(plot) != 1 or plot[0]["savings_pct"] != row["savings_pct"]:
                        problems.append("plot data disagrees with the sweep table")
                    if float(row["feasibility_rate"]) < floor:
                        problems.append(f"feasibility {row['feasibility_rate']} < {floor:.4f}")
                    if cap == self.BELOW_VERTICES and label == "I":
                        if float(row["procured_mw"]) > 1e-3:
                            problems.append(f"procures {row['procured_mw']} MW below every vertex")
                        if opf_150 is None:
                            opf_150 = orc.dc_opf_cost(grid, np.array([cap, cap]))
                        if orc.rel_gap(float(row["dispatch_cost"]), opf_150) > orc.REL_TOL:
                            problems.append(f"dispatch cost {row['dispatch_cost']} != DC-OPF "
                                            f"{opf_150:.10g}")
                    if cap == self.BINDING and label == "I":
                        other = by_point.get((cap, "II"))
                        if other is not None and float(row["procured_mw"]) > \
                                float(other["procured_mw"]) + 0.5:
                            problems.append("approach I procures more than approach II + 0.5 MW "
                                            "at binding caps")
                if problems:
                    failed.append((first + j, problems))
        return failed


WORKLOADS = {"procure": Procure, "operate": Operate, "sweep": Sweep}
