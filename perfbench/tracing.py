"""Spans around the public functions of dlrplan, recorded from outside.

The benchmark wraps functions by rebinding them in every loaded
``dlrplan`` module that holds them, so calls made inside the package
(for instance ``evaluation`` calling ``rd.operate_online``) are seen
too.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np


def rebind(module, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` by ``make_wrapper(original)`` in every
    dlrplan module that refers to the same object."""
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if (name == "dlrplan" or name.startswith("dlrplan.")) and mod is not None:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _qp_attrs(args, kwargs, result):
    program = args[0] if args else kwargs["program"]
    max_iter = kwargs.get("max_iter", args[2] if len(args) > 2 else 100)
    return {"n": int(program.n), "status": result.status.value,
            "iterations": int(result.iterations), "max_iter": int(max_iter)}


def _action_attrs(args, kwargs, result):
    return {"cost": float(result.cost)}


class Tracer:
    """Spans with a parent link; ``op`` ties the spans of one operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.op: int | None = None

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        spans, stack = self.spans, self._stack

        def make(fn):
            def traced(*args, **kwargs):
                span = {"id": len(spans), "parent": stack[-1] if stack else None,
                        "name": name, "phase": self.phase, "op": self.op}
                spans.append(span)
                stack.append(span["id"])
                span["t0"] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    span["error"] = type(exc).__name__
                    raise
                finally:
                    span["t1"] = time.perf_counter()
                    stack.pop()
                if attrs is not None:
                    span.update(attrs(args, kwargs, result))
                return result
            return traced

        rebind(module, attr, make)

    def instrument_all(self) -> None:
        """Spans on the public functions of every measured layer."""
        import dlrplan.affine_policy as ap
        import dlrplan.cli as cli
        import dlrplan.evaluation as ev
        import dlrplan.network as net
        import dlrplan.qp as qp
        import dlrplan.robust_dispatch as rd
        import dlrplan.uncertainty as unc

        self.wrap(qp, "solve", "qp.solve", _qp_attrs)
        self.wrap(net, "load_grid", "network.load_grid")
        self.wrap(net, "compute_ptdf", "network.compute_ptdf")
        for fn in ("load_forecast", "build_ellipsoid", "build_polytope", "clip_polytope_z",
                   "uniform_polytope_samples", "truncated_deficit_expectation"):
            self.wrap(unc, fn, f"uncertainty.{fn}")
        self.wrap(rd, "procure_vertex_robust", "robust_dispatch.procure")
        self.wrap(rd, "operate_online", "robust_dispatch.operate", _action_attrs)
        self.wrap(rd, "dc_opf", "robust_dispatch.dc_opf")
        self.wrap(ap, "procure_affine", "affine_policy.procure")
        self.wrap(ap, "select_y", "affine_policy.select_y")
        for fn in ("sweep_flow_limits", "evaluate_scenario", "procure_for_config",
                   "monte_carlo_eval", "status_quo_cost", "draw_realizations"):
            self.wrap(ev, fn, f"evaluation.{fn}")
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "cmd_sweep", "cli.cmd_sweep")

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
            fh.write("\n")


def _dur(span) -> float:
    return span["t1"] - span["t0"]


def exclusive_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    excl = [_dur(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            excl[s["parent"]] -= _dur(s)
    return excl


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: list[dict], rounds: int, dense_max_n: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per round of the timed phase.

    Set-up layers (network, uncertainty) are counted over the whole run,
    set-up included; every other layer over the timed rounds only.
    """
    excl = exclusive_times(spans)
    timed = [s for s in spans if s["phase"] == "round"]
    per = 1.0 / max(rounds, 1)
    out: dict[str, tuple[float, str]] = {}

    solves = [s for s in timed if s["name"] == "qp.solve" and "status" in s]
    groups = {
        "sparse": [s for s in solves if s["status"] != "infeasible" and s["n"] > dense_max_n],
        "dense": [s for s in solves if s["status"] != "infeasible" and s["n"] <= dense_max_n],
        "infeasible": [s for s in solves if s["status"] == "infeasible"],
    }
    for key, group in groups.items():
        secs = sum(_dur(s) for s in group)
        iters = sum(s["iterations"] for s in group)
        out[f"qp.{key}.calls"] = (len(group) * per, "count")
        out[f"qp.{key}.s"] = (secs * per, "s")
        out[f"qp.{key}.iterations"] = (iters * per, "count")
        if key != "infeasible":
            out[f"qp.{key}.ms_per_iter"] = (1e3 * secs / iters if iters else 0.0, "ms")
    out["qp.iter_limit.calls"] = (per * sum(
        1 for s in solves if s["status"] != "infeasible" and s["iterations"] >= s["max_iter"]), "count")

    def named(name):
        return [s for s in timed if s["name"] == name]

    procs = named("robust_dispatch.procure")
    out["robust_dispatch.procure.calls"] = (len(procs) * per, "count")
    out["robust_dispatch.procure.s"] = (per * sum(_dur(s) for s in procs), "s")
    out["robust_dispatch.procure.self_s"] = (per * sum(excl[s["id"]] for s in procs), "s")

    ops = named("robust_dispatch.operate")
    has_qp = {s["parent"] for s in timed if s["name"] == "qp.solve"}
    lp = [s for s in ops if s["id"] in has_qp]
    fast = [_dur(s) for s in ops if s["id"] not in has_qp and "error" not in s]
    redispatch = [_dur(s) for s in ops if s.get("cost", 0.0) > 0.0]
    uncovered = [_dur(s) for s in ops if s.get("error") == "UncoveredRealizationError"]
    out["robust_dispatch.operate.calls"] = (len(ops) * per, "count")
    out["robust_dispatch.operate.lp_calls"] = (len(lp) * per, "count")
    out["robust_dispatch.operate.self_ms"] = (1e3 * per * sum(excl[s["id"]] for s in ops), "ms")
    out["robust_dispatch.operate.fast_us_p50"] = (1e6 * _pct(fast, 50), "us")
    out["robust_dispatch.operate.redispatch_ms_p50"] = (1e3 * _pct(redispatch, 50), "ms")
    out["robust_dispatch.operate.redispatch_ms_p99"] = (1e3 * _pct(redispatch, 99), "ms")
    out["robust_dispatch.operate.uncovered_ms_p50"] = (1e3 * _pct(uncovered, 50), "ms")

    aff = named("affine_policy.procure")
    out["affine_policy.procure.calls"] = (len(aff) * per, "count")
    out["affine_policy.procure.s"] = (per * sum(_dur(s) for s in aff), "s")
    out["affine_policy.procure.self_s"] = (per * sum(excl[s["id"]] for s in aff), "s")

    out["evaluation.self_s"] = (per * sum(excl[s["id"]] for s in timed
                                          if s["name"].startswith("evaluation.")), "s")
    out["cli.self_s"] = (per * sum(excl[s["id"]] for s in timed if s["name"].startswith("cli.")), "s")

    out["network.load_grid.s"] = (sum(_dur(s) for s in spans if s["name"] == "network.load_grid"), "s")
    out["network.compute_ptdf.s"] = (sum(_dur(s) for s in spans
                                         if s["name"] == "network.compute_ptdf"), "s")
    out["uncertainty.s"] = (sum(excl[s["id"]] for s in spans
                                if s["name"].startswith("uncertainty.")), "s")
    out["trace.spans"] = (len(timed) * per, "count")
    return out
