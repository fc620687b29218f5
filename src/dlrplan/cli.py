"""Command-line frontend: rate, procure, operate, evaluate, sweep.

A batch planning tool over plain structured-text files; no network, no
database.  Outputs are byte-reproducible from the same inputs and seed.

Exit codes: 0 success, 2 infeasible optimization, 3 input error,
4 numerical failure.  DLRPLAN_THREADS caps the linear-algebra thread
count of the CLI's own process (the only environment variable
honored); ``main`` sets it before numpy loads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from .errors import InfeasibleError, InputError, NumericalError, read_json

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

_F = "%.10g"  # deterministic float formatting for all CSV output


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def _fmt(value) -> str:
    if isinstance(value, float):
        return _F % value
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([_fmt(v) for v in row] for row in rows)


def _write_json(path: Path, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise InputError(f"missing file: {p}")
    doc = read_json(p)
    if not isinstance(doc, dict):
        raise InputError(f"{p}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _manifest_number(manifest: dict, key: str, default, kind, where):
    """Manifest field ``key`` (``default`` when absent) as a finite
    ``kind``, int or float; anything else is an input error naming it."""
    value = manifest.get(key, default)
    try:
        if type(value) in (int, float) and math.isfinite(kind(value)) and kind(value) == value:
            return kind(value)
    except (OverflowError, ValueError):
        pass
    raise InputError(f"{where}: manifest field {key!r} must be "
                     f"{'an integer' if kind is int else 'a finite number'}, got {value!r}")


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}: {exc}") from exc


def _load_grid_and_ptdf(path):
    from .network import compute_ptdf, load_grid

    grid = load_grid(path)
    return grid, compute_ptdf(grid)


def _aligned_forecast(path, ptdf):
    """Forecast reordered to the grid's DLR line order."""
    import numpy as np

    from .uncertainty import RatingForecast, load_forecast

    f = load_forecast(path)
    want = ptdf.dlr_line_index
    if set(f.line_ids) != set(want):
        raise InputError(
            f"forecast lines {sorted(f.line_ids)} do not match grid DLR lines "
            f"{sorted(want)}")
    order = [f.line_ids.index(l) for l in want]
    return RatingForecast(mu=f.mu[order], sigma=f.sigma[np.ix_(order, order)],
                          lead_time_hours=f.lead_time_hours, line_ids=want)


# -- rate ----------------------------------------------------------------------

def cmd_rate(args) -> int:
    from .thermal import ampacity, load_rating_spec, rating_mw, rating_pu, read_weather_csv

    spec = load_rating_spec(args.spec)
    samples = read_weather_csv(args.weather)
    header = ["wind_speed", "wind_angle", "ambient_temperature", "solar_irradiance",
              "ampacity_a", "rating_pu", "rating_mw"]
    rows = []
    for w in samples:
        rows.append([w.wind_speed, w.wind_angle, w.ambient_temperature,
                     w.solar_irradiance, ampacity(w, spec.conductor),
                     rating_pu(w, spec), rating_mw(w, spec)])
    _write_csv(Path(args.output), header, rows)
    print(f"rated {len(rows)} weather rows -> {args.output}")
    return EXIT_OK


# -- procure -------------------------------------------------------------------

def cmd_procure(args) -> int:
    import numpy as np

    from . import affine_policy as ap
    from . import robust_dispatch as rd
    from .uncertainty import build_ellipsoid, build_polytope

    grid, ptdf = _load_grid_and_ptdf(args.grid)
    forecast = _aligned_forecast(args.forecast, ptdf)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    caps = np.asarray(_parse_float_list(args.caps, "caps"), dtype=float) \
        if args.caps else None

    if args.approach == "I":
        w = build_polytope(build_ellipsoid(forecast, args.gamma),
                           facets_per_2d_cycle=args.facets)
        proc = rd.procure_vertex_robust(grid, ptdf, w, alpha=args.alpha,
                                        schedule_caps_mw=caps)
        doc = rd.procurement_to_doc(proc, grid, ptdf)
        doc["gamma"] = args.gamma
        path = out_dir / "procurement_I.json"
        _write_json(path, doc)
        print(f"approach I: dispatch {proc.cost_dispatch:.2f} $, "
              f"procured {proc.procured_mw:.2f} MW -> {path}")
        return EXIT_OK

    e = build_ellipsoid(forecast, args.gamma)
    if args.y_grid and not args.y:
        grid_y = [np.asarray(_parse_float_list(part, "y-grid entry"), dtype=float)
                  for part in args.y_grid.split(";") if part.strip()]
        _, pp = ap.select_y(grid, ptdf, e, grid_y, facets=args.facets)
    else:
        y = _parse_float_list(args.y, "y") if args.y else caps
        if y is None:
            raise InputError("approach II needs --y, --y-grid or --caps")
        pp = ap.procure_affine(grid, ptdf, e, y, facets=args.facets)
    doc = ap.policy_procurement_to_doc(pp, grid, ptdf)
    doc["gamma"] = args.gamma
    path = out_dir / "procurement_II.json"
    _write_json(path, doc)
    policy_path = out_dir / "policy_II.json"
    _write_json(policy_path, ap.export_policy(pp, ptdf.dlr_line_index))
    print(f"approach II: dispatch {pp.cost_dispatch:.2f} $, "
          f"procured {pp.procured_mw:.2f} MW, y={pp.policy.y_mw.tolist()} MW "
          f"-> {path}, {policy_path}")
    return EXIT_OK


# -- operate -------------------------------------------------------------------

def _parse_realization(text: str, dlr_lines) -> "np.ndarray":
    import numpy as np

    values = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise InputError(f"bad realization entry {part!r}; use line=value")
        key, _, val = part.partition("=")
        key = key.strip()
        if key in values:
            raise InputError(f"realization names line {key!r} twice")
        try:
            values[key] = float(val)
        except ValueError as exc:
            raise InputError(f"bad realization value in {part!r}") from exc
    missing = [l for l in dlr_lines if l not in values]
    if missing:
        raise InputError(f"realization missing DLR lines {missing}")
    extra = [k for k in values if k not in dlr_lines]
    if extra:
        raise InputError(f"realization names unknown lines {extra}")
    return np.array([values[l] for l in dlr_lines])


def _procurement_from_doc(doc: dict, grid, ptdf, where):
    """The approach-I or approach-II procurement a report document holds;
    ``where`` names the document in the error for any other approach."""
    from . import affine_policy as ap
    from . import robust_dispatch as rd

    if doc.get("approach") == "I":
        return rd.procurement_from_doc(doc, grid, ptdf)
    if doc.get("approach") == "II":
        return ap.policy_procurement_from_doc(doc, grid, ptdf)
    raise InputError(f"{where}: unknown procurement approach")


def cmd_operate(args) -> int:
    import numpy as np

    from . import affine_policy as ap
    from . import robust_dispatch as rd

    grid, ptdf = _load_grid_and_ptdf(args.grid)
    doc = _read_json(args.procurement)
    delta = _parse_realization(args.realization, list(ptdf.dlr_line_index))
    names = [g.name for g in grid.generators]
    proc = _procurement_from_doc(doc, grid, ptdf, args.procurement)
    if isinstance(proc, rd.ProcurementResult):
        act = rd.operate_online(grid, ptdf, proc, delta)
        plus, minus, cost = act.delta_plus, act.delta_minus, act.cost
    else:
        pol = proc.policy
        action = ap.policy_action(pol, delta)
        plus = np.maximum(action, 0.0)
        minus = np.minimum(action, 0.0)
        ga = grid.gen_arrays
        deficit = pol.deficit_mw(delta)
        cost = float(ga.act_up @ (pol.d_up @ deficit) + ga.act_dn @ (pol.d_dn @ deficit))
    rows = [[names[i], plus[i], minus[i]] for i in range(len(names))]
    _write_csv(Path(args.output), ["generator", "delta_plus_mw", "delta_minus_mw"], rows)
    print(f"re-dispatch cost {cost:.4f} $ -> {args.output}")
    return EXIT_OK


# -- evaluate ------------------------------------------------------------------

_SUMMARY_METRICS = [
    ("dispatch_cost", "Dispatch Cost"),
    ("procured_mw", "Procured Amount"),
    ("procurement_cost", "Procurement Costs"),
    ("mean_operational_cost", "Mean operational costs"),
    ("total_cost", "Total Cost"),
    ("savings_pct", "Cost Saving (in %)"),
]


def cmd_evaluate(args) -> int:
    from .evaluation import ScenarioConfig, monte_carlo_eval, status_quo_cost

    manifest = _read_json(args.manifest)
    for key in ("grid", "procurements", "output_dir"):
        if key not in manifest:
            raise InputError(f"{args.manifest}: missing manifest field {key!r}")
    entries = manifest["procurements"]
    if not isinstance(entries, list):
        raise InputError(f"{args.manifest}: 'procurements' must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise InputError(f"procurement entry {entry!r} is not an object")
        for key in ("label", "path", "forecast"):
            if key not in entry:
                raise InputError(f"procurement entry missing {key!r}")
    # a label names a summary column and a samples_<label>.csv file
    labels = [str(entry["label"]) for entry in entries]
    if "status quo" in labels:
        raise InputError("procurement label 'status quo' is reserved")
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise InputError(f"procurement labels {repeated} repeat")
    sample_count = _manifest_number(manifest, "sample_count", 1000, int, args.manifest)
    seed = _manifest_number(manifest, "seed", 0, int, args.manifest)
    gamma = _manifest_number(manifest, "gamma", 0.95, float, args.manifest)
    root = Path(args.manifest).parent
    grid, ptdf = _load_grid_and_ptdf(_resolve(root, manifest["grid"]))
    out_dir = Path(_resolve(root, manifest["output_dir"]))
    out_dir.mkdir(parents=True, exist_ok=True)

    sq = status_quo_cost(grid, ptdf)
    # one column of _SUMMARY_METRICS values per label
    sq_costs = {"dispatch_cost": sq, "total_cost": sq}
    columns = {"status quo": [sq_costs.get(key, 0.0) for key, _ in _SUMMARY_METRICS]}
    for entry in entries:
        doc = _read_json(_resolve(root, entry["path"]))
        forecast = _aligned_forecast(_resolve(root, entry["forecast"]), ptdf)
        cfg = ScenarioConfig(grid=grid, ptdf=ptdf, forecast=forecast, gamma=gamma,
                             sample_count=sample_count, seed=seed)
        proc = _procurement_from_doc(doc, grid, ptdf, entry["path"])
        row = monte_carlo_eval(cfg, proc).rows[0]
        columns[entry["label"]] = [getattr(row, key) for key, _ in _SUMMARY_METRICS]
        _write_csv(out_dir / f"samples_{entry['label']}.csv",
                   ["sample", "feasible"],
                   [[i, int(v)] for i, v in enumerate(row.feasible)])

    rows = [[pretty, *values]
            for (_, pretty), values in zip(_SUMMARY_METRICS, zip(*columns.values()))]
    _write_csv(out_dir / "summary.csv", ["metric", *columns], rows)
    print(f"evaluated {len(columns) - 1} procurements over {sample_count} samples "
          f"-> {out_dir / 'summary.csv'}")
    return EXIT_OK


def _resolve(root: Path, path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else root / p


# -- sweep ---------------------------------------------------------------------

def cmd_sweep(args) -> int:
    from .evaluation import ScenarioConfig, sweep_flow_limits, sweep_mu_sigma

    manifest = _read_json(args.manifest)
    for key in ("grid", "forecast", "output_dir"):
        if key not in manifest:
            raise InputError(f"{args.manifest}: missing manifest field {key!r}")
    root = Path(args.manifest).parent
    grid, ptdf = _load_grid_and_ptdf(_resolve(root, manifest["grid"]))
    forecast = _aligned_forecast(_resolve(root, manifest["forecast"]), ptdf)
    number = lambda key, default, kind: _manifest_number(manifest, key, default, kind,
                                                         args.manifest)
    cfg = ScenarioConfig(
        grid=grid, ptdf=ptdf, forecast=forecast,
        gamma=number("gamma", 0.95, float),
        alpha=number("alpha", 0.0, float),
        approach=str(manifest.get("approach", "both")),
        sample_count=number("sample_count", 1000, int),
        seed=number("seed", 0, int),
        facets=number("facets", 8, int),
    )
    out_dir = Path(_resolve(root, manifest["output_dir"]))
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.kind == "flow-limits":
        if "limits_grid_mw" not in manifest:
            raise InputError("flow-limits sweep needs manifest field 'limits_grid_mw'")
        rows = sweep_flow_limits(cfg, manifest["limits_grid_mw"])
        path = out_dir / "sweep_flow_limits.csv"
        axes = ["cap_mw_1"] + (["cap_mw_2"] if "cap_mw_2" in rows[0] else [])
        message = f"swept {len(manifest['limits_grid_mw'])} cap points"
    else:
        for key in ("mu_grid_pu", "sigma_grid_pu"):
            if key not in manifest:
                raise InputError(f"mu-sigma sweep needs manifest field {key!r}")
        rows = sweep_mu_sigma(cfg, manifest["mu_grid_pu"], manifest["sigma_grid_pu"])
        path = out_dir / "sweep_mu_sigma.csv"
        axes = ["mu_pu", "sigma_pu"]
        message = f"swept {len(rows)} (mu, sigma, approach) points"
    header = list(rows[0].keys())
    _write_csv(path, header, [[r[k] for k in header] for r in rows])
    if args.emit_plot_data:
        _emit_plot_data(out_dir, rows, axes)
    print(f"{message} -> {path}")
    return EXIT_OK


def _emit_plot_data(out_dir: Path, rows: list[dict], axes: list[str]):
    """One contour-ready table of savings over the sweep axes per approach."""
    header = axes + ["savings_pct"]
    for label in sorted({r["approach"] for r in rows}):
        _write_csv(out_dir / f"plotdata_savings_{label}.csv", header,
                   [[r[k] for k in header] for r in rows if r["approach"] == label])


# -- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dlrplan",
                description="Robust reserve planning for grids with dynamic line rating")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("rate", help="ampacity and p.u./MW ratings for a weather table")
    pr.add_argument("--weather", required=True, help="weather CSV")
    pr.add_argument("--spec", required=True, help="line rating spec JSON")
    pr.add_argument("--output", required=True, help="output ratings CSV")
    pr.set_defaults(func=cmd_rate)

    pp = sub.add_parser("procure", help="robust reserve procurement")
    pp.add_argument("--grid", required=True)
    pp.add_argument("--forecast", required=True)
    pp.add_argument("--approach", required=True, choices=["I", "II"])
    pp.add_argument("--gamma", type=float, default=0.95)
    pp.add_argument("--alpha", type=float, default=0.0,
                    help="worst-case cost weight (approach I)")
    pp.add_argument("--caps", default=None,
                    help="scheduled-flow caps per DLR line, MW (comma separated)")
    pp.add_argument("--y", default=None,
                    help="guaranteed capacities per DLR line, MW (approach II)")
    pp.add_argument("--y-grid", default=None,
                    help="semicolon-separated y candidates (approach II)")
    pp.add_argument("--facets", type=int, default=8)
    pp.add_argument("--output-dir", required=True)
    pp.set_defaults(func=cmd_procure)

    po = sub.add_parser("operate", help="re-dispatch for a realized rating")
    po.add_argument("--grid", required=True)
    po.add_argument("--procurement", required=True, help="procurement report JSON")
    po.add_argument("--realization", required=True,
                    help="per-line p.u. ratings, e.g. '214-216=1.32,216-219=1.4'")
    po.add_argument("--output", required=True, help="output action CSV")
    po.set_defaults(func=cmd_operate)

    pe = sub.add_parser("evaluate", help="Monte Carlo cost evaluation from a manifest")
    pe.add_argument("--manifest", required=True)
    pe.set_defaults(func=cmd_evaluate)

    ps = sub.add_parser("sweep", help="parameter sweeps from a manifest")
    ps.add_argument("--manifest", required=True)
    ps.add_argument("--kind", choices=["flow-limits", "mu-sigma"], required=True)
    ps.add_argument("--emit-plot-data", action="store_true",
                    help="also write contour-ready (x, y, z) tables")
    ps.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    threads = os.environ.get("DLRPLAN_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
