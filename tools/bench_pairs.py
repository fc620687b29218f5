"""Paired benchmark runs of two checkouts of dlrplan.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs 10 \
        --seed 11 --out BENCH_6.json

Runs ``perfbench/run.py`` of each checkout on every workload of
``BENCHMARK.json``, one process at a time, in pairs whose order
alternates: even pairs run the parent first, odd pairs the change.
Every run uses the same seed and the ``run_seconds`` of the change's
``BENCHMARK.json``.  Writes, per workload and
end-to-end metric, each side's median, quartiles and minimum, the
runs themselves, and how many pairs the change won (ties count for
neither side).  The ``env:`` line of each side's runs is kept, and so
is each side's ``src/dlrplan`` line count, the size the roadmap tracks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def git_rev(root: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines(root: Path) -> int:
    """Lines of the package's modules, as ``wc -l src/dlrplan/*.py`` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (root / "src" / "dlrplan").glob("*.py"))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process; its result line and its ``env:`` line."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((ln[len("env: "):] for ln in lines if ln.startswith("env: ")), None)
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode, "env": env, "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    return {"returncode": 0, "env": env, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {w: {s: [] for s in sides} for w in workloads}

    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                t = time.perf_counter()
                res = run_once(sides[side], w, args.seed, seconds)
                res["pair"], res["wall_s"] = i, time.perf_counter() - t
                runs[w][side].append(res)
                print(f"pair {i} {w} {side}: "
                      + json.dumps(res.get("metrics") or res.get("stderr")), flush=True)

    doc = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs,
           "checkouts": {s: {"dir": p.name, "git": git_rev(p), "src_lines": src_lines(p)}
                         for s, p in sides.items()},
           "env": {s: sorted({r["env"] for w in workloads for r in runs[w][s] if r["env"]})
                   for s in sides},
           "workloads": {}}
    for w in workloads:
        ok = {s: [r for r in runs[w][s] if r["returncode"] == 0] for s in sides}
        entry = {s: {"runs": len(runs[w][s]), "exited_nonzero": len(runs[w][s]) - len(ok[s]),
                     "incorrect": sum(not r["correct"] for r in ok[s]),
                     "failed_ops": sum(r["failed"] for r in ok[s]),
                     "attempted_ops": sum(r["attempted"] for r in ok[s])} for s in sides}
        entry["metrics"] = {}
        for name, spec in metrics.items():
            vals = {s: [r["metrics"][name] for r in ok[s] if name in r["metrics"]] for s in sides}
            if not all(vals.values()):
                continue
            by_pair = {s: {r["pair"]: r["metrics"][name] for r in ok[s]} for s in sides}
            sign = 1.0 if spec["better"] == "lower" else -1.0
            pairs = sorted(set(by_pair["parent"]) & set(by_pair["change"]))
            m = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                 "parent": summary(vals["parent"]), "change": summary(vals["change"]),
                 "pairs_compared": len(pairs),
                 "change_wins": sum(sign * (by_pair["change"][p] - by_pair["parent"][p]) < 0
                                    for p in pairs)}
            m["median_change_over_parent"] = m["change"]["median"] / m["parent"]["median"]
            entry["metrics"][name] = m
        doc["workloads"][w] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
