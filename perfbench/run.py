"""Benchmark of dlrplan on the bundled RTS-96 case.

    python3 perfbench/run.py --workload procure|operate|sweep --seed N \
        --seconds S --trace 0|1

Runs one workload in this single-threaded process against the package
source under ``src/`` of the checkout that holds this file, checks the
outputs apart from the program, and prints one JSON object as the last
line of standard output.  With ``--trace 0`` it holds the end-to-end
metrics; with ``--trace 1`` the per-layer metrics from spans around the
package's public functions, which are also written to
``.bench_out/trace-<workload>-seed<N>.json``.  See README.md.
"""

import os

# Before numpy loads: OpenBLAS sizes its thread pool when it is loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's record."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[Path(path).name] = int(fn())
                break
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["procure", "operate", "sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dlrplan" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'dlrplan'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dlrplan

    if Path(dlrplan.__file__).resolve().parent != SRC / "dlrplan":
        print(f"dlrplan imported from {dlrplan.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import dlrplan.qp as qp
    import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS before the read-back
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    threads = blas_threads()
    env = {"blas_threads": threads, "cpu_count": os.cpu_count(),
           "cpus_allowed": len(os.sched_getaffinity(0))}
    print("env: " + json.dumps(env, sort_keys=True))
    if not threads or any(n != 1 for n in threads.values()):
        print(f"OpenBLAS is not pinned to one thread: {threads}", file=sys.stderr)
        return 3

    tracer = Tracer()
    if args.trace:
        tracer.instrument_all()
    wl = WORKLOADS[args.workload](ROOT, args.seed, tracer, OUT)
    wl.setup()
    setup_s = process_age_s()
    tracer.phase = "prepare"
    wl.prepare()

    tracer.phase = "round"
    round_times = []
    t_start = time.perf_counter()
    while True:
        t = time.perf_counter()
        wl.run_round()
        round_times.append(time.perf_counter() - t)
        if time.perf_counter() - t_start >= args.seconds:
            break
    tracer.phase = "check"
    tracer.op = None

    failed = wl.check()
    for op, problems in failed:
        for p in problems:
            print(f"check failed, operation {op}: {p}", file=sys.stderr)
    rounds = len(round_times)
    round_s = wl.round_s()

    if args.trace:
        metrics = layer_metrics(tracer.spans, rounds, qp.DENSE_MAX_N)
        metrics["trace.round_s"] = (round_s, "s")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                      "round_times_s": round_times, "setup_s": setup_s, **env})
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                   "round_s": (round_s, "s")}
    result = {
        "correct": not failed,
        "attempted": wl.ops_per_round * rounds,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - no result line when the run itself breaks
        traceback.print_exc()
        sys.exit(1)
