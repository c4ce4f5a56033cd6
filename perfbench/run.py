"""Benchmark of the dips bilevel sketch-policy trainer.

Run from the repository root:

    python3 perfbench/run.py --workload gate5-explicit --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, one after the other, in this process.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from wrapped ``dips.*`` functions.  The lines before it are a readable table
and the environment record.  The exit code is 0 only when every output check
held.  ``DIPS_THREADS`` caps numpy's BLAS and OpenMP pools (default 1, never
more than the CPUs this process may use).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("gate5-explicit", "gate5-implicit", "ml1m-scale-batch")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def thread_cap():
    """The BLAS/OpenMP pool size: DIPS_THREADS (default 1), at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    raw = os.environ.get("DIPS_THREADS", "1").strip()
    if not raw.isdigit() or int(raw) < 1:
        raise SystemExit(f"DIPS_THREADS must be a positive integer, got {raw!r}")
    return nproc, min(int(raw), nproc)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dips", "__init__.py")):
        print(f"no dips sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    nproc, threads = thread_cap()
    # must happen before numpy is first imported
    for var in ("DIPS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)
    import numpy as np
    sys.path.insert(0, SRC)
    # numpy's own import is the environment's cost, not the program's
    t_import = time.perf_counter()
    import dips
    import workloads as wls
    import_s = time.perf_counter() - t_import
    if os.path.dirname(os.path.abspath(dips.__file__)) != os.path.join(SRC, "dips"):
        print(f"imported dips from {dips.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": nproc, "threads": threads, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    os.makedirs(OUT, exist_ok=True)
    layer_units = wls.trc.per_layer_units()
    results = {}
    for name in names:
        env_w = dict(env, workload=name)
        correct, attempted, failed, metrics, report = wls.run(
            name, args.seed, args.seconds, args.trace, import_s, env_w, OUT)
        print_report(name, env_w, correct, attempted, failed, metrics, report,
                     wls.END_TO_END, wls.REPORTED, layer_units, args.trace)
        results[name] = (correct, attempted, failed, metrics)
        import_s = 0.0   # paid once per process

    correct = all(r[0] for r in results.values())
    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())
    units = layer_units if args.trace else wls.END_TO_END
    if args.workload == "all":
        metrics = {f"{w}/{k}": {"value": v, "unit": units[k]}
                   for w, r in results.items() for k, v in r[3].items()}
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in results[names[0]][3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def print_report(name, env, correct, attempted, failed, metrics, report,
                 e2e_units, reported_units, layer_units, trace):
    print(f"# workload {name}: correct={correct} attempted={attempted} "
          f"failed={failed} rounds={report['rounds']} setup_reps={report['setup_reps']}")
    print("# env " + json.dumps(env))
    rows = []
    if not trace:
        rows += [(k, v, e2e_units[k]) for k, v in metrics.items()]
    else:
        rows += [(k, v, e2e_units[k]) for k, v in report.items() if k in e2e_units]
        rows += [(k, v, layer_units[k]) for k, v in metrics.items()]
    rows += [(k, report[k], reported_units[k]) for k in reported_units if k in report]
    for k, v, unit in rows:
        print(f"{name:<18} {k:<46} {v:>14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
