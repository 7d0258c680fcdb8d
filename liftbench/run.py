#!/usr/bin/env python3
"""Benchmark of the certified lift pipeline of equilift.

    python3 liftbench/run.py --workload modes-200 --seed 1 --seconds 15 --trace 0

Run from the repository root. The program is imported from ``src/``; the run
uses one process, one thread and BLAS pinned to one thread, with
EQUILIFT_THREADS unset. It repeats whole rounds of the workload's jobs until
--seconds have passed, checks every output (see checks.py), and prints one
JSON line last: the end-to-end metrics with --trace 0, the per-layer metrics
from rebound layer entry points with --trace 1. Times are scaled to the
reference machine speed by a calibration loop run around every job (see
README.md). A copy of the result, with every raw job time, goes to
liftbench/out/.
"""

import os
import sys
import time

_T0 = time.perf_counter()

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("EQUILIFT_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
# seconds the calibration loop takes on the reference machine at its median
# speed; job and set-up times are reported at that speed (see README)
C_REF = 0.1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("weierstrass-800", "modes-200", "verify-shift"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import equilift from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "equilift", "__init__.py")):
        raise SystemExit(f"liftbench: no equilift sources under {SRC}")
    sys.path.insert(0, SRC)
    import equilift
    if os.path.dirname(os.path.abspath(equilift.__file__)) != \
            os.path.join(SRC, "equilift"):
        raise SystemExit(f"liftbench: equilift imported from "
                         f"{equilift.__file__}, not from {SRC}")


def _calibration_loop():
    """A fixed loop of complex numpy logs over small arrays, small
    least-squares solves and dict updates, the kinds of work the program
    does. It does not touch the program, so its time only tracks how fast the
    machine runs at that moment."""
    import numpy as np
    rng = np.random.default_rng(20251017)
    z = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    poles = (rng.normal(size=600) + 1j * rng.normal(size=600)).tolist()
    a = rng.normal(size=(256, 12)) + 1j * rng.normal(size=(256, 12))
    y = rng.normal(size=256) + 0j

    def loop():
        t0 = time.perf_counter()
        out = np.zeros_like(z)
        for b in poles:
            out = out + np.log((b - z) / (b - 0.5j))
        for _ in range(60):
            np.linalg.lstsq(a, y, rcond=None)
        keys = {}
        for i in range(30000):
            keys[i % 97] = keys.get(i % 97, 0) + i
        return time.perf_counter() - t0

    return loop


def _run_checked(job, tracer, calibrate):
    """(wall seconds, calibration seconds, failure message or None) of one
    job and its check. The calibration is the mean of the loops run right
    before and right after the job."""
    gc.collect()
    c0 = calibrate()
    tracer.active = tracer.enabled
    t0 = time.perf_counter()
    try:
        out = job.run(tracer)
    except Exception:
        tracer.active = False
        return None, None, f"{job.label}: raised\n{traceback.format_exc()}"
    dt = time.perf_counter() - t0
    tracer.active = False
    cal = (c0 + calibrate()) / 2
    t1 = time.perf_counter()
    try:
        job.check(out)
    except Exception:
        return dt, cal, f"{job.label}: check failed\n{traceback.format_exc()}"
    finally:
        job.check_s += time.perf_counter() - t1
    return dt, cal, None


def main(argv=None):
    args = _parse(argv)
    _import_program()
    import workloads
    from tracing import Tracer

    t_import = time.perf_counter() - _T0
    tracer = Tracer()
    calibrate = _calibration_loop()

    # set-up: imports (once per process), then input generation and one
    # warm-up job, repeated; the calibration loops and the warm-up's check
    # are left out of the time
    setups, setup_cals = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        load = workloads.WORKLOADS[args.workload](args.seed)
        t_gen = time.perf_counter() - t0
        dt, cal, problem = _run_checked(load.warmup, tracer, calibrate)
        if problem:
            print(problem, file=sys.stderr)
            return 1
        setups.append(t_gen + dt)
        setup_cals.append(cal)
    setup_raw = t_import + statistics.median(setups)
    setup_s = setup_raw * C_REF / statistics.median(setup_cals)

    if args.trace:
        tracer.install()

    raw, cals, labels = [], [], []
    attempted = failed = points = 0
    correct = True
    rounds = 0
    t_begin = time.perf_counter()
    while True:
        for job in load.jobs:
            attempted += 1
            dt, cal, problem = _run_checked(job, tracer, calibrate)
            if problem:
                failed += 1
                print(problem, file=sys.stderr)
                if dt is not None:
                    correct = False     # a wrong output, not a refusal
                continue
            raw.append(dt)
            cals.append(cal)
            labels.append(job.label)
            points += job.points
        rounds += 1
        if time.perf_counter() - t_begin >= args.seconds:
            break
    tracer.uninstall()

    times = [t * C_REF / c for t, c in zip(raw, cals)]
    job_s_p50 = statistics.median(times) if times else float("nan")
    if args.trace:
        metrics = tracer.per_job(len(times))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "job_s_p50": (job_s_p50, "s"),
            "points_per_s": (points / sum(times) if times else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    raw_p50 = statistics.median(raw) if raw else float("nan")
    print(f"liftbench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds} round(s), {len(times)} jobs, job_s_p50 {job_s_p50:.4f} s "
          f"(wall {raw_p50:.4f} s), setup {setup_s:.3f} s "
          f"(wall {setup_raw:.3f} s, imports {t_import:.3f} s)",
          file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({**result, "rounds": rounds, "wall_job_s_p50": raw_p50,
                   "wall_setup_s": setup_raw, "import_s": t_import,
                   "jobs": [{"label": lb, "wall_s": t, "calibration_s": c}
                            for lb, t, c in zip(labels, raw, cals)],
                   "check_s": {job.label: job.check_s for job in load.jobs},
                   "setup_repeats_s": setups,
                   "setup_calibration_s": setup_cals}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
