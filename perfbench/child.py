"""One pass of a workload in a fresh interpreter.

Run by ``run.py``, never imported by it:

    python child.py --workload NAME --seed S --trace 0|1 --work DIR --result FILE

The first statement imports ``nilelab.cli`` and stamps CLOCK_MONOTONIC, so
the parent (which stamped the same clock just before starting this process)
gets the set-up time: interpreter start plus the package import.  The pass
then runs the workload's configs in order through ``nilelab.cli.main``, one
at a time (a closed loop with one client), records the wall time and
``getrusage(RUSAGE_SELF)`` of every op, checks every report, and writes one
JSON result.

Before the first op and after each op the pass times ``probe``, a fixed task
that shares no code with nilelab.  On a shared host the CPU speed drifts (by
up to +-20% over minutes on a 2-vCPU Intel Xeon VM); the probe's median over
the pass measures that speed, and the pass's times are also reported scaled
to the nominal speed ``PROBE_NOMINAL_S``: wall times by the probe's wall
time, CPU times by the probe's CPU time.
"""

import time

import nilelab.cli as cli  # the set-up being measured

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402


def _library_versions() -> dict:
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "nilelab_file": cli.__file__}


#: Median probe wall and CPU seconds on the reference host (2 vCPU Intel
#: Xeon at 2.1 GHz), keyed by thread count.
PROBE_NOMINAL_S = {1: (0.033, 0.033), 2: (0.048, 0.068)}


def _probe_task(_):
    # numpy work that releases the GIL plus interpreter-bound work, the same
    # mix nilelab's sampling, KS and quadrature callbacks make; arrays stay
    # below glibc's 128 KiB mmap threshold so the probe leaves the process's
    # memory layout, and so peak RSS, as it was
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(25):
        x = rng.standard_normal(10_000)
        total += float(np.exp(-np.abs(np.sort(x))).sum())
    for i in range(10_000):
        total += math.exp(-i * 1e-5)
    return total


def probe(threads: int) -> tuple[float, float]:
    """Wall and CPU seconds the host takes right now for a fixed task on ``threads`` threads."""
    wall, cpu = time.perf_counter(), time.process_time()
    if threads == 1:
        for i in range(4):
            _probe_task(i)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_probe_task, range(4 * threads)))
    return time.perf_counter() - wall, time.process_time() - cpu


def run_pass(ops, seed: int, work: Path, tracer=None) -> dict:
    """Run every op once, in order; return timings and per-op outcomes."""
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        path = work / f"{op.name}.cfg"
        path.write_text(op.config_text())
        paths.append(path)
    threads = max(int(op.cfg.get("workers", 1)) for op in ops)
    exits, walls, cpus = [], [], []
    probes = [probe(threads)]
    sink = io.StringIO()
    for path in paths:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer)
            stack.enter_context(contextlib.redirect_stdout(sink))
            try:
                exits.append(cli.main(["run", str(path), "--out", str(work),
                                       "--seed", str(seed)]))
            except Exception as exc:  # an op that raises is a failed op, not a crash
                print(f"{path.stem}: raised {exc!r}", file=sys.stderr)
                exits.append(None)
        walls.append(time.perf_counter() - t0)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        cpus.append((ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime))
        probes.append(probe(threads))
    outcomes = []
    for op, code in zip(ops, exits):
        completed, problems = check_report(op, code, work / f"{op.name}.report.json")
        outcomes.append({"op": op.name, "exit": code, "completed": completed,
                         "problems": problems, "deterministic": op.deterministic})
    probe_wall, probe_cpu = zip(*probes)
    nominal_wall, nominal_cpu = PROBE_NOMINAL_S[threads]
    return {
        "seed": seed,
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "nominal_wall_s": sum(walls) * nominal_wall / statistics.median(probe_wall),
        "nominal_cpu_s": sum(cpus) * nominal_cpu / statistics.median(probe_cpu),
        "probe_s": probe_wall,
        "probe_cpu_s": probe_cpu,
        "op_wall_s": walls,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replicates": sum(op.replicates for op in ops),
        "ops": outcomes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)
    tracer = Tracer() if args.trace else None
    result = run_pass(WORKLOADS[args.workload], args.seed, args.work, tracer)
    result["imported_at"] = IMPORTED_AT
    result["env"] = _library_versions()
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.dump()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
