"""nilelab benchmark: time-to-verdict, replicates/s and peak RSS of `nilelab run`.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.

Untraced (``--trace 0``): each pass starts one fresh interpreter
(``child.py``) that imports the package and runs the workload's configs in
order.  Passes repeat, each with its own seed derived from ``--seed`` and the
pass index, until the next pass would end after ``--seconds``.  The
end-to-end metrics are medians over the passes, with wall and CPU time
scaled to a nominal host speed by the probe described in ``child.py``;
``verdict_agreement`` counts every op of every pass.

Traced (``--trace 1``): rounds of a traced, an untraced and a traced pass on
the same seed.  The per-layer metrics are medians over the traced passes;
every count metric must repeat exactly between the two traced passes of a
round, and ``trace.overhead_s`` is traced minus untraced scaled wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with an environment block and every pass, is also written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import CALLS, COUNTS, TIMED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: A pass that runs longer than this is killed and the run fails.
PASS_TIMEOUT_S = 120

#: Seeds of different passes never overlap for any --seed below this.
SEED_STRIDE = 1_000_003

END_TO_END = (("nominal_wall_s", "s"), ("nominal_replicates_per_s", "1/s"),
              ("nominal_cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("verdict_agreement", "ratio"))

#: Printed beside the end-to-end metrics: the same times before scaling to
#: the nominal host speed.
RAW = (("wall_s", "s"), ("replicates_per_s", "1/s"), ("cpu_s", "s"), ("probe_s", "s"),
       ("probe_cpu_s", "s"))

PER_LAYER = ([(f"{n}.s", "s") for n in TIMED] + [("verify.decide.self_s", "s")]
             + [(f"{n}.calls", "count") for n in CALLS]
             + [(n, "bytes" if n.endswith("bytes") else "count") for n in COUNTS]
             + [("trace.wall_s", "s"), ("trace.overhead_s", "s")])


class BenchError(RuntimeError):
    pass


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index``; pass 0 uses ``seed`` itself."""
    return seed + SEED_STRIDE * index


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(workload: str, seed: int, trace: bool, work_root: Path) -> dict:
    """Start one fresh interpreter for one pass and return its result."""
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--work", str(work / "out"), "--result", str(result_path)]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{workload} pass (seed {seed}) exited "
                             f"{proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = result.pop("imported_at") - started
    result["stderr"] = proc.stderr[-2000:]
    return result


def warm_up():
    """Import the package once untimed, so every timed set-up finds warm caches."""
    subprocess.run([sys.executable, "-c", "import nilelab.cli"], cwd=ROOT,
                   env=_child_env(), check=True, timeout=PASS_TIMEOUT_S)


def _repeat(seconds: float, step) -> list:
    """Call ``step(i)`` for i = 0, 1, ... until the next call would end after ``seconds``."""
    results = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        results.append(step(len(results)))
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return results


def _outcome(passes: list[dict], metrics: dict) -> dict:
    """Result of a run: failed ops and RNG-free disagreements make it incorrect."""
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op["completed"] for op in ops)
    deterministic_ok = all(op["completed"] and not op["problems"]
                           for op in ops if op["deterministic"])
    return {"passes": passes, "metrics": metrics, "attempted": len(ops),
            "failed": failed, "correct": failed == 0 and deterministic_ok}


def measure(workload: str, seed: int, seconds: float, work_root: Path) -> dict:
    """Untraced passes for ``seconds``; end-to-end metrics as medians."""
    warm_up()
    passes = _repeat(seconds, lambda i: run_child(workload, pass_seed(seed, i), False,
                                                  work_root))
    ops = [op for p in passes for op in p["ops"]]
    med = {key: statistics.median(p[key] for p in passes)
           for key in ("nominal_wall_s", "nominal_cpu_s", "wall_s", "cpu_s",
                       "setup_s", "peak_rss_mb")}
    metrics = {
        "nominal_wall_s": med["nominal_wall_s"],
        "nominal_replicates_per_s": statistics.median(p["replicates"] / p["nominal_wall_s"]
                                                      for p in passes),
        "nominal_cpu_s": med["nominal_cpu_s"],
        "setup_s": med["setup_s"],
        "peak_rss_mb": med["peak_rss_mb"],
        "verdict_agreement": (sum(op["completed"] and not op["problems"] for op in ops)
                              / len(ops)),
    }
    result = _outcome(passes, metrics)
    result["raw"] = {
        "wall_s": med["wall_s"],
        "replicates_per_s": statistics.median(p["replicates"] / p["wall_s"] for p in passes),
        "cpu_s": med["cpu_s"],
        "probe_s": statistics.median(x for p in passes for x in p["probe_s"]),
        "probe_cpu_s": statistics.median(x for p in passes for x in p["probe_cpu_s"]),
    }
    return result


def measure_traced(workload: str, seed: int, seconds: float, work_root: Path) -> dict:
    """Rounds of (traced, untraced, traced) passes on one seed each."""
    count_keys = [n for n, unit in PER_LAYER if unit != "s"]

    def one_round(i):
        s = pass_seed(seed, i)
        # untraced pass in the middle, so a drift in machine speed during
        # the round does not bias the overhead estimate
        a = run_child(workload, s, True, work_root)
        plain = run_child(workload, s, False, work_root)
        b = run_child(workload, s, True, work_root)
        for key in count_keys:
            if key in a["layers"] and a["layers"][key] != b["layers"][key]:
                raise BenchError(f"count {key} differs between two traced passes "
                                 f"with seed {s}: {a['layers'][key]} vs {b['layers'][key]}")
        for t in (a, b):
            t["layers"]["trace.wall_s"] = t["wall_s"]
            t["layers"]["trace.overhead_s"] = t["nominal_wall_s"] - plain["nominal_wall_s"]
        return [a, plain, b]

    warm_up()
    passes = [p for r in _repeat(seconds, one_round) for p in r]
    traced = [p for p in passes if "layers" in p]
    metrics = {name: statistics.median(t["layers"][name] for t in traced)
               for name, _ in PER_LAYER}
    result = _outcome(passes, metrics)
    result["spans"] = traced[-1].pop("spans")
    for t in traced:
        t.pop("spans", None)
    return result


def _git_state() -> dict:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"commit": None, "dirty": None}
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30)
        return {"commit": head.stdout.strip() or None, "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int, libraries: dict) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(), **libraries,
            "git": _git_state(), "workload_seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    if trace:
        res = measure_traced(name, seed, seconds, work_root)
        units = dict(PER_LAYER)
    else:
        res = measure(name, seed, seconds, work_root)
        units = dict(END_TO_END)
    res["workload"] = name
    res["env"] = environment(seed, res["passes"][0]["env"])
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(res, indent=1) + "\n")
    print(f"# {name}: {len(res['passes'])} passes, env {json.dumps(res['env'])}")
    for metric, value in res["metrics"].items():
        print(f"{name} {metric}: {value:.6g} {units[metric]}")
    for metric, value in res.get("raw", {}).items():
        print(f"# {name} unscaled {metric}: {value:.6g} {dict(RAW)[metric]}")
    for p in res["passes"]:
        for op in p["ops"]:
            if op["problems"]:
                print(f"# {name} seed {p['seed']} {op['op']}: {'; '.join(op['problems'])}")
    res["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in res["metrics"].items()}
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nilelab" / "cli.py").is_file():
        print(f"error: no nilelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
