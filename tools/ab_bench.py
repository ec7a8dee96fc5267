"""A/B benchmark: alternate pairs of `perfbench/run.py` runs on two revisions.

    python3 tools/ab_bench.py BASE HEAD --workload moments-threads --pairs 10 \\
        --seconds 30 --seed 3

Each revision is extracted with ``git archive`` into its own fresh directory
under ``--work`` (a new temporary directory by default), so neither starts
with a ``__pycache__`` or the results of an earlier run.  Pair ``i`` runs
``perfbench/run.py`` with the same ``--workload``, ``--seconds``, ``--seed``
and ``--trace`` in both trees, the base first in even pairs and the head
first in odd ones.  ``git stash create`` names the working tree's changes to
tracked (or staged) files as a revision, for a change not yet committed.

For every workload and metric it prints each side's median and quartiles, the
base's interquartile range and the pairs the head wins, in the direction that
``BENCHMARK.json`` gives the metric.  ``claim`` marks a metric where the head
wins at least nine pairs in ten and its median is better by more than the
base's IQR: the rule a claimed gain is held to.  Every run's metrics are also
written to ``ab.json`` in the work directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` written under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_bench(tree: Path, args) -> dict:
    """``{"workload/metric": value}`` of one `perfbench/run.py` run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seconds", str(args.seconds), "--seed", str(args.seed), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    prefix = "" if args.workload == "all" else f"{args.workload}/"
    metrics = {prefix + name: m["value"] for name, m in result["metrics"].items()}
    metrics[f"{args.workload}/failed"] = result["failed"]
    return metrics


def directions(tree: Path) -> dict:
    """metric name -> "lower" or "higher" from the tree's ``BENCHMARK.json``."""
    bench = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in bench[key]}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(runs: list, better: dict) -> list:
    """One row per metric: (metric, base (q1, median, q3), head's, base IQR, wins, claim)."""
    rows = []
    for metric in runs[0]["base"]:
        if not all(metric in r["base"] and metric in r["head"] for r in runs):
            continue
        base = [r["base"][metric] for r in runs]
        head = [r["head"][metric] for r in runs]
        sign = -1.0 if better.get(metric.split("/", 1)[-1], "lower") == "higher" else 1.0
        wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        qb, qh = quartiles(base), quartiles(head)
        iqr = qb[2] - qb[0]
        claim = wins >= 0.9 * len(runs) and sign * (qb[1] - qh[1]) > iqr
        rows.append((metric, qb, qh, iqr, wins, claim))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="the revision to compare against, e.g. HEAD~1")
    ap.add_argument("head", help="the revision under test, e.g. HEAD")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, help="a new directory for the two trees")
    args = ap.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="ab-bench-"))
    trees = {side: extract(rev, work / side) for side, rev in (("base", args.base),
                                                               ("head", args.head))}
    runs = []
    for i in range(args.pairs):
        run = {}
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            run[side] = run_bench(trees[side], args)
        runs.append(run)
        print(f"# pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    (work / "ab.json").write_text(json.dumps({"args": {**vars(args), "work": str(work)},
                                              "runs": runs}, indent=1))
    print(f"# {args.base} -> {args.head}: {args.pairs} pairs, --seconds {args.seconds:g} "
          f"--seed {args.seed} --trace {args.trace}; runs in {work / 'ab.json'}")
    print("| metric | base median [q1, q3] | head median [q1, q3] | base IQR | head wins | claim |")
    print("|---|---|---|---|---|---|")
    for metric, qb, qh, iqr, wins, claim in summary(runs, directions(trees["base"])):
        print(f"| {metric} | {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
              f"| {qh[1]:.6g} [{qh[0]:.6g}, {qh[2]:.6g}] | {iqr:.3g} "
              f"| {wins}/{len(runs)} | {'yes' if claim else ''} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
