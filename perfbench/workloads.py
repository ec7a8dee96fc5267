"""The four benchmark workloads: `nilelab run` configs and their expected outcomes.

Every op is one `key = value` config passed to
``nilelab.cli.main(["run", cfg, "--out", dir, "--seed", seed])``.  Each op
carries the exit code the paper's claim predicts and the content checks its
``report.json`` must satisfy.  Why each workload exists, and which layer it
stresses, is recorded in README.md and in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

EXIT_FOR_VERDICT = {"pass": 0, "fail": 2, "inconclusive": 3}

#: Upper bound on the RNG-free quadrature cross-check (selftest's own tolerance).
QUADRATURE_REL_TOL = 1e-8

#: |bias| / SE bound for the unbiased estimators; the largest |z| seen over
#: 20 seeds was 2.4.
BIAS_Z_MAX = 4.0


@dataclass(frozen=True)
class Op:
    name: str
    cfg: dict
    expect_exit: int
    verdict_keys: tuple
    #: estimators whose |bias| must stay below BIAS_Z_MAX standard errors
    unbiased: tuple = ()
    #: RNG-free op: any disagreement is a program defect, not MC noise
    deterministic: bool = False

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.cfg.items())

    @property
    def replicates(self) -> int:
        """Configured replicates x grid points (0 for RNG-free ops)."""
        if "replicates" not in self.cfg:
            return 0
        points = len(str(self.cfg["grid"]).split(",")) if "grid" in self.cfg else 1
        return int(self.cfg["replicates"]) * points


_GRID4 = "0.5,1,2,4"

#: workload name -> ops, run in this order by every pass
WORKLOADS = {
    # the KS decide step is most of the work; no h* or quadrature
    "ancillarity-ks": (
        Op("anc-nile-product",
           {"kind": "ancillarity", "family": "nile", "n": 5, "grid": _GRID4,
            "replicates": 1_000_000, "workers": 1},
           0, ("distribution-invariant",)),
        Op("anc-nile-mle",
           {"kind": "ancillarity", "family": "nile", "statistic": "nile_mle",
            "n": 5, "grid": _GRID4, "replicates": 1_000_000, "workers": 1},
           2, ("distribution-invariant",)),
    ),
    # sampling, evaluate (one h* table build) and moment sums; memory peaks
    "risk-table": (
        Op("vt-nile",
           {"kind": "variance-table", "family": "nile",
            "estimators": "nile_mle,nile_star", "n": 5, "grid": _GRID4,
            "replicates": 1_000_000, "workers": 1},
           0, ("table-computed",), unbiased=("nile_star",)),
        Op("vt-normal-cv",
           {"kind": "variance-table", "family": "normal_cv",
            "estimators": "khan_linear,normalcv_mle", "n": 10, "grid": _GRID4,
            "replicates": 1_000_000, "workers": 1},
           0, ("table-computed",), unbiased=("khan_linear",)),
    ),
    # the only thread-pool workload; moment-only verifiers, chi-square, fisher-info
    "moments-threads": (
        Op("rao-nile-mle",
           {"kind": "rao", "family": "nile", "estimator": "nile_mle",
            "transform": "log", "n": 1, "grid": "0.5,1,2",
            "replicates": 1_000_000, "workers": 2},
           2, ("zero-covariance",)),
        Op("rao-normal-unit",
           {"kind": "rao", "family": "normal_unit", "estimator": "sample_mean",
            "n": 5, "grid": "0.5,1,2", "replicates": 100_000, "workers": 2},
           0, ("zero-covariance",)),
        Op("indep-normal-cv",
           {"kind": "independence", "family": "normal_cv", "n": 10,
            "grid": "0.5,1,2", "replicates": 1_000_000, "workers": 2},
           0, ("independent",)),
        Op("first-order-corr",
           {"kind": "first-order", "family": "bivariate_gaussian_corr",
            "grid": "-0.9,0,0.9", "replicates": 2_000_000, "workers": 2},
           0, ("mean-constant",)),
        Op("fisher-info",
           {"kind": "fisher-info", "theta": 1, "c": 1,
            "replicates": 4_000_000, "workers": 2},
           0, ("matches-closed-form",)),
    ),
    # five cold h* table builds (10005 quadratures) plus the RNG-free selftests
    "quadrature-cond": tuple(
        Op(f"cond-moment-n{n}",
           {"kind": "cond-moment", "family": "nile", "estimator": "nile_star",
            "theta": 1, "n": n, "replicates": 100_000, "workers": 1},
           2, ("no-dependence",))
        for n in range(1, 6)
    ) + (
        Op("quadrature-selftest", {"kind": "quadrature-selftest"}, 0,
           ("laplace-bessel-agreement", "bessel-recurrence"), deterministic=True),
        Op("constraints", {"kind": "constraints"}, 0,
           ("residuals-vanish", "parameter-map-injective"), deterministic=True),
    ),
}


def check_report(op: Op, exit_code: int, report_path: Path) -> tuple[bool, list[str]]:
    """Check one op's outcome against the paper's claim.

    Returns (completed, problems).  ``completed`` is False when the op
    produced no usable report (exit 1 or no parseable ``report.json``);
    ``problems`` lists every way the outcome disagrees with the claim.
    """
    if exit_code not in EXIT_FOR_VERDICT.values():
        return False, [f"exit code {exit_code}"]
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return False, [f"unreadable report: {exc}"]
    problems = []
    verdicts = report.get("verdicts", {})
    missing = [k for k in op.verdict_keys if k not in verdicts]
    if missing:
        problems.append(f"missing verdict keys {missing}")
    if EXIT_FOR_VERDICT.get(report.get("verdict")) != exit_code:
        problems.append(f"exit code {exit_code} disagrees with verdict {report.get('verdict')!r}")
    if exit_code != op.expect_exit:
        problems.append(f"exit code {exit_code}, claim predicts {op.expect_exit}")
    try:
        for est in op.unbiased:
            key = f"{est}.bias"
            for param, e, s in zip(report["grid"], report["estimates"], report["se"]):
                if not abs(e[key]) < BIAS_Z_MAX * s[key]:
                    problems.append(f"{key} = {e[key]:.3g} at {param:g} exceeds "
                                    f"{BIAS_Z_MAX:g} SE ({s[key]:.3g})")
        if op.cfg["kind"] == "quadrature-selftest":
            worst = report["statistics"][0]["worst_rel_err"]
            if not (isinstance(worst, float) and math.isfinite(worst)
                    and worst < QUADRATURE_REL_TOL):
                problems.append(f"worst_rel_err {worst} not below {QUADRATURE_REL_TOL:g}")
    except (KeyError, IndexError, TypeError) as exc:
        problems.append(f"report lacks a checked field: {exc!r}")
    return True, problems
