"""Command-line front end.

Subcommands:

* ``run <config>``  -- execute one experiment described by a flat
  ``key = value`` config file; writes ``<name>.report.json`` and
  ``<name>.table.csv`` into the output directory.
* ``list``          -- catalog of experiment kinds with their claims and
  default configs.
* ``selftest``      -- the RNG-free quadrature and constraint suites.

Exit codes: 0 all verdicts pass, 2 any verdict failed, 3 any verdict
inconclusive, 1 execution error (bad config, unwritable output, ...).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import selftest, verify
from .families import FAMILIES, DomainError

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    name: str = ""
    family: str = ""
    statistic: str = ""
    stat_a: str = ""
    stat_b: str = ""
    estimator: str = ""
    estimators: tuple = ()
    transform: str = "log"
    grid: tuple = ()
    theta: float = 1.0
    c: float = 1.0
    n: int = 5
    replicates: int = 100_000
    power: int = 1
    seed: int = 0
    workers: int = 1
    out: str = "."

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"field 'kind': unknown experiment kind {self.kind!r}")
        if self.replicates < 1:
            raise ConfigError(f"field 'replicates': must be >= 1, got {self.replicates}")
        if self.n < 1:
            raise ConfigError(f"field 'n': must be >= 1, got {self.n}")
        if self.workers < 1:
            raise ConfigError(f"field 'workers': must be >= 1, got {self.workers}")
        if not 1 <= self.power <= 6:
            raise ConfigError(f"field 'power': must be in [1, 6], got {self.power}")
        if self.family and self.family not in verify.FAMILY_TOKENS:
            raise ConfigError(f"field 'family': unknown family {self.family!r}")


_INT_FIELDS = {"n", "replicates", "power", "seed", "workers"}
_FLOAT_FIELDS = {"theta", "c"}
_LIST_FLOAT_FIELDS = {"grid"}
_LIST_STR_FIELDS = {"estimators"}
_ALL_FIELDS = {f.name for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` format; reject unknown keys."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _ALL_FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _INT_FIELDS:
                values[key] = int(val)
            elif key in _FLOAT_FIELDS:
                values[key] = float(val)
            elif key in _LIST_FLOAT_FIELDS:
                values[key] = tuple(float(v) for v in val.split(",")) if val else ()
            elif key in _LIST_STR_FIELDS:
                values[key] = tuple(v.strip() for v in val.split(",")) if val else ()
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from None
    if "kind" not in values:
        raise ConfigError("missing required key 'kind'")
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def format_config(cfg: ExperimentConfig) -> str:
    """Inverse of ``parse_config``; parse(format(cfg)) == cfg."""
    lines = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if f.name in _LIST_FLOAT_FIELDS:
            v = ",".join(f"{x:.17g}" for x in v)
        elif f.name in _LIST_STR_FIELDS:
            v = ",".join(v)
        elif f.name in _FLOAT_FIELDS:
            v = f"{v:.17g}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def _mc_config(cfg: ExperimentConfig, grid, n=None) -> verify.MCConfig:
    return verify.MCConfig(cfg.seed, cfg.replicates, tuple(grid), n or cfg.n, cfg.workers)


def _statistic(field: str, name: str, family: str, n: int) -> str:
    """Check statistic ``name`` from config field ``field`` against the registry."""
    try:
        verify.resolve_statistic(name, family, n)
    except ValueError as exc:
        raise ConfigError(f"field {field!r}: {exc}") from None
    return name


def _ancillarity(cfg):
    family = cfg.family or "nile"
    # a family with no declared ancillary fails the check on the alias
    stat = _statistic("statistic", cfg.statistic or FAMILIES[family].ancillary or "ancillary",
                      family, cfg.n)
    grid = cfg.grid or (0.5, 1.0, 2.0, 4.0)
    if len(grid) < 2:
        raise ConfigError("field 'grid': ancillarity needs at least 2 grid points")
    return verify.verify_ancillarity(family, stat, _mc_config(cfg, grid), c=cfg.c)


def _first_order(cfg):
    family = cfg.family or "bivariate_gaussian_corr"
    corr = family == "bivariate_gaussian_corr"
    stat = _statistic("statistic", cfg.statistic or
                      ("first_order_h" if corr else "positive_indicator"), family, 1)
    grid = cfg.grid or ((-0.9, 0.0, 0.9) if corr else (0.5, 1.0, 2.0))
    return verify.verify_first_order(family, stat, _mc_config(cfg, grid, n=1), c=cfg.c)


def _independence(cfg):
    family = cfg.family or "normal_cv"
    stat_a = _statistic("stat_a", cfg.stat_a or "sample_mean", family, cfg.n)
    stat_b = _statistic("stat_b", cfg.stat_b or "sample_sd", family, cfg.n)
    return verify.verify_independence(stat_a, stat_b, family,
                                      _mc_config(cfg, cfg.grid or (1.0,)), c=cfg.c)


def _rao(cfg):
    family = cfg.family or "nile"
    if family == "normal_unit":
        _statistic("n", "diff12", family, cfg.n)
    else:
        _statistic("family", "ancillary", family, cfg.n)
        if cfg.transform not in verify.TRANSFORMS:
            raise ConfigError(f"field 'transform': unknown transform {cfg.transform!r}")
    estimator = _statistic("estimator", cfg.estimator or "nile_mle", family, cfg.n)
    if family == "normal_unit":
        u = verify.ZeroMeanSpec(id="first-contrast", source="diff12",
                                transform=verify.identity, center=0.0, center_se=0.0)
    else:
        transform = verify.TRANSFORMS[cfg.transform](family, cfg.n, cfg.c, cfg.seed + 2)
        u = verify.zero_mean_from_ancillary(
            f"{cfg.transform}-of-ancillary", "ancillary", transform, family,
            n=cfg.n, seed=cfg.seed + 1, c=cfg.c)
    grid = cfg.grid or (0.5, 1.0, 2.0)
    return verify.rao_zero_cov(estimator, u, family, _mc_config(cfg, grid), power=cfg.power,
                               c=cfg.c)


def _cond_moment(cfg):
    family = cfg.family or "nile"
    estimator = _statistic("estimator", cfg.estimator or "nile_star", family, cfg.n)
    w_stat = _statistic("statistic", cfg.statistic or
                        ("diff12" if family == "normal_unit" else "ancillary"), family, cfg.n)
    # the quadrature prediction is for the unbiased estimator given W itself
    overlay = estimator == "nile_star" and w_stat in ("ancillary", "nile_product")
    return verify.cond_moment_dependence(
        estimator, family, cfg.theta, _mc_config(cfg, (cfg.theta,)),
        w_stat=w_stat, c=cfg.c, overlay=overlay)


def _variance_table(cfg):
    family = cfg.family or "nile"
    estimators = [_statistic("estimators", name, family, cfg.n)
                  for name in cfg.estimators or ("nile_mle", "nile_star")]
    return verify.variance_table(estimators, family, _mc_config(cfg, cfg.grid or (1.0,)), c=cfg.c)


#: kind -> (claim, default config as ``nilelab list`` shows it, runner)
EXPERIMENTS = {
    "ancillarity": (
        "sampling distribution of the designated ancillary statistic "
        "is invariant across the parameter grid (pairwise KS test)",
        "family = nile, grid = 0.5,1,2,4, n = 5, replicates = 200000", _ancillarity),
    "first-order": (
        "mean of a first-order ancillary statistic is constant in the "
        "parameter (vs its closed-form normal-CDF value)",
        "family = bivariate_gaussian_corr, grid = -0.9,0,0.9, replicates = 100000",
        _first_order),
    "independence": (
        "two statistics are independent at each grid point "
        "(chi-square on a decile contingency table)",
        "family = normal_cv, stat_a = sample_mean, stat_b = sample_sd, n = 10", _independence),
    "rao": (
        "a UMVUE must have zero covariance with every zero-mean statistic; "
        "estimates E(g^k U) for U built from the ancillary",
        "family = nile, estimator = nile_mle, transform = log, grid = 0.5,1,2, n = 1", _rao),
    "cond-moment": (
        "a UMVUE's conditional second moment given the ancillary must "
        "be constant; bins the ancillary and compares bin means",
        "family = nile, estimator = nile_star, theta = 1, n = 1", _cond_moment),
    "fisher-info": (
        "variance of the score equals (2 + 1/c^2)/theta^2, exceeding "
        "the location-only information 1/(c^2 theta^2)",
        "theta = 1, c = 1, replicates = 1000000",
        lambda cfg: verify.fisher_info(cfg.theta, cfg.c, _mc_config(cfg, (cfg.theta,)))),
    "variance-table": (
        "Monte Carlo bias/variance/MSE comparison across estimators",
        "family = nile, estimators = nile_mle,nile_star, grid = 1, n = 5", _variance_table),
    "quadrature-selftest": (
        "the adaptive-quadrature and Bessel-representation evaluations of the "
        "conditional-moment integrals agree to 1e-8",
        "no configuration", lambda cfg: selftest.quadrature_selftest()),
    "constraints": (
        "natural-parameter constraint polynomials vanish along each "
        "family's parameter curve (|residual| < 1e-12)",
        "no configuration", lambda cfg: selftest.constraint_selftest()),
}

EXPERIMENT_KINDS = tuple(EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> verify.VerificationReport:
    """Run a validated config (ConfigError if it is bad, VerificationError if untestable)."""
    try:
        return EXPERIMENTS[cfg.kind][2](cfg)
    except DomainError as exc:  # a grid point or theta outside the family's domain
        raise ConfigError(str(exc)) from None


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_report(report: verify.VerificationReport, out_dir: Path, name: str,
                 timestamp: bool = True) -> list[Path]:
    """Write ``<name>.report.json`` and ``<name>.table.csv`` (neither on OSError)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{name}.report.json"
    csv_path = out_dir / f"{name}.table.csv"
    header, rows = report.table_rows()
    buf = io.StringIO()
    if timestamp:
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        buf.write(f"# generated: {now}\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    json_path.write_text(json.dumps(report.to_json_dict(), indent=2,
                                    default=_fmt) + "\n")
    try:
        csv_path.write_text(buf.getvalue())
    except OSError:
        json_path.unlink()
        raise
    return [json_path, csv_path]


def _exit_code(report: verify.VerificationReport) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL,
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]


def list_experiments() -> str:
    lines = ["Available experiment kinds:", ""]
    for kind, (claim, default, _) in EXPERIMENTS.items():
        lines.append(f"{kind}")
        lines.append(f"    claim:   {claim}")
        lines.append(f"    default: {default}")
    return "\n".join(lines) + "\n"


def _write_all(reports, out_dir: Path) -> bool:
    """Write each (report, name); on OSError remove what was written and print an error."""
    written = []
    try:
        for report, name in reports:
            written += write_report(report, out_dir, name)
    except OSError as exc:
        for p in written:
            p.unlink()
        print(f"error: cannot write report to {out_dir}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    try:
        path = Path(args.config)
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        if args.workers is not None:
            cfg.workers = args.workers
        cfg.validate()
        name = cfg.name or path.stem
        report = run_experiment(cfg)
        if not _write_all([(report, name)], Path(cfg.out)):
            return EXIT_ERROR
        for sub, verdict in report.verdicts.items():
            print(f"{name}: {sub}: {verdict}")
        return _exit_code(report)
    except (ConfigError, verify.VerificationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def cmd_list(_args) -> int:
    print(list_experiments(), end="")
    return EXIT_PASS


def cmd_selftest(args) -> int:
    # each report is named after its experiment kind in EXPERIMENTS
    reports = [(selftest.quadrature_selftest(), "quadrature-selftest"),
               (selftest.constraint_selftest(), "constraints")]
    if args.out is not None and not _write_all(reports, Path(args.out)):
        return EXIT_ERROR
    code = EXIT_PASS
    for report, _ in reports:
        for sub, verdict in report.verdicts.items():
            print(f"{sub}: {verdict}")
        code = max(code, _exit_code(report))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilelab",
        description="Monte Carlo and quadrature checks for incomplete-sufficiency "
                    "families (ancillarity, UMVUE necessary conditions, Fisher "
                    "information, natural-parameter constraints).")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--workers", type=int, default=None, help="worker threads")
    p_run.set_defaults(func=cmd_run)
    p_list = sub.add_parser("list", help="list experiment kinds")
    p_list.set_defaults(func=cmd_list)
    p_self = sub.add_parser("selftest", help="run the RNG-free verification suites")
    p_self.add_argument("--out", default=None, help="also write reports here")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
