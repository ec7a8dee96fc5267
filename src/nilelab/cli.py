"""Command-line front end.

Subcommands:

* ``run <config>``  -- execute one experiment described by a flat
  ``key = value`` config file; writes ``<name>.report.json`` and
  ``<name>.table.csv`` into the output directory.
* ``list``          -- catalog of experiment kinds with their claims and
  default configs.
* ``selftest``      -- every RNG-free experiment kind (the quadrature and
  constraint suites).

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
from collections import namedtuple
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from . import selftest, verify
from .families import FAMILIES, DomainError
from .quadrature import QuadratureFailure

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
    estimators: tuple[str, ...] = ()
    transform: str = "log"
    grid: tuple[float, ...] = ()
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


#: Config key -> the type its value is parsed to, from the annotations.
_TYPES = get_type_hints(ExperimentConfig)


def _parse(typ, val: str):
    """``val`` as ``typ``; a ``tuple[T, ...]`` value is a comma-separated list."""
    if get_origin(typ) is tuple:
        return tuple(get_args(typ)[0](v.strip()) for v in val.split(",")) if val else ()
    return typ(val)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` format; reject unknown keys and keys the kind never reads."""
    values, linenos = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse(_TYPES[key], val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from None
        linenos[key] = lineno
    if "kind" not in values:
        raise ConfigError("missing required key 'kind'")
    cfg = ExperimentConfig(**values)
    cfg.validate()
    unread = [key for key in values if key not in EXPERIMENTS[cfg.kind].keys]
    if unread:
        raise ConfigError(f"line {linenos[unread[0]]}: field {unread[0]!r}: "
                          f"kind {cfg.kind!r} does not read it")
    return cfg


def format_config(cfg: ExperimentConfig) -> str:
    """Inverse of ``parse_config``: the keys the kind reads; parse(format(cfg)) == cfg
    when every other field has its default."""
    lines = []
    for f in fields(ExperimentConfig):
        if f.name not in EXPERIMENTS[cfg.kind].keys:
            continue
        v = getattr(cfg, f.name)
        v = ",".join(map(_fmt, v)) if isinstance(v, tuple) else _fmt(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def _mc_config(cfg: ExperimentConfig, grid, n=None) -> verify.MCConfig:
    if cfg.seed < 0:  # the run's one MCConfig: numpy's error would name no field
        raise ConfigError(f"field 'seed': must be >= 0, got {cfg.seed}")
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
    known = [k for k, s in verify.STATISTICS.items() if family in (s.target or ())]
    if not (cfg.statistic or known):
        raise ConfigError(f"field 'statistic': no statistic has a known mean on family "
                          f"{family!r}; name one")
    stat = _statistic("statistic", cfg.statistic or known[0], family, 1)
    grid = cfg.grid or FAMILIES[family].first_order_grid
    return verify.verify_first_order(family, stat, _mc_config(cfg, grid, n=1), c=cfg.c)


def _independence(cfg):
    family = cfg.family or "normal_cv"
    stat_a = _statistic("stat_a", cfg.stat_a or "sample_mean", family, cfg.n)
    stat_b = _statistic("stat_b", cfg.stat_b or "sample_sd", family, cfg.n)
    return verify.verify_independence(stat_a, stat_b, family,
                                      _mc_config(cfg, cfg.grid or (1.0,)), c=cfg.c)


def _rao(cfg):
    family = cfg.family or "nile"
    contrast = FAMILIES[family].contrast  # exact zero mean: no centring run or transform
    _statistic("n" if contrast else "family", contrast or "ancillary", family, cfg.n)
    if cfg.transform not in verify.TRANSFORMS:
        raise ConfigError(f"field 'transform': unknown transform {cfg.transform!r}")
    estimator = _statistic("estimator", cfg.estimator or "nile_mle", family, cfg.n)
    config = _mc_config(cfg, cfg.grid or (0.5, 1.0, 2.0))
    u = verify.zero_mean_from_ancillary(cfg.transform, family, config, c=cfg.c)
    return verify.rao_zero_cov(estimator, u, family, config, power=cfg.power, c=cfg.c)


def _cond_moment(cfg):
    family = cfg.family or "nile"
    estimator = _statistic("estimator", cfg.estimator or "nile_star", family, cfg.n)
    w_stat = _statistic("statistic", cfg.statistic or FAMILIES[family].contrast or "ancillary",
                        family, cfg.n)
    return verify.cond_moment_dependence(estimator, family, _mc_config(cfg, (cfg.theta,)),
                                         w_stat=w_stat, c=cfg.c)


def _variance_table(cfg):
    family = cfg.family or "nile"
    estimators = [_statistic("estimators", name, family, cfg.n)
                  for name in cfg.estimators or ("nile_mle", "nile_star")]
    return verify.variance_table(estimators, family, _mc_config(cfg, cfg.grid or (1.0,)), c=cfg.c)


#: One row per experiment kind: its claim, its default config as ``nilelab
#: list`` shows it, its runner, and the config keys it reads (every kind reads
#: ``kind``, ``name`` and ``out``; only a kind that draws replicates reads
#: ``seed`` and ``workers``).
Experiment = namedtuple("Experiment", "claim default run keys")


def _experiment(claim, default, run, keys=""):
    return Experiment(claim, default, run, ("kind", "name", "out", *keys.split()))


EXPERIMENTS = {
    "ancillarity": _experiment(
        "sampling distribution of the designated ancillary statistic "
        "is invariant across the parameter grid (pairwise KS test)",
        "family = nile, grid = 0.5,1,2,4, n = 5, replicates = 100000", _ancillarity,
        "family statistic grid n c replicates seed workers"),
    "first-order": _experiment(
        "mean of a first-order ancillary statistic is constant in the "
        "parameter (vs its closed-form value on the family)",
        "family = bivariate_gaussian_corr, grid = -0.9,0,0.9, replicates = 100000",
        _first_order, "family statistic grid c replicates seed workers"),
    "independence": _experiment(
        "two statistics are independent at each grid point "
        "(chi-square on a decile contingency table)",
        "family = normal_cv, stat_a = sample_mean, stat_b = sample_sd, n = 5", _independence,
        "family stat_a stat_b grid n c replicates seed workers"),
    "rao": _experiment(
        "a UMVUE must have zero covariance with every zero-mean statistic; "
        "estimates E(g^k U) for U built from the ancillary",
        "family = nile, estimator = nile_mle, transform = log, grid = 0.5,1,2, n = 5", _rao,
        "family estimator transform grid n c power replicates seed workers"),
    "cond-moment": _experiment(
        "a UMVUE's conditional second moment given the ancillary must "
        "be constant; bins the ancillary and compares bin means",
        "family = nile, estimator = nile_star, theta = 1, n = 5", _cond_moment,
        "family estimator statistic theta n c replicates seed workers"),
    "fisher-info": _experiment(
        "variance of the score equals (2 + 1/c^2)/theta^2, exceeding "
        "the location-only information 1/(c^2 theta^2)",
        "theta = 1, c = 1, replicates = 100000",
        lambda cfg: verify.fisher_info(_mc_config(cfg, (cfg.theta,), n=1), cfg.c),
        "theta c replicates seed workers"),
    "variance-table": _experiment(
        "Monte Carlo bias/variance/MSE comparison across estimators",
        "family = nile, estimators = nile_mle,nile_star, grid = 1, n = 5", _variance_table,
        "family estimators grid n c replicates seed workers"),
    "quadrature-selftest": _experiment(
        "the adaptive-quadrature and Bessel-representation evaluations of the "
        "conditional-moment integrals agree to 1e-8",
        "no configuration", lambda cfg: selftest.quadrature_selftest()),
    "constraints": _experiment(
        "natural-parameter constraint polynomials vanish along each "
        "family's parameter curve (|residual| < 1e-12)",
        "no configuration", lambda cfg: selftest.constraint_selftest()),
}

EXPERIMENT_KINDS = tuple(EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> verify.VerificationReport:
    """Run a validated config (ConfigError if it is bad, VerificationError if untestable)."""
    try:
        return EXPERIMENTS[cfg.kind].run(cfg)
    except DomainError as exc:  # a grid point or theta outside the family's domain
        raise ConfigError(str(exc)) from None
    except QuadratureFailure as exc:  # an integral the adaptive quadrature cannot resolve
        raise verify.VerificationError(str(exc)) from None
    except OverflowError as exc:  # a float operation at an extreme parameter
        raise verify.VerificationError(f"float overflow: {exc.args[-1]}") from None


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_report(report: verify.VerificationReport, out_dir: Path, name: str) -> list[Path]:
    """Write ``<name>.report.json`` and ``<name>.table.csv`` (neither on OSError)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{name}.report.json"
    csv_path = out_dir / f"{name}.table.csv"
    header, rows = report.table_rows()
    buf = io.StringIO()
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
    for kind, row in EXPERIMENTS.items():
        lines.append(f"{kind}")
        lines.append(f"    claim:   {row.claim}")
        lines.append(f"    default: {row.default}")
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
    except MemoryError as exc:  # e.g. replicates too large for run_grid's output arrays
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


def cmd_list(_args) -> int:
    print(list_experiments(), end="")
    return EXIT_PASS


def cmd_selftest(args) -> int:
    # every kind that draws no replicates; each report is named after its kind
    reports = [(run_experiment(ExperimentConfig(kind)), kind)
               for kind, row in EXPERIMENTS.items() if "replicates" not in row.keys]
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
