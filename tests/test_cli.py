import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilelab
from nilelab import cli, verify
from nilelab.cli import (EXPERIMENT_KINDS, EXPERIMENTS, ConfigError, ExperimentConfig,
                         format_config, list_experiments, main, parse_config,
                         run_experiment)


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("kind = ancillarity\n")
        assert cfg.kind == "ancillarity"
        assert cfg.replicates == 100_000

    def test_full_round_trip(self):
        cfg = ExperimentConfig(kind="rao", name="demo", family="nile",
                               estimator="nile_mle", transform="log",
                               grid=(0.5, 1.0, 2.0), c=0.5, n=3,
                               replicates=5_000, power=2, seed=42, workers=2,
                               out="/tmp/x")
        assert parse_config(format_config(cfg)) == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nkind = fisher-info  # trailing\n")
        assert cfg.kind == "fisher-info"

    def test_list_fields(self):
        cfg = parse_config("kind = variance-table\ngrid = 0.5, 1, 2\n"
                           "estimators = nile_mle, nile_star\n")
        assert cfg.grid == (0.5, 1.0, 2.0)
        assert cfg.estimators == ("nile_mle", "nile_star")

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config("kind = rao\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("kind = rao\nkind = rao\n")

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config("n = 5\n")

    def test_bad_int_names_field(self):
        with pytest.raises(ConfigError, match="replicates"):
            parse_config("kind = rao\nreplicates = many\n")

    def test_negative_replicates_names_field(self):
        with pytest.raises(ConfigError, match="'replicates'"):
            parse_config("kind = rao\nreplicates = -5\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="'kind'"):
            parse_config("kind = frobnicate\n")

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="'family'"):
            parse_config("kind = ancillarity\nfamily = cauchy\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")


class TestListAndSelftest:
    def test_list_covers_all_kinds(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for kind in EXPERIMENT_KINDS:
            assert kind in out
        assert len(EXPERIMENT_KINDS) == 9

    def test_list_experiments_text(self):
        text = list_experiments()
        assert "claim:" in text and "default:" in text

    def test_selftest_exit_zero(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_selftest_out_names_reports_after_kinds(self, tmp_path, capsys):
        assert main(["selftest", "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"{kind}.{ext}" for kind in ("constraints", "quadrature-selftest")
                         for ext in ("report.json", "table.csv")]
        assert all(kind in EXPERIMENT_KINDS for kind in ("constraints", "quadrature-selftest"))

    def test_selftest_runs_every_kind_that_draws_no_replicates(self, capsys, monkeypatch):
        rows = dict(EXPERIMENTS)
        rows["echo"] = rows["constraints"]._replace(
            run=lambda cfg: dataclasses.replace(rows["constraints"].run(cfg),
                                                verdicts={"echoed": "pass"}))
        monkeypatch.setattr(cli, "EXPERIMENTS", rows)
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "echoed: pass"
        assert len(out) == 5  # two quadrature, two constraints verdicts, then echo's


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestRun:
    def test_ancillarity_run_writes_reports(self, tmp_path, capsys):
        cfg = _write(tmp_path,
                     "kind = ancillarity\nfamily = nile\ngrid = 0.5, 2\n"
                     "n = 3\nreplicates = 20000\nname = anc\n")
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "anc: distribution-invariant: pass" in out
        report = json.loads((tmp_path / "anc.report.json").read_text())
        assert report["verdict"] == "pass"
        assert report["config"]["replicates"] == 20000
        csv_text = (tmp_path / "anc.table.csv").read_text()
        assert csv_text.startswith("# generated: ")
        assert "param,quantity,estimate,se,statistic" in csv_text

    def test_failing_experiment_exit_two(self, tmp_path):
        cfg = _write(tmp_path,
                     "kind = ancillarity\nfamily = nile\n"
                     "statistic = sample_mean\ngrid = 0.5, 2\n"
                     "n = 3\nreplicates = 20000\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2

    def test_constraints_run(self, tmp_path):
        cfg = _write(tmp_path, "kind = constraints\nname = con\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        csv_text = (tmp_path / "con.table.csv").read_text()
        rows = [r.split(",") for r in csv_text.splitlines()[2:] if r]
        residuals = [float(r[4]) for r in rows if r[1] == "residual"]
        assert len(residuals) == 150  # 50 grid points x 3 families
        for residual in residuals:
            assert abs(residual) < 1e-12

    def test_quadrature_selftest_run(self, tmp_path):
        cfg = _write(tmp_path, "kind = quadrature-selftest\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, "kind = rao\nreplicates = -1\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "replicates" in err
        assert not list(tmp_path.glob("*.report.json"))

    def test_missing_config_exit_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_seed_and_workers_overrides(self, tmp_path):
        text = ("kind = ancillarity\nfamily = uniform_location\n"
                "grid = -1, 1\nn = 4\nreplicates = 20000\nname = det\n")
        cfg = _write(tmp_path, text)
        out1 = tmp_path / "w1"
        out4 = tmp_path / "w4"
        assert main(["run", str(cfg), "--out", str(out1), "--seed", "5",
                     "--workers", "1"]) == 0
        assert main(["run", str(cfg), "--out", str(out4), "--seed", "5",
                     "--workers", "4"]) == 0
        # identical except the timestamp comment line
        a = (out1 / "det.table.csv").read_text().splitlines()[1:]
        b = (out4 / "det.table.csv").read_text().splitlines()[1:]
        assert a == b
        ja = json.loads((out1 / "det.report.json").read_text())
        jb = json.loads((out4 / "det.report.json").read_text())
        ja["config"].pop("workers")
        jb["config"].pop("workers")
        assert ja == jb

    def test_name_defaults_to_config_stem(self, tmp_path):
        cfg = _write(tmp_path, "kind = constraints\n", name="mycheck.cfg")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "mycheck.report.json").exists()


#: Configs that name a statistic outside its family or n, or a parameter
#: outside the family's domain, with the text the error line must carry.
BAD_CONFIGS = [
    ("kind = independence\nfamily = normal_cv\nn = 1\n", "field 'stat_b'"),
    ("kind = ancillarity\nfamily = uniform_location\nstatistic = sample_sd\n",
     "field 'statistic'"),
    ("kind = ancillarity\nfamily = bivariate_gaussian_corr\nstatistic = sample_mean\n",
     "field 'statistic'"),
    ("kind = variance-table\nfamily = nile\nestimators = khan_linear\n", "field 'estimators'"),
    ("kind = cond-moment\nfamily = uniform_location\n", "field 'estimator'"),
    ("kind = rao\nfamily = normal_unit\nestimator = nile_mle\n", "field 'estimator'"),
    ("kind = rao\nfamily = bivariate_gaussian_corr\n", "field 'family'"),
    # a family with an exact contrast takes no transform, but the name is still checked
    ("kind = rao\nfamily = normal_unit\nestimator = sample_mean\ntransform = bogus\n",
     "field 'transform': unknown transform 'bogus'"),
    ("kind = ancillarity\nfamily = normal_cv\ngrid = -1, -2\n",
     "normal_cv: theta must be finite and > 0, got -1.0"),
    ("kind = first-order\ngrid = 0.5, 1.5\n",
     "bivariate_gaussian_corr: rho must lie in (-1, 1), got 1.5"),
    ("kind = first-order\nfamily = normal_cv\nc = 0.01\n",
     "positive_indicator at theta=0.5 is 0"),
    ("kind = variance-table\nfamily = normal_unit\nestimators = sample_mean\ngrid = inf\n",
     "normal_unit: theta must be finite"),
    # a key the kind never reads
    ("kind = fisher-info\nfamily = nile\nn = 9\n",
     "line 2: field 'family': kind 'fisher-info' does not read it"),
    ("kind = first-order\nn = 7\n", "line 2: field 'n': kind 'first-order' does not read it"),
    ("kind = cond-moment\ngrid = 1, 2\n", "field 'grid'"),
    ("kind = ancillarity\nn = 0\n", "field 'n': must be >= 1, got 0"),
    ("kind = ancillarity\nworkers = 0\n", "field 'workers': must be >= 1, got 0"),
    ("kind = rao\npower = 7\n", "field 'power': must be in [1, 6], got 7"),
    ("kind = ancillarity\ngrid = 1\n", "field 'grid': ancillarity needs at least 2 grid points"),
    ("kind = ancillarity\nstatistic = bogus\n", "field 'statistic': unknown statistic 'bogus'"),
    ("kind = rao\ntheta = 2\n", "field 'theta'"),
    # xbar / s < 0 whenever xbar < 0: the log is never taken (a warning fails the run)
    ("kind = rao\nfamily = normal_cv\nestimator = khan_linear\ngrid = 0.5,2\npower = 2\n",
     "transform 'log' needs a positive ancillary, but normal_cv_ratio takes values <= 0 "
     "on family 'normal_cv'"),
    ("kind = constraints\n", "line 2: field 'replicates'"),
    # an RNG-free kind reads no seed and no worker count
    ("kind = constraints\nseed = 7\nworkers = 9\n", "line 2: field 'seed'"),
    ("kind = quadrature-selftest\nworkers = 9\n", "line 2: field 'workers'"),
    # numpy's own error names no field
    ("kind = ancillarity\nseed = -1\n", "field 'seed': must be >= 0, got -1"),
    ("kind = independence\nseed = -1\n", "field 'seed': must be >= 0, got -1"),
    ("kind = rao\nseed = -1\n", "field 'seed': must be >= 0, got -1"),
]


@pytest.mark.parametrize("text,message", BAD_CONFIGS,
                         ids=[t.replace("\n", " ").strip() for t, _ in BAD_CONFIGS])
def test_bad_config_exits_one_with_error_line(tmp_path, capsys, text, message):
    cfg = _write(tmp_path, text + "replicates = 2000\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not list(out.glob("*"))


@pytest.mark.parametrize("kind", ["ancillarity", "independence", "rao"])
def test_negative_seed_flag_names_the_field(tmp_path, capsys, kind):
    cfg = _write(tmp_path, f"kind = {kind}\nreplicates = 2000\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: field 'seed': must be >= 0, got -1\n"
    assert not out.exists()


#: The config keys that name a statistic.
_STATISTIC_KEYS = ("statistic", "stat_a", "stat_b", "estimator", "estimators")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind,n", [(kind, n) for kind, row in EXPERIMENTS.items()
                                    if "family" in row.keys and "replicates" in row.keys
                                    for n in ((1, 2, 5) if "n" in row.keys else (None,))])
def test_ancillary_alias_in_every_statistic_key(tmp_path, capsys, kind, n):
    # cond-moment once read its estimator's row by the raw name: KeyError
    keys = EXPERIMENTS[kind].keys
    text = f"kind = {kind}\nfamily = nile\nreplicates = 300\n" + f"n = {n}\n" * (n is not None)
    text += "".join(f"{key} = ancillary\n" for key in _STATISTIC_KEYS if key in keys)
    cfg = _write(tmp_path, text)
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 2, 3) or (code == 1 and len(err) == 1 and err[0].startswith("error: "))


def _out_is_file(tmp_path):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    return out


def _csv_is_directory(tmp_path):
    # for selftest the second report's table fails, after the first pair is written
    out = tmp_path / "out"
    (out / "exp.table.csv").mkdir(parents=True)
    (out / "constraints.table.csv").mkdir()
    return out


@pytest.mark.parametrize("command", ["run", "selftest"])
@pytest.mark.parametrize("make_out", [_out_is_file, _csv_is_directory])
def test_unwritable_out_exits_one_and_leaves_no_report(tmp_path, capsys, command, make_out):
    cfg = _write(tmp_path, "kind = constraints\n")
    out = make_out(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    args = ["run", str(cfg)] if command == "run" else ["selftest"]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write report")
    assert sorted(tmp_path.rglob("*")) == before


_NAMES = ("",) + tuple(verify.STATISTICS) + ("ancillary",)
_POINTS = (-1.5, -0.5, 0.0, 0.5, 0.9, 2.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1-replicate means and SEs
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(EXPERIMENT_KINDS),
       family=st.sampled_from(("",) + verify.FAMILY_TOKENS),
       statistic=st.sampled_from(_NAMES), stat_a=st.sampled_from(_NAMES),
       stat_b=st.sampled_from(_NAMES), estimator=st.sampled_from(_NAMES),
       estimators=st.lists(st.sampled_from(_NAMES[1:]), max_size=2),
       transform=st.sampled_from(tuple(verify.TRANSFORMS)),
       grid=st.lists(st.sampled_from(_POINTS), max_size=3),
       theta=st.sampled_from(_POINTS), n=st.sampled_from((1, 2, 5)),
       c=st.sampled_from((0.01, 1.0)), replicates=st.sampled_from((1, 2, 30, 2000)))
def test_any_config_reports_or_raises_typed_error(**values):
    values["estimators"] = ",".join(values["estimators"])
    values["grid"] = ",".join(map(str, values["grid"]))
    keys = EXPERIMENTS[values["kind"]].keys
    text = "".join(f"{k} = {v}\n" for k, v in values.items() if v != "" and k in keys)
    cfg = parse_config(text)
    try:
        report = run_experiment(cfg)
    except (ConfigError, verify.VerificationError):
        return
    assert report.verdict in ("pass", "fail", "inconclusive")


def test_quadrature_failure_exits_one_with_error_line(tmp_path, capsys):
    # at n = 1e6 the h* table's largest Bessel arguments 2n sqrt(w) pass the
    # ~1.07e9 that scipy.special.kve resolves
    cfg = _write(tmp_path, "kind = cond-moment\nn = 1000000\nreplicates = 2\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: h* table for n = 1000000: ")
    assert not list(out.glob("*"))


#: Configs whose statistics overflow or underflow: each reported "pass" or raised
#: OverflowError, ZeroDivisionError or IndexError, or named the wrong theta.
OVERFLOW_CONFIGS = [
    ("kind = cond-moment\nestimator = nile_mle\ntheta = 1e160\nreplicates = 20000\n",
     "error: statistic 'nile_mle' is not finite on a replicate at theta=1e+160"),
    ("kind = cond-moment\nestimator = nile_star\nstatistic = sample_mean\ntheta = 1e155\n"
     "replicates = 20000\n", "error: spread of E[g^2|bin] at theta=1e+155 is nan"),
    ("kind = cond-moment\ntheta = 1e155\nreplicates = 20000\n",
     "error: spread of E[g^2|bin] at theta=1e+155 is nan"),
    ("kind = independence\nfamily = nile\nstat_a = nile_mle\nstat_b = nile_product\n"
     "grid = 1e160\nreplicates = 20000\n",
     "error: statistic 'nile_mle' is not finite on a replicate at theta=1e+160"),
    ("kind = variance-table\ngrid = 1e160\nreplicates = 2000\n",
     "error: statistic 'nile_mle' is not finite on a replicate at theta=1e+160"),
    ("kind = variance-table\nestimators = nile_star\ngrid = 1e155\nreplicates = 2000\n",
     "error: nile_star at theta=1e+155 has mean "),
    # finite estimates whose SE overflows, and float overflows outside numpy
    ("kind = variance-table\ngrid = 1e150\nestimators = nile_mle,nile_star\nreplicates = 2000\n",
     "error: nile_mle at theta=1e+150 has mean "),
    ("kind = variance-table\nfamily = normal_cv\ngrid = 1e150\n"
     "estimators = khan_linear,normalcv_mle\nreplicates = 2000\n",
     "error: khan_linear at theta=1e+150 has mean "),
    ("kind = ancillarity\nfamily = normal_cv\nstatistic = sample_mean\ngrid = 1e200,1e201\n"
     "replicates = 4000\n", "error: sample_mean at theta=1e+200 has mean "),
    # not an overflow, but the same non-finite SE: one replicate has none
    ("kind = ancillarity\nreplicates = 1\n", "error: nile_product at theta=0.5 has mean "),
    ("kind = rao\nfamily = normal_cv\nestimator = khan_linear\ntransform = identity\n"
     "grid = 1e200\nreplicates = 2000\n", "error: float overflow: "),
    # theta^2 underflows to 0, and a bin's zero SE is at the run's theta, not its centre's
    ("kind = fisher-info\ntheta = 1e-200\nreplicates = 2000\n",
     "error: score_variance at theta=1e-200: theta^2 is not a normal float"),
    ("kind = cond-moment\ntheta = 1e-200\nreplicates = 20000\n",
     "error: standard error of E[g^2|bin] at centre 0.262874 at theta=1e-200 is 0;"),
    # every replicate degenerate: no value to take quantile edges from
    ("kind = independence\nc = 1e-17\nn = 2\nreplicates = 2000\n",
     "error: every replicate at theta=1 is degenerate; there is no sample to test"),
    ("kind = cond-moment\nfamily = normal_cv\nestimator = khan_linear\nc = 1e-17\nn = 2\n"
     "replicates = 2000\n", "error: every replicate at theta=1 is degenerate; there is no"),
]


@pytest.mark.parametrize("text,message", OVERFLOW_CONFIGS)
def test_overflow_exits_one_with_error_line(tmp_path, capsys, text, message):
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert not list(out.glob("*"))


def test_fisher_info_at_an_extreme_theta_reports(tmp_path, capsys):
    # the score is formed from its pivot (x1 - theta) / theta and its moments
    # from theta times the score, so no power of theta overflows
    cfg = _write(tmp_path, "kind = fisher-info\ntheta = 1e150\nreplicates = 2000\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "exp.report.json").read_text())
    assert report["verdicts"] == {"matches-closed-form": "pass"}
    assert report["statistics"][0]["closed_form"] == pytest.approx(3e-300, rel=1e-12)


def test_cond_moment_below_the_table_grid_gives_no_warning(tmp_path, capsys):
    # at this seed h* falls back to quadrature at w = 4.3e-9, under the table's grid
    cfg = _write(tmp_path, "kind = cond-moment\nn = 1\nreplicates = 100000\n")
    assert main(["run", str(cfg), "--seed", "36", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ""


def test_cond_moment_at_large_n_reports(tmp_path, capsys):
    # every node of the h* table at n = 4e5 lies where scipy.special.kve is finite;
    # the adaptive quadrature returned 0 for one of them
    cfg = _write(tmp_path, "kind = cond-moment\nn = 400000\nreplicates = 2000\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "exp.report.json").is_file()


def test_out_of_memory_exits_one_with_error_line(tmp_path, capsys, monkeypatch):
    # stands in for numpy's allocation failure; nothing is allocated
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(verify, "run_grid", no_memory)
    cfg = _write(tmp_path, "kind = ancillarity\nreplicates = 1000000000000\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: out of memory: Unable to allocate 7.28 TiB for an array"]
    assert not list(out.glob("*"))


#: The verify entry points the Monte Carlo runners call.
_ENTRY_POINTS = ("verify_ancillarity", "verify_first_order", "verify_independence",
                 "zero_mean_from_ancillary", "rao_zero_cov", "cond_moment_dependence",
                 "fisher_info", "variance_table")
_MC_KINDS = [kind for kind, row in EXPERIMENTS.items() if row.default != "no configuration"]


@pytest.mark.parametrize("kind", _MC_KINDS)
def test_listed_default_is_what_runs(monkeypatch, kind):
    calls = []
    for name in _ENTRY_POINTS:
        monkeypatch.setattr(verify, name,
                            lambda *args, _name=name, **kw: calls.append((_name, args, kw)))
    run_experiment(parse_config(f"kind = {kind}\n"))
    alone = calls[:]
    calls.clear()
    listed = re.split(r",\s*(?=\w+ = )", EXPERIMENTS[kind].default)
    run_experiment(parse_config(f"kind = {kind}\n" + "".join(f"{kv}\n" for kv in listed)))
    assert alone and calls == alone


#: Text a config value may hold: no comment, separator or line break, no edge blanks.
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                              blacklist_characters="#=,"),
                max_size=8).filter(lambda s: s == s.strip())
_FLOATS = st.floats(allow_nan=False) | st.sampled_from((-2.5, -1e-300, 1e-300, 1e300, -1e300))


def _unread_at_default(cfg):
    """``cfg`` with every field its kind does not read at its default."""
    keys = EXPERIMENTS[cfg.kind].keys
    return dataclasses.replace(cfg, **{f.name: f.default for f in dataclasses.fields(cfg)
                                       if f.name not in keys})


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.builds(
    ExperimentConfig, kind=st.sampled_from(EXPERIMENT_KINDS), name=_TEXT,
    family=st.sampled_from(("",) + verify.FAMILY_TOKENS), statistic=_TEXT, stat_a=_TEXT,
    stat_b=_TEXT, estimator=_TEXT,
    estimators=st.lists(_TEXT.filter(bool), max_size=3).map(tuple), transform=_TEXT,
    grid=st.lists(_FLOATS, max_size=4).map(tuple), theta=_FLOATS, c=_FLOATS,
    n=st.integers(1, 10 ** 9), replicates=st.integers(1, 10 ** 12), power=st.integers(1, 6),
    seed=st.integers(-2 ** 63, 2 ** 64), workers=st.integers(1, 64),
    out=_TEXT).map(_unread_at_default))
def test_format_parse_round_trip_every_field_type(cfg):
    assert parse_config(format_config(cfg)) == cfg


def _mc(grid, n=5):
    return verify.MCConfig(0, 100_000, grid, n, 1)


def _zero_mean(family):
    return ("zero_mean_from_ancillary", ("log", family, _mc((0.5, 1, 2))), {"c": 1.0})


#: (kind, family, extra config) -> the verify calls today's per-family defaults
#: make, or the field named by the ConfigError.  An estimator is set where the
#: kind's default estimator is not defined for the family.
_FAMILY_DEFAULTS = {
    ("first-order", "nile", ""): [
        ("verify_first_order", ("nile", "nile_product", _mc((0.5, 1, 2), 1)), {"c": 1.0})],
    ("first-order", "bivariate_gaussian_corr", ""): [
        ("verify_first_order", ("bivariate_gaussian_corr", "first_order_h",
                                _mc((-0.9, 0, 0.9), 1)), {"c": 1.0})],
    ("first-order", "normal_cv", ""): [
        ("verify_first_order", ("normal_cv", "positive_indicator", _mc((0.5, 1, 2), 1)),
         {"c": 1.0})],
    # no statistic has a known mean on these families
    ("first-order", "uniform_location", ""): "field 'statistic'",
    ("first-order", "normal_unit", ""): "field 'statistic'",
    ("rao", "nile", ""): [
        _zero_mean("nile"),
        ("rao_zero_cov", ("nile_mle", None, "nile", _mc((0.5, 1, 2))), {"power": 1, "c": 1.0})],
    ("rao", "bivariate_gaussian_corr", "estimator = xy_product"): "field 'family'",
    ("rao", "normal_cv", "estimator = normalcv_mle"): [
        _zero_mean("normal_cv"),
        ("rao_zero_cov", ("normalcv_mle", None, "normal_cv", _mc((0.5, 1, 2))),
         {"power": 1, "c": 1.0})],
    ("rao", "uniform_location", "estimator = pitman_midrange"): [
        _zero_mean("uniform_location"),
        ("rao_zero_cov", ("pitman_midrange", None, "uniform_location", _mc((0.5, 1, 2))),
         {"power": 1, "c": 1.0})],
    ("rao", "normal_unit", "estimator = sample_mean"): [
        _zero_mean("normal_unit"),
        ("rao_zero_cov", ("sample_mean", None, "normal_unit", _mc((0.5, 1, 2))),
         {"power": 1, "c": 1.0})],
    ("cond-moment", "nile", ""): [
        ("cond_moment_dependence", ("nile_star", "nile", _mc((1.0,))),
         {"w_stat": "ancillary", "c": 1.0})],
    ("cond-moment", "bivariate_gaussian_corr", "estimator = xy_product"): "field 'statistic'",
    ("cond-moment", "normal_cv", "estimator = khan_linear"): [
        ("cond_moment_dependence", ("khan_linear", "normal_cv", _mc((1.0,))),
         {"w_stat": "ancillary", "c": 1.0})],
    ("cond-moment", "uniform_location", "estimator = pitman_midrange"): [
        ("cond_moment_dependence", ("pitman_midrange", "uniform_location", _mc((1.0,))),
         {"w_stat": "ancillary", "c": 1.0})],
    ("cond-moment", "normal_unit", "estimator = sample_mean"): [
        ("cond_moment_dependence", ("sample_mean", "normal_unit", _mc((1.0,))),
         {"w_stat": "diff12", "c": 1.0})],
}


@pytest.mark.parametrize("kind,family,extra", list(_FAMILY_DEFAULTS))
def test_per_family_defaults(monkeypatch, kind, family, extra):
    calls = []
    for name in _ENTRY_POINTS:
        monkeypatch.setattr(verify, name,
                            lambda *args, _name=name, **kw: calls.append((_name, args, kw)))
    cfg = parse_config(f"kind = {kind}\nfamily = {family}\n{extra}\n")
    expected = _FAMILY_DEFAULTS[kind, family, extra]
    if isinstance(expected, str):
        with pytest.raises(ConfigError, match=expected):
            run_experiment(cfg)
        assert not calls
    else:
        run_experiment(cfg)
        assert calls == expected


_FAMILY_KINDS = [kind for kind, row in EXPERIMENTS.items() if "family" in row.keys]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family", verify.FAMILY_TOKENS)
@pytest.mark.parametrize("kind", _FAMILY_KINDS)
def test_default_on_every_family_reports_or_rejects_config(kind, family):
    # a default statistic whose known mean does not hold on the family gave an
    # SE of 0 (first-order on nile and uniform_location), or a wrong verdict
    cfg = parse_config(f"kind = {kind}\nfamily = {family}\nreplicates = 2000\n")
    try:
        report = run_experiment(cfg)
    except ConfigError:
        return
    assert report.verdict in ("pass", "fail", "inconclusive")


def test_exact_contrast_is_not_self_checked(tmp_path, capsys):
    # at this seed the mean of the exact contrast diff12 lies 4.1 SE from 0 at
    # theta = 2; that is the covariance's own noise, reported as a verdict
    cfg = _write(tmp_path, "kind = rao\nfamily = normal_unit\nestimator = sample_mean\nn = 5\n"
                           "grid = 0.5,1,2\nreplicates = 100000\nworkers = 2\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--seed", "2000129", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    report = json.loads((out / "exp.report.json").read_text())
    assert report["verdicts"] == {"zero-covariance": "inconclusive"}
    assert report["statistics"][0]["max_abs_z"] == pytest.approx(3.81, abs=0.005)


#: Runs every experiment kind at small N in a fresh interpreter; exits 1 if
#: any run errs and 2 if one of them imported a scipy subpackage other than
#: special (and scipy's own private modules), naming them on stderr.
_EVERY_KIND = """
import sys
from pathlib import Path
from nilelab import cli
out = Path(sys.argv[1])
for kind, row in cli.EXPERIMENTS.items():
    cfg = out / f"{kind}.cfg"
    cfg.write_text(f"kind = {kind}\\n" + ("replicates = 2000\\n" if "replicates" in row.keys else ""))
    if cli.main(["run", str(cfg), "--out", str(out)]) not in (0, 2, 3):
        sys.exit(f"kind {kind} exited 1")
extra = {name.split(".")[1] for name in sys.modules if name.startswith("scipy.")} - {
    "special", "_lib", "_cyutility", "_distributor_init", "__config__", "version"}
if extra:
    print("imported scipy." + ", scipy.".join(sorted(extra)), file=sys.stderr)
    sys.exit(2)
"""


def test_no_run_imports_scipy_beyond_special(tmp_path):
    # pytest has imported other scipy subpackages for other tests, hence a fresh interpreter
    src = str(Path(nilelab.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _EVERY_KIND, str(tmp_path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in tmp_path.glob("*.report.json")} == {
        f"{kind}.report.json" for kind in EXPERIMENTS}
