"""Checks of the benchmark itself; not part of the timed path.

    python3 -m pytest perfbench -q

Every Monte Carlo op of every workload is run at reduced N with workers=1
and workers=2; the reports must be byte-identical (README: reproducibility).
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import nilelab.cli as cli  # noqa: E402
import nilelab.verify as verify  # noqa: E402
from tracer import MissingAttribute, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, check_report  # noqa: E402

MC_OPS = [(name, op) for name, ops in WORKLOADS.items() for op in ops if op.replicates]

#: The one line of report.json that echoes the requested worker count.
WORKERS_ECHO = '    "workers": {}'


def _reduced(op: Op, replicates: int, workers: int) -> Op:
    return dataclasses.replace(op, cfg=dict(op.cfg, replicates=replicates, workers=workers))


def _run(op, workers, out: Path, seed=5, replicates=4000) -> tuple[int, bytes]:
    op = _reduced(op, replicates, workers)
    out.mkdir()
    cfg = out / f"{op.name}.cfg"
    cfg.write_text(op.config_text())
    code = cli.main(["run", str(cfg), "--out", str(out), "--seed", str(seed)])
    return code, (out / f"{op.name}.report.json").read_bytes()


@pytest.mark.parametrize("workload,op", MC_OPS, ids=[f"{w}:{op.name}" for w, op in MC_OPS])
def test_report_identical_across_workers(workload, op, tmp_path, capsys):
    code1, one = _run(op, 1, tmp_path / "w1")
    code2, two = _run(op, 2, tmp_path / "w2")
    assert code1 == code2
    lines1, lines2 = one.decode().splitlines(), two.decode().splitlines()
    assert len(lines1) == len(lines2)
    differing = [(a, b) for a, b in zip(lines1, lines2) if a != b]
    assert differing == [(WORKERS_ECHO.format(1), WORKERS_ECHO.format(2))]


@pytest.mark.xfail(strict=True, reason="report.json echoes the worker count "
                                       "under config.workers")
def test_report_bytes_identical_across_workers(tmp_path, capsys):
    op = WORKLOADS["ancillarity-ks"][0]
    assert _run(op, 1, tmp_path / "w1")[1] == _run(op, 2, tmp_path / "w2")[1]


def test_tracer_fails_loudly_on_missing_boundary(monkeypatch):
    original = verify.run_grid
    monkeypatch.delattr(verify, "ks_2samp")
    with pytest.raises(MissingAttribute, match="nilelab.verify.ks_2samp"):
        Tracer().install()
    assert verify.run_grid is original  # nothing half-installed


def test_tracer_counts_and_restores(tmp_path, capsys):
    op = _reduced(WORKLOADS["risk-table"][0], 2000, 1)
    cfg = tmp_path / "vt.cfg"
    cfg.write_text(op.config_text())
    original = verify.run_grid
    with Tracer() as tracer:
        assert verify.run_grid is not original
        assert cli.main(["run", str(cfg), "--out", str(tmp_path), "--seed", "1"]) == 0
    assert verify.run_grid is original
    m = tracer.metrics()
    assert m["verify.run_grid.calls"] == 1
    assert m["verify.run_grid.replicates"] == 2000 * 4
    assert m["verify.run_grid.result_bytes"] == 2 * 8 * 2000 * 4
    assert m["estimators.h_star_vector.elements"] == 2000 * 4
    assert m["cli.write_report.calls"] == 1
    assert m["cli.report_bytes"] > 0
    assert 0.0 <= m["verify.decide.self_s"] < 1.0


def test_check_report_flags_disagreement_and_failure(tmp_path, capsys):
    op = WORKLOADS["ancillarity-ks"][1]  # negative control: claim predicts exit 2
    code, _ = _run(op, 1, tmp_path / "out", replicates=20000)
    report = tmp_path / "out" / f"{op.name}.report.json"
    assert check_report(op, code, report) == (True, [])
    completed, problems = check_report(op, 1, report)
    assert not completed
    completed, problems = check_report(op, code, tmp_path / "missing.json")
    assert not completed
    positive = WORKLOADS["ancillarity-ks"][0]
    completed, problems = check_report(positive, code, report)
    assert completed and problems == ["exit code 2, claim predicts 0"]
