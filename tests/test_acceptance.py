"""Acceptance suite: twelve numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 2 carries two anchor constants that are
internally inconsistent with their own Bessel-table oracle; those are kept
verbatim as strict expected failures and the oracle-consistent values are
asserted alongside (see the companion correct-anchor test).
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from nilelab import selftest, verify
from nilelab.cli import main as cli_main
from nilelab.estimators import (h_star_vector, khan_coefficients,
                                nile_equivariant, nile_equivariant_star,
                                nile_mle, s_mean_factor)
from nilelab.families import Kind
from nilelab.quadrature import cond_moment, cond_second_moment_ratio
from nilelab.statistics import SufficientSummary


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({label}): FAIL")
        raise
    print(f"criterion {num:2d} ({label}): PASS")


def test_criterion_1_quadrature_cross_validation():
    with criterion(1, "quadrature cross-validation"):
        t0 = time.perf_counter()
        rep = selftest.quadrature_selftest()
        elapsed = time.perf_counter() - t0
        assert rep.verdicts["laplace-bessel-agreement"] == "pass"
        assert rep.statistics["worst_rel_err"] < 1e-8
        assert elapsed < 10.0


@pytest.mark.xfail(strict=True,
                   reason="stated anchors are inconsistent with the Bessel-table "
                          "oracle that defines them; see the correct-anchor test")
def test_criterion_2_stated_anchors_verbatim():
    with criterion(2, "conditional moment anchors as stated"):
        assert cond_moment(1, 1.0, 1) == pytest.approx(1.22655, abs=1e-3)
        assert cond_second_moment_ratio(1.0, 1) == pytest.approx(1.4800, abs=1e-3)


def test_criterion_2_conditional_moment_anchors():
    with criterion(2, "conditional moment anchors (oracle-consistent)"):
        # K_1(2)/K_0(2) and K_2(2) K_0(2)/K_1(2)^2 from the frozen Bessel table
        assert cond_moment(1, 1.0, 1) == pytest.approx(1.2280369, abs=1e-6)
        assert cond_second_moment_ratio(1.0, 1) == pytest.approx(1.4774049, abs=1e-6)
        assert cond_second_moment_ratio(4.0, 1) == pytest.approx(1.2463, abs=1e-3)
        diff = cond_second_moment_ratio(1.0, 1) - cond_second_moment_ratio(4.0, 1)
        assert diff > 0.2


def test_criterion_3_ancillarity_suite():
    with criterion(3, "ancillarity KS suite"):
        t0 = time.perf_counter()
        N = 200_000
        cfg_nile = verify.MCConfig(master_seed=101, replicates=N,
                                   theta_grid=(0.5, 1.0, 2.0, 4.0), n=5)
        rep = verify.verify_ancillarity("nile", "nile_product", cfg_nile)
        assert rep.verdict == "pass"
        assert rep.statistics["max_ks"] < 0.008
        cfg_ncv = verify.MCConfig(master_seed=102, replicates=N,
                                  theta_grid=(0.5, 1.0, 2.0, 4.0), n=10)
        rep2 = verify.verify_ancillarity("normal_cv", "normal_cv_ratio", cfg_ncv)
        assert rep2.verdict == "pass"
        assert rep2.statistics["max_ks"] < 0.008
        neg = verify.verify_ancillarity(
            "nile", "sample_mean",
            verify.MCConfig(master_seed=103, replicates=50_000,
                            theta_grid=(0.5, 1.0, 2.0, 4.0), n=5))
        assert neg.verdict == "fail"
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_fisher_information():
    with criterion(4, "Fisher information"):
        t0 = time.perf_counter()
        cfg = verify.MCConfig(master_seed=104, replicates=1_000_000,
                              theta_grid=(1.0,), n=1)
        rep = verify.fisher_info(cfg, 1.0)
        p = rep.points[0]
        assert abs(p.estimates["score_variance"] - 3.0) < 3 * p.se["score_variance"]
        assert rep.statistics["closed_form"] == pytest.approx(3.0)
        assert rep.statistics["info_ratio"] == pytest.approx(3.0)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_5_exact_equivariance():
    with criterion(5, "exact scale equivariance"):
        rng = np.random.default_rng(105)
        h = lambda w: 1.0 / (1.0 + w)
        estimators = (
            nile_mle,
            lambda s: nile_equivariant(s, h),
            nile_equivariant_star,
        )
        for _ in range(100):
            xbar, ybar = rng.uniform(0.05, 20.0, size=2)
            for est in estimators:
                base = est(SufficientSummary(Kind.NILE, (xbar, ybar), 2))
                for lam in (0.1, 0.5, 2.0, 10.0):
                    scaled = est(SufficientSummary(Kind.NILE,
                                                   (xbar / lam, ybar * lam), 2))
                    assert scaled == pytest.approx(lam * base, rel=1e-14)


def test_criterion_6_star_unbiasedness():
    with criterion(6, "unbiasedness of the corrected equivariant estimator"):
        rng = np.random.default_rng(106)
        N = 100_000
        for theta in (0.5, 1.0, 2.0):
            for n in (1, 5):
                x = rng.exponential(1.0 / theta, (N, n)).mean(axis=1)
                y = rng.exponential(theta, (N, n)).mean(axis=1)
                est = y * h_star_vector(x * y, n)
                se = est.std(ddof=1) / math.sqrt(N)
                assert abs(est.mean() - theta) < 3 * se


def test_criterion_7_zero_covariance_harness():
    with criterion(7, "zero-covariance harness"):
        cfg = verify.MCConfig(master_seed=107, replicates=100_000,
                              theta_grid=(0.5, 1.0, 2.0), n=2)
        u0 = verify.zero_mean_from_ancillary("log", "normal_unit", cfg)
        pos = verify.rao_zero_cov("sample_mean", u0, "normal_unit", cfg)
        assert pos.statistics["max_abs_z"] < 3.0
        assert pos.verdicts["zero-covariance"] == "pass"
        # at least one zero-mean function of the ancillary exposes the MLE
        violated = False
        for transform in ("log", "identity"):
            cfg = verify.MCConfig(master_seed=109, replicates=100_000,
                                  theta_grid=(0.5, 1.0, 2.0), n=1)
            u = verify.zero_mean_from_ancillary(transform, "nile", cfg)
            rep = verify.rao_zero_cov("nile_mle", u, "nile", cfg)
            if rep.verdicts["zero-covariance"] == "fail":
                assert rep.statistics["max_abs_z"] > 4.0
                violated = True
                break
        assert violated


def test_criterion_8_constraint_residuals():
    with criterion(8, "natural-parameter constraint residuals"):
        rep = selftest.constraint_selftest()
        assert rep.verdicts["residuals-vanish"] == "pass"
        assert rep.statistics["max_abs_residual"] < 1e-12


def test_criterion_9_first_order_ancillarity():
    with criterion(9, "first-order ancillary means"):
        cfg = verify.MCConfig(master_seed=110, replicates=100_000,
                              theta_grid=(-0.9, 0.0, 0.9), n=1)
        rep = verify.verify_first_order("bivariate_gaussian_corr",
                                        "first_order_h", cfg)
        assert rep.verdict == "pass"
        assert rep.statistics["target_mean"] == pytest.approx(1.365379, abs=1e-6)
        cfg2 = verify.MCConfig(master_seed=111, replicates=100_000,
                               theta_grid=(0.5, 1.0, 2.0), n=1)
        rep2 = verify.verify_first_order("normal_cv", "positive_indicator",
                                         cfg2, c=1.0)
        assert rep2.verdict == "pass"
        assert rep2.statistics["target_mean"] == pytest.approx(0.841345, abs=1e-6)


def test_criterion_10_midrange_variance():
    with criterion(10, "midrange variance for the uniform location family"):
        n, N = 20, 100_000
        rng = np.random.default_rng(112)
        x = rng.uniform(-1.0, 1.0, (N, n))
        mid = 0.5 * (x.min(axis=1) + x.max(axis=1))
        var = mid.var(ddof=1)
        expect = 2.0 / ((n + 1) * (n + 2))
        assert var == pytest.approx(expect, rel=0.05)
        assert var < 1.0 / 60.0  # Var(xbar) = (1/3)/n


def test_criterion_11_linear_estimator():
    with criterion(11, "best linear mean-plus-spread estimator"):
        theta, c, n, N = 1.0, 1.0, 10, 100_000
        a, b = khan_coefficients(n, c)
        bn = s_mean_factor(n)
        beta = c * bn

        def obj(ab):
            return ab[0] ** 2 / n + ab[1] ** 2 * (1.0 - bn * bn)

        res = minimize(obj, [0.5, 0.5], tol=1e-16,
                       constraints=[{"type": "eq",
                                     "fun": lambda ab: ab[0] + beta * ab[1] - 1.0}])
        assert a == pytest.approx(res.x[0], abs=1e-8)
        assert b == pytest.approx(res.x[1], abs=1e-8)

        rng = np.random.default_rng(113)
        x = theta + c * theta * rng.standard_normal((N, n))
        est = a * x.mean(axis=1) + b * x.std(axis=1, ddof=1)
        se = est.std(ddof=1) / math.sqrt(N)
        assert abs(est.mean() - theta) < 3 * se
        assert est.var(ddof=1) < c * c * theta * theta / n


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "worker-count determinism"):
        cfg = tmp_path / "det.cfg"
        cfg.write_text("kind = ancillarity\nfamily = nile\ngrid = 0.5, 2\n"
                       "n = 5\nreplicates = 40000\nname = det\nseed = 9\n")
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        assert cli_main(["run", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
        assert cli_main(["run", str(cfg), "--out", str(out4), "--workers", "4"]) == 0
        lines1 = (out1 / "det.table.csv").read_text().splitlines()
        lines4 = (out4 / "det.table.csv").read_text().splitlines()
        assert lines1[0].startswith("# generated: ")
        assert lines1[1:] == lines4[1:]
