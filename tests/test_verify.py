import json
import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr

from nilelab.families import (FAMILIES, DomainError, bivariate_gaussian, nile, normal_cv,
                              sample, uniform_location)
from nilelab import verify
from nilelab.verify import (KS_CRITICAL, N_CHUNKS, STATISTICS, TRANSFORMS, MCConfig,
                            VerificationError,
                            VerificationReport, GridPointResult, ZeroMeanSpec, _bin_index,
                            _mean_se, _moments, _quantile_edges, _var_se, chi2_contingency,
                            cond_moment_dependence,
                            fisher_info, identity, ks_2samp, rao_zero_cov, run_grid, variance_table,
                            verify_ancillarity, verify_first_order,
                            verify_independence, zero_mean_from_ancillary)


def _cfg(seed=0, replicates=20_000, grid=(0.5, 2.0), n=5, workers=1):
    return MCConfig(master_seed=seed, replicates=replicates, theta_grid=grid,
                    n=n, workers=workers)


class TestMCConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MCConfig(0, 0, (1.0,), 5)
        with pytest.raises(ValueError):
            MCConfig(0, 10, (1.0,), 0)
        with pytest.raises(ValueError):
            MCConfig(0, 10, (1.0,), 5, workers=0)

    def test_negative_seed_is_rejected_by_field(self):
        # numpy's SeedSequence would raise a bare "expected non-negative integer"
        with pytest.raises(ValueError, match=r"^master_seed must be >= 0, got -1$"):
            MCConfig(-1, 100, (1, 2), 5)
        assert MCConfig(0, 100, (1, 2), 5).master_seed == 0

    def test_grid_coerced_to_floats(self):
        cfg = MCConfig(0, 10, (1, 2), 5)
        assert cfg.theta_grid == (1.0, 2.0)

    @pytest.mark.parametrize("args,field", [
        ((1.5, 100, (1, 2), 5), "master_seed"), ((0, 100.5, (1, 2), 5), "replicates"),
        ((True, 100, (1, 2), 5), "master_seed"), ((0, 100, (1, 2), 5.0), "n"),
        ((0, 100, (1, 2), 5, np.True_), "workers"), ((0, 100, (1, 2), 5, False), "workers")])
    def test_non_integer_field_is_rejected_by_name(self, args, field):
        # numpy would raise a TypeError naming no field, or run True as seed 1
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
            MCConfig(*args)

    def test_numpy_integers_run_as_python_ints(self):
        cfg = MCConfig(np.int64(0), np.int32(100), (1, 2), np.uint8(5), np.int64(1))
        assert cfg == MCConfig(0, 100, (1, 2), 5)
        assert all(type(v) is int for k, v in cfg.as_dict().items() if k != "theta_grid")
        report = verify_ancillarity("nile", "nile_product", cfg)
        assert report.to_json_dict() == verify_ancillarity(
            "nile", "nile_product", MCConfig(0, 100, (1, 2), 5)).to_json_dict()

    def test_as_dict_is_the_fields_with_the_grid_as_a_list(self):
        assert MCConfig(3, 100, (1, 2), 5, 2).as_dict() == {
            "master_seed": 3, "replicates": 100, "theta_grid": [1.0, 2.0], "n": 5, "workers": 2}
        assert list(MCConfig(3, 100, (1, 2), 5, 2).as_dict()) == [
            "master_seed", "replicates", "theta_grid", "n", "workers"]


class TestRunGridDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_across_worker_counts(self, workers):
        base = _cfg(seed=7, replicates=5_000)
        par = _cfg(seed=7, replicates=5_000, workers=workers)
        a, _ = run_grid("nile", base.theta_grid, base.n, 1.0, base, ["ancillary", "sample_mean"])
        b, _ = run_grid("nile", par.theta_grid, par.n, 1.0, par, ["ancillary", "sample_mean"])
        for pa, pb in zip(a, b):
            for k in pa:
                assert np.array_equal(pa[k], pb[k])

    def test_seed_changes_output(self):
        a, _ = run_grid("nile", (1.0,), 5, 1.0, _cfg(seed=1, grid=(1.0,)), ["ancillary"])
        b, _ = run_grid("nile", (1.0,), 5, 1.0, _cfg(seed=2, grid=(1.0,)), ["ancillary"])
        assert not np.array_equal(a[0]["ancillary"], b[0]["ancillary"])

    def test_replicate_count_respected(self):
        out, _ = run_grid("uniform_location", (0.0,), 3, 1.0,
                          _cfg(grid=(0.0,), replicates=1234), ["ancillary"])
        assert out[0]["ancillary"].size == 1234


class TestAncillarity:
    def test_nile_product_invariant(self):
        rep = verify_ancillarity("nile", "nile_product", _cfg(grid=(0.5, 1.0, 4.0)))
        assert rep.verdict == "pass"
        assert rep.statistics["max_ks"] < rep.statistics["ks_threshold"]

    def test_normal_cv_ratio_invariant(self):
        rep = verify_ancillarity("normal_cv", "normal_cv_ratio",
                                 _cfg(grid=(0.5, 2.0), n=10))
        assert rep.verdict == "pass"

    def test_uniform_range_invariant(self):
        rep = verify_ancillarity("uniform_location", "uniform_range",
                                 _cfg(grid=(-2.0, 0.0, 3.0)))
        assert rep.verdict == "pass"

    def test_negative_control_sample_mean(self):
        # the sample mean is emphatically not ancillary
        rep = verify_ancillarity("nile", "sample_mean", _cfg())
        assert rep.verdict == "fail"

    def test_needs_two_grid_points(self):
        with pytest.raises(ValueError):
            verify_ancillarity("nile", "nile_product", _cfg(grid=(1.0,)))

    def test_equal_sizes_keep_the_equal_size_threshold(self):
        rep = verify_ancillarity("nile", "nile_product", _cfg(replicates=3_000))
        assert rep.statistics["ks_threshold"] == KS_CRITICAL * math.sqrt(2.0 / 3_000)

    def test_unequal_sizes_use_the_two_sample_threshold(self, monkeypatch):
        # sizes 1000 and 4000, as degenerate replicates may leave them: D = 0.08
        # passes the equal-size threshold of the smaller one, 1.95 sqrt(2/1000)
        # = 0.087, but not the pair's 1.95 sqrt(1/1000 + 1/4000) = 0.069
        a = (np.arange(1_000) + 0.5) / 1_000
        b = (np.arange(4_000) + 0.5) / 4_000 + 0.08
        monkeypatch.setattr(verify, "run_grid", lambda *args, **kwargs: (
            [{"nile_product": a.copy()}, {"nile_product": b.copy()}], 3_000))
        rep = verify_ancillarity("nile", "nile_product", _cfg(replicates=4_000))
        threshold = KS_CRITICAL * math.sqrt(1 / 1_000 + 1 / 4_000)
        assert threshold < rep.statistics["max_ks"] < KS_CRITICAL * math.sqrt(2 / 1_000)
        assert rep.statistics["ks_threshold"] == pytest.approx(threshold, rel=1e-15)
        assert rep.verdicts == {"distribution-invariant": "fail",
                                "no-degenerate-samples": "fail"}

    def test_all_degenerate_grid_point_raises_verification_error(self):
        # c * theta = 1e-20 rounds every observation to theta, so s = 0 everywhere
        with pytest.raises(VerificationError, match="every replicate at theta=1 is degenerate"):
            verify_ancillarity("normal_cv", "normal_cv_ratio",
                               _cfg(replicates=100, grid=(1.0, 2.0), n=3), c=1e-20)


class _Looked(Exception):
    """Carries the look's answer out of ``run_grid`` before any other chunk is drawn."""


def _look_fires(monkeypatch, verifier, *args) -> bool:
    """Whether ``verifier(*args)``'s look on its first chunks fails the claim."""
    def stop_after_look(*args, look, **kwargs):
        def answer(first):
            raise _Looked(look(first))
        return run_grid(*args, look=answer, **kwargs)

    monkeypatch.setattr(verify, "run_grid", stop_after_look)
    with pytest.raises(_Looked) as looked:
        verifier(*args)
    return looked.value.args[0]


#: Invariant statistics, one with heavy ties: P(xbar > 0) = Phi(sqrt(n)/c) whatever theta.
INVARIANT = [("nile", "nile_product", (0.5, 1.0, 2.0, 4.0), 5),
             ("normal_cv", "normal_cv_ratio", (0.5, 2.0), 10),
             ("uniform_location", "uniform_range", (-2.0, 0.0, 3.0), 4),
             ("normal_cv", "positive_indicator", (0.5, 1.0, 2.0, 4.0), 3)]


class TestFirstChunkLook:
    @pytest.mark.parametrize("token,statistic,grid,n", INVARIANT)
    def test_never_fires_on_an_invariant_statistic(self, monkeypatch, token, statistic, grid, n):
        # 200 replicates a first chunk: the pair bound is about 0.4, where a bound of
        # sqrt(1 / (2 m)) a point, 0.1 a pair, is exceeded by about a quarter of the pairs
        fired = [seed for seed in range(100)
                 if _look_fires(monkeypatch, verify_ancillarity, token, statistic,
                                _cfg(seed=seed, replicates=200 * N_CHUNKS, grid=grid, n=n))]
        assert fired == []

    @pytest.mark.parametrize("statistic", ["sample_mean", "nile_mle"])
    def test_negative_controls_stop_at_the_first_chunk(self, statistic):
        grid = (0.5, 1.0, 2.0, 4.0)
        cfg = _cfg(seed=4, replicates=20_000, grid=grid)
        rep = verify_ancillarity("nile", statistic, cfg)
        first = [p[statistic] for p in run_grid("nile", grid, 5, 1.0, cfg, [statistic],
                                                look=lambda first: True)[0]]
        assert [s.size for s in first] == [-(-20_000 // N_CHUNKS)] * 4
        assert rep.verdicts == {"distribution-invariant": "fail"}
        assert rep.statistics["dkw_delta"] == verify.DKW_DELTA
        assert rep.statistics["ks_threshold"] == 2 * verify.dkw_bound(first[0].size, 4)
        assert rep.statistics["max_ks"] > rep.statistics["ks_threshold"]
        pairs = {f"ks[{grid[i]:g},{grid[j]:g}]": _scipy_ks(first[i], first[j])
                 for i in range(4) for j in range(i + 1, 4)}
        assert {k: v for k, v in rep.statistics.items() if k.startswith("ks[")} == pairs
        for point, s in zip(rep.points, first):
            assert point.statistics == {"replicates": s.size}
            assert (point.estimates[statistic], point.se[statistic]) == _mean_se(_moments(s))

    def test_bound_matches_its_closed_form(self):
        delta = verify.DKW_DELTA
        for m, points in [(15_625, 4), (1, 2), (313, 3)]:
            eps = verify.dkw_bound(m, points)
            assert eps == math.sqrt(math.log(2 * points / delta) / (2 * m))
            # Massart: P(sup |F_m - F| > eps) <= 2 exp(-2 m eps^2), delta / points here
            assert 2 * math.exp(-2 * m * eps * eps) == pytest.approx(delta / points, rel=1e-12)
        assert verify.dkw_bound(0, 4) == math.inf
        assert 2 * verify.dkw_bound(15_625, 4) == pytest.approx(0.0451, abs=1e-4)

    def test_point_whose_first_chunk_keeps_nothing_is_not_looked_at(self):
        # c = 1e-15 leaves some replicates degenerate; 2 replicates a chunk
        looked = skipped = 0
        for seed in range(40):
            firsts = []

            def decide(first):
                firsts.append([p["sample_mean"] for p in first])
                return True

            out, degenerate = run_grid("normal_cv", (1.0, 2.0), 2, 1e-15,
                                       _cfg(seed=seed, replicates=2 * N_CHUNKS,
                                            grid=(1.0, 2.0), n=2),
                                       ["sample_mean"], look=decide)
            sizes = [p["sample_mean"].size for p in out]
            if firsts:  # a look decides only on first chunks that each keep a replicate
                looked += 1
                assert all(s.size for s in firsts[0]) and sum(sizes) + degenerate == 4
            else:  # every chunk drawn
                skipped += 1
                assert sum(sizes) + degenerate == 2 * 2 * N_CHUNKS
        assert looked and skipped

    def test_all_degenerate_point_is_judged_on_every_chunk(self):
        looks = []
        with pytest.raises(VerificationError, match="every replicate at theta=1 is degenerate"):
            run_grid("normal_cv", (1.0, 2.0), 3, 1e-20,
                     _cfg(replicates=1000, grid=(1.0, 2.0), n=3), ["sample_mean"],
                     look=looks.append)
        assert looks == []


#: True claims with a z verdict, as (verifier, token, statistic, grid, n): rao's
#: E(g U) vanishes for nile_star, whose E(g | W) is theta, against the log of
#: the ancillary, and for sample_mean against normal_unit's exact contrast; each
#: first-order statistic has its row's mean at every theta.
Z_NULLS = [(rao_zero_cov, "nile", "nile_star", (0.5, 1.0, 2.0), 5),
           (rao_zero_cov, "normal_unit", "sample_mean", (0.5, 1.0, 2.0), 5),
           (verify_first_order, "nile", "nile_product", (0.5, 1.0, 2.0), 5),
           (verify_first_order, "bivariate_gaussian_corr", "first_order_h", (-0.9, 0.0, 0.9), 1),
           (verify_first_order, "normal_cv", "positive_indicator", (0.5, 1.0, 2.0), 1)]


def _z_verdict(verifier, token, statistic, u, cfg):
    """``verifier``'s report on ``cfg``; rao's against the zero-mean statistic ``u``."""
    if verifier is rao_zero_cov:
        return rao_zero_cov(statistic, u, token, cfg)
    return verify_first_order(token, statistic, cfg)


def _z_null_u(verifier, token, grid, n):
    """rao's zero-mean statistic for ``token`` (one centring run), else None."""
    return (zero_mean_from_ancillary("log", token, _cfg(grid=grid, n=n))
            if verifier is rao_zero_cov else None)


class TestZLook:
    @pytest.mark.parametrize("verifier,token,statistic,grid,n", Z_NULLS)
    def test_never_fires_on_a_true_claim(self, monkeypatch, verifier, token, statistic, grid, n):
        # 200 replicates a first chunk against look_z(3) = 5.10; the largest
        # first-chunk |z| over the 100 seeds is 4.1 for the 0/1 positive_indicator
        # and 2.5-3.1 for the others
        u = _z_null_u(verifier, token, grid, n)
        fired = [seed for seed in range(100)
                 if _look_fires(monkeypatch, _z_verdict, verifier, token, statistic, u,
                                _cfg(seed=seed, replicates=200 * N_CHUNKS, grid=grid, n=n))]
        assert fired == []

    @pytest.mark.parametrize("verifier,token,statistic,grid,n", Z_NULLS)
    def test_undecided_report_equals_a_run_whose_look_never_fires(self, monkeypatch, verifier,
                                                                   token, statistic, grid, n):
        u = _z_null_u(verifier, token, grid, n)
        cfg = _cfg(seed=3, replicates=20_000, grid=grid, n=n)
        looked = json.dumps(_z_verdict(verifier, token, statistic, u, cfg).to_json_dict())
        monkeypatch.setattr(verify, "run_grid", lambda *args, look, **kwargs: run_grid(
            *args, look=lambda first: False, **kwargs))
        unlooked = json.dumps(_z_verdict(verifier, token, statistic, u, cfg).to_json_dict())
        assert '"look_z"' not in looked and '"replicates": 20000' in looked
        assert looked == unlooked

    def test_rao_negative_control_stops_at_the_first_chunk(self):
        grid = (0.5, 1.0, 2.0)
        cfg = _cfg(replicates=1_000_000, grid=grid, n=1)
        u = zero_mean_from_ancillary("log", "nile", cfg)
        rep = rao_zero_cov("nile_mle", u, "nile", cfg)
        first = run_grid("nile", grid, 1, 1.0, cfg, ["nile_mle", "ancillary"],
                         look=lambda first: True)[0]
        assert rep.verdicts == {"zero-covariance": "fail"}
        assert rep.statistics["look_z"] == verify.look_z(3)
        assert rep.statistics["look_level"] == verify.DKW_DELTA
        assert rep.statistics["max_abs_z"] > rep.statistics["look_z"]
        for point, sim in zip(rep.points, first):
            assert point.statistics["replicates"] == sim["nile_mle"].size == 15_625
            est, _ = _mean_se(_moments(sim["nile_mle"] * u.evaluate(sim)))
            assert point.estimates["E[g^k U]"] == est
            assert point.statistics["mean_U"] == _mean_se(_moments(u.evaluate(sim)))[0]

    def test_first_order_negative_control_stops_at_the_first_chunk(self):
        cfg = _cfg(grid=(0.5, 1.0, 2.0))  # E xbar = theta
        rep = verify_first_order("normal_unit", "sample_mean", cfg)
        first = run_grid("normal_unit", cfg.theta_grid, 5, 1.0, cfg, ["sample_mean"],
                         look=lambda first: True)[0]
        assert rep.verdicts == {"mean-constant": "fail"}
        assert rep.statistics["look_z"] == verify.look_z(3)
        assert rep.statistics["look_level"] == verify.DKW_DELTA
        assert rep.statistics["max_abs_z"] > rep.statistics["look_z"]
        for point, sim in zip(rep.points, first):
            s = sim["sample_mean"]
            assert point.statistics["replicates"] == s.size == -(-20_000 // N_CHUNKS)
            assert (point.estimates["sample_mean"],
                    point.se["sample_mean"]) == _mean_se(_moments(s))

    @pytest.mark.parametrize("error", [VerificationError("standard error is 0"),
                                       ZeroDivisionError(), OverflowError()])
    def test_first_chunks_without_a_report_are_not_judged(self, error):
        # an SE of 0 or not finite, or rao's self-check, raises VerificationError
        # in the verifier's judge, and a squared SE can underflow or overflow
        def judge(drawn):
            raise error

        decided = []
        assert verify._z_look(judge, 3, decided)([{}, {}, {}]) is False
        assert decided == []

    def test_constant_first_chunks_leave_the_error_to_every_chunk(self, monkeypatch):
        # P(x > 0) = Phi(100) at c = 0.01: the indicator is 1 on every replicate
        drawn = []
        real = verify.run_grid

        def recording(*args, **kwargs):
            drawn.append(real(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(verify, "run_grid", recording)
        with pytest.raises(VerificationError, match="standard error of positive_indicator"):
            verify_first_order("normal_cv", "positive_indicator",
                               _cfg(replicates=6_400, grid=(0.5, 2.0), n=1), c=0.01)
        # the look did not decide: the error comes from the moments of every chunk
        assert [p["positive_indicator"][0] for p in drawn[0][0]] == [6_400, 6_400]

    def test_level_matches_its_closed_form(self):
        assert verify.look_z(3) == pytest.approx(5.1036, abs=1e-4)
        for points in (1, 3, 4):
            assert 2 * points * ndtr(-verify.look_z(points)) == pytest.approx(verify.DKW_DELTA,
                                                                             rel=1e-9)


def _scipy_ks(a, b):
    return float(scipy.stats.ks_2samp(a, b, method="asymp").statistic)


_RNG = np.random.default_rng(11)
KS_CASES = {
    "continuous-unequal": (_RNG.normal(size=37), _RNG.normal(0.3, 1.5, size=113)),
    "continuous-unequal-large": (_RNG.exponential(size=3001), _RNG.exponential(size=1999)),
    "ties-within-and-across": (_RNG.integers(0, 5, size=200).astype(float),
                               _RNG.integers(1, 7, size=150).astype(float)),
    "ties-0-1": ((_RNG.random(500) < 0.9).astype(float), (_RNG.random(301) < 0.8).astype(float)),
    "identical": (np.arange(10.0), np.arange(10.0)),
    "disjoint": (_RNG.random(40), 2.0 + _RNG.random(25)),
    "disjoint-reversed": (2.0 + _RNG.random(25), _RNG.random(40)),
    "size-1-equal": (np.array([0.5]), np.array([0.5])),
    "size-1-apart": (np.array([0.5]), np.array([1.0])),
    "size-1-vs-many": (np.array([0.0]), _RNG.normal(size=9)),
}


class TestKsDistance:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's p-value at size 1
    @pytest.mark.parametrize("case", KS_CASES)
    def test_equals_scipy_exactly(self, case):
        a, b = KS_CASES[case]
        d = ks_2samp(np.sort(a), np.sort(b))
        assert isinstance(d, float)
        assert d == _scipy_ks(a, b)

    def test_identical_and_disjoint_extremes(self):
        a, b = KS_CASES["identical"]
        assert ks_2samp(a, b) == 0.0
        for case in ("disjoint", "disjoint-reversed", "size-1-apart"):
            a, b = KS_CASES[case]
            assert ks_2samp(np.sort(a), np.sort(b)) == 1.0

    @pytest.mark.parametrize("a,b", [(np.array([]), np.array([1.0])),
                                     (np.array([1.0, 2.0]), np.array([]))])
    def test_empty_sample_raises_value_error(self, a, b):
        with pytest.raises(ValueError):
            ks_2samp(a, b)


def _full_search_ks(a, b):
    """The KS distance from a search of every point of both sorted samples."""
    n1, n2 = a.size, b.size
    d_ab = np.arange(1, n1 + 1) / n1 - np.searchsorted(b, a, side="right") / n2
    d_ba = np.arange(1, n2 + 1) / n2 - np.searchsorted(a, b, side="right") / n1
    return max(0.0, float(d_ab.max()), float(d_ba.max()))


_S, _T = verify._KS_STRIDE, verify._KS_SUBSTRIDE


class TestKsBoundedSearch:
    """ks_2samp searches only the probe blocks, and then the sub-blocks, that
    can hold the supremum; its float must equal the full search's, whatever
    the sizes and ties."""

    @pytest.mark.parametrize("n1", [_T - 1, _T, _T + 1, 5 * _T + 1, 37 * _T + 1,
                                    _S - 1, _S, _S + 1, 2 * _S, 3 * _S - 1, 3 * _S + 1,
                                    7 * _S + 1])
    @pytest.mark.parametrize("n2", [1, 2, _S - 1, _S + 1, 3 * _S + 5, 4000])
    @pytest.mark.parametrize("draw", ["continuous", "small-integers", "0-1", "shifted"])
    def test_sizes_around_the_probe_stride(self, n1, n2, draw):
        rng = np.random.default_rng([n1, n2, len(draw)])
        if draw == "continuous":
            a, b = rng.normal(size=n1), rng.normal(size=n2)
        elif draw == "small-integers":
            a, b = rng.integers(0, 6, size=n1) * 1.0, rng.integers(0, 6, size=n2) * 1.0
        elif draw == "0-1":
            a, b = (rng.random(n1) < 0.7) * 1.0, (rng.random(n2) < 0.6) * 1.0
        else:
            a, b = rng.normal(size=n1), rng.normal(0.4, 1.0, size=n2)
        a, b = np.sort(a), np.sort(b)
        assert ks_2samp(a, b) == _full_search_ks(a, b)
        assert ks_2samp(b, a) == _full_search_ks(b, a)

    def test_supremum_at_the_last_point_before_a_probe(self):
        # a = 0..2S: probes at 0, S and 2S.  No b lies below a[S - 1], so the
        # largest term is S/(2S + 1) at k = S - 1, just before the probe at S;
        # the 2S - 1 of 2(2S + 1) points of b above a[2S] put the probes' best
        # term between it and the term of a block bound one index short
        n1 = 2 * _S + 1
        a = np.arange(n1, dtype=float)
        b = np.concatenate([np.full(2 * n1 - (2 * _S - 1), _S - 0.5),
                            np.full(2 * _S - 1, n1 + 1.0)])
        d = ks_2samp(a, b)
        assert d == _full_search_ks(a, b) == _S / n1

    def test_supremum_at_the_last_point_before_a_sub_probe(self):
        # a = 0..2S: no b lies below a[2T - 1] and 4T points of b lie just
        # above it, so the largest term is 2T/(2S + 1) at k = 2T - 1, just
        # before the sub-probe at 2T.  Past it b holds two copies of each
        # point of a, but its top 4T - 1 lie above a[2S]: that puts the term
        # at the last probe, the best of every probe and sub-probe, between
        # the supremum and a sub-block bound one index short
        n1 = 2 * _S + 1
        a = np.arange(n1, dtype=float)
        b = np.concatenate([np.full(4 * _T, 2 * _T - 0.5), np.repeat(a[2 * _T:], 2)])
        b[-(4 * _T - 1):] = n1 + 1.0
        assert b.size == 2 * n1
        d = ks_2samp(a, b)
        assert d == _full_search_ks(a, b) == 2 * _T / n1

    def test_blocks_are_probed_and_searched_in_batches(self, monkeypatch):
        # a == b but for three points of b raised by a half near the end: every
        # block's bound (255/n) reaches the supremum (about 1/n), so all 3 * _KS_BATCH
        # blocks are probed again and searched, in batches that carry the best
        # term across and whose lookups never exceed a batch's points
        n1 = 3 * verify._KS_BATCH * _S + 1
        a = np.arange(n1, dtype=float)
        b = a.copy()
        b[n1 - 100:n1 - 97] += 0.5
        sizes = []
        searchsorted = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda b, v, side: sizes.append(v.size) or searchsorted(b, v, side=side))
        d = verify._ks_one_sided(a, b)
        monkeypatch.undo()
        assert d == _full_search_ks(a, b) > 0
        assert sizes[0] == n1 // _S + 1
        assert len(sizes) == 1 + 2 * 3
        assert max(sizes[1:]) <= verify._KS_BATCH * _S

    @pytest.mark.parametrize("values", [2, 5, 40])
    def test_heavy_ties_at_1e5(self, values):
        rng = np.random.default_rng(values)
        for n1, n2 in [(100_000, 100_000), (100_000, 99_743)]:
            a = np.sort(rng.integers(0, values, size=n1) * 1.0)
            b = np.sort(rng.integers(0, values, size=n2) * 1.0)
            assert ks_2samp(a, b) == _full_search_ks(a, b)

    def test_many_small_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            n1, n2 = rng.integers(1, 4 * _S, size=2)
            values = rng.choice([2, 10, 1000])
            a = np.sort(rng.integers(0, values, size=n1) * 1.0)
            b = np.sort(rng.integers(0, values, size=n2) + rng.choice([0.0, 0.5]))
            assert ks_2samp(a, b) == _full_search_ks(a, b)

    @pytest.mark.parametrize("shift", [0.0, 0.002, 0.05])
    def test_pairs_at_1e6(self, shift):
        rng = np.random.default_rng(6)
        a = np.sort(rng.standard_gamma(5.0, size=1_000_000))
        b = np.sort(rng.standard_gamma(5.0, size=1_000_000) + shift)
        assert ks_2samp(a, b) == _full_search_ks(a, b)


@pytest.mark.parametrize("token,statistic,grid,n", [
    ("nile", "nile_product", (0.5, 1.0, 4.0), 5),
    ("uniform_location", "uniform_range", (-2.0, 0.0, 3.0), 4),
    # a 0/1 statistic: P(xbar > 0) = Phi(sqrt(n)/c) whatever theta, with many ties
    ("normal_cv", "positive_indicator", (0.5, 1.0, 2.0, 4.0), 3),
])
def test_ancillarity_report_equals_scipy_on_the_same_samples(token, statistic, grid, n):
    cfg = _cfg(seed=3, replicates=3_000, grid=grid, n=n)
    rep = verify_ancillarity(token, statistic, cfg)
    samples = [p[statistic] for p in run_grid(token, grid, n, 1.0, cfg, [statistic])[0]]
    expected = {f"ks[{grid[i]:g},{grid[j]:g}]": _scipy_ks(samples[i], samples[j])
                for i in range(len(grid)) for j in range(i + 1, len(grid))}
    assert {k: v for k, v in rep.statistics.items() if k.startswith("ks[")} == expected
    assert rep.statistics["max_ks"] == max(expected.values())
    for point, s in zip(rep.points, samples):
        assert (point.estimates[statistic], point.se[statistic]) == _mean_se(_moments(s))


class TestFirstOrder:
    def test_h_matches_closed_form(self):
        rep = verify_first_order("bivariate_gaussian_corr", "first_order_h",
                                 _cfg(grid=(-0.9, 0.0, 0.9), replicates=50_000, n=1))
        assert rep.verdict == "pass"
        assert rep.statistics["target_mean"] == pytest.approx(
            2.0 * (2.0 * ndtr(1.0) - 1.0))

    def test_positive_indicator_matches_cdf(self):
        rep = verify_first_order("normal_cv", "positive_indicator",
                                 _cfg(grid=(0.5, 1.0, 2.0), n=1))
        assert rep.verdict == "pass"
        assert rep.statistics["target_mean"] == pytest.approx(ndtr(1.0))

    def test_negative_control_mean(self):
        # E xbar = theta varies along the grid
        rep = verify_first_order("normal_unit", "sample_mean", _cfg())
        assert rep.verdict == "fail"


def _scipy_chi2(table):
    res = scipy.stats.chi2_contingency(table)
    return float(res.statistic), float(res.pvalue)


def _tables(seed, count, low, high, shape=None):
    rng = np.random.default_rng(seed)
    return [rng.integers(low, high, size=shape or tuple(rng.integers(2, 11, size=2)))
            for _ in range(count)]


CHI2_CASES = {
    "random-r-by-c": _tables(21, 300, 3, 200),
    "yates-2x2": _tables(22, 300, 3, 200, shape=(2, 2)),
    "yates-2x2-near-expected": [np.array([[10, 10], [10, 11]]), np.array([[50, 50], [50, 50]]),
                                np.array([[7, 8], [8, 7]])],
    "large-counts": _tables(23, 300, 10 ** 5, 10 ** 6),
    "large-counts-2x2": _tables(24, 100, 10 ** 5, 10 ** 6, shape=(2, 2)),
}


def _pilot_edge_tables(cfg, stat_a, stat_b, k):
    """Each grid point's contingency table, rebuilt outside ``verify_independence``:
    the np.add.at count of the counted replicates (seed ``master_seed``) in the
    bins that searchsorted gives at the k-quantiles of the pilot (seed ``master_seed + 1``,
    ceil(N / N_CHUNKS) replicates, at least min(N, N_CHUNKS)), empty rows and columns dropped."""
    names = [stat_a, stat_b]
    size = min(cfg.replicates, max(N_CHUNKS, math.ceil(cfg.replicates / N_CHUNKS)))
    pilot_cfg = _cfg(seed=cfg.master_seed + 1, replicates=size, grid=cfg.theta_grid, n=cfg.n)
    pilot, _ = run_grid("normal_cv", cfg.theta_grid, cfg.n, 1.0, pilot_cfg, names)
    counted, _ = run_grid("normal_cv", cfg.theta_grid, cfg.n, 1.0, cfg, names)
    q = np.linspace(0.0, 1.0, k + 1)[1:-1]
    tables = []
    for drawn, sim in zip(pilot, counted):
        edges = [np.unique(np.quantile(drawn[name], q)) for name in names]
        table = np.zeros([len(e) + 1 for e in edges], dtype=np.int64)
        np.add.at(table, tuple(np.searchsorted(e, sim[name], side="right")
                               for e, name in zip(edges, names)), 1)
        tables.append(table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0])
    return tables


class TestChi2Contingency:
    @pytest.mark.parametrize("case", CHI2_CASES)
    def test_equals_scipy_exactly(self, case):
        for table in CHI2_CASES[case]:
            stat, p = chi2_contingency(table)
            assert isinstance(stat, float) and isinstance(p, float)
            assert (stat, p) == _scipy_chi2(table)

    def test_independence_report_equals_scipy_on_the_same_samples(self):
        # N = 20 gives k = 2 bins: 2x2 tables, one degree of freedom, the Yates path
        grid = (0.5, 1.0, 2.0, 4.0)
        cfg = _cfg(seed=5, replicates=20, grid=grid, n=5)
        rep = verify_independence("sample_mean", "sample_sd", "normal_cv", cfg)
        assert rep.statistics["bins"] == 2
        tables = _pilot_edge_tables(cfg, "sample_mean", "sample_sd", 2)
        assert [t.shape for t in tables] == [(2, 2)] * len(grid)
        for point, table in zip(rep.points, tables):
            stat, p = _scipy_chi2(table)
            assert (point.statistics["chi2"], point.statistics["p_value"]) == (stat, p)

    @pytest.mark.parametrize("stat_a,stat_b,replicates", [
        ("sample_mean", "sample_sd", 4_000),
        # a 0/1 margin: its tied quantiles leave bins empty, which are dropped
        ("positive_indicator", "sample_sd", 4_000),
        ("sample_sd", "positive_indicator", 300)])
    def test_table_equals_the_add_at_count(self, monkeypatch, stat_a, stat_b, replicates):
        grid = (0.5, 2.0)
        cfg = _cfg(seed=8, replicates=replicates, grid=grid, n=3)
        tables = []
        monkeypatch.setattr(verify, "chi2_contingency",
                            lambda t: tables.append(t) or chi2_contingency(t))
        rep = verify_independence(stat_a, stat_b, "normal_cv", cfg)
        k = rep.statistics["bins"]
        expected = _pilot_edge_tables(cfg, stat_a, stat_b, k)
        assert len(tables) == len(expected)
        for got, want in zip(tables, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if "positive_indicator" in (stat_a, stat_b):
            assert all(sorted(t.shape) == [2, k] for t in tables)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_quantile_bins_equal_those_of_the_unsorted_sample(self, k):
        rng = np.random.default_rng(4)
        arrays = {
            "normal": rng.normal(size=10_001),
            "three-values": rng.integers(0, 3, size=5_000) * 1.0,
            # a 0/1 margin: its tied quantiles straddle the edge between 0 and 1
            "zero-one": (rng.random(5_000) < 0.37) * 1.0,
            # every edge collapses to the one value
            "all-equal": np.full(1_000, 2.5),
            "with-infinities": np.r_[rng.normal(size=997), -np.inf, np.inf, np.inf],
            "fewer-than-k": rng.normal(size=k - 1),
        }
        q = np.linspace(0.0, 1.0, k + 1)[1:-1]
        for name, arr in arrays.items():
            got = _bin_index([arr], [_quantile_edges(arr, k)])
            expected = np.searchsorted(np.unique(np.quantile(arr, q)), arr, side="right")
            assert got.dtype.itemsize == 1, name
            assert np.array_equal(got, expected), name


class TestIndependence:
    def test_mean_and_sd_independent_for_normal(self):
        rep = verify_independence("sample_mean", "sample_sd", "normal_cv",
                                  _cfg(grid=(1.0,), n=10, replicates=50_000))
        assert rep.verdict == "pass"
        assert rep.statistics["min_p_value"] >= rep.statistics["alpha"]

    def test_mle_depends_on_ancillary(self):
        rep = verify_independence("nile_mle", "nile_product", "nile",
                                  _cfg(grid=(1.0,), n=1, replicates=50_000))
        assert rep.verdict == "fail"

    def test_constant_statistic_is_independent(self):
        # xbar > 0 on every nile replicate, so the indicator leaves one row
        rep = verify_independence("positive_indicator", "nile_product", "nile",
                                  _cfg(grid=(0.5, 2.0), replicates=2000))
        assert rep.verdict == "pass"
        assert rep.statistics["min_p_value"] == 1.0
        assert all(p.statistics["chi2"] == 0.0 for p in rep.points)

    def test_pilot_shares_no_draw_with_the_counted_replicates(self, monkeypatch):
        # the pilot's substreams are spawned from master_seed + 1; spawned from
        # master_seed, its first chunk would repeat the counted first chunk
        cfg = _cfg(seed=3, replicates=4000, grid=(0.5, 1.0, 2.0), n=5, workers=2)
        pilot, counted = [], []
        real = verify.run_grid

        def recording(*args, counts_of=None, **kwargs):
            if counts_of is None:
                points, degenerate = real(*args, **kwargs)
                pilot.extend(p[name] for p in points for name in p)
                return points, degenerate

            def hook(gi, sim):
                counted.extend(sim.values())
                return counts_of(gi, sim)
            return real(*args, counts_of=hook, **kwargs)

        monkeypatch.setattr(verify, "run_grid", recording)
        verify_independence("sample_mean", "sample_sd", "normal_cv", cfg)
        pilot, counted = np.concatenate(pilot), np.concatenate(counted)
        assert pilot.size == 3 * 2 * N_CHUNKS and counted.size == 3 * 2 * 4000
        assert np.intersect1d(pilot, counted).size == 0

    def test_small_pilot_is_not_all_degenerate_where_the_sample_is_not(self):
        # c = 1e-15 at n = 2 drops about 14% of replicates; a pilot of
        # ceil(N / N_CHUNKS) = 1 replicate, not min(N, N_CHUNKS), was all
        # degenerate at 6 of these 40 seeds and stopped the run
        for seed in range(40):
            rep = verify_independence("sample_mean", "sample_sd", "normal_cv",
                                      _cfg(seed=seed, replicates=64, grid=(1.0,), n=2), c=1e-15)
            assert 0 < rep.degenerate_count < 64

    def test_mean_independent_of_range_conditional_claim_fails(self):
        # xbar and the range are dependent for uniform samples
        rep = verify_independence("sample_mean", "uniform_range",
                                  "uniform_location",
                                  _cfg(grid=(0.0,), n=2, replicates=50_000))
        assert rep.verdict == "fail"


class TestRaoZeroCov:
    def test_positive_control_complete_family(self):
        # N(theta, 1): complete sufficient statistic, condition must hold
        cfg = _cfg(grid=(0.5, 1.0, 2.0), replicates=50_000, n=2)
        u = zero_mean_from_ancillary("log", "normal_unit", cfg)
        rep = rao_zero_cov("sample_mean", u, "normal_unit", cfg)
        assert rep.verdicts["zero-covariance"] == "pass"

    def test_exact_contrast_draws_nothing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("run_grid called")

        monkeypatch.setattr(verify, "run_grid", no_draws)
        for transform in TRANSFORMS:
            u = zero_mean_from_ancillary(transform, "normal_unit", _cfg())
            assert (u.id, u.source, u.center, u.center_se) == ("first-contrast", "diff12",
                                                                0.0, 0.0)
            assert u.transform is identity

    @pytest.mark.parametrize("token", ["nile", "normal_unit"])
    def test_unknown_transform_is_named(self, monkeypatch, token):
        monkeypatch.setattr(verify, "run_grid", None)  # rejected before any draw
        with pytest.raises(ValueError, match=r"^unknown transform 'square'$"):
            zero_mean_from_ancillary("square", token, _cfg())

    def test_nile_mle_violates(self):
        cfg = _cfg(grid=(0.5, 1.0, 2.0), replicates=100_000, n=1)
        u = zero_mean_from_ancillary("log", "nile", cfg)
        rep = rao_zero_cov("nile_mle", u, "nile", cfg)
        assert rep.verdicts["zero-covariance"] == "fail"
        assert rep.statistics["max_abs_z"] > 4.0

    def test_self_check_aborts_on_bad_center(self):
        u = ZeroMeanSpec(id="mis-centered", source="ancillary", transform=identity,
                         center=0.0, center_se=1e-6)  # E W = 1, not 0
        with pytest.raises(VerificationError):
            rao_zero_cov("nile_mle", u, "nile", _cfg(grid=(1.0,), n=1))

    def test_exact_center_is_not_self_checked(self):
        # a centre with SE 0 is taken as exact: a bad one shows in the verdict; the
        # look decides it from the first chunk, 15,625 replicates (SE of mean_U 0.014)
        u = ZeroMeanSpec(id="mis-centered", source="ancillary", transform=identity,
                         center=0.0, center_se=0.0)  # E W = 1, not 0
        rep = rao_zero_cov("nile_mle", u, "nile", _cfg(grid=(1.0,), n=1, replicates=1_000_000))
        assert rep.points[0].statistics["replicates"] == 15_625
        assert rep.points[0].statistics["mean_U"] == pytest.approx(1.0, abs=0.05)

    def test_power_validated(self):
        u = ZeroMeanSpec(id="x", source="ancillary", transform=identity,
                         center=1.0, center_se=0.0)
        with pytest.raises(ValueError):
            rao_zero_cov("nile_mle", u, "nile", _cfg(grid=(1.0,), n=1), power=0)

    def test_calibration_center_near_known_value(self):
        # E log(xbar ybar) at n = 1 is -2 * Euler-Mascheroni
        u = zero_mean_from_ancillary("log", "nile", _cfg(seed=2, grid=(1.0,), n=1))
        gamma = 0.5772156649015329
        assert abs(u.center + 2.0 * gamma) < 4.0 * u.center_se


class TestCondMomentDependence:
    def test_star_estimator_second_moment_varies(self):
        rep = cond_moment_dependence("nile_star", "nile",
                                     _cfg(grid=(1.0,), n=1, replicates=200_000))
        assert rep.verdicts["no-dependence"] == "fail"
        # the row's closed-form prediction tracks the bin means
        for p in rep.points:
            assert abs(p.statistics["prediction_z"]) < 4.0

    @pytest.mark.parametrize("g_stat,token,w_stat,predicted", [
        ("nile_star", "nile", "ancillary", True),
        ("nile_star", "nile", "nile_product", True),  # the family's ancillary by name
        ("nile_star", "nile", "sample_mean", False),  # not the ancillary
        ("nile_mle", "nile", "ancillary", False),     # its row gives no prediction
        ("ancillary", "nile", "ancillary", False),    # g by the alias: nile_product's row
        ("khan_linear", "normal_cv", "ancillary", False),
        ("sample_mean", "normal_unit", "diff12", False)])  # a family with no ancillary
    def test_prediction_is_drawn_from_the_row(self, g_stat, token, w_stat, predicted):
        rep = cond_moment_dependence(g_stat, token, _cfg(grid=(1.0,), replicates=2000),
                                     w_stat=w_stat)
        for p in rep.points:
            assert ("prediction" in p.statistics) is predicted
            if predicted:
                assert p.statistics["prediction"] == STATISTICS[g_stat].cond_m2(p.param, 1.0, 5)

    def test_prediction_follows_the_ancillary_row_under_any_name(self, monkeypatch):
        monkeypatch.setitem(STATISTICS, "w_copy", STATISTICS["nile_product"])
        rep = cond_moment_dependence("nile_star", "nile", _cfg(grid=(1.0,), replicates=2000),
                                     w_stat="w_copy")
        assert all("prediction" in p.statistics for p in rep.points)

    def test_too_few_replicates_for_a_decile_bin(self):
        with pytest.raises(VerificationError, match="a decile bin of .* holds 1 replicates"):
            cond_moment_dependence("nile_star", "nile", _cfg(grid=(1.0,), replicates=10))

    @pytest.mark.parametrize("replicates,fewest", [(11, 1), (19, 1)])
    def test_a_bin_of_fewer_than_two_replicates_raises(self, replicates, fewest):
        with pytest.raises(VerificationError, match=f"a decile bin of .* holds {fewest} replicates"):
            cond_moment_dependence("nile_star", "nile", _cfg(grid=(1.0,), replicates=replicates))

    def test_bins_of_two_replicates_are_tested(self):
        rep = cond_moment_dependence("nile_star", "nile", _cfg(grid=(1.0,), replicates=20))
        assert [p.statistics["bin_count"] for p in rep.points] == [2] * 10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bins_equal_a_masked_loop(self, n, seed):
        # each decile bin selected by a boolean mask of searchsorted's bins on
        # the same draws, its moments taken by numpy on the selection
        config = _cfg(seed=seed, grid=(1.0,), n=n, replicates=2000)
        sim = run_grid("nile", (1.0,), n, 1.0, config, ["nile_star", "ancillary"])[0][0]
        w, g2 = sim["ancillary"], sim["nile_star"] ** 2
        edges = np.unique(np.quantile(w, np.linspace(0.0, 1.0, 11)[1:-1]))
        idx = np.searchsorted(edges, w, side="right")
        rep = cond_moment_dependence("nile_star", "nile", config)
        assert len(rep.points) == 10
        for b, point in enumerate(rep.points):
            sel = idx == b
            count = int(sel.sum())
            assert point.estimates["E[g^2|bin]"] == g2[sel].mean()
            assert point.se["E[g^2|bin]"] == g2[sel].std(ddof=1) / math.sqrt(count)
            assert point.param == float(np.median(w[sel]))
            assert point.statistics["bin_count"] == count

    def test_fixture_shows_no_dependence(self):
        rep = cond_moment_dependence("sample_mean", "normal_unit",
                                     _cfg(grid=(1.0,), n=2, replicates=100_000),
                                     w_stat="diff12")
        assert rep.verdicts["no-dependence"] == "pass"


class TestFisherInfo:
    def test_matches_closed_form(self):
        rep = fisher_info(_cfg(grid=(1.0,), n=1, replicates=400_000), 1.0)
        assert rep.verdict == "pass"
        assert rep.statistics["closed_form"] == pytest.approx(3.0)
        assert rep.statistics["info_ratio"] == pytest.approx(3.0)

    def test_scales_with_theta_and_c(self):
        rep = fisher_info(_cfg(grid=(2.0,), n=1, replicates=400_000), 0.5)
        assert rep.verdict == "pass"
        assert rep.statistics["closed_form"] == pytest.approx(6.0 / 4.0)
        assert rep.statistics["info_ratio"] == pytest.approx(2 * 0.25 + 1)


class TestOneRunConfig:
    @pytest.fixture
    def draws(self, monkeypatch):
        """Each run_grid call's (grid, n, config), in call order."""
        seen = []

        def spy(token, grid, n, c, config, names, **kw):
            seen.append((list(grid), n, config))
            return run_grid(token, grid, n, c, config, names, **kw)

        monkeypatch.setattr(verify, "run_grid", spy)
        return seen

    def test_fisher_info_draws_the_run_it_reports(self, draws):
        # the theta and n of the draws were once separate arguments
        cfg = _cfg(grid=(2.0,), n=3, replicates=2000)
        rep = fisher_info(cfg, 1.0)
        assert draws == [([2.0], 3, cfg)]
        assert rep.grid == [2.0] and rep.config == cfg.as_dict() and rep.seed == 0

    def test_cond_moment_draws_the_run_it_reports(self, draws):
        cfg = _cfg(grid=(2.0,), n=3, replicates=2000)
        rep = cond_moment_dependence("nile_star", "nile", cfg)
        assert draws == [([2.0], 3, cfg)]
        assert rep.statistics["theta"] == 2.0 and rep.config == cfg.as_dict()

    def test_side_runs_are_derived_from_the_run(self, draws):
        cfg = _cfg(seed=7, grid=(0.5, 2.0), n=2, replicates=2000, workers=2)
        zero_mean_from_ancillary("indicator", "nile", cfg)
        assert draws == [
            ([1.0], 2, MCConfig(9, 100_000, (1.0,), 2, 2)),  # the indicator's median
            ([1.0], 2, MCConfig(8, verify.CENTRING_REPLICATES, (1.0,), 2, 2))]  # the centre

    @pytest.mark.parametrize("run", [lambda cfg: fisher_info(cfg, 1.0),
                                     lambda cfg: cond_moment_dependence("nile_star", "nile", cfg)])
    def test_one_point_runs_reject_a_grid(self, run):
        with pytest.raises(ValueError, match="too many values to unpack"):
            run(_cfg(grid=(1.0, 2.0)))


class TestVarianceTable:
    def test_nile_estimators(self):
        rep = variance_table(["nile_mle", "nile_star"], "nile",
                             _cfg(grid=(1.0, 2.0), n=5, replicates=50_000))
        assert rep.verdict == "pass"
        for p in rep.points:
            for name in ("nile_mle", "nile_star"):
                assert f"{name}.bias" in p.estimates
                assert f"{name}.variance" in p.estimates
                assert f"{name}.mse" in p.estimates
                assert p.estimates[f"{name}.variance"] > 0

    def test_star_estimator_unbiased_in_table(self):
        rep = variance_table(["nile_star"], "nile",
                             _cfg(grid=(2.0,), n=5, replicates=100_000))
        p = rep.points[0]
        assert abs(p.estimates["nile_star.bias"]) < 3 * p.se["nile_star.bias"]


@pytest.mark.parametrize("arr", [np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.1, 0.7, 0.2, 5.0]),
                                 np.random.default_rng(8).exponential(3.0, size=1001)])
def test_var_se_equals_the_explicit_formula(arr):
    xs = arr.tolist()
    mean = math.fsum(xs) / len(xs)
    var = math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    m4 = math.fsum((x - mean) ** 4 for x in xs) / len(xs)
    got_var, got_se = _var_se(_moments(arr))
    assert got_var == float(arr.var(ddof=1))
    assert got_var == pytest.approx(var, rel=1e-12)
    assert got_se == pytest.approx(math.sqrt((m4 - var * var) / len(xs)), rel=1e-12)


class TestReportStructure:
    def test_json_dict_keys(self):
        rep = verify_ancillarity("nile", "nile_product",
                                 _cfg(replicates=2_000))
        d = rep.to_json_dict()
        for key in ("claim", "config", "grid", "estimates", "se", "statistics",
                    "verdicts", "verdict", "degenerate_count", "seed", "version"):
            assert key in d
        assert d["seed"] == 0
        assert d["config"]["replicates"] == 2_000

    def test_verdict_ordering(self):
        def mk(verdicts):
            return VerificationReport(claim="x", config={}, grid=[], points=[],
                                      statistics={}, verdicts=verdicts, seed=0)
        assert mk({"a": "pass", "b": "fail"}).verdict == "fail"
        assert mk({"a": "pass", "b": "inconclusive"}).verdict == "inconclusive"
        assert mk({"a": "pass"}).verdict == "pass"

    def test_table_rows_shape(self):
        rep = verify_ancillarity("nile", "nile_product",
                                 _cfg(replicates=2_000, grid=(0.5, 2.0)))
        header, rows = rep.table_rows()
        assert header == ["param", "quantity", "estimate", "se", "statistic"]
        assert len(rows) == 2  # one quantity per grid point
        for row in rows:
            assert len(row) == len(header)


def test_run_grid_checks_statistics_and_domain_before_sampling():
    with pytest.raises(ValueError, match="'khan_linear' is not defined for family 'nile'"):
        run_grid("nile", (1.0,), 5, 1.0, _cfg(grid=(1.0,)), ["khan_linear"])
    with pytest.raises(ValueError, match="'sample_sd' needs n >= 2"):
        run_grid("normal_cv", (1.0,), 1, 1.0, _cfg(grid=(1.0,), n=1), ["sample_sd"])
    with pytest.raises(ValueError, match="declares no ancillary"):
        run_grid("bivariate_gaussian_corr", (0.0,), 1, 1.0, _cfg(grid=(0.0,)), ["ancillary"])
    with pytest.raises(DomainError, match="theta must be finite and > 0"):
        run_grid("nile", (1.0, -1.0), 5, 1.0, _cfg(grid=(1.0, -1.0)), ["ancillary"])


@pytest.mark.parametrize("model,param,n,stat,of_sample", [
    # statistics of the sufficient statistic: the row's direct sampler
    (nile(1.3), 1.3, 5, "nile_product", lambda d: d["xbar"] * d["ybar"]),
    (normal_cv(2.0, c=0.5), 2.0, 5, "sample_mean", lambda d: d["xbar"]),
    (uniform_location(-0.7), -0.7, 5, "uniform_range", lambda d: d["hi"] - d["lo"]),
    # statistics of the observations: families.sample; the correlation family
    # is sampled one pair per replicate
    (bivariate_gaussian(0.4), 0.4, 1, "xy_product", lambda p: p[0, 0] * p[0, 1]),
    (uniform_location(-0.7), -0.7, 5, "sample_mean", lambda p: p.mean()),
    (normal_cv(2.0, c=0.5), 2.0, 5, "diff12", lambda p: p[0] - p[1]),
    (normal_cv(2.0, c=0.5), 2.0, 1, "x1", lambda p: p[0]),
])
def test_engine_replicate_equals_scalar_sample(model, param, n, stat, of_sample):
    # one replicate consumes the first spawned substream of the master seed
    rng = np.random.default_rng(np.random.SeedSequence(4).spawn(1)[0])
    direct = FAMILIES[model.kind.value].direct
    if direct is not None and set(STATISTICS[stat].reads) <= set(direct.names):
        expected = of_sample(direct.draw(param, model.c, rng, 1, n))[0]
    else:
        expected = of_sample(sample(model, n, rng).points)
    out, _ = run_grid(model.kind.value, (param,), n, model.c,
                      _cfg(seed=4, grid=(param,), n=n, replicates=1), [stat])
    assert out[0][stat][0] == expected


def test_score_of_one_replicate_is_the_closed_form():
    # fisher-info's score of the first observation of N(2, 1), drawn as x1
    out, _ = run_grid("normal_cv", (2.0,), 1, 0.5, _cfg(seed=4, grid=(2.0,), n=1, replicates=1),
                      ["x1"])
    (x1,) = out[0]["x1"]
    assert verify._score(x1, 2.0, 0.5) == -0.5 + (x1 - 2.0) / 1.0 + (x1 - 2.0) ** 2 / 2.0
