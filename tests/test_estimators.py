import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize, minimize_scalar

from nilelab.estimators import (_nodes, _spline_at, _table_for, h_star,
                                h_star_vector, khan_coefficients, khan_linear,
                                nile_equivariant, nile_equivariant_star, nile_mle,
                                normalcv_mle, pitman_midrange, s_mean_factor)
from nilelab.families import InputError, Kind, nile, sample
from nilelab.quadrature import cond_moment, cond_moment_bessel
from nilelab.statistics import InsufficientSampleError, SufficientSummary, sufficient

# true value of E_1(ybar | W=1) at n=1 (Bessel ratio K_1(2)/K_0(2))
COND_MEAN_W1_N1 = 1.2280369298189078


def _nile_summary(xbar, ybar, n=1):
    return SufficientSummary(Kind.NILE, (xbar, ybar), n)


def _oracle(n):
    """scipy's not-a-knot spline through the h* table's kve nodes."""
    return CubicSpline(*_nodes(n))


class TestNileMLE:
    def test_values(self):
        assert nile_mle(_nile_summary(2.0, 8.0)) == pytest.approx(2.0)
        assert nile_mle(_nile_summary(1.0, 1.0)) == pytest.approx(1.0)

    def test_scaling(self):
        assert nile_mle(_nile_summary(2.0 / 3.0, 24.0)) == pytest.approx(6.0)

    def test_equivariance_machine_precision(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            xbar, ybar = rng.uniform(0.05, 20.0, size=2)
            base = nile_mle(_nile_summary(xbar, ybar))
            for lam in (0.1, 0.5, 2.0, 10.0):
                scaled = nile_mle(_nile_summary(xbar / lam, ybar * lam))
                assert scaled == pytest.approx(lam * base, rel=1e-14)


class TestNileEquivariant:
    def test_h_one(self):
        assert nile_equivariant(_nile_summary(2.0, 3.0), lambda w: 1.0) == 3.0

    def test_h_inverse_sqrt_reproduces_mle(self):
        assert nile_equivariant(_nile_summary(2.0, 8.0),
                                lambda w: 1.0 / math.sqrt(w)) == pytest.approx(2.0)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            nile_equivariant(_nile_summary(1.0, 1.0), lambda w: -1.0)

    def test_equivariance_any_h(self):
        h = lambda w: 1.0 / (1.0 + w)
        rng = np.random.default_rng(22)
        for _ in range(100):
            xbar, ybar = rng.uniform(0.05, 20.0, size=2)
            base = nile_equivariant(_nile_summary(xbar, ybar), h)
            for lam in (0.1, 0.5, 2.0, 10.0):
                scaled = nile_equivariant(_nile_summary(xbar / lam, ybar * lam), h)
                assert scaled == pytest.approx(lam * base, rel=1e-14)


class TestHStar:
    def test_anchor(self):
        assert h_star(1.0, 1) == pytest.approx(1.0 / COND_MEAN_W1_N1, rel=1e-9)
        assert nile_equivariant_star(_nile_summary(1.0, 1.0)) == pytest.approx(
            1.0 / COND_MEAN_W1_N1, rel=1e-9)

    def test_large_w_asymptote(self):
        # h*(w) ~ 1/sqrt(w) since K_1/K_0 -> 1
        assert abs(h_star(100.0, 1) * 10.0 - 1.0) < 0.06

    def test_vectorized_matches_scalar(self):
        ws = np.geomspace(0.01, 100.0, 20)
        vec = h_star_vector(ws, 3)
        for w, v in zip(ws, vec):
            assert v == pytest.approx(h_star(float(w), 3), rel=1e-12)

    def test_far_below_the_grid(self):
        # direct quadrature where nu + sqrt(nu^2 + 4ab) cancels to 0
        assert math.isfinite(h_star(1e-20, 1))

    def test_threads_missing_together_agree_with_serial(self):
        w = np.geomspace(1e-12, 1e8, 400)
        serial = h_star_vector(w, 7)
        _table_for.cache_clear()
        start = threading.Barrier(4)

        def build(_):
            start.wait()
            return h_star_vector(w, 7)

        with ThreadPoolExecutor(max_workers=4) as pool:
            for got in pool.map(build, range(4)):
                assert np.array_equal(got, serial)

    def test_star_equivariance_machine_precision(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            xbar, ybar = rng.uniform(0.05, 20.0, size=2)
            base = nile_equivariant_star(_nile_summary(xbar, ybar, n=2))
            for lam in (0.1, 0.5, 2.0, 10.0):
                scaled = nile_equivariant_star(_nile_summary(xbar / lam, ybar * lam, n=2))
                assert scaled == pytest.approx(lam * base, rel=1e-14)

    @pytest.mark.parametrize("n", [*range(1, 41), 100, 1000])
    def test_table_is_cubic_spline_bit_for_bit(self, n):
        x, c = _table_for(n)
        oracle = _oracle(n)
        assert np.array_equal(x, oracle.x)
        assert np.array_equal(c, oracle.c)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_table_matches_adaptive_quadrature(self, n):
        # the table's kve nodes against the adaptive route, every 50th node
        table = _oracle(n)
        for logw in table.x[::50]:
            expected = cond_moment(1, math.exp(logw), n)
            assert math.exp(table(logw)) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_table_matches_bessel_route(self, n):
        # every node inside the trapezoid route's range 1e-3 <= 2n sqrt(w) <= 700
        table = _oracle(n)
        w = np.exp(table.x)
        arg = 2.0 * n * np.sqrt(w)
        nodes = np.flatnonzero((arg >= 1e-3) & (arg <= 700.0))
        assert nodes.size > 1000
        for i in nodes:
            assert math.exp(table(table.x[i])) == pytest.approx(
                cond_moment_bessel(1, float(w[i]), n), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_lookup_is_the_spline_bit_for_bit(self, n):
        # every node, both float neighbours of each node inside the grid (so both
        # grid ends and their inner neighbours) and random points
        table = _oracle(n)
        x = table.x
        logw = np.concatenate([x, np.nextafter(x[1:], -np.inf), np.nextafter(x[:-1], np.inf),
                               np.random.default_rng(n).uniform(x[0], x[-1], 100_000)])
        assert np.array_equal(_spline_at(logw.copy(), n), table(logw))

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_vector_is_the_spline_on_the_grid_and_quadrature_off_it(self, n):
        table = _oracle(n)
        w = np.exp(np.random.default_rng(n).uniform(table.x[0] - 5.0, table.x[-1] + 5.0, 400))
        logw = np.log(w)
        inside = (logw >= table.x[0]) & (logw <= table.x[-1])
        assert (logw < table.x[0]).any() and (logw > table.x[-1]).any()
        got = h_star_vector(w, n)
        assert np.array_equal(got[inside], np.exp(-table(logw[inside])))
        assert np.array_equal(h_star_vector(w[inside], n), got[inside])  # every w on the grid
        assert np.array_equal(got[~inside],
                              [1.0 / cond_moment(1, float(v), n) for v in w[~inside]])

    def test_vector_keeps_the_shape_of_w(self):
        w = np.array([[0.5, 2.0], [1e-12, 3e7]])  # two w off the grid
        flat = h_star_vector(w.ravel(), 3)
        assert np.array_equal(h_star_vector(w, 3), flat.reshape(2, 2))
        for v, h in zip(w.ravel(), flat):
            assert h_star_vector(np.array(v), 3).shape == ()
            assert h_star_vector(np.array(v), 3) == h

    @pytest.mark.parametrize("call,w", [(h_star_vector, [0.0]), (h_star_vector, [-1.0]),
                                        (h_star_vector, [math.inf]), (h_star, math.inf),
                                        (h_star_vector, [1.0, math.nan])])
    def test_rejects_w_not_finite_and_positive_before_the_log(self, call, w):
        # filterwarnings = error: a RuntimeWarning from np.log would fail first
        bad = w if call is h_star else w[-1]
        with pytest.raises(ValueError, match=f"w must be finite and positive, got {bad}"):
            call(w, 2)

    def test_unbiased_by_monte_carlo(self):
        theta, n, N = 2.0, 5, 100_000
        rng = np.random.default_rng(24)
        x = rng.exponential(1.0 / theta, (N, n)).mean(axis=1)
        y = rng.exponential(theta, (N, n)).mean(axis=1)
        est = y * h_star_vector(x * y, n)
        se = est.std(ddof=1) / math.sqrt(N)
        assert abs(est.mean() - theta) < 3 * se


class TestNormalCVMLE:
    def test_single_observation(self):
        assert normalcv_mle([1.0], 1.0) == pytest.approx((math.sqrt(5) - 1) / 2)

    def test_constant_sample_matches_single(self):
        one = normalcv_mle([1.0], 1.0)
        assert normalcv_mle([1.0] * 7, 1.0) == pytest.approx(one)

    def test_matches_numeric_likelihood_maximum(self):
        def nll(t, x, c):
            return x.size * math.log(t) + np.sum((x - t) ** 2) / (2 * c * c * t * t)

        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            c = rng.uniform(0.2, 2.0)
            theta = rng.uniform(0.2, 5.0)
            x = theta + c * theta * rng.standard_normal(n)
            mle = normalcv_mle(x, c)
            res = minimize_scalar(nll, bounds=(1e-8, 200.0), args=(x, c),
                                  method="bounded", options={"xatol": 1e-12})
            # bounded scalar minimization resolves the flat optimum to ~1e-8
            assert mle == pytest.approx(res.x, abs=1e-7)

    def test_consistency(self):
        rng = np.random.default_rng(26)
        theta, c, n = 2.0, 0.5, 10_000
        x = theta + c * theta * rng.standard_normal(n)
        assert normalcv_mle(x, c) == pytest.approx(theta, rel=0.03)

    def test_all_zero_rejected(self):
        with pytest.raises(Exception):
            normalcv_mle([0.0, 0.0], 1.0)


class TestKhanLinear:
    def test_b2(self):
        assert s_mean_factor(2) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_needs_two(self):
        with pytest.raises(InsufficientSampleError):
            khan_coefficients(1, 1.0)

    @pytest.mark.parametrize("n,c", [(2, 1.0), (5, 0.5), (10, 1.0), (30, 2.0)])
    def test_matches_constrained_minimizer(self, n, c):
        bn = s_mean_factor(n)
        beta = c * bn

        def obj(ab):
            return ab[0] ** 2 / n + ab[1] ** 2 * (1.0 - bn * bn)

        res = minimize(obj, [0.5, 0.5], tol=1e-16,
                       constraints=[{"type": "eq",
                                     "fun": lambda ab: ab[0] + beta * ab[1] - 1.0}])
        a, b = khan_coefficients(n, c)
        assert a == pytest.approx(res.x[0], abs=1e-8)
        assert b == pytest.approx(res.x[1], abs=1e-8)

    def test_unbiased_and_beats_mean(self):
        theta, c, n, N = 1.0, 1.0, 10, 100_000
        rng = np.random.default_rng(27)
        x = theta + c * theta * rng.standard_normal((N, n))
        xbar = x.mean(axis=1)
        s = x.std(axis=1, ddof=1)
        a, b = khan_coefficients(n, c)
        est = a * xbar + b * s
        se = est.std(ddof=1) / math.sqrt(N)
        assert abs(est.mean() - theta) < 3 * se
        assert est.var(ddof=1) < c * c * theta * theta / n  # Var(xbar) = 0.1

    def test_scalar_interface(self):
        from nilelab.families import normal_cv
        from nilelab.families import sample as fsample
        obs = fsample(normal_cv(1.0), 10, np.random.default_rng(0))
        summ = sufficient(obs)
        a, b = khan_coefficients(10, 1.0)
        assert khan_linear(summ, 1.0) == pytest.approx(
            a * summ.components[0] + b * summ.components[1])


class TestPitmanMidrange:
    def test_value(self):
        s = SufficientSummary(Kind.UNIFORM_LOCATION, (-0.4, 0.9), 10)
        assert pitman_midrange(s) == pytest.approx(0.25)

    def test_translation_equivariance(self):
        s = SufficientSummary(Kind.UNIFORM_LOCATION, (-0.4, 0.9), 10)
        s2 = SufficientSummary(Kind.UNIFORM_LOCATION, (-0.4 + 5.0, 0.9 + 5.0), 10)
        assert pitman_midrange(s2) == pytest.approx(pitman_midrange(s) + 5.0)

    def test_variance_order_statistics_formula(self):
        n, N = 20, 100_000
        rng = np.random.default_rng(28)
        x = rng.uniform(-1.0, 1.0, (N, n))
        mid = 0.5 * (x.min(axis=1) + x.max(axis=1))
        expect = 2.0 / ((n + 1) * (n + 2))
        assert mid.var(ddof=1) == pytest.approx(expect, rel=0.05)


class TestNormalizedRiskIsThetaFree:
    def test_mle_normalized_risk_constant(self):
        # E(theta_hat/theta - 1)^2 must not depend on theta for an
        # equivariant estimator
        n, N = 5, 50_000
        risks, ses = [], []
        for i, theta in enumerate((0.5, 1.0, 2.0)):
            rng = np.random.default_rng(29)  # same substream: common random numbers
            x = rng.exponential(1.0 / theta, (N, n)).mean(axis=1)
            y = rng.exponential(theta, (N, n)).mean(axis=1)
            r = (np.sqrt(y / x) / theta - 1.0) ** 2
            risks.append(r.mean())
            ses.append(r.std(ddof=1) / math.sqrt(N))
        for i in range(3):
            for j in range(i + 1, 3):
                z = (risks[i] - risks[j]) / math.hypot(ses[i], ses[j])
                assert abs(z) < 3.0


#: One valid summary of each family, for the scope checks.
_SUMMARY_OF = {Kind.NILE: (1.0, 2.0), Kind.BIVARIATE_GAUSSIAN_CORR: (4.0, 0.0),
               Kind.NORMAL_CV: (1.0, 0.5), Kind.UNIFORM_LOCATION: (-0.4, 0.9),
               Kind.NORMAL_UNIT: (0.3,)}

#: Each scalar estimator as a function of the summary, and the family it is defined on.
_SCALAR_ESTIMATORS = [
    (nile_mle, Kind.NILE),
    (lambda s: nile_equivariant(s, lambda w: 1.0 / (1.0 + w)), Kind.NILE),
    (nile_equivariant_star, Kind.NILE),
    (lambda s: khan_linear(s, 0.5), Kind.NORMAL_CV),
    (pitman_midrange, Kind.UNIFORM_LOCATION)]


class TestScalarEstimatorsKeepTheirClosedForms:
    """Each estimator equals its closed form bit for bit, on the family it is defined on."""

    def test_nile(self):
        rng = np.random.default_rng(31)
        h = lambda w: 1.0 / (1.0 + w)
        for n in (1, 2, 5):
            for xbar, ybar in rng.uniform(0.05, 20.0, size=(50, 2)):
                s = _nile_summary(xbar, ybar, n)
                assert nile_mle(s) == math.sqrt(ybar / xbar)
                assert nile_equivariant_star(s) == ybar * h_star(xbar * ybar, n)
                assert nile_equivariant(s, h) == ybar * h(xbar * ybar)

    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_khan_linear(self, c):
        rng = np.random.default_rng(32)
        for n in (2, 5, 10):
            a, b = khan_coefficients(n, c)
            for xbar, s in zip(rng.normal(1.0, 1.0, 50), rng.uniform(0.01, 3.0, 50)):
                summary = SufficientSummary(Kind.NORMAL_CV, (xbar, s), n)
                assert khan_linear(summary, c) == a * xbar + b * s

    def test_pitman_midrange(self):
        rng = np.random.default_rng(33)
        for lo, hi in np.sort(rng.uniform(-5.0, 5.0, size=(50, 2)), axis=1):
            s = SufficientSummary(Kind.UNIFORM_LOCATION, (lo, hi), 7)
            assert pitman_midrange(s) == 0.5 * (lo + hi)

    @pytest.mark.parametrize("estimator,kind", _SCALAR_ESTIMATORS)
    @pytest.mark.parametrize("other", list(Kind))
    def test_rejects_a_summary_of_another_family(self, estimator, kind, other):
        summary = SufficientSummary(other, _SUMMARY_OF[other], 5)
        if other is kind:
            assert math.isfinite(estimator(summary))
        else:
            with pytest.raises(InputError):
                estimator(summary)


class TestSampleSize:
    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_h_star_vector_rejects_n_before_building(self, n):
        built = _table_for.cache_info().currsize
        with pytest.raises(ValueError, match="sample size"):
            h_star_vector([1.0], n)
        assert _table_for.cache_info().currsize == built

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_nile_star_summary_rejects_n(self, n):
        built = _table_for.cache_info().currsize
        with pytest.raises(InputError, match="sample size"):
            nile_equivariant_star(_nile_summary(1.0, 2.0, n))
        assert _table_for.cache_info().currsize == built
