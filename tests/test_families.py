import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.stats import chisquare

from nilelab.families import (DomainError, FamilyModel, InputError, Kind,
                              ObservationSet, bivariate_gaussian, density,
                              nile, normal_cv, sample, uniform_location)


class TestConstruction:
    def test_nile_rejects_nonpositive_theta(self):
        with pytest.raises(DomainError):
            nile(0.0)
        with pytest.raises(DomainError):
            nile(-1.0)

    def test_normal_cv_rejects_bad_params(self):
        with pytest.raises(DomainError):
            normal_cv(-2.0)
        with pytest.raises(DomainError):
            normal_cv(1.0, c=0.0)

    def test_rho_domain_is_open(self):
        with pytest.raises(DomainError):
            bivariate_gaussian(1.0)
        with pytest.raises(DomainError):
            bivariate_gaussian(-1.0)
        bivariate_gaussian(0.999)

    def test_uniform_accepts_any_finite_theta(self):
        uniform_location(-3.5)
        with pytest.raises(DomainError):
            uniform_location(float("inf"))


class TestDensity:
    def test_nile_point_values(self):
        m = nile(1.0)
        assert density(m, (1.0, 1.0)) == pytest.approx(math.exp(-2), rel=1e-12)
        assert density(m, (0.0, 1.0)) == 0.0
        assert density(m, (-1.0, 1.0)) == 0.0

    def test_bivariate_gaussian_origin(self):
        assert density(bivariate_gaussian(0.0), (0.0, 0.0)) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-12)

    def test_normal_cv_mode(self):
        assert density(normal_cv(1.0, c=1.0), 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_uniform_support(self):
        m = uniform_location(0.0)
        assert density(m, 0.3) == 0.5
        assert density(m, 1.5) == 0.0

    def test_nonfinite_point_rejected(self):
        with pytest.raises(InputError):
            density(nile(1.0), (float("nan"), 1.0))
        with pytest.raises(InputError):
            density(uniform_location(0.0), float("inf"))

    @pytest.mark.parametrize("model,point", [
        (nile(1.0), (1.0, 2.0, 3.0)), (nile(1.0), (1.0,)), (nile(1.0), 1.0),
        (bivariate_gaussian(0.0), [[0.0, 0.0]]), (normal_cv(1.0), (1.0,)),
        (uniform_location(0.0), (0.3, 0.4))])
    def test_point_of_the_wrong_length_rejected(self, model, point):
        with pytest.raises(InputError, match="got shape"):
            density(model, point)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
    def test_nile_integrates_to_one(self, theta):
        m = nile(theta)
        hi_x = 60.0 / theta
        hi_y = 60.0 * theta
        val, _ = dblquad(lambda y, x: density(m, (x, y)), 0, hi_x, 0, hi_y)
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.5])
    def test_bivariate_gaussian_integrates_to_one(self, rho):
        m = bivariate_gaussian(rho)
        val, _ = dblquad(lambda y, x: density(m, (x, y)), -12, 12, -12, 12)
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("theta,c", [(1.0, 1.0), (2.0, 0.5)])
    def test_normal_cv_integrates_to_one(self, theta, c):
        m = normal_cv(theta, c=c)
        lo, hi = theta - 12 * c * theta, theta + 12 * c * theta
        val, _ = quad(lambda x: density(m, x), lo, hi)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_uniform_integrates_to_one(self):
        m = uniform_location(2.0)
        val, _ = quad(lambda x: density(m, x), 0.9, 3.1, points=[1.0, 3.0])
        assert val == pytest.approx(1.0, abs=1e-6)


class TestObservationSet:
    def test_length_property(self):
        obs = sample(nile(1.0), 7, np.random.default_rng(0))
        assert obs.n == 7
        assert obs.points.shape == (7, 2)

    def test_nile_positivity_enforced(self):
        with pytest.raises(InputError):
            ObservationSet(points=np.array([[1.0, -1.0]]), model=nile(1.0))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            sample(nile(1.0), 0, np.random.default_rng(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            ObservationSet(points=np.array([1.0, 2.0]), model=nile(1.0))

    @pytest.mark.parametrize("model,points", [(nile(1.0), np.empty((0, 2))),
                                              (normal_cv(1.0), np.empty(0))])
    def test_empty_set_rejected(self, model, points):
        with pytest.raises(InputError, match="observation set must be nonempty"):
            ObservationSet(points=points, model=model)

    def test_scalar_family_rejects_pairs(self):
        with pytest.raises(InputError, match=r"scalar family requires points of shape \(n,\)"):
            ObservationSet(points=np.ones((3, 2)), model=normal_cv(1.0))

    @pytest.mark.parametrize("model,points", [
        (normal_cv(1.0), [1.0, math.nan]), (uniform_location(0.0), [0.5, math.inf]),
        (nile(1.0), [(1.0, 2.0), (math.inf, 1.0)])])
    def test_non_finite_observation_rejected(self, model, points):
        with pytest.raises(InputError, match="non-finite observation"):
            ObservationSet(points=np.asarray(points), model=model)


#: Models of ``test_histogram_matches_density``; each case is seeded with its
#: position here, so every run draws the same sample.
_HISTOGRAM_MODELS = [
    nile(0.5), nile(2.0),
    bivariate_gaussian(-0.6), bivariate_gaussian(0.3),
    normal_cv(1.0, c=1.0), normal_cv(3.0, c=0.4),
    uniform_location(0.0), uniform_location(-2.0),
]


class TestSampler:
    N = 100_000

    def test_nile_means(self):
        obs = sample(nile(2.0), self.N, np.random.default_rng(1))
        x, y = obs.points[:, 0], obs.points[:, 1]
        # E X = 1/theta = 0.5, E Y = theta = 2, both exponential
        assert abs(x.mean() - 0.5) < 3 * x.std() / math.sqrt(self.N)
        assert abs(y.mean() - 2.0) < 3 * y.std() / math.sqrt(self.N)

    def test_nile_coordinates_independent(self):
        obs = sample(nile(1.5), self.N, np.random.default_rng(2))
        r = np.corrcoef(obs.points[:, 0], obs.points[:, 1])[0, 1]
        assert abs(r) < 3.0 / math.sqrt(self.N)

    def test_bivariate_gaussian_correlation(self):
        obs = sample(bivariate_gaussian(0.5), self.N, np.random.default_rng(3))
        r = np.corrcoef(obs.points[:, 0], obs.points[:, 1])[0, 1]
        # SE of the correlation estimate is (1 - rho^2)/sqrt(N)
        assert abs(r - 0.5) < 3 * 0.75 / math.sqrt(self.N)

    def test_uniform_support_and_mean(self):
        obs = sample(uniform_location(0.0), self.N, np.random.default_rng(4))
        assert np.all(np.abs(obs.points) <= 1.0)
        assert abs(obs.points.mean()) < 3 / math.sqrt(3 * self.N)

    def test_normal_cv_moments(self):
        obs = sample(normal_cv(2.0, c=0.5), self.N, np.random.default_rng(5))
        se = obs.points.std() / math.sqrt(self.N)
        assert abs(obs.points.mean() - 2.0) < 3 * se
        assert obs.points.std(ddof=1) == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("seed,model", [pytest.param(seed, model, id=str(model))
                                            for seed, model in enumerate(_HISTOGRAM_MODELS)])
    def test_histogram_matches_density(self, seed, model):
        # chi-square goodness of fit on 50 equal-probability-ish bins
        rng = np.random.default_rng(seed)
        obs = sample(model, self.N, rng)
        pts = obs.points
        if model.kind in (Kind.NILE, Kind.BIVARIATE_GAUSSIAN_CORR):
            # marginals are exponential / standard normal; test each
            for coord in (0, 1):
                self._chisq_1d(pts[:, coord], lambda x, c=coord: self._marginal(model, c, x))
        else:
            self._chisq_1d(pts, lambda x: density(model, x))

    @staticmethod
    def _marginal(model, coord, x):
        if model.kind is Kind.NILE:
            rate = model.param if coord == 0 else 1.0 / model.param
            return rate * math.exp(-rate * x) if x > 0 else 0.0
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    @staticmethod
    def _chisq_1d(data, pdf):
        qs = np.quantile(data, np.linspace(0, 1, 51))
        qs[0], qs[-1] = -np.inf, np.inf
        counts, _ = np.histogram(data, bins=qs)
        probs = np.empty(50)
        lo = np.quantile(data, 0.0)
        hi = np.quantile(data, 1.0)
        edges = np.quantile(data, np.linspace(0, 1, 51))
        edges[0] = min(lo, np.min(data)) - 1e-9
        span = hi - lo
        edges[-1] = hi + span
        for i in range(50):
            a, b = edges[i], edges[i + 1]
            probs[i], _ = quad(pdf, a, b, limit=100)
        tail = 1.0 - probs.sum()
        probs[-1] += max(tail, 0.0)
        probs /= probs.sum()
        res = chisquare(counts, f_exp=probs * counts.sum())
        assert res.pvalue > 0.001
