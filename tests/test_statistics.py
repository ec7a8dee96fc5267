import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilelab.families import (FAMILIES, InputError, Kind, ObservationSet, nile, normal_cv,
                              reduce, uniform_location)
from nilelab.verify import STATISTICS, resolve_statistic
from nilelab.statistics import (AncillaryValue, DegenerateSampleError, InsufficientSampleError,
                                StatId, SufficientSummary, ancillary,
                                first_order_h, positive_indicator, residuals,
                                sufficient)


def _obs(model, pts):
    return ObservationSet(points=np.asarray(pts, dtype=float), model=model)


class TestSufficient:
    def test_nile_means(self):
        s = sufficient(_obs(nile(1.0), [(1, 2), (3, 4)]))
        assert s.components == (2.0, 3.0)
        assert s.n == 2

    def test_bivariate_sums(self):
        from nilelab.families import bivariate_gaussian
        s = sufficient(_obs(bivariate_gaussian(0.0), [(1, 1), (-1, 1)]))
        assert s.components == (4.0, 0.0)

    def test_normal_cv_mean_and_sd(self):
        s = sufficient(_obs(normal_cv(1.0), [0.0, 2.0]))
        assert s.components[0] == 1.0
        assert s.components[1] == pytest.approx(math.sqrt(2.0))

    def test_uniform_min_max(self):
        s = sufficient(_obs(uniform_location(0.0), [0.2, -0.4, 0.9]))
        assert s.components == (-0.4, 0.9)

    def test_normal_cv_needs_two_points(self):
        with pytest.raises(InsufficientSampleError):
            sufficient(_obs(normal_cv(1.0), [1.0]))

    def test_summary_invariants(self):
        with pytest.raises(InputError):
            SufficientSummary(Kind.NILE, (-1.0, 2.0), 3)
        with pytest.raises(InputError):
            SufficientSummary(Kind.UNIFORM_LOCATION, (2.0, 1.0), 3)

    @pytest.mark.parametrize("kind,components", [
        (Kind.NORMAL_CV, (1.0, math.nan)), (Kind.NORMAL_CV, (math.nan, 1.0)),
        (Kind.NORMAL_CV, (1.0, math.inf)), (Kind.UNIFORM_LOCATION, (0.0, math.nan)),
        (Kind.UNIFORM_LOCATION, (math.nan, 0.0)), (Kind.UNIFORM_LOCATION, (-math.inf, 0.0)),
        (Kind.NILE, (math.nan, 1.0)), (Kind.NILE, (1.0, math.inf))])
    def test_summary_rejects_non_finite_components(self, kind, components):
        with pytest.raises(InputError):
            SufficientSummary(kind, components, 5)

    @pytest.mark.parametrize("kind,components", [
        (Kind.NILE, (1.0,)), (Kind.NILE, (1.0, 2.0, 3.0)),
        (Kind.NORMAL_CV, (1.0,)), (Kind.UNIFORM_LOCATION, (-1.0, 0.0, 1.0))])
    def test_summary_needs_one_component_per_name(self, kind, components):
        with pytest.raises(InputError, match="expected components"):
            SufficientSummary(kind, components, 3)

    @pytest.mark.parametrize("n", [0, -3, 2.5, 3.0, "3", None])
    def test_summary_needs_integer_sample_size(self, n):
        with pytest.raises(InputError, match="sample size"):
            SufficientSummary(Kind.NILE, (1.0, 2.0), n)

    def test_summary_accepts_numpy_integer_sample_size(self):
        assert ancillary(SufficientSummary(Kind.NILE, (1.0, 2.0), np.int64(3))).value == 2.0


class TestEvaluate:
    def test_row_on_one_replicate(self):
        summary = SufficientSummary(Kind.NORMAL_CV, (1.5, 0.5), 4)
        assert summary.evaluate("normal_cv_ratio") == 3.0
        assert summary.evaluate("sample_sd") == 0.5

    def test_passes_c_through(self):
        summary = SufficientSummary(Kind.NORMAL_CV, (1.5, 0.5), 4)
        assert summary.evaluate("khan_linear", 0.5) != summary.evaluate("khan_linear", 1.0)

    @pytest.mark.parametrize("kind,components,name", [
        (Kind.NILE, (1.0, 2.0), "normal_cv_ratio"),
        (Kind.NORMAL_CV, (1.0, 2.0), "nile_product"),
        (Kind.NORMAL_CV, (1.0, 2.0), "nile_inverse_xbar"),
        (Kind.BIVARIATE_GAUSSIAN_CORR, (4.0, 0.0), "uniform_range"),
        # defined on the family, but of names the summary does not hold
        (Kind.UNIFORM_LOCATION, (0.0, 1.0), "sample_mean"),
        (Kind.NORMAL_CV, (1.0, 2.0), "x1")])
    def test_rejects_row_it_cannot_evaluate(self, kind, components, name):
        message = (f"{name} is not defined on a {kind.value} summary"
                   if kind.value in STATISTICS[name].families
                   else f"statistic '{name}' is not defined for family '{kind.value}'")
        with pytest.raises(InputError, match=message):
            SufficientSummary(kind, components, 5).evaluate(name)

    def test_alias_is_the_familys_declared_ancillary(self):
        summary = SufficientSummary(Kind.NILE, (2.0, 3.0), 5)
        assert summary.evaluate("ancillary") == summary.evaluate("nile_product") == 6.0
        with pytest.raises(InputError, match="family 'normal_unit' declares no ancillary"):
            SufficientSummary(Kind.NORMAL_UNIT, (1.0,), 5).evaluate("ancillary")

    def test_unknown_name_raises_input_error(self):
        with pytest.raises(InputError, match="unknown statistic 'bogus'"):
            SufficientSummary(Kind.NILE, (2.0, 3.0), 5).evaluate("bogus")

    @pytest.mark.parametrize("name", ["normal_cv_ratio", "sample_sd", "khan_linear"])
    def test_rejects_sample_size_below_the_rows_min_n(self, name):
        summary = SufficientSummary(Kind.NORMAL_CV, (1.0, 0.5), 1)
        with pytest.raises(InputError, match=f"'{name}' needs n >= 2, got n = 1"):
            summary.evaluate(name)
        assert summary.evaluate("sample_mean") == 1.0

    def test_ancillary_needs_the_rows_min_n(self):
        with pytest.raises(InputError, match="needs n >= 2"):
            ancillary(SufficientSummary(Kind.NORMAL_CV, (1.0, 0.5), 1))


#: Every (statistic, family) pair of the registry.
_ROW_FAMILIES = [(name, token) for name, row in STATISTICS.items() for token in row.families]


@pytest.mark.parametrize("name,token", _ROW_FAMILIES)
def test_n_floor_is_where_reduce_gives_what_the_row_reads(name, token):
    # the floor resolve_statistic derives agrees with what families.reduce drops at n = 1
    family = FAMILIES[token]
    draws = family.draw(0.5, 1.0, np.random.default_rng(0), (3, 1))
    reduced = reduce(family, draws, 1, STATISTICS[name].reads)
    try:
        resolve_statistic(name, token, 1)
        defined = True
    except ValueError as exc:
        assert str(exc) == f"statistic {name!r} needs n >= 2, got n = 1"
        defined = False
    assert defined == (set(reduced) == set(STATISTICS[name].reads))
    resolve_statistic(name, token, 2)  # every row is defined from n = 2


def test_n_floor_of_zero_observations():
    with pytest.raises(ValueError, match=r"^statistic 'sample_mean' needs n >= 1, got n = 0$"):
        resolve_statistic("sample_mean", "nile", 0)


class TestAncillary:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_value_must_be_finite(self, value):
        with pytest.raises(InputError, match="ancillary value must be finite"):
            AncillaryValue(value, StatId.NILE_PRODUCT)

    def test_nile_product(self):
        a = ancillary(SufficientSummary(Kind.NILE, (2.0, 3.0), 5))
        assert a.value == 6.0
        assert a.stat_id is StatId.NILE_PRODUCT

    def test_normal_cv_ratio(self):
        a = ancillary(SufficientSummary(Kind.NORMAL_CV, (1.0, math.sqrt(2.0)), 2))
        assert a.value == pytest.approx(1.0 / math.sqrt(2.0))

    def test_uniform_range(self):
        a = ancillary(SufficientSummary(Kind.UNIFORM_LOCATION, (-0.4, 0.9), 10))
        assert a.value == pytest.approx(1.3)

    def test_degenerate_sample_raises(self):
        with pytest.raises(DegenerateSampleError):
            ancillary(SufficientSummary(Kind.NORMAL_CV, (1.0, 0.0), 5))

    @pytest.mark.parametrize("kind,components", [
        (Kind.BIVARIATE_GAUSSIAN_CORR, (4.0, 0.0)), (Kind.NORMAL_UNIT, (0.3,))])
    def test_family_without_an_ancillary_raises(self, kind, components):
        with pytest.raises(InputError, match="declares no ancillary"):
            ancillary(SufficientSummary(kind, components, 5))

    @given(lam=st.floats(0.01, 100.0), xbar=st.floats(0.01, 50.0),
           ybar=st.floats(0.01, 50.0))
    def test_nile_product_scale_invariant(self, lam, xbar, ybar):
        w = ancillary(SufficientSummary(Kind.NILE, (xbar, ybar), 4)).value
        w2 = ancillary(SufficientSummary(Kind.NILE, (xbar / lam, ybar * lam), 4)).value
        assert w2 == pytest.approx(w, rel=1e-12)

    @given(lam=st.floats(0.01, 100.0))
    @settings(max_examples=30)
    def test_normal_cv_ratio_scale_invariant(self, lam):
        pts = np.array([0.3, 1.1, 2.4, -0.5])
        m = normal_cv(1.0)
        w1 = ancillary(sufficient(_obs(m, pts))).value
        w2 = ancillary(sufficient(_obs(m, lam * pts))).value
        assert w2 == pytest.approx(w1, rel=1e-9)

    @given(t=st.floats(-50.0, 50.0))
    @settings(max_examples=30)
    def test_range_translation_invariant(self, t):
        pts = np.array([0.2, -0.4, 0.9])
        m = uniform_location(0.0)
        w1 = ancillary(sufficient(_obs(m, pts))).value
        w2 = ancillary(sufficient(ObservationSet(pts + t, uniform_location(t)))).value
        assert w2 == pytest.approx(w1, abs=1e-12)


class TestFirstOrderH:
    @pytest.mark.parametrize("x,y,expect", [
        (0.5, -0.5, 2), (2.0, 0.0, 1), (-3.0, 3.0, 0),
        (1.0, 1.0, 2), (-1.0, 5.0, 1),
    ])
    def test_values(self, x, y, expect):
        assert first_order_h(x, y) == expect

    def test_symmetries_on_random_grid(self):
        rng = np.random.default_rng(11)
        for x, y in rng.uniform(-3, 3, size=(1000, 2)):
            h = first_order_h(x, y)
            assert first_order_h(y, x) == h
            assert first_order_h(-x, -y) == h

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            first_order_h(float("nan"), 0.0)


class TestPositiveIndicator:
    def test_values(self):
        assert positive_indicator(0.1) == 1
        assert positive_indicator(-0.1) == 0
        assert positive_indicator(0.0) == 0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, x):
        with pytest.raises(InputError, match="non-finite value"):
            positive_indicator(x)

    def test_mean_is_normal_cdf_constant(self):
        # P(X > 0) = Phi(1/c) regardless of theta
        from scipy.special import ndtr
        from nilelab.families import sample
        rng = np.random.default_rng(12)
        n = 100_000
        for theta in (0.5, 2.0):
            obs = sample(normal_cv(theta, c=1.0), n, rng)
            frac = np.mean(obs.points > 0)
            assert abs(frac - ndtr(1.0)) < 3 * math.sqrt(0.1335 / n)


class TestResiduals:
    def test_plain_drops_last(self):
        r = residuals(_obs(uniform_location(0.0), [1.0, 2.0, 3.0]))
        assert r == pytest.approx([-1.0, 0.0])

    def test_standardized_two_points(self):
        r = residuals(_obs(normal_cv(1.0), [0.0, 2.0]), standardized=True)
        assert r == pytest.approx([-1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    @settings(max_examples=50)
    def test_standardized_sum_zero_unit_sd(self, xs):
        pts = np.asarray(xs)
        if np.std(pts, ddof=1) < 1e-9:
            return
        r = residuals(_obs(uniform_location(0.0), pts - pts.mean()), standardized=True)
        assert abs(r.sum()) < 1e-8 * max(1.0, np.abs(pts).max())
        assert np.std(r, ddof=1) == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_standardized_raises(self):
        with pytest.raises(DegenerateSampleError):
            residuals(_obs(normal_cv(1.0), [1.0, 1.0, 1.0]), standardized=True)

    def test_needs_two_points(self):
        with pytest.raises(InsufficientSampleError):
            residuals(_obs(uniform_location(0.0), [1.0]))

    def test_rejects_a_pair_sample(self):
        with pytest.raises(InputError, match="residuals are defined for scalar samples"):
            residuals(_obs(nile(1.0), [(1.0, 2.0), (3.0, 4.0)]))
