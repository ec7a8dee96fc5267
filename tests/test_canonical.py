import numpy as np
import pytest

from nilelab.canonical import (NotExponentialError, constraint_residual,
                               natural_params)
from nilelab.families import (FAMILIES, InputError, Kind, bivariate_gaussian, nile,
                              normal_cv, uniform_location)
from nilelab.selftest import constraint_selftest


class TestNaturalParams:
    def test_nile(self):
        np_ = natural_params(nile(2.0))
        assert np_.eta == pytest.approx((-2.0, -0.5))
        assert np_.residual == 0.0

    def test_bivariate_gaussian_rho_zero(self):
        np_ = natural_params(bivariate_gaussian(0.0))
        assert np_.eta == pytest.approx((-0.5, 0.0))
        assert np_.residual == 0.0

    def test_normal_cv(self):
        np_ = natural_params(normal_cv(1.0, c=1.0))
        assert np_.eta == pytest.approx((1.0, -0.5))
        assert np_.residual == 0.0

    def test_uniform_rejected(self):
        with pytest.raises(NotExponentialError):
            natural_params(uniform_location(0.0))


class TestConstraintResidual:
    def test_nile_on_curve(self):
        assert constraint_residual(Kind.NILE, (-1.0, -1.0)) == 0.0

    def test_nile_off_curve(self):
        assert constraint_residual(Kind.NILE, (-1.0, -2.0)) == pytest.approx(1.0)

    def test_normal_cv_requires_c(self):
        with pytest.raises(InputError):
            constraint_residual(Kind.NORMAL_CV, (1.0, -0.5))

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            constraint_residual(Kind.NILE, (float("nan"), 1.0))

    def test_bivariate_gaussian_rho_grid(self):
        for rho in np.linspace(-0.9, 0.9, 19):
            res = natural_params(bivariate_gaussian(float(rho))).residual
            assert abs(res) < 1e-12

    @pytest.mark.parametrize("theta", np.geomspace(0.1, 10.0, 50))
    def test_nile_residual_along_curve(self, theta):
        assert abs(natural_params(nile(float(theta))).residual) < 1e-12

    @pytest.mark.parametrize("theta", np.geomspace(0.1, 10.0, 50))
    def test_normal_cv_residual_along_curve(self, theta):
        for c in (0.5, 1.0, 2.0):
            assert abs(natural_params(normal_cv(float(theta), c=c)).residual) < 1e-12

    def test_residual_field_consistent(self):
        m = bivariate_gaussian(0.7)
        np_ = natural_params(m)
        assert np_.residual == constraint_residual(Kind.BIVARIATE_GAUSSIAN_CORR, np_.eta)


class TestConstraintSelftest:
    def test_every_row_passes(self):
        assert constraint_selftest().verdicts == {"residuals-vanish": "pass",
                                                  "parameter-map-injective": "pass"}

    def test_a_natural_map_monotone_in_no_coordinate_fails_injectivity(self, monkeypatch):
        # f = theta + 1/theta falls and then rises over the grid, and
        # (-f, -1/f) stays on the Nile curve eta1 * eta2 = 1
        def folded(theta, c):
            f = theta + 1.0 / theta
            return -f, -1.0 / f

        monkeypatch.setitem(FAMILIES, "nile", FAMILIES["nile"]._replace(natural=folded))
        assert constraint_selftest().verdicts == {"residuals-vanish": "pass",
                                                  "parameter-map-injective": "fail"}
