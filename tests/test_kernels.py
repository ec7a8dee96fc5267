"""The chunk kernels scale and shift the arrays they create in place.

Each kernel ``run_grid`` runs on a chunk (the direct samplers, the draw rows,
``first_order_h`` and fisher-info's blocked score) must equal, bit for bit,
the expression it replaced, which is kept here as the reference: on the
same seeded Generator both draw the same stream, and the in-place forms
make the same operations in the same order, up to commutative swaps.
Overflows to inf and underflows to 0 must match as well.
"""

import math

import numpy as np
import pytest

from nilelab.families import FAMILIES
from nilelab.verify import _SCORE_BLOCK, STATISTICS, _scaled_score, _score

SEED = 2032
REPLICATES = 257
NS = (1, 2, 5, 10)
THETAS = (1e-200, 1e-80, 0.5, 1.0, 3.0, 1e80, 1e200)
CS = (0.3, 1.0)
RHOS = (-0.9, -1e-80, 0.0, 1e-80, 0.5, 0.99)


def _nile_reference(theta, c, rng, size, n):
    return {"xbar": rng.standard_gamma(n, size) / (n * theta),
            "ybar": rng.standard_gamma(n, size) * theta / n}


def _normal_cv_reference(theta, c, rng, size, n):
    sd = c * theta
    xbar = theta + (sd / math.sqrt(n)) * rng.standard_normal(size)
    out = {"xbar": xbar, "sum_x": n * xbar, "sum_x2": n * xbar * xbar}
    if n >= 2:
        s = sd * np.sqrt(rng.chisquare(n - 1, size) / (n - 1))
        out.update(s=s, sum_x2=(n - 1) * s * s + out["sum_x2"],
                   degenerate=s <= np.spacing(np.abs(xbar)))
    return out


def _normal_cv_draw_reference(theta, c, rng, size):
    return theta + c * theta * rng.standard_normal(size)


def _bivariate_reference(rho, c, rng, size):
    z1 = rng.standard_normal(size)
    return z1, rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(size)


def _first_order_h_reference(sim):
    return (np.abs(sim["x"]) <= 1.0).astype(float) + (np.abs(sim["y"]) <= 1.0).astype(float)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _both(kernel, reference, param, c, *size):
    """``kernel`` and ``reference`` each on its own Generator seeded alike."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return (kernel(param, c, np.random.default_rng(SEED), *size),
                reference(param, c, np.random.default_rng(SEED), *size))


@pytest.mark.parametrize("token,reference", [("nile", _nile_reference),
                                             ("normal_cv", _normal_cv_reference)])
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("c", CS)
def test_direct_sampler_matches_its_former_expression(token, reference, n, theta, c):
    got, want = _both(FAMILIES[token].direct.draw, reference, theta, c, REPLICATES, n)
    assert got.keys() == want.keys()
    for name in want:
        assert _same_bits(got[name], want[name]), name


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("c", CS)
def test_normal_cv_draw_matches_its_former_expression(n, theta, c):
    got, want = _both(FAMILIES["normal_cv"].draw, _normal_cv_draw_reference,
                      theta, c, (REPLICATES, n))
    assert _same_bits(got, want)


def test_the_cases_reach_inf_and_zero():
    # the grid is wide enough that the references overflow and underflow
    with np.errstate(over="ignore", under="ignore"):
        big = _normal_cv_reference(1e200, 1.0, np.random.default_rng(SEED), REPLICATES, 5)
        small = _normal_cv_reference(1e-200, 1.0, np.random.default_rng(SEED), REPLICATES, 5)
    assert np.isinf(big["sum_x2"]).all()
    assert (small["sum_x2"] == 0.0).all()


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("rho", RHOS)
def test_bivariate_draw_and_first_order_h_match_their_former_expressions(n, rho):
    (x, y), (x_ref, y_ref) = _both(FAMILIES["bivariate_gaussian_corr"].draw,
                                   _bivariate_reference, rho, 1.0, (REPLICATES, n))
    assert _same_bits(x, x_ref) and _same_bits(y, y_ref)
    sim = {"x": x[:, 0], "y": y[:, 0]}  # the views the family's reducer gives
    h = STATISTICS["first_order_h"].compute(sim, n, 1.0)
    assert _same_bits(h, _first_order_h_reference(sim))
    assert _same_bits(sim["x"], x_ref[:, 0]) and _same_bits(sim["y"], y_ref[:, 0])


@pytest.mark.parametrize("length", [0, 1, _SCORE_BLOCK - 1, _SCORE_BLOCK, _SCORE_BLOCK + 1,
                                    2 * _SCORE_BLOCK + 17])
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("c", CS)
def test_scaled_score_matches_the_whole_array_score(length, theta, c):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        x1 = _normal_cv_draw_reference(theta, c, np.random.default_rng(SEED), length)
        before = x1.copy()
        got = _scaled_score(x1, theta, c)
        want = theta * _score(x1, theta, c)
    assert _same_bits(got, want)
    assert _same_bits(x1, before)  # the sample is read, not written
