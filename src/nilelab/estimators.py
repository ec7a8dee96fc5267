"""Point estimators for the four families.

Nile estimators are all scale-equivariant: mapping the sufficient pair
(xbar, ybar) to (xbar/lam, lam*ybar) multiplies the estimate by lam.
Any such estimator factors as ybar * h(W) with W = xbar * ybar, so the
module exposes a pluggable ``nile_equivariant`` plus the specific choices
studied here: the MLE h(w) = 1/sqrt(w) and the unbiased h*(w) =
1 / E_1(ybar | W = w).  Each scalar estimator is its ``verify.STATISTICS`` row
evaluated on one summary (``SufficientSummary.evaluate``); the rows call h* and
Khan's (a, b) here.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gammaln, kve

from .families import InputError, InsufficientSampleError
from .quadrature import QuadratureFailure, cond_moment

if TYPE_CHECKING:  # statistics imports verify, which imports this module
    from .statistics import SufficientSummary


def nile_mle(summary: SufficientSummary) -> float:
    """sqrt(ybar / xbar), the maximum likelihood estimate."""
    return summary.evaluate("nile_mle")


def nile_equivariant(summary: SufficientSummary, h) -> float:
    """ybar * h(W) for a user-supplied positive h; exactly scale-equivariant."""
    hw = float(h(summary.evaluate("nile_product")))
    if not (math.isfinite(hw) and hw > 0):
        raise ValueError(f"h must return a positive finite value, got {hw}")
    return summary.components[1] * hw  # ybar


# h*: the unique h making ybar*h(W) unbiased, h*(w) = 1 / E_1(ybar | W = w),
# with E_1(ybar | W = w) = sqrt(w) K_1(x) / K_0(x) at x = 2n sqrt(w).  Each
# sample size gets a log-log cubic spline over a wide w-grid, built on first use
# and cached (threads that miss together each build the same table); its
# nodes come from one vectorised call of scipy's exponentially scaled Bessel
# function kve (the exp(x) scaling cancels in the ratio), which is independent
# of both routes in ``quadrature``, so either can check the table.  A lookup
# indexes its interval directly on the grid, uniform in log w, and sums the
# cubic as scipy's PPoly does: the spline's value bit for bit.  Off-grid
# arguments fall back to direct quadrature.

_GRID_LOG10_LO = -8.0
_LOGW_LO, _LOGW_HI = _GRID_LOG10_LO * math.log(10.0), 6.0 * math.log(10.0)
_GRID_POINTS = 2001
_LOGW_STEP = (_LOGW_HI - _LOGW_LO) / (_GRID_POINTS - 1)

@functools.cache
def _table_for(n: int) -> CubicSpline:
    logw = np.linspace(_LOGW_LO, _LOGW_HI, _GRID_POINTS)
    x = 2.0 * n * np.exp(0.5 * logw)
    logm = 0.5 * logw + np.log(kve(1, x) / kve(0, x))
    resolved = np.isfinite(logm)
    if not resolved.all():  # kve gives NaN once x passes about 1.07e9
        largest = f"{x[resolved].max():g}" if resolved.any() else "none"
        raise QuadratureFailure(
            f"h* table for n = {n}: scipy.special.kve cannot resolve 2n sqrt(w) "
            f"up to {x[-1]:g} (largest resolved argument: {largest})")
    return CubicSpline(logw, logm)


def _spline_at(logw: np.ndarray, n: int) -> np.ndarray:
    """``_table_for(n)(logw)`` bit for bit, every logw in [_LOGW_LO, _LOGW_HI];
    ``logw`` is spent as scratch."""
    spline = _table_for(n)
    x, c = spline.x, spline.c
    # the index from the grid step is off by at most one next to a node; correct it
    # to PPoly's interval x[i] <= logw < x[i + 1], the last closed on the right.
    # Every index is in range: take's "clip" mode only skips the bounds check
    buf = np.subtract(logw, _LOGW_LO)
    buf /= _LOGW_STEP
    i = buf.astype(np.intp)
    np.minimum(i, _GRID_POINTS - 2, out=i)
    i -= logw < np.take(x, i, out=buf, mode="clip")
    i += logw >= np.take(x[1:], i, out=buf, mode="clip")
    np.minimum(i, _GRID_POINTS - 2, out=i)
    dx = np.subtract(logw, np.take(x, i, out=buf, mode="clip"), out=logw)
    total = np.take(c[3], i, out=buf, mode="clip")
    term, power = np.empty_like(dx), np.ones_like(dx)
    for k in (2, 1, 0):  # ((c[3] + c[2] dx) + c[1] dx^2) + c[0] dx^3, as PPoly sums it
        power *= dx
        np.take(c[k], i, out=term, mode="clip")
        term *= power
        total += term
    return total


def h_star(w: float, n: int) -> float:
    """Reciprocal of the first conditional moment of ybar given W = w."""
    return float(h_star_vector([w], n)[0])


def h_star_vector(w: np.ndarray, n: int) -> np.ndarray:
    """Vectorized ``h_star``; w off the spline grid falls back to direct quadrature."""
    if not isinstance(n, (int, np.integer)) or n < 1:  # before a table is built for n
        raise ValueError(f"sample size must be an integer >= 1, got {n!r}")
    w = np.asarray(w, dtype=float)
    valid = (w > 0) & (w < math.inf)  # False at NaN
    if not valid.all():
        raise ValueError(f"w must be finite and positive, got {float(w[~valid][0])}")
    out = np.log(w.ravel())
    inside = (out >= _LOGW_LO) & (out <= _LOGW_HI)
    h = _spline_at(out if inside.all() else out[inside], n)  # spends out only if all inside
    out[inside] = np.exp(np.negative(h, out=h), out=h)
    for i in np.flatnonzero(~inside):
        out[i] = 1.0 / cond_moment(1, float(w.flat[i]), n)
    return out.reshape(w.shape)


def nile_equivariant_star(summary: SufficientSummary) -> float:
    """The exactly unbiased equivariant estimator ybar * h*(W)."""
    return summary.evaluate("nile_star")


def normalcv_mle_from_sums(sum_x, sum_x2, n: int, c: float):
    """Positive root of the likelihood score n c^2 t^2 + t sum_x - sum_x2 = 0.

    Accepts scalars or numpy arrays for (sum_x, sum_x2).
    """
    sum_x = np.asarray(sum_x, dtype=float)
    sum_x2 = np.asarray(sum_x2, dtype=float)
    if np.any(sum_x2 <= 0):
        raise InputError("all-zero sample: MLE undefined")
    disc = np.sqrt(sum_x * sum_x + 4.0 * n * c * c * sum_x2)
    root = (-sum_x + disc) / (2.0 * n * c * c)
    return float(root) if root.ndim == 0 else root


def normalcv_mle(x, c: float) -> float:
    """MLE of theta for a sample from N(theta, (c*theta)^2)."""
    x = np.asarray(x, dtype=float)
    return normalcv_mle_from_sums(float(x.sum()), float(np.sum(x * x)), x.size, c)


def s_mean_factor(n: int) -> float:
    """E[S] / (c*theta) = sqrt(2/(n-1)) Gamma(n/2) / Gamma((n-1)/2)."""
    if n < 2:
        raise InsufficientSampleError("S needs n >= 2")
    return math.sqrt(2.0 / (n - 1)) * math.exp(gammaln(n / 2.0) - gammaln((n - 1) / 2.0))


def khan_coefficients(n: int, c: float) -> tuple[float, float]:
    """Variance-minimizing (a, b) for a*xbar + b*s under a + c*b_n*b = 1.

    Uses E[S] = c*theta*b_n and Var(S) = (c*theta)^2 (1 - b_n^2), with
    xbar and S independent:  minimize a^2/n + b^2 (1 - b_n^2) subject to
    the unbiasedness constraint; the Lagrange solution is
    a = n (1 - b_n^2) / D, b = beta / D with beta = c*b_n and
    D = n (1 - b_n^2) + beta^2.
    """
    bn = s_mean_factor(n)
    beta = c * bn
    d = n * (1.0 - bn * bn) + beta * beta
    return n * (1.0 - bn * bn) / d, beta / d


def khan_linear(summary: SufficientSummary, c: float) -> float:
    """Best unbiased estimator of theta among linear combinations of xbar and s."""
    return summary.evaluate("khan_linear", c)


def pitman_midrange(summary: SufficientSummary) -> float:
    """(min + max) / 2: the best translation-equivariant estimate under squared loss."""
    return summary.evaluate("pitman_midrange")

