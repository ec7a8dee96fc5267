"""Point estimators for the four families.

Nile estimators are all scale-equivariant: mapping the sufficient pair
(xbar, ybar) to (xbar/lam, lam*ybar) multiplies the estimate by lam.
Any such estimator factors as ybar * h(W) with W = xbar * ybar, so the
module exposes a pluggable ``nile_equivariant`` plus the specific choices
studied here: the MLE h(w) = 1/sqrt(w) and the unbiased h*(w) =
1 / E_1(ybar | W = w).
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gammaln

from .families import InputError, InsufficientSampleError, Kind
from .quadrature import cond_moment

if TYPE_CHECKING:  # statistics imports verify, which imports this module
    from .statistics import SufficientSummary


def _require(summary: SufficientSummary, kind: Kind):
    if summary.kind is not kind:
        raise InputError(f"expected a {kind.value} summary, got {summary.kind.value}")


def nile_mle(summary: SufficientSummary) -> float:
    """sqrt(ybar / xbar), the maximum likelihood estimate."""
    _require(summary, Kind.NILE)
    xbar, ybar = summary.components
    return math.sqrt(ybar / xbar)


def nile_equivariant(summary: SufficientSummary, h) -> float:
    """ybar * h(W) for a user-supplied positive h; exactly scale-equivariant."""
    _require(summary, Kind.NILE)
    xbar, ybar = summary.components
    hw = float(h(xbar * ybar))
    if not (math.isfinite(hw) and hw > 0):
        raise ValueError(f"h must return a positive finite value, got {hw}")
    return ybar * hw


# h*: the unique h making ybar*h(W) unbiased, h*(w) = 1 / E_1(ybar | W = w).
# Direct evaluation needs two adaptive quadratures per call, far too slow for
# Monte Carlo loops, so each sample size gets a lazily built log-log cubic
# spline over a wide w-grid; off-grid arguments fall back to direct
# quadrature.

_GRID_LOG10_LO = -8.0
_LOGW_LO, _LOGW_HI = _GRID_LOG10_LO * math.log(10.0), 6.0 * math.log(10.0)
_GRID_POINTS = 2001

_hstar_tables: dict[int, CubicSpline] = {}
_hstar_lock = threading.Lock()


def _build_table(n: int) -> CubicSpline:
    logw = np.linspace(_LOGW_LO, _LOGW_HI, _GRID_POINTS)
    # rounding in exp() can push the lowest node a hair below the
    # near-singular floor; clamp so the build never warns
    floor = 10.0 ** _GRID_LOG10_LO
    logm = np.array([math.log(cond_moment(1, max(math.exp(t), floor), n))
                     for t in logw])
    return CubicSpline(logw, logm)


def _table_for(n: int) -> CubicSpline:
    table = _hstar_tables.get(n)
    if table is None:
        with _hstar_lock:
            table = _hstar_tables.get(n)
            if table is None:
                table = _build_table(n)
                _hstar_tables[n] = table
    return table


def h_star(w: float, n: int) -> float:
    """Reciprocal of the first conditional moment of ybar given W = w."""
    if not w > 0:
        raise ValueError(f"w must be positive, got {w}")
    return float(h_star_vector([w], n)[0])


def h_star_vector(w: np.ndarray, n: int) -> np.ndarray:
    """Vectorized ``h_star``; w off the spline grid falls back to direct quadrature."""
    w = np.asarray(w, dtype=float)
    logw = np.log(w)
    out = np.empty_like(logw)
    inside = (logw >= _LOGW_LO) & (logw <= _LOGW_HI)
    out[inside] = np.exp(-_table_for(n)(logw[inside]))
    for i in np.flatnonzero(~inside):
        out[i] = 1.0 / cond_moment(1, float(w[i]), n)
    return out


def nile_equivariant_star(summary: SufficientSummary) -> float:
    """The exactly unbiased equivariant estimator ybar * h*(W)."""
    _require(summary, Kind.NILE)
    xbar, ybar = summary.components
    return ybar * h_star(xbar * ybar, summary.n)


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
    _require(summary, Kind.NORMAL_CV)
    a, b = khan_coefficients(summary.n, c)
    xbar, s = summary.components
    return a * xbar + b * s


def pitman_midrange(summary: SufficientSummary) -> float:
    """(min + max) / 2: the best translation-equivariant estimate under squared loss."""
    _require(summary, Kind.UNIFORM_LOCATION)
    lo, hi = summary.components
    return 0.5 * (lo + hi)

