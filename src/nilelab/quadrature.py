"""Laplace-type integrals on (0, inf) and a modified-Bessel cross-check oracle.

Everything here revolves around

    I(nu, a, b) = int_0^inf z^(nu-1) exp(-a/z - b z) dz,   a, b > 0,

which subsumes the conditional-moment integrals of the Nile problem:
the m-th conditional moment of ybar given the ancillary product W = w
is I(-m, n, n*w) / I(0, n, n*w).

Two deliberately independent evaluation paths are provided:

* ``laplace_integral`` -- adaptive quadrature after the substitution
  z = e^t, on a truncated interval around the integrand's peak.
* ``bessel_k`` -- K_nu(x) by a fixed-node trapezoid rule applied to the
  integral representation K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt,
  combined with the identity I(nu, a, b) = 2 (a/b)^(nu/2) K_nu(2 sqrt(ab)).

Neither path shares code with the other, so each serves as an oracle for
the other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

#: Relative tolerance of the adaptive quadrature.
DEFAULT_TOL = 1e-10

#: Integrand values below this fraction of the peak are truncated away.
TRUNCATION_RATIO = 1e-18

#: Highest conditional-moment order supported.
MAX_MOMENT_ORDER = 6


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""


@dataclass(frozen=True)
class LaplaceIntegralSpec:
    """Parameters of I(nu, a, b) = int_0^inf z^(nu-1) exp(-a/z - b z) dz."""

    nu: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"need a > 0 and b > 0, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def _laplace_scaled(spec: LaplaceIntegralSpec):
    """Evaluate I(nu, a, b) as (scaled_value, log_scale, scaled_abs_err, neval).

    The peak of the t-space integrand is factored out, so scaled_value is
    O(1) even when the integral itself under- or overflows double range.
    """
    nu, a, b = spec.nu, spec.a, spec.b
    # After z = e^t the integrand is exp(g(t)) with g(t) = nu*t - a e^-t - b e^t.
    # g'(t) = 0 at e^t = (nu + sqrt(nu^2 + 4ab)) / (2b).
    root = math.sqrt(nu * nu + 4.0 * a * b)
    top = nu + root
    if top == 0.0:  # nu < 0 and 4ab << nu^2: the sum cancels, this equal form does not
        top = 4.0 * a * b / (root - nu)
    t_star = math.log(top / (2.0 * b))

    def g(t):
        return nu * t - a * math.exp(-t) - b * math.exp(t)

    # Truncate each side, in doubling steps, where exp(g) < TRUNCATION_RATIO * peak.
    g_star = g(t_star)
    cutoff = g_star + math.log(TRUNCATION_RATIO)
    bounds = []
    for side in (-1.0, 1.0):
        step = 1.0
        while g(t_star + side * step) > cutoff:
            step *= 2.0
        bounds.append(t_star + side * step)

    def f(t):
        return math.exp(nu * t - a * math.exp(-t) - b * math.exp(t) - g_star)

    value, abs_err, info = quad(f, *bounds, epsabs=0.0, epsrel=DEFAULT_TOL,
                                limit=200, full_output=True)[:3]
    neval = int(info["neval"])
    if not value > 0:  # the integrand is positive, so quad missed its mass
        raise QuadratureFailure(f"quadrature of I({nu:g}, {a:g}, {b:g}) gave {value:g}")
    if abs_err > 10.0 * DEFAULT_TOL * abs(value):
        raise QuadratureFailure(
            f"relative error {abs_err / abs(value):.3e} exceeds tol {DEFAULT_TOL:.3e}")
    return value, g_star, abs_err, neval


def laplace_integral(spec: LaplaceIntegralSpec) -> QuadratureResult:
    """Adaptive evaluation of I(nu, a, b) with relative tolerance ``DEFAULT_TOL``."""
    value, log_scale, abs_err, neval = _laplace_scaled(spec)
    scale = math.exp(log_scale)
    return QuadratureResult(value * scale, abs_err * scale, neval)


def bessel_k(nu: int, x: float) -> float:
    """K_nu(x) by fixed-node trapezoid on its cosh integral representation.

    Independent of ``laplace_integral`` by construction.  Valid for
    integer nu >= 0 and x >= 1e-3 (smaller x needs an impractically wide
    truncation window and is rejected).
    """
    if nu < 0 or nu != int(nu):
        raise ValueError(f"order must be a nonnegative integer, got {nu}")
    if not x > 0:
        raise ValueError(f"argument must be positive, got {x}")
    if x < 1e-3:
        raise ValueError(f"argument {x} below supported range (x >= 1e-3)")
    if x > 700.0:
        raise ValueError(f"argument {x} too large: integrand underflows")
    nu = int(nu)

    # Truncate where exp(-x cosh t) cosh(nu t) drops 1e-20 below the t=0 value.
    def log_f(t):
        ct = math.cosh(nu * t)
        return -x * math.cosh(t) + (math.log(ct) if ct < 1e300 else nu * t - math.log(2.0))

    cutoff = log_f(0.0) + math.log(1e-20)
    upper = 1.0
    while log_f(upper) > cutoff:
        upper *= 1.5

    h = 1.0 / 32.0
    nsteps = int(math.ceil(upper / h))
    # Even integrand: trapezoid on [0, T] with half weight at t = 0.
    total = 0.5 * math.exp(log_f(0.0))
    for k in range(1, nsteps + 1):
        total += math.exp(log_f(k * h))
    return total * h


def laplace_integral_bessel(nu: float, a: float, b: float) -> float:
    """Closed form I(nu, a, b) = 2 (a/b)^(nu/2) K_nu(2 sqrt(ab)), Bessel path.

    Requires integer |nu| (K is symmetric in its order).
    """
    order = abs(int(round(nu)))
    if abs(nu - round(nu)) > 1e-12:
        raise ValueError("Bessel path requires integer order")
    return 2.0 * (a / b) ** (nu / 2.0) * bessel_k(order, 2.0 * math.sqrt(a * b))


def _check_moment_args(m: int, w: float, n: int):
    if not (isinstance(m, int) and 1 <= m <= MAX_MOMENT_ORDER):
        raise ValueError(f"moment order must be an integer in [1, {MAX_MOMENT_ORDER}], got {m}")
    if not w > 0:
        raise ValueError(f"w must be positive, got {w}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")


def cond_moment(m: int, w: float, n: int) -> float:
    """m-th conditional moment of ybar given W = w at theta = 1, sample size n.

    Evaluated as the ratio I(-m, n, n*w) / I(0, n, n*w) via adaptive
    quadrature at ``DEFAULT_TOL``; equals w^(m/2) K_m(2n sqrt(w)) / K_0(2n sqrt(w)).
    """
    _check_moment_args(m, w, n)
    num, log_num, _, _ = _laplace_scaled(LaplaceIntegralSpec(-float(m), float(n), float(n) * w))
    den, log_den, _, _ = _laplace_scaled(LaplaceIntegralSpec(0.0, float(n), float(n) * w))
    # Ratio in log space: both integrals share the exp(-2n sqrt(w)) decay,
    # which would underflow separately for large n*sqrt(w).
    return (num / den) * math.exp(log_num - log_den)


def cond_moment_bessel(m: int, w: float, n: int) -> float:
    """Closed-form oracle for ``cond_moment`` via the Bessel path."""
    _check_moment_args(m, w, n)
    arg = 2.0 * n * math.sqrt(w)
    return w ** (m / 2.0) * bessel_k(m, arg) / bessel_k(0, arg)


def cond_second_moment_ratio(w: float, n: int) -> float:
    """E(ybar^2 | W=w) / E(ybar | W=w)^2 at theta = 1.

    Equals K_2 K_0 / K_1^2 at argument 2n sqrt(w); its nonconstancy in w is
    the numerical witness that the unbiased equivariant estimator fails the
    conditional-moment condition required of a UMVUE.
    """
    m1 = cond_moment(1, w, n)
    m2 = cond_moment(2, w, n)
    return m2 / (m1 * m1)
