"""Population models: every fact of a family is in its one ``FAMILIES`` row.

Five families, the first four with the incomplete minimal sufficient
statistic studied by the rest of the package:

* ``Nile``                -- f(x, y) = exp(-(x*theta + y/theta)) on the
                             positive quadrant, theta > 0.
* ``BivariateGaussianCorr`` -- unit-variance bivariate normal with
                             correlation rho as the only parameter.
* ``NormalCV``            -- N(theta, (c*theta)^2) with theta > 0 and a
                             known coefficient of variation c.
* ``UniformLocation``     -- U(theta - 1, theta + 1), theta real.
* ``NormalUnit``          -- N(theta, 1), the positive control (complete).
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Parameter outside the family's domain."""


class InputError(ValueError):
    """Invalid observation or argument."""


class DegenerateSampleError(ValueError):
    """All observations equal where a positive spread is required (s = 0)."""


class InsufficientSampleError(ValueError):
    """Sample too small for the requested statistic."""


@dataclass(frozen=True)
class FamilyModel:
    """A fully specified population.

    ``param`` is the family's scalar parameter (rho for the correlation family,
    theta for the others).  ``c`` is the known coefficient of variation of
    NormalCV (default 1.0).
    """

    kind: Kind
    param: float = float("nan")
    c: float = 1.0

    def __post_init__(self):
        FAMILIES[self.kind.value].check(self.param, self.c)


@dataclass(frozen=True)
class ObservationSet:
    """An i.i.d. sample tagged with its generating model.

    ``points`` has shape (n, 2) for pair families and (n,) for scalar ones.
    """

    points: np.ndarray
    model: FamilyModel

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.shape[0] < 1:
            raise InputError("observation set must be nonempty")
        family = FAMILIES[self.model.kind.value]
        if family.pairs:
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise InputError("pair family requires points of shape (n, 2)")
        elif pts.ndim != 1:
            raise InputError("scalar family requires points of shape (n,)")
        if not np.all(np.isfinite(pts)):
            raise InputError("non-finite observation")
        family.check_points(pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def density(model: FamilyModel, point) -> float:
    """Density of one observation (the row's ``density``); 0 outside the support.

    ``point`` is an (x, y) pair for a ``pairs`` family and a scalar otherwise.
    """
    family = FAMILIES[model.kind.value]
    pt = np.asarray(point, dtype=float)
    if pt.shape != ((2,) if family.pairs else ()):
        raise InputError(f"{model.kind.value}: a point is "
                         f"{'an (x, y) pair' if family.pairs else 'one scalar'}, "
                         f"got shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise InputError("non-finite point")
    return family.density(*pt.reshape(-1).tolist(), model.param, model.c)


def sample(model: FamilyModel, n: int, rng: np.random.Generator) -> ObservationSet:
    """Draw n i.i.d. observations with the family's exact sampler in ``FAMILIES``."""
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    family = FAMILIES[model.kind.value]
    draws = family.draw(model.param, model.c, rng, n)
    pts = np.column_stack(draws) if family.pairs else draws
    return ObservationSet(points=pts, model=model)


#: One row per family.  ``draw(theta, c, rng, size)``: i.i.d. observations of
#: shape ``size`` (a pair of arrays when ``pairs``; theta is rho for the
#: correlation family).  ``reduce``: reduced name -> function of the draws of
#: shape (replicates, observations) giving one value per replicate (see
#: ``reduce``); ``degenerate`` marks replicates to drop.  ``check(theta, c)``:
#: DomainError off the domain.  ``sufficient``: the reduced names of the minimal
#: sufficient statistic.  ``ancillary``: the ``verify.STATISTICS`` entry the
#: alias "ancillary" means, or None.  ``density(x[, y], theta, c)`` of one
#: finite observation.  ``natural(theta, c)`` -> (eta1, eta2) and
#: ``constraint(eta1, eta2, c)``, 0 on their curve: None unless exponential;
#: ``curve_grid(k)``: the selftest's grid.  ``check_points`` and
#: ``check_summary``: InputError for impossible observations and sufficient
#: values.  ``first_order_grid`` and ``contrast`` (an exact zero-mean
#: statistic, or None): CLI defaults.
#: ``single_pair``: one pair per engine replicate.  ``direct``: a ``Direct``
#: sampler of reduced names that skips the observations, or None.
Family = namedtuple(
    "Family", "draw reduce check sufficient ancillary density natural constraint curve_grid "
    "check_points check_summary first_order_grid contrast pairs single_pair direct",
    defaults=(None, None, lambda k: np.geomspace(0.1, 10.0, k), lambda values: None,
              lambda values: None, (0.5, 1.0, 2.0), None, False, False, None))

#: An exact sampler of the reduced arrays ``names`` (the minimal sufficient
#: statistic and functions of it) with the same law as ``reduce`` of ``draw``:
#: ``draw(theta, c, rng, size, n)`` -> name -> array of shape ``size``, plus a
#: ``degenerate`` mask where a replicate's observations would have no spread.
Direct = namedtuple("Direct", "names draw")

#: Reduced names defined only for two observations or more.
TWO_OR_MORE = {"diff12", "s", "degenerate"}


def reduce(family: Family, draws, n: int, names) -> dict:
    """The reduced arrays ``names`` of ``draws`` (the row's ``draw`` at shape
    (replicates, n)); a name the row cannot give at this ``n`` is left out."""
    return {k: family.reduce[k](draws) for k in names
            if k in family.reduce and (n >= 2 or k not in TWO_OR_MORE)}


def _domain(token, rule, inside, name="theta"):
    def check(param, c):
        if not (math.isfinite(param) and inside(param)):
            raise DomainError(f"{token}: {name} must {rule}, got {param}")
    return check


def _reject(bad, message):
    def check(values):
        if bad(values):
            raise InputError(message)
    return check


_FINITE = ("be finite", lambda t: True)
_POSITIVE = ("be finite and > 0", lambda t: t > 0)


def _check_normal_cv(theta, c):
    _domain("normal_cv", *_POSITIVE)(theta, c)
    _domain("normal_cv", *_POSITIVE, name="c")(c, c)


def _draw_bivariate_gaussian(rho, c, rng, size):
    z1 = rng.standard_normal(size)
    y = rng.standard_normal(size)
    y *= math.sqrt(1.0 - rho * rho)
    y += rho * z1
    return z1, y


def _draw_normal_cv(theta, c, rng, size):
    x = rng.standard_normal(size)
    x *= c * theta
    x += theta
    return x


def _density_normal(x, mean, sd):
    z = (x - mean) / sd
    return math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sd)


def _constraint_normal_cv(e1, e2, c):
    if c is None:
        raise InputError("NormalCV constraint needs the known constant c")
    return math.fsum([e1 * e1, (2.0 / (c * c)) * e2])


def _sd(x):
    return x.std(axis=1, ddof=1)


_SCALAR = {"xbar": lambda x: x.mean(axis=1), "x1": lambda x: x[:, 0],
           "diff12": lambda x: x[:, 0] - x[:, 1]}


def _direct_nile(theta, c, rng, size, n):
    # the mean of n Exp(rate t) observations is Gamma(n, scale 1 / (n t))
    xbar = rng.standard_gamma(n, size)
    xbar /= n * theta
    ybar = rng.standard_gamma(n, size)
    ybar *= theta
    ybar /= n
    return {"xbar": xbar, "ybar": ybar}


def _direct_normal_cv(theta, c, rng, size, n):
    """xbar ~ N(theta, (c theta)^2 / n) and, independent of it (Cochran),
    (n - 1) s^2 / (c theta)^2 ~ chi2(n - 1); the sums follow from the two.
    A replicate is degenerate where s is below the spacing of the floats at
    xbar: there the n observations would round to one value."""
    sd = c * theta
    xbar = rng.standard_normal(size)
    xbar *= sd / math.sqrt(n)
    xbar += theta
    sum_x = xbar * n
    sum_x2 = sum_x * xbar
    out = {"xbar": xbar, "sum_x": sum_x, "sum_x2": sum_x2}
    if n >= 2:
        s = rng.chisquare(n - 1, size)
        s /= n - 1
        np.sqrt(s, out=s)
        s *= sd
        within = s * (n - 1)
        within *= s
        sum_x2 += within
        spacing = np.abs(xbar)
        np.spacing(spacing, out=spacing)
        out.update(s=s, degenerate=s <= spacing)
    return out


def _direct_uniform(theta, c, rng, size, n):
    """The largest of n U(0, 1) is U^(1/n); given it, the smallest of the
    other n - 1 is hi (1 - V^(1/(n - 1))); both are mapped onto (theta - 1, theta + 1)."""
    hi = rng.random(size) ** (1.0 / n)
    lo = hi * (1.0 - rng.random(size) ** (1.0 / (n - 1))) if n >= 2 else hi
    return {"lo": (theta - 1.0) + 2.0 * lo, "hi": (theta - 1.0) + 2.0 * hi}


#: Keyed by family token.  "normal_unit" is the N(theta, 1) positive-control
#: fixture of the engine (complete sufficient statistic, so every
#: UMVUE-condition check must come out clean on it).
FAMILIES = {
    "nile": Family(
        lambda theta, c, rng, size: (rng.exponential(1.0 / theta, size),
                                     rng.exponential(theta, size)),
        {"xbar": lambda d: d[0].mean(axis=1), "ybar": lambda d: d[1].mean(axis=1)},
        _domain("nile", *_POSITIVE), ("xbar", "ybar"), "nile_product",
        density=lambda x, y, theta, c: (math.exp(-(x * theta + y / theta))
                                        if x > 0 and y > 0 else 0.0),
        natural=lambda theta, c: (-theta, -1.0 / theta),
        constraint=lambda e1, e2, c: math.fsum([e1 * e2, -1.0]),
        check_points=_reject(lambda pts: not np.all(pts > 0),
                             "Nile observations must have both coordinates > 0"),
        check_summary=_reject(lambda s: not (0 < s[0] < math.inf and 0 < s[1] < math.inf),
                              "Nile sufficient components must be finite and positive"),
        pairs=True, direct=Direct(("xbar", "ybar"), _direct_nile)),
    "bivariate_gaussian_corr": Family(
        _draw_bivariate_gaussian,
        {"x": lambda d: d[0][:, 0], "y": lambda d: d[1][:, 0],
         "sum_sq": lambda d: np.sum(d[0] * d[0] + d[1] * d[1], axis=1),
         "sum_xy": lambda d: np.sum(d[0] * d[1], axis=1)},
        _domain("bivariate_gaussian_corr", "lie in (-1, 1)", lambda r: -1.0 < r < 1.0, "rho"),
        ("sum_sq", "sum_xy"), None,
        density=lambda x, y, rho, c: (math.exp(-(x * x + y * y - 2.0 * rho * x * y)
                                               / (2.0 * (1.0 - rho * rho)))
                                      / (2.0 * math.pi * math.sqrt(1.0 - rho * rho))),
        natural=lambda rho, c: (-1.0 / (2.0 * (1.0 - rho * rho)), rho / (1.0 - rho * rho)),
        constraint=lambda e1, e2, c: math.fsum([2.0 * e1, -e2 * e2, 4.0 * e1 * e1]),
        curve_grid=lambda k: np.linspace(-0.9, 0.9, k),
        first_order_grid=(-0.9, 0.0, 0.9), pairs=True, single_pair=True),
    "normal_cv": Family(
        _draw_normal_cv,
        {**_SCALAR, "sum_x": lambda x: x.sum(axis=1), "sum_x2": lambda x: np.sum(x * x, axis=1),
         "s": _sd, "degenerate": lambda x: _sd(x) == 0},
        _check_normal_cv, ("xbar", "s"), "normal_cv_ratio",
        density=lambda x, theta, c: _density_normal(x, theta, c * theta),
        natural=lambda theta, c: (1.0 / (c * c * theta), -1.0 / (2.0 * (c * c) * theta ** 2)),
        constraint=_constraint_normal_cv,
        check_summary=_reject(lambda s: not (math.isfinite(s[0]) and 0 <= s[1] < math.inf),
                              "NormalCV needs a finite xbar and a finite s >= 0"),
        direct=Direct(("xbar", "s", "sum_x", "sum_x2"), _direct_normal_cv)),
    "uniform_location": Family(
        lambda theta, c, rng, size: rng.uniform(theta - 1.0, theta + 1.0, size),
        {**_SCALAR, "lo": lambda x: x.min(axis=1), "hi": lambda x: x.max(axis=1)},
        _domain("uniform_location", *_FINITE), ("lo", "hi"), "uniform_range",
        density=lambda x, theta, c: 0.5 if abs(x - theta) <= 1.0 else 0.0,
        check_summary=_reject(
            lambda s: not (math.isfinite(s[0]) and math.isfinite(s[1]) and s[0] <= s[1]),
            "UniformLocation requires a finite min <= max"),
        direct=Direct(("lo", "hi"), _direct_uniform)),
    "normal_unit": Family(
        lambda theta, c, rng, size: theta + rng.standard_normal(size),
        _SCALAR, _domain("normal_unit", *_FINITE), ("xbar",), None,
        density=lambda x, theta, c: _density_normal(x, theta, 1.0), contrast="diff12"),
}

#: One member per ``FAMILIES`` row, named after its token (``Kind.NILE`` is "nile").
Kind = enum.Enum("Kind", [(token.upper(), token) for token in FAMILIES], module=__name__)


def nile(theta: float) -> FamilyModel:
    return FamilyModel(Kind.NILE, theta)


def bivariate_gaussian(rho: float) -> FamilyModel:
    return FamilyModel(Kind.BIVARIATE_GAUSSIAN_CORR, rho)


def normal_cv(theta: float, c: float = 1.0) -> FamilyModel:
    return FamilyModel(Kind.NORMAL_CV, theta, c)


def uniform_location(theta: float) -> FamilyModel:
    return FamilyModel(Kind.UNIFORM_LOCATION, theta)
