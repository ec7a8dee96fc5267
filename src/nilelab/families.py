"""Population models: densities, parameter domains, and exact samplers.

Four families share the same incomplete-minimal-sufficient-statistic
structure studied by the rest of the package:

* ``Nile``                -- f(x, y) = exp(-(x*theta + y/theta)) on the
                             positive quadrant, theta > 0.
* ``BivariateGaussianCorr`` -- unit-variance bivariate normal with
                             correlation rho as the only parameter.
* ``NormalCV``            -- N(theta, (c*theta)^2) with theta > 0 and a
                             known coefficient of variation c.
* ``UniformLocation``     -- U(theta - 1, theta + 1), theta real.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class Kind(enum.Enum):
    NILE = "nile"
    BIVARIATE_GAUSSIAN_CORR = "bivariate_gaussian_corr"
    NORMAL_CV = "normal_cv"
    UNIFORM_LOCATION = "uniform_location"


#: Families whose observations are (x, y) pairs rather than scalars.
PAIR_KINDS = frozenset({Kind.NILE, Kind.BIVARIATE_GAUSSIAN_CORR})


class DomainError(ValueError):
    """Parameter outside the family's domain."""


class InputError(ValueError):
    """Invalid observation or argument."""


@dataclass(frozen=True)
class FamilyModel:
    """A fully specified population.

    ``theta`` is the scalar parameter for Nile / NormalCV / UniformLocation;
    ``rho`` is used instead for BivariateGaussianCorr.  ``c`` is the known
    coefficient-of-variation constant of NormalCV (default 1.0).
    """

    kind: Kind
    theta: float = field(default=float("nan"))
    rho: float = field(default=float("nan"))
    c: float = 1.0

    def __post_init__(self):
        if self.kind in (Kind.NILE, Kind.NORMAL_CV):
            if not (math.isfinite(self.theta) and self.theta > 0):
                raise DomainError(f"{self.kind.value}: theta must be finite and > 0, got {self.theta}")
        elif self.kind is Kind.UNIFORM_LOCATION:
            if not math.isfinite(self.theta):
                raise DomainError(f"uniform_location: theta must be finite, got {self.theta}")
        elif self.kind is Kind.BIVARIATE_GAUSSIAN_CORR:
            if not (math.isfinite(self.rho) and -1.0 < self.rho < 1.0):
                raise DomainError(f"bivariate_gaussian_corr: rho must lie in (-1, 1), got {self.rho}")
        if self.kind is Kind.NORMAL_CV and not (math.isfinite(self.c) and self.c > 0):
            raise DomainError(f"normal_cv: c must be finite and > 0, got {self.c}")


@dataclass(frozen=True)
class ObservationSet:
    """An i.i.d. sample tagged with its generating model and RNG provenance.

    ``points`` has shape (n, 2) for pair families and (n,) for scalar ones.
    """

    points: np.ndarray
    model: FamilyModel
    seed_trace: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.shape[0] < 1:
            raise InputError("observation set must be nonempty")
        if self.model.kind in PAIR_KINDS:
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise InputError("pair family requires points of shape (n, 2)")
        elif pts.ndim != 1:
            raise InputError("scalar family requires points of shape (n,)")
        if not np.all(np.isfinite(pts)):
            raise InputError("non-finite observation")
        if self.model.kind is Kind.NILE and not np.all(pts > 0):
            raise InputError("Nile observations must have both coordinates > 0")

    @property
    def n(self) -> int:
        return self.points.shape[0]


def density(model: FamilyModel, point) -> float:
    """Density of one observation; 0 outside the support.

    ``point`` is an (x, y) pair for Nile / BivariateGaussianCorr and a
    scalar otherwise.
    """
    if model.kind in PAIR_KINDS:
        x, y = float(point[0]), float(point[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError("non-finite point")
        if model.kind is Kind.NILE:
            if x <= 0 or y <= 0:
                return 0.0
            return math.exp(-(x * model.theta + y / model.theta))
        rho = model.rho
        q = (x * x + y * y - 2.0 * rho * x * y) / (2.0 * (1.0 - rho * rho))
        return math.exp(-q) / (2.0 * math.pi * math.sqrt(1.0 - rho * rho))
    x = float(point)
    if not math.isfinite(x):
        raise InputError("non-finite point")
    if model.kind is Kind.NORMAL_CV:
        s = model.c * model.theta
        z = (x - model.theta) / s
        return math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * s)
    # uniform on [theta - 1, theta + 1]
    return 0.5 if abs(x - model.theta) <= 1.0 else 0.0


def sample(model: FamilyModel, n: int, rng: np.random.Generator,
           seed_trace: str = "") -> ObservationSet:
    """Draw n i.i.d. observations with the family's exact sampler in ``SAMPLERS``."""
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    param = model.rho if model.kind is Kind.BIVARIATE_GAUSSIAN_CORR else model.theta
    draws = SAMPLERS[model.kind.value](param, model.c, rng, n)
    pts = np.column_stack(draws) if model.kind in PAIR_KINDS else draws
    return ObservationSet(points=pts, model=model, seed_trace=seed_trace)


def _draw_bivariate_gaussian(rho, c, rng, size):
    z1 = rng.standard_normal(size)
    return z1, rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(size)


#: One vectorized exact sampler per family, keyed by engine token, used by both
#: ``sample`` and the Monte Carlo engine: ``draw(theta, c, rng, size)`` returns
#: i.i.d. observations of shape ``size`` (an ``(x, y)`` pair of arrays for pair
#: families; theta is rho for the correlation family).  "normal_unit" is the
#: N(theta, 1) positive-control fixture of the engine.
SAMPLERS = {
    "nile": lambda theta, c, rng, size: (rng.exponential(1.0 / theta, size),
                                         rng.exponential(theta, size)),
    "bivariate_gaussian_corr": _draw_bivariate_gaussian,
    "normal_cv": lambda theta, c, rng, size: theta + c * theta * rng.standard_normal(size),
    "uniform_location": lambda theta, c, rng, size: rng.uniform(theta - 1.0, theta + 1.0, size),
    "normal_unit": lambda theta, c, rng, size: theta + rng.standard_normal(size),
}


def nile(theta: float) -> FamilyModel:
    return FamilyModel(kind=Kind.NILE, theta=theta)


def bivariate_gaussian(rho: float) -> FamilyModel:
    return FamilyModel(kind=Kind.BIVARIATE_GAUSSIAN_CORR, rho=rho)


def normal_cv(theta: float, c: float = 1.0) -> FamilyModel:
    return FamilyModel(kind=Kind.NORMAL_CV, theta=theta, c=c)


def uniform_location(theta: float) -> FamilyModel:
    return FamilyModel(kind=Kind.UNIFORM_LOCATION, theta=theta)
