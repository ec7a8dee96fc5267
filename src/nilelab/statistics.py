"""Sufficient statistics, ancillary statistics, and first-order ancillaries.

The scalar functions are the Monte Carlo engine evaluated on one replicate:
``sufficient`` runs the family's ``families.FAMILIES`` reducer on the sample,
and ``SufficientSummary.evaluate`` (with ``ancillary``, ``first_order_h`` and
``positive_indicator``) evaluates a ``verify.STATISTICS`` entry on length-1 arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .families import (FAMILIES, DegenerateSampleError, InputError,  # noqa: F401 (re-export)
                       InsufficientSampleError, Kind, ObservationSet, reduce)
from .verify import STATISTICS, resolve_statistic


#: One member per declared ``ancillary`` of a ``FAMILIES`` row, in row order.
StatId = enum.Enum("StatId", [(name.upper(), name) for name in dict.fromkeys(
    f.ancillary for f in FAMILIES.values() if f.ancillary is not None)], module=__name__)


@dataclass(frozen=True)
class SufficientSummary:
    """Minimal sufficient statistic value for one sample: the reduced arrays
    ``families.FAMILIES[kind.value].sufficient`` names, in that order
    (``s`` is the n-1 divisor standard deviation) of ``n`` observations."""

    kind: Kind
    components: tuple
    n: int

    def __post_init__(self):
        family = FAMILIES[self.kind.value]
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise InputError(f"sample size must be an integer >= 1, got {self.n!r}")
        if len(self.components) != len(family.sufficient):
            raise InputError(f"{self.kind.value}: expected components {family.sufficient}, "
                             f"got {len(self.components)} values")
        family.check_summary(self.components)

    def evaluate(self, name: str, c: float = 1.0) -> float:
        """The engine statistic ``name`` (``ancillary``: the family's declared one) on
        this summary; InputError unless ``verify.resolve_statistic`` finds its row at
        this family and sample size, and the row reads only this family's summary."""
        try:
            row = resolve_statistic(name, self.kind.value, self.n)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        names = FAMILIES[self.kind.value].sufficient
        if not set(row.reads) <= set(names):
            raise InputError(f"{name} is not defined on a {self.kind.value} summary")
        return _evaluate(row, dict(zip(names, self.components)), self.n, c)


@dataclass(frozen=True)
class AncillaryValue:
    value: float
    stat_id: StatId

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InputError("ancillary value must be finite")


def _evaluate(row, values: dict, n: int = 1, c: float = 1.0) -> float:
    """The engine statistic ``row`` on one replicate with reduced ``values``."""
    sim = {k: np.array([v], dtype=float) for k, v in values.items()}
    return float(row.compute(sim, math.nan, n, c)[0])


def sufficient(obs: ObservationSet) -> SufficientSummary:
    """Minimal sufficient statistic: the family's reducer on one replicate."""
    kind = obs.model.kind
    family = FAMILIES[kind.value]
    pts = obs.points[None]
    reduced = reduce(family, (pts[..., 0], pts[..., 1]) if family.pairs else pts, obs.n,
                     family.sufficient)
    if not set(family.sufficient) <= set(reduced):
        raise InsufficientSampleError(
            f"{kind.value}: sufficient statistic {family.sufficient} is undefined at n = {obs.n}")
    return SufficientSummary(kind, tuple(float(reduced[k][0]) for k in family.sufficient), obs.n)


def ancillary(summary: SufficientSummary) -> AncillaryValue:
    """The family's declared ancillary statistic, as a function of the summary."""
    family = FAMILIES[summary.kind.value]
    if family.ancillary is None:
        raise InputError(f"no scalar ancillary defined for {summary.kind}")
    value = summary.evaluate(family.ancillary)
    if not math.isfinite(value):
        raise DegenerateSampleError(f"{family.ancillary} = {value}: degenerate sample")
    return AncillaryValue(value, StatId(family.ancillary))


def first_order_h(x: float, y: float) -> int:
    """1{|x|<=1} + 1{|y|<=1}; symmetric in (x,y) and under joint sign flip."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InputError("non-finite point")
    return int(_evaluate(STATISTICS["first_order_h"], {"x": x, "y": y}))


def positive_indicator(x: float) -> int:
    """1 if x > 0 else 0."""
    if not math.isfinite(x):
        raise InputError("non-finite value")
    return int(_evaluate(STATISTICS["positive_indicator"], {"xbar": x}))


def residuals(obs: ObservationSet, standardized: bool = False) -> np.ndarray:
    """Residuals about the sample mean.

    Plain: the first n-1 residuals x_i - xbar (a maximal invariant for a
    location family).  Standardized: all n values (x_i - xbar)/s with the
    n-1 divisor s.
    """
    pts = np.asarray(obs.points, dtype=float)
    if pts.ndim != 1:
        raise InputError("residuals are defined for scalar samples")
    n = pts.shape[0]
    if n < 2:
        raise InsufficientSampleError("residuals need n >= 2")
    r = pts - pts.mean()
    if not standardized:
        return r[:-1]
    s = float(np.std(pts, ddof=1))
    if s == 0.0:
        raise DegenerateSampleError("s = 0: standardized residuals undefined")
    return r / s
