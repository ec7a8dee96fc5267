"""Natural parameters of the curved exponential families and their polynomial constraints.

Each of the three exponential families here is "curved": its natural
parameter vector eta = (eta1, eta2) is confined to an algebraic curve.
The map to eta and the constraint polynomial are the ``natural`` and
``constraint`` of the family's ``families.FAMILIES`` row:

    Nile                  eta1 * eta2 - 1 = 0
    BivariateGaussianCorr 2*eta1 - eta2^2 + 4*eta1^2 = 0
    NormalCV              eta1^2 + (2/c^2) * eta2 = 0

For NormalCV, eta1 multiplies sum(x_i) and eta2 multiplies sum(x_i^2):
eta1 = 1/(c^2 theta), eta2 = -1/(2 c^2 theta^2).  The equivalent
convention with swapped coordinates satisfies eta1 + (c^2/2) eta2^2 = 0;
the two constraints describe the same curve.

UniformLocation is not an exponential family (no ``natural``) and is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .families import FAMILIES, FamilyModel, InputError, Kind


class NotExponentialError(ValueError):
    """Requested family has no exponential-family representation."""


@dataclass(frozen=True)
class NaturalParams:
    kind: Kind
    eta: tuple[float, float]
    residual: float


def _curved(kind: Kind):
    family = FAMILIES[kind.value]
    if family.natural is None:
        raise NotExponentialError(f"{kind.value} is not an exponential family")
    return family


def constraint_residual(kind: Kind, eta, c: float | None = None) -> float:
    """Constraint polynomial evaluated at eta; 0 on the parameter curve.

    Products and sums use compensated (fsum) accumulation so on-curve
    residuals stay at the 1e-12 level even for extreme parameters.
    """
    e1, e2 = float(eta[0]), float(eta[1])
    if not (math.isfinite(e1) and math.isfinite(e2)):
        raise InputError("eta must be finite")
    return _curved(kind).constraint(e1, e2, c)


def natural_params(model: FamilyModel) -> NaturalParams:
    """Map a model's parameter to its natural parameters, with residual attached."""
    eta = _curved(model.kind).natural(model.param, model.c)
    return NaturalParams(kind=model.kind, eta=eta,
                         residual=constraint_residual(model.kind, eta, model.c))
