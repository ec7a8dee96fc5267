"""Deterministic (RNG-free) verification suites.

Two suites that need no Monte Carlo: agreement of the two independent
Laplace-integral evaluation paths, and the polynomial constraint
residuals of the curved exponential families: every ``families.FAMILIES``
row with a ``natural`` map, swept over its ``curve_grid``.
"""

from __future__ import annotations

import numpy as np

from . import canonical
from .families import FAMILIES, FamilyModel, Kind
from .quadrature import (LaplaceIntegralSpec, bessel_k, laplace_integral,
                         laplace_integral_bessel)
from .verify import GridPointResult, VerificationReport

QUADRATURE_REL_TOL = 1e-8
RECURRENCE_REL_TOL = 1e-10
CONSTRAINT_TOL = 1e-12
CONSTRAINT_GRID_POINTS = 50

#: Cross-validation sweep: order, sample size, ancillary value.
SWEEP_ORDERS = range(-3, 4)
SWEEP_N = range(1, 11)
SWEEP_W = (0.1, 0.25, 1.0, 4.0, 10.0)


def quadrature_selftest() -> VerificationReport:
    """Adaptive quadrature vs the Bessel integral-representation oracle.

    Checks I(nu, n, n*w) over the full sweep plus the three-term Bessel
    recurrence K_{v+1}(x) = K_{v-1}(x) + (2v/x) K_v(x).
    """
    worst_rel = 0.0
    worst_case = None
    points = []
    for nu in SWEEP_ORDERS:
        for n in SWEEP_N:
            for w in SWEEP_W:
                a, b = float(n), float(n) * w
                got = laplace_integral(LaplaceIntegralSpec(float(nu), a, b)).value
                want = laplace_integral_bessel(float(nu), a, b)
                rel = abs(got - want) / abs(want)
                if rel > worst_rel:
                    worst_rel = rel
                    worst_case = (nu, n, w)
                    points = [GridPointResult(
                        param=w, estimates={"laplace": got, "bessel": want},
                        statistics={"nu": nu, "n": n, "rel_err": rel})]
    worst_rec = 0.0
    for x in np.linspace(0.5, 20.0, 40):
        for nu in (1, 2, 3):
            lhs = bessel_k(nu + 1, float(x))
            rhs = bessel_k(nu - 1, float(x)) + (2.0 * nu / x) * bessel_k(nu, float(x))
            worst_rec = max(worst_rec, abs(lhs - rhs) / abs(lhs))
    verdicts = {
        "laplace-bessel-agreement": "pass" if worst_rel < QUADRATURE_REL_TOL else "fail",
        "bessel-recurrence": "pass" if worst_rec < RECURRENCE_REL_TOL else "fail",
    }
    return VerificationReport(
        claim="two independent Laplace-integral evaluation paths agree",
        config={"orders": list(SWEEP_ORDERS), "n": list(SWEEP_N), "w": list(SWEEP_W)},
        grid=list(SWEEP_W), points=points,
        statistics={"worst_rel_err": worst_rel,
                    "worst_case_nu_n_w": list(worst_case),
                    "worst_recurrence_rel_err": worst_rec},
        verdicts=verdicts, seed=0)


def constraint_selftest() -> VerificationReport:
    """Natural-parameter constraint residuals vanish along each parameter curve.

    Also checks that the parameter-to-eta map is injective (some eta
    coordinate strictly monotone along the grid).
    """
    points = []
    worst = 0.0
    monotone_ok = True
    for token, family in FAMILIES.items():
        if family.natural is None:
            continue
        etas = []
        for param in family.curve_grid(CONSTRAINT_GRID_POINTS):
            np_ = canonical.natural_params(FamilyModel(Kind(token), param))
            etas.append(np_.eta)
            worst = max(worst, abs(np_.residual))
            points.append(GridPointResult(
                param=float(param),
                estimates={"eta1": np_.eta[0], "eta2": np_.eta[1]},
                statistics={"family": token, "residual": np_.residual}))
        e = np.asarray(etas)
        d1, d2 = np.diff(e[:, 0]), np.diff(e[:, 1])
        # strict monotonicity of one coordinate suffices for injectivity
        # (eta1 of the correlation family is even in rho, so only eta2
        # separates the two signs there)
        if not (np.all(d1 > 0) or np.all(d1 < 0)
                or np.all(d2 > 0) or np.all(d2 < 0)):
            monotone_ok = False
    verdicts = {
        "residuals-vanish": "pass" if worst < CONSTRAINT_TOL else "fail",
        "parameter-map-injective": "pass" if monotone_ok else "fail",
    }
    return VerificationReport(
        claim="natural-parameter constraint polynomials vanish on the parameter curves",
        config={"grid_points": CONSTRAINT_GRID_POINTS}, grid=[], points=points,
        statistics={"max_abs_residual": worst},
        verdicts=verdicts, seed=0)
