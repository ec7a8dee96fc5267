"""nilelab: numerical checks for families with incomplete sufficient statistics.

Implements the Fisher Nile family and its relatives, their sufficient and
ancillary statistics, the named estimators, the conditional-moment
quadrature with an independent Bessel oracle, natural-parameter
constraints, and a reproducible Monte Carlo verification engine.
"""

# set before the submodule imports: ``verify`` reads it as the report version
__version__ = "0.1.0"

from .families import (FamilyModel, Kind, ObservationSet, bivariate_gaussian,
                       density, nile, normal_cv, sample, uniform_location)
from .statistics import (AncillaryValue, StatId, SufficientSummary, ancillary,
                         first_order_h, positive_indicator, residuals,
                         sufficient)

__all__ = [
    "FamilyModel", "Kind", "ObservationSet", "SufficientSummary",
    "AncillaryValue", "StatId", "density", "sample", "sufficient",
    "ancillary", "first_order_h", "positive_indicator", "residuals",
    "nile", "bivariate_gaussian", "normal_cv", "uniform_location",
    "__version__",
]
