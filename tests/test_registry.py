"""Each ``families.FAMILIES`` row agrees with the engine and with ``FamilyModel``."""

import math
from dataclasses import fields

import numpy as np
import pytest

from nilelab.canonical import NotExponentialError, natural_params
from nilelab.families import (FAMILIES, DomainError, Family, FamilyModel, Kind, density,
                              reduce, sample)
from nilelab.selftest import CONSTRAINT_GRID_POINTS, CONSTRAINT_TOL
from nilelab.statistics import StatId, sufficient
from nilelab.verify import STATISTICS, MCConfig, run_grid


@pytest.mark.parametrize("token", list(FAMILIES))
def test_family_row_agrees_with_engine_and_family_model(token):
    family = FAMILIES[token]
    if family.ancillary is not None:
        assert token in STATISTICS[family.ancillary].families
    draws = family.draw(0.5, 1.0, np.random.default_rng(0), (3, 2))
    reduced = reduce(family, draws, 2, family.sufficient)
    assert list(reduced) == list(family.sufficient)
    if family.direct is not None:  # the direct sampler gives names the raw reducer has
        assert set(family.sufficient) <= set(family.direct.names) <= set(family.reduce)
        direct = family.direct.draw(0.5, 1.0, np.random.default_rng(0), 3, 2)
        assert set(family.direct.names) <= set(direct) <= set(family.reduce)
        assert all(a.shape == (3,) for a in direct.values())
    stat = next(name for name, s in STATISTICS.items() if token in s.families)
    config = MCConfig(master_seed=0, replicates=10, theta_grid=(math.inf,), n=2)
    with pytest.raises(DomainError) as from_grid:
        run_grid(token, (math.inf,), 2, 1.0, config, [stat])
    with pytest.raises(DomainError) as from_model:
        FamilyModel(Kind(token), math.inf)
    assert str(from_model.value) == str(from_grid.value)
    model = FamilyModel(Kind(token), 0.5)
    obs = sample(model, 3, np.random.default_rng(1))
    assert 0.0 < density(model, obs.points[0]) < math.inf
    sufficient(obs)  # SufficientSummary accepts what the reducer gives
    models = [FamilyModel(Kind(token), param)
              for param in family.curve_grid(CONSTRAINT_GRID_POINTS)]
    if family.natural is None:
        with pytest.raises(NotExponentialError):
            natural_params(models[0])
    else:
        assert max(abs(natural_params(m).residual) for m in models) < CONSTRAINT_TOL


def test_enums_are_built_from_the_rows():
    assert [k.value for k in Kind] == list(FAMILIES)
    declared = [f.ancillary for f in FAMILIES.values() if f.ancillary is not None]
    assert [s.value for s in StatId] == list(dict.fromkeys(declared))
    assert all(k.name == k.value.upper() for k in Kind)
    assert all(s.name == s.value.upper() for s in StatId)


def test_family_model_holds_one_parameter():
    assert [f.name for f in fields(FamilyModel)] == ["kind", "param", "c"]
    assert "param" not in Family._fields
    assert FamilyModel(Kind.BIVARIATE_GAUSSIAN_CORR, 0.5).param == 0.5
    with pytest.raises(TypeError):
        FamilyModel(Kind.NILE, theta=1.0)
    with pytest.raises(DomainError, match="nile: theta must be finite and > 0, got nan"):
        FamilyModel(Kind.NILE)
    with pytest.raises(DomainError, match="rho must lie in"):
        FamilyModel(Kind.BIVARIATE_GAUSSIAN_CORR, 1.0)
