"""The direct samplers draw the sufficient statistic with the law of the reduced observations.

``run_grid`` draws the sufficient statistic directly when every requested
statistic reads only it (``families.FAMILIES[token].direct``), and draws the
observations otherwise.  Both paths must give one law: each sufficient
component, and the family's ancillary, is compared across the two paths
with the two-sample KS distance at the ancillarity verdict's threshold.
"""

import math

import numpy as np
import pytest

from nilelab.families import FAMILIES
from nilelab.verify import (KS_CRITICAL, N_CHUNKS, STATISTICS, MCConfig, _chunk_sizes,
                            ks_2samp, resolve_statistic, run_grid)

#: Replicates per path and the seeds of the two paths (fixed, independent streams).
N = 40_000
DIRECT_SEED, RAW_SEED = 1018, 2018

#: token -> (theta, c, label -> (statistics, function of their arrays)): each
#: sufficient component (recovered from statistics of it), the ancillary and,
#: for normal_cv, the MLE of the derived sums.
LAWS = {
    "nile": (1.3, 1.0, {
        "xbar": (("sample_mean",), lambda m: m),
        "ybar": (("nile_product", "sample_mean"), lambda w, m: w / m),
        "nile_product": (("nile_product",), lambda w: w)}),
    "normal_cv": (2.0, 0.5, {
        "xbar": (("sample_mean",), lambda m: m),
        "s": (("sample_sd",), lambda s: s),
        "normal_cv_ratio": (("normal_cv_ratio",), lambda r: r),
        "normalcv_mle": (("normalcv_mle",), lambda t: t)}),
    "uniform_location": (-0.7, 1.0, {
        "lo": (("pitman_midrange", "uniform_range"), lambda m, r: m - 0.5 * r),
        "hi": (("pitman_midrange", "uniform_range"), lambda m, r: m + 0.5 * r),
        "uniform_range": (("uniform_range",), lambda r: r)}),
}


def _defined(name, token, n):
    try:
        resolve_statistic(name, token, n)
    except ValueError:
        return False
    return True


def _components(token, n, seed):
    theta, c, labels = LAWS[token]
    labels = {label: (names, fn) for label, (names, fn) in labels.items()
              if all(_defined(name, token, n) for name in names)}
    names = sorted({name for names, _ in labels.values() for name in names})
    config = MCConfig(master_seed=seed, replicates=N, theta_grid=(theta,), n=n)
    out, degenerate = run_grid(token, (theta,), n, c, config, names)
    assert degenerate == 0
    return {label: np.sort(fn(*(out[0][name] for name in names)))
            for label, (names, fn) in labels.items()}


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("token", list(LAWS))
def test_direct_and_raw_paths_draw_one_law(monkeypatch, token, n):
    direct = _components(token, n, DIRECT_SEED)
    monkeypatch.setitem(FAMILIES, token, FAMILIES[token]._replace(direct=None))
    raw = _components(token, n, RAW_SEED)
    threshold = KS_CRITICAL * math.sqrt(2.0 / N)
    distances = {label: ks_2samp(direct[label], raw[label]) for label in direct}
    assert len(distances) >= 2
    assert max(distances.values()) < threshold, distances


def test_direct_path_is_taken_only_when_every_read_is_direct(monkeypatch):
    calls = []
    family = FAMILIES["normal_cv"]
    spy = family.direct._replace(draw=lambda *a: calls.append(a) or family.direct.draw(*a))
    monkeypatch.setitem(FAMILIES, "normal_cv", family._replace(direct=spy))
    config = MCConfig(master_seed=0, replicates=10, theta_grid=(1.0,), n=3)
    run_grid("normal_cv", (1.0,), 3, 1.0, config, ["khan_linear", "normalcv_mle"])
    assert len(calls) == len(_chunk_sizes(10, N_CHUNKS))
    calls.clear()
    run_grid("normal_cv", (1.0,), 3, 1.0, config, ["khan_linear", "diff12"])
    assert calls == []


def test_partly_degenerate_point_drops_exactly_the_masked_replicates():
    # at c = 1e-15 about a fifth of the n = 2 replicates have s below the
    # spacing of the floats at xbar = 1
    token, theta, n, c, replicates, seed = "normal_cv", 1.0, 2, 1e-15, 2_000, 9
    names = ["normal_cv_ratio", "sample_mean", "normalcv_mle"]
    config = MCConfig(master_seed=seed, replicates=replicates, theta_grid=(theta,), n=n)
    out, degenerate = run_grid(token, (theta,), n, c, config, names)
    sizes = _chunk_sizes(replicates, N_CHUNKS)
    sims = [FAMILIES[token].direct.draw(theta, c, np.random.default_rng(child), size, n)
            for child, size in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes)]
    keep = ~np.concatenate([sim["degenerate"] for sim in sims])
    assert 0 < degenerate == replicates - keep.sum() < replicates / 2
    for name in names:
        expected = np.concatenate([STATISTICS[name].compute(sim, n, c)
                                   for sim in sims])[keep]
        assert np.array_equal(out[0][name], expected)
