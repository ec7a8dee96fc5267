"""The streamed moments: per-chunk moments merged in chunk order.

``run_grid(..., moments_of=f)`` keeps no replicate.  Each chunk is reduced
to ``[count, mean, M2, M3, M4]`` and the chunks are merged with the
pairwise update of Chan, Golub and LeVeque (1979), extended by Pebay (2008)
to the third and fourth central sums.  The moment-only verifiers
(first-order, rao with its calibration run, fisher-info) read only these.
"""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from nilelab import verify
from nilelab.cli import main
from nilelab.families import FAMILIES
from nilelab.verify import (_BLOCK, N_CHUNKS, STATISTICS, MCConfig, VerificationError,
                            ZeroMeanSpec, _bin_index, _chunk_sizes, _merge, _moments,
                            _quantile_edges, fisher_info, identity, rao_zero_cov, run_grid,
                            verify_first_order)

_X = np.random.default_rng(21).exponential(3.0, size=1001)

#: Chunk sizes that split ``_X``: uneven, with chunks of size 1.
SPLITS = {
    "uneven-with-singletons": [1, 1, 500, 1, 3, 495],
    "one-chunk": [1001],
    "halves-and-one": [500, 1, 500],
    "all-singletons": [1] * 1001,
    "random": np.diff(np.r_[0, np.sort(np.random.default_rng(5).choice(
        np.arange(1, 1001), size=40, replace=False)), 1001]).tolist(),
}


def _merged(x, sizes):
    pieces = np.split(x, np.cumsum(sizes)[:-1])
    return functools.reduce(_merge, (_moments(p) for p in pieces))


@pytest.mark.parametrize("split", SPLITS)
def test_merge_matches_two_pass_moments(split):
    sizes = SPLITS[split]
    assert sum(sizes) == _X.size
    count, mean, m2, m3, m4 = _merged(_X, sizes)
    d = _X - _X.mean()
    assert count == _X.size
    assert mean == pytest.approx(_X.mean(), rel=1e-12)
    assert m2 / (count - 1) == pytest.approx(_X.var(ddof=1), rel=1e-12)
    assert m3 == pytest.approx(np.sum(d ** 3), rel=1e-12)
    assert m4 / count == pytest.approx(np.mean(d ** 4), rel=1e-12)


def _whole_array_moments(x, order):
    """``_moments`` as it was before the blocks: every deviation in one array."""
    mean = x.mean()
    d = x - mean
    if order == 2:
        d *= d
        return np.array([x.size, mean, d.sum()])
    d2 = d * d
    m2 = d2.sum()
    d *= d2
    m3 = d.sum()
    d2 *= d2
    return np.array([x.size, mean, m2, m3, d2.sum()])


#: Sizes about the pairwise sum's 128-element leaves and about the block
#: length, and longer ones split several times, at halves that are not
#: multiples of 8.
BLOCKED_SIZES = (1, 127, 128, 129, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 8,
                 1_000_003, 2 ** 21 + 5)


@pytest.mark.parametrize("size", BLOCKED_SIZES)
def test_blocked_moments_equal_the_whole_array_sums(size):
    rng = np.random.default_rng(size)
    for scale in (1e-200, 1e-3, 1.0, 1e6):
        # skewed, so M3 is not near zero, and off zero, so the mean matters
        x = scale * (1.0 + rng.lognormal(0.0, 1.0, size))
        for order in (2, 4):
            assert np.array_equal(_moments(x, order), _whole_array_moments(x, order))
        if size > 1:
            count, _, m2 = _moments(x, 2)
            assert np.array_equal(m2 / (count - 1), x.var(ddof=1))


def test_merge_with_an_empty_side_returns_the_other():
    a, empty = _moments(_X), _moments(np.array([]))
    assert empty[0] == 0 and math.isnan(empty[1])
    assert _merge(a, empty) is a and _merge(empty, a) is a


def test_streamed_run_grid_matches_the_arrays():
    config = MCConfig(master_seed=3, replicates=5_000, theta_grid=(0.5, 2.0), n=5)
    arrays, _ = run_grid("nile", config.theta_grid, 5, 1.0, config, ["nile_mle", "ancillary"])
    streamed, _ = run_grid("nile", config.theta_grid, 5, 1.0, config, ["nile_mle", "ancillary"],
                           moments_of=lambda sim: {"g": sim["nile_mle"],
                                                   "gw": sim["nile_mle"] * sim["ancillary"]})
    for point, moments in zip(arrays, streamed):
        assert set(moments) == {"g", "gw"}
        for quantity, vals in (("g", point["nile_mle"]),
                               ("gw", point["nile_mle"] * point["ancillary"])):
            got = moments[quantity]
            assert got.dtype == np.float64 and got.shape == (5,)
            np.testing.assert_allclose(got, _moments(vals), rtol=1e-12)


def test_constant_statistic_still_has_zero_se():
    # at c = 1e-3 the sample mean of normal_cv is positive in every replicate
    with pytest.raises(VerificationError, match="positive_indicator at theta=0.5 is 0;"):
        verify_first_order("normal_cv", "positive_indicator",
                           MCConfig(master_seed=0, replicates=1_000, theta_grid=(0.5, 1.0),
                                    n=1), c=1e-3)


def test_streamed_rao_counts_the_dropped_replicates():
    # at c = 1e-15 some n = 2 samples have s = 0; the count is the one the
    # array path gives (286 before the moments were streamed)
    config = MCConfig(master_seed=9, replicates=2_000, theta_grid=(1.0,), n=2)
    u = ZeroMeanSpec(id="centred-mean", source="sample_mean", transform=identity,
                     center=1.0, center_se=0.0)
    rep = rao_zero_cov("khan_linear", u, "normal_cv", config, c=1e-15)
    _, degenerate = run_grid("normal_cv", (1.0,), 2, 1e-15, config,
                             ["khan_linear", "sample_mean"])
    assert rep.degenerate_count == degenerate == 286


#: normal_cv at c = 1e-15 and n = 2, where some samples have s = 0 and are dropped.
_DROPS = ("normal_cv", 2, 1e-15)
_DROP_NAMES = ["khan_linear", "sample_mean"]


@pytest.mark.parametrize("workers", (1, 3))
def test_dropped_replicates_keep_chunk_order(workers):
    token, n, c = _DROPS
    config = MCConfig(master_seed=9, replicates=2_000, theta_grid=(1.0, 0.5), n=n,
                      workers=workers)
    points, degenerate = run_grid(token, config.theta_grid, n, c, config, _DROP_NAMES)
    sizes = _chunk_sizes(config.replicates, N_CHUNKS)
    children = np.random.SeedSequence(config.master_seed).spawn(2 * len(sizes))
    dropped = []
    for gi, (theta, point) in enumerate(zip(config.theta_grid, points)):
        kept = {name: [] for name in _DROP_NAMES}
        dropped.append(0)
        for ci, size in enumerate(sizes):
            rng = np.random.default_rng(children[gi * len(sizes) + ci])
            sim = FAMILIES[token].direct.draw(theta, c, rng, size, n)
            keep = ~sim["degenerate"]
            dropped[gi] += size - int(keep.sum())
            for name in _DROP_NAMES:
                kept[name].append(STATISTICS[name].compute(sim, n, c)[keep])
        for name in _DROP_NAMES:
            assert np.array_equal(point[name], np.concatenate(kept[name]))
    assert dropped[0] == 286 and dropped[1] > 0
    assert degenerate == sum(dropped)


def _traced_peak(fn):
    """The largest traced allocation total while ``fn()`` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


#: N at which each moment-only verifier's traced peak must stay below one
#: length-N float64 array.
MEMORY_N = 640_000
_CONTRAST = ZeroMeanSpec(id="first-contrast", source="diff12", transform=identity,
                         center=0.0, center_se=0.0)
MOMENT_ONLY = {
    "fisher_info": lambda: fisher_info(MCConfig(1, MEMORY_N, (1.0,), 1), 1.0),
    "verify_first_order": lambda: verify_first_order(
        "bivariate_gaussian_corr", "first_order_h", MCConfig(1, MEMORY_N, (-0.9, 0.0, 0.9), 1)),
    "rao_zero_cov": lambda: rao_zero_cov(
        "sample_mean", _CONTRAST, "normal_unit", MCConfig(1, MEMORY_N, (0.5, 1.0, 2.0), 5)),
}


@pytest.mark.parametrize("verifier", MOMENT_ONLY)
def test_moment_only_verifier_keeps_no_replicate_array(verifier):
    peak, _ = _traced_peak(MOMENT_ONLY[verifier])
    assert peak < 8 * MEMORY_N


def _predrawn(monkeypatch, token, names, config):
    """Draw the arrays before tracing starts and make ``run_grid`` return them,
    so a traced peak is the decide step's."""
    drawn = run_grid(token, config.theta_grid, config.n, 1.0, config, names)
    monkeypatch.setattr(verify, "run_grid", lambda *args, **kwargs: drawn)


def test_independence_bins_in_one_byte_per_replicate():
    # the table count each chunk makes, here on a whole point's margins drawn
    # before tracing starts, at the deciles of a chunk's worth of them: an int8
    # cell index, a bool comparison buffer, and np.bincount's intp copy of the
    # cell index; with int64 bins and cell indices it was 24 N
    config = MCConfig(1, MEMORY_N, (1.0,), 10)
    point = run_grid("normal_cv", (1.0,), 10, 1.0, config, ["sample_mean", "sample_sd"])[0][0]
    margins = [point["sample_mean"], point["sample_sd"]]
    edges = [_quantile_edges(m[:MEMORY_N // N_CHUNKS], 10) for m in margins]
    peak, table = _traced_peak(lambda: np.bincount(_bin_index(margins, edges), minlength=100))
    assert table.size == 100 and table.sum() == MEMORY_N
    assert peak < 12 * MEMORY_N


def test_independence_keeps_one_grid_point_at_a_time():
    # each chunk counts its own table at edges from a pilot of N / N_CHUNKS
    # replicates a point, so no margin is kept: the chunks' draws and the
    # pilot (1.3 N traced with one worker); with one point's two margins kept
    # and binned it was 26 N, and with every point's margins kept 58 N
    config = MCConfig(1, MEMORY_N, (0.5, 1.0, 2.0), 10)
    peak, rep = _traced_peak(
        lambda: verify.verify_independence("sample_mean", "sample_sd", "normal_cv", config))
    assert rep.statistics["bins"] == 10
    assert peak < 8 * MEMORY_N


def test_dropped_replicates_are_closed_up_in_place():
    # one point's two columns (16 N); compacting them through a mask into
    # new arrays made it 31.9 N
    token, n, c = _DROPS
    config = MCConfig(9, MEMORY_N, (1.0,), n)
    peak, (points, degenerate) = _traced_peak(
        lambda: run_grid(token, (1.0,), n, c, config, _DROP_NAMES))
    assert degenerate > 0 and points[0]["sample_mean"].size == MEMORY_N - degenerate
    assert peak < 20 * MEMORY_N


def test_variance_table_moments_make_no_whole_sample_temporary(monkeypatch):
    # two whole-sample deviation arrays per column (16 N) before the blocks
    config = MCConfig(1, MEMORY_N, (0.5, 1.0, 2.0), 10)
    _predrawn(monkeypatch, "normal_cv", ["khan_linear", "normalcv_mle"], config)
    peak, _ = _traced_peak(
        lambda: verify.variance_table(["khan_linear", "normalcv_mle"], "normal_cv", config))
    assert peak < 2 * MEMORY_N


def test_ancillarity_mean_and_ks_make_no_whole_sample_temporary(monkeypatch):
    # one whole-sample deviation array per point (8 N) before the blocks
    config = MCConfig(1, MEMORY_N, (0.5, 1.0, 2.0, 4.0), 5)
    _predrawn(monkeypatch, "nile", ["nile_product"], config)
    peak, rep = _traced_peak(lambda: verify.verify_ancillarity("nile", "nile_product", config))
    assert rep.verdicts == {"distribution-invariant": "pass"}
    assert peak < 2 * MEMORY_N


#: One config per streamed path: first-order, rao with a calibrated log
#: transform, with the exact normal_unit contrast and with the median
#: indicator, and fisher-info; independence's per-chunk tables, also on
#: samples with dropped replicates; two array-path kinds on samples with
#: dropped replicates; and one run of each kind with a first-chunk look that
#: the look decides.
WORKER_COUNT_CONFIGS = {
    "first-order": "kind = first-order\nreplicates = 4000\n",
    "rao-log": "kind = rao\nfamily = nile\nestimator = nile_mle\ntransform = log\n"
               "n = 1\nreplicates = 4000\n",
    "rao-contrast": "kind = rao\nfamily = normal_unit\nestimator = sample_mean\nn = 5\n"
                    "replicates = 4000\n",
    "rao-indicator": "kind = rao\nfamily = nile\nestimator = nile_mle\ntransform = indicator\n"
                     "n = 3\nreplicates = 4000\n",
    "fisher-info": "kind = fisher-info\ntheta = 2\nc = 0.5\nreplicates = 4000\n",
    "independence": "kind = independence\nreplicates = 4000\n",
    "independence-drops": "kind = independence\nfamily = normal_cv\nc = 1e-15\nn = 2\n"
                          "replicates = 4000\n",
    "variance-table-drops": "kind = variance-table\nfamily = normal_cv\n"
                            "estimators = khan_linear,normalcv_mle\nc = 1e-15\nn = 2\n"
                            "replicates = 4000\n",
    "ancillarity-drops": "kind = ancillarity\nfamily = normal_cv\nstatistic = sample_mean\n"
                         "c = 1e-15\nn = 2\nreplicates = 4000\n",
    # decided by the first-chunk look: only the first chunk of each point is drawn
    "ancillarity-decided": "kind = ancillarity\nstatistic = sample_mean\nreplicates = 4000\n",
    "first-order-decided": "kind = first-order\nfamily = normal_unit\nstatistic = sample_mean\n"
                           "replicates = 20000\n",
    "rao-decided": "kind = rao\nfamily = nile\nestimator = nile_mle\ntransform = log\nn = 1\n"
                   "replicates = 1000000\n",
}


@pytest.mark.parametrize("kind", WORKER_COUNT_CONFIGS)
def test_streamed_reports_do_not_depend_on_the_worker_count(kind, tmp_path, capsys,
                                                            monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(WORKER_COUNT_CONFIGS[kind])
    tables = []  # each counted run's per-point tables
    real = verify.run_grid

    def recording(*args, **kwargs):
        points, degenerate = real(*args, **kwargs)
        if "counts_of" in kwargs:
            tables.append([p["table"] for p in points])
        return points, degenerate

    monkeypatch.setattr(verify, "run_grid", recording)
    reports = {}
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert main(["run", str(cfg), "--out", str(out), "--seed", "5",
                     "--workers", str(workers)]) in (0, 2)
        text = (out / "exp.report.json").read_text()
        echo = f'"workers": {workers}'
        assert text.count(echo) == 1
        reports[workers] = text.replace(echo, '"workers": _')
        assert kind.endswith("-drops") == ('"degenerate_count": 0,' not in text)
        if kind.endswith("-decided"):  # the level of the look that decided it
            assert ('"dkw_delta"' if kind.startswith("ancillarity") else '"look_level"') in text
        if kind.startswith("independence"):  # its one grid point's table counts every kept replicate
            (table,) = tables[-1]
            assert table.sum() == 4000 - json.loads(text)["degenerate_count"]
    assert len(tables) == (3 if kind.startswith("independence") else 0)
    assert reports[1] == reports[2] == reports[3]
