"""Monte Carlo verification engine.

Checks the machine-testable claims about the families: distributional
invariance of ancillaries, constancy of first-order ancillary means,
independence of statistic pairs, the zero-covariance necessary condition
for UMVUEs and its conditional-moment consequence, Fisher information,
and estimator risk comparisons.

Reproducibility contract: all randomness flows from ``MCConfig.master_seed``.
Replicates are partitioned into a fixed number of chunks (independent of
the worker count); chunk ``i`` of grid point ``g`` always consumes the
same spawned substream.  The first chunk of every grid point is drawn
before the other chunks, so that a verifier can look at them once and stop
a decided verdict (ancillarity, by a distribution-free bound; rao and
first-order, by a Bonferroni bound on their z, at the same level
DKW_DELTA); each point's chunks are put together in chunk order, not in the
order the workers finish them: the kept arrays, each chunk's values in its own
slice with the gaps of dropped replicates closed, or, for the moment-only
verifiers (first-order, rao with its centring run, and fisher-info),
each chunk's count, mean and central sums M2, M3, M4, merged, or, for
independence, each chunk's table of counts, summed; its bin edges come
from a pilot drawn from ``master_seed + 1``'s substreams, which no counted
chunk uses.  Reports are therefore bit-identical across worker counts.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.special import chdtrc, ndtr, ndtri  # chi-square survival, normal CDF and its inverse

from . import __version__ as VERSION
from .estimators import h_star_vector, khan_coefficients, normalcv_mle_from_sums
from .families import FAMILIES, TWO_OR_MORE, DomainError, reduce
from .quadrature import cond_second_moment_ratio

#: Fixed replicate partition; must not depend on the worker count.
N_CHUNKS = 64

#: Two-sample KS critical multiplier, about the asymptotic 0.001 level
#: (Kolmogorov's c(0.001) is 1.95); the ancillarity verdict compares each
#: pairwise D with KS_CRITICAL * sqrt((n1 + n2) / (n1 n2)) for the pair's
#: sample sizes n1 and n2.  No p-value is computed.
KS_CRITICAL = 1.95

#: Level of each grid point's chi-square independence test.
INDEPENDENCE_ALPHA = 1e-3

#: Level of every first-chunk look: the chance that it fails a true claim.
#: ``verify_ancillarity``'s look keeps it for an invariant statistic of any law
#: (``dkw_bound``); ``rao_zero_cov``'s and ``verify_first_order``'s, by
#: Bonferroni over the grid points, under the normal approximation of each z
#: (``look_z``).
DKW_DELTA = 1e-6


class VerificationError(RuntimeError):
    """A verification procedure could not produce a trustworthy verdict."""


@dataclass(frozen=True)
class MCConfig:
    master_seed: int
    replicates: int
    theta_grid: tuple
    n: int
    workers: int = 1

    def __post_init__(self):
        # each integer field by name, where numpy's errors would name none
        for name, label, least in (("master_seed", "master_seed", 0),
                                   ("replicates", "replicates", 1),
                                   ("n", "sample size", 1), ("workers", "workers", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{label} must be >= {least}, got {value}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "theta_grid", tuple(float(t) for t in self.theta_grid))

    def as_dict(self) -> dict:
        return {**asdict(self), "theta_grid": list(self.theta_grid)}


@dataclass
class GridPointResult:
    param: float
    estimates: dict = field(default_factory=dict)
    se: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    claim: str
    config: dict
    grid: list
    points: list  # list[GridPointResult]
    statistics: dict
    verdicts: dict  # sub-claim -> pass | fail | inconclusive
    seed: int
    degenerate_count: int = 0

    @property
    def verdict(self) -> str:
        vs = set(self.verdicts.values())
        if "fail" in vs:
            return "fail"
        if "inconclusive" in vs:
            return "inconclusive"
        return "pass"

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "config": self.config,
            "grid": list(self.grid),
            "estimates": [p.estimates for p in self.points],
            "se": [p.se for p in self.points],
            "statistics": [dict(self.statistics)] + [p.statistics for p in self.points],
            "verdicts": self.verdicts,
            "verdict": self.verdict,
            "degenerate_count": self.degenerate_count,
            "seed": self.seed,
            "version": VERSION,
        }

    def table_rows(self):
        """(header, rows) for CSV export: one row per grid point x quantity."""
        header = ["param", "quantity", "estimate", "se", "statistic"]
        rows = []
        for p in self.points:
            keys = sorted(set(p.estimates) | set(p.se) | set(p.statistics))
            for k in keys:
                rows.append([p.param, k, p.estimates.get(k, ""),
                             p.se.get(k, ""), p.statistics.get(k, "")])
        return header, rows


def _report(claim: str, config: MCConfig, points: list, statistics: dict, verdicts: dict,
            degenerate: int = 0) -> VerificationReport:
    """The report of a Monte Carlo run of ``config``; its grid is the points' params."""
    return VerificationReport(claim, config.as_dict(), [p.param for p in points], points,
                              statistics, verdicts, config.master_seed, degenerate)


FAMILY_TOKENS = tuple(FAMILIES)

#: A named statistic, a function of the sample and no parameter: ``compute(sim,
#: n, c)`` over the reduced arrays ``reads`` (``families.reduce`` names) for each
#: token in ``families``, defined for every n at which ``reduce`` gives all it
#: reads; ``target`` maps a family token to a function of c, the statistic's known
#: parameter-free mean on that family, which the first-order check compares
#: against; ``cond_m2(w, theta, n)`` is its closed-form E(g^2 | the family's ancillary = w).
Statistic = namedtuple("Statistic", "compute reads families target cond_m2",
                       defaults=(None, None))


def _normal_cv_ratio(sim, n, c):
    xbar, s = sim["xbar"], sim["s"]
    with np.errstate(divide="ignore"):
        return np.where(s > 0, xbar / np.where(s > 0, s, 1.0), np.inf)


def _first_order_h(sim, n, c):
    """1{|x| <= 1} + 1{|y| <= 1}, the second indicator added into the first."""
    h = np.abs(sim["x"])
    np.less_equal(h, 1.0, out=h)
    h += np.abs(sim["y"]) <= 1.0
    return h


def _khan_linear(sim, n, c):
    a, b = khan_coefficients(n, c)
    return a * sim["xbar"] + b * sim["s"]


_NILE, _CV, _UNIFORM = {"nile"}, {"normal_cv"}, {"uniform_location"}
_CORR = {"bivariate_gaussian_corr"}
_SCALAR = {"normal_cv", "uniform_location", "normal_unit"}
_XY, _MS, _LH = ("xbar", "ybar"), ("xbar", "s"), ("lo", "hi")

STATISTICS = {
    "nile_product": Statistic(lambda sim, n, c: sim["xbar"] * sim["ybar"], _XY, _NILE,
                              target={"nile": lambda c: 1.0}),  # E xbar E ybar = 1
    "normal_cv_ratio": Statistic(_normal_cv_ratio, _MS, _CV),
    "uniform_range": Statistic(lambda sim, n, c: sim["hi"] - sim["lo"], _LH, _UNIFORM),
    "sample_mean": Statistic(lambda sim, n, c: sim["xbar"], ("xbar",), _SCALAR | _NILE),
    "sample_sd": Statistic(lambda sim, n, c: sim["s"], ("s",), _CV),
    "nile_mle": Statistic(lambda sim, n, c: np.sqrt(sim["ybar"] / sim["xbar"]), _XY, _NILE),
    "nile_star": Statistic(  # E(g^2 | W = w) = theta^2 E_1(ybar^2 | w) / E_1(ybar | w)^2
        lambda sim, n, c: sim["ybar"] * h_star_vector(sim["xbar"] * sim["ybar"], n),
        _XY, _NILE, cond_m2=lambda w, t, n: t ** 2 * cond_second_moment_ratio(w, n)),
    "nile_inverse_xbar": Statistic(lambda sim, n, c: 1.0 / sim["xbar"], ("xbar",), _NILE),
    "khan_linear": Statistic(_khan_linear, _MS, _CV),
    "normalcv_mle": Statistic(
        lambda sim, n, c: normalcv_mle_from_sums(sim["sum_x"], sim["sum_x2"], n, c),
        ("sum_x", "sum_x2"), _CV),
    "pitman_midrange": Statistic(lambda sim, n, c: 0.5 * (sim["lo"] + sim["hi"]), _LH, _UNIFORM),
    "first_order_h": Statistic(
        _first_order_h, ("x", "y"), _CORR,
        target={"bivariate_gaussian_corr": lambda c: 2.0 * (2.0 * float(ndtr(1.0)) - 1.0)}),
    "positive_indicator": Statistic(lambda sim, n, c: (sim["xbar"] > 0).astype(float),
                                    ("xbar",), _SCALAR | _NILE,
                                    target={"normal_cv": lambda c: float(ndtr(1.0 / c))}),
    "xy_product": Statistic(lambda sim, n, c: sim["x"] * sim["y"], ("x", "y"), _CORR),
    "diff12": Statistic(lambda sim, n, c: sim["diff12"], ("diff12",), _SCALAR),
    "x1": Statistic(lambda sim, n, c: sim["x1"], ("x1",), _SCALAR),
}


def resolve_statistic(name: str, token: str, n: int) -> Statistic:
    """The statistic ``name`` (``ancillary``: the family's declared one) on family
    ``token`` at sample size ``n``; ValueError unless it is defined there."""
    if name == "ancillary":
        name = getattr(FAMILIES.get(token), "ancillary", None)
        if name is None:
            raise ValueError(f"family {token!r} declares no ancillary")
    stat = STATISTICS.get(name)
    if stat is None:
        raise ValueError(f"unknown statistic {name!r}")
    if token not in stat.families:
        raise ValueError(f"statistic {name!r} is not defined for family {token!r}")
    floor = 2 if TWO_OR_MORE.intersection(stat.reads) else 1
    if n < floor:
        raise ValueError(f"statistic {name!r} needs n >= {floor}, got n = {n}")
    return stat


def _chunk_sizes(total: int, chunks: int) -> list[int]:
    base, extra = divmod(total, chunks)
    sizes = [base + (1 if i < extra else 0) for i in range(chunks)]
    return [s for s in sizes if s > 0]


#: Longest array whose deviations ``_moments`` forms in one piece (128 KiB of
#: float64); a longer one is split where numpy's pairwise sum splits it.
_BLOCK = 16384


def _moments(x: np.ndarray, order: int = 4) -> np.ndarray:
    """``[count, mean, M2, ..., M_order]`` of ``x``, M_k the k-th central sum, in
    two passes; ``order`` is 4, or 2 where only the mean and its SE are needed.

    M2 is summed as ``x.var(ddof=1)`` sums it, so M2 / (count - 1) equals
    that variance bit for bit.  An empty ``x`` gives count 0 and mean NaN.
    The deviations are formed in blocks of at most ``_BLOCK`` elements
    (``_central_sums``), so no temporary is longer than that.
    """
    if x.size == 0:
        return np.array([0.0, math.nan] + [0.0] * (order - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or nan
        mean = x.mean()
        return np.array([x.size, mean, *_central_sums(x, mean, order)])


def _central_sums(x: np.ndarray, mean, order: int) -> tuple:
    """(M2,) or (M2, M3, M4) of ``x`` about ``mean``, each the float that
    numpy's sum of the whole array of powered deviations gives.

    numpy sums a contiguous array pairwise: a part longer than 128 elements
    is split after its length halved and rounded down to a multiple of 8,
    and the two halves' sums are added.  An ``x`` longer than ``_BLOCK`` is
    split at the same place, so the sums of its blocks are added in the
    order numpy adds them, and every sum is the whole array's bit for bit.
    """
    if x.size > _BLOCK:
        half = x.size // 2
        half -= half % 8
        return tuple(left + right for left, right in zip(_central_sums(x[:half], mean, order),
                                                         _central_sums(x[half:], mean, order)))
    d = x - mean
    if order == 2:  # one temporary, squared in place, as x.var() does
        d *= d
        return (d.sum(),)
    d2 = d * d
    m2 = d2.sum()
    d *= d2
    m3 = d.sum()
    d2 *= d2
    return m2, m3, d2.sum()


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The moments of two samples joined, from theirs (Pebay 2008).

    The pairwise update of Chan, Golub and LeVeque (1979), extended to the
    third and fourth central sums; M4's update needs M3.
    """
    na, ma, m2a, m3a, m4a = a
    nb, mb, m2b, m3b, m4b = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mb - ma
    dn = delta / n
    m2 = m2a + m2b + delta * dn * na * nb
    m3 = (m3a + m3b + delta * dn * dn * na * nb * (na - nb)
          + 3.0 * dn * (na * m2b - nb * m2a))
    m4 = (m4a + m4b + delta * dn * dn * dn * na * nb * (na * na - na * nb + nb * nb)
          + 6.0 * dn * dn * (na * na * m2b + nb * nb * m2a)
          + 4.0 * dn * (na * m3b - nb * m3a))
    return np.array([n, ma + dn * nb, m2, m3, m4])


def run_grid(token: str, grid, n: int, c: float, config: MCConfig, names, *,
             moments_of=None, counts_of=None, look=None) -> tuple[list[dict], int]:
    """Simulate each grid point and evaluate ``names``; deterministic in workers.

    Returns (per-grid-point dict of name -> array, degenerate count).  When
    every statistic reads only names the family's ``direct`` sampler gives,
    the sufficient statistic is drawn directly; otherwise the observations
    are drawn and only the names read are reduced.  Replicates with a
    degenerate sample (no spread) are dropped from every statistic and
    counted; a point that keeps none raises VerificationError.  Statistics
    (ValueError) and grid points (DomainError) are checked before sampling.

    The pool makes two passes: the first chunk of every grid point, then
    the other chunks of every point.  A chunk drops its degenerate
    replicates and writes the rest from its slice start; each point then
    closes the gaps in place, in chunk order.

    With a hook no replicate is kept.  ``moments_of`` maps each chunk's
    ``{name: array}`` (degenerate replicates dropped) to ``{quantity:
    array}``, kept as the float64 ``[count, mean, M2, M3, M4]`` (``_moments``)
    of the chunks merged in chunk order; ``counts_of(gi, arrays)`` maps them
    at grid point ``gi`` to ``{quantity: integer array}``, kept summed.

    ``look`` is called between the passes with the first chunks' results,
    in the shape this returns, unless some point's first chunk kept no
    replicate (that point is judged on all its chunks); when it returns
    True, they are returned, with their degenerate count.
    """
    grid = list(grid)
    stats = {name: resolve_statistic(name, token, n) for name in names}
    family = FAMILIES[token]
    for theta in grid:  # the same DomainError a FamilyModel raises
        family.check(theta, c)
    reads = {r for stat in stats.values() for r in stat.reads}
    direct = family.direct if family.direct and reads <= set(family.direct.names) else None
    per_replicate = 1 if family.single_pair else n
    sizes = _chunk_sizes(config.replicates, N_CHUNKS)
    starts = np.cumsum([0] + sizes).tolist()
    children = np.random.SeedSequence(config.master_seed).spawn(len(grid) * len(sizes))
    merge = _merge if moments_of is not None else np.add if counts_of is not None else None

    arrays = [None if merge else {name: np.empty(config.replicates) for name in stats}
              for _ in grid]  # untouched pages cost no memory

    def one_chunk(gi, ci):
        """Chunk ``ci`` of grid point ``gi``: its count of dropped (degenerate)
        replicates, and what it keeps: the moments of ``moments_of``'s
        quantities, ``counts_of``'s counts, or the count it wrote to ``arrays``."""
        rng = np.random.default_rng(children[gi * len(sizes) + ci])
        # an extreme theta overflows here, and the finiteness check below reports
        # it; numpy's errstate is per thread, and a pool thread does not inherit it
        with np.errstate(over="ignore", invalid="ignore"):
            if direct:
                sim = direct.draw(grid[gi], c, rng, sizes[ci], n)
            else:
                draws = family.draw(grid[gi], c, rng, (sizes[ci], per_replicate))
                sim = reduce(family, draws, n, reads | {"degenerate"})
            bad = sim.get("degenerate")
            dropped = 0 if bad is None else int(bad.sum())
            vals = {name: stat.compute(sim, n, c) for name, stat in stats.items()}
            if dropped:
                vals = {name: v[~bad] for name, v in vals.items()}
            for name, v in vals.items():  # e.g. an overflow at an extreme theta
                if not np.isfinite(v).all():
                    raise VerificationError(f"statistic {name!r} is not finite on a replicate "
                                            f"at theta={grid[gi]:g}")
            if merge is not None:
                return dropped, (counts_of(gi, vals) if moments_of is None else
                                 {q: _moments(np.asarray(v, dtype=float))
                                  for q, v in moments_of(vals).items()})
            kept = sizes[ci] - dropped
            for name, v in vals.items():
                arrays[gi][name][starts[ci]:starts[ci] + kept] = v
            return dropped, kept

    def point(gi):
        """Grid point ``gi`` from the chunks drawn so far, put together in chunk
        order, not in the order they finished."""
        if merge is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or nan
                return functools.reduce(lambda a, b: {q: merge(a[q], b[q]) for q in a},
                                        (kept for _, kept in chunks[gi]))
        end = 0
        for start, (_, kept) in zip(starts, chunks[gi]):  # close the dropped replicates' gaps
            if start != end:
                for arr in arrays[gi].values():
                    arr[end:end + kept] = arr[start:start + kept]
            end += kept
        return {name: arr[:end] for name, arr in arrays[gi].items()}

    chunks = [[] for _ in grid]  # each point's (dropped, kept), in chunk order
    pool = ThreadPoolExecutor(max_workers=config.workers)
    try:  # a failed chunk cancels the chunks not yet started
        for phase in (range(1), range(1, len(sizes))):  # every point's first chunk, then the rest
            tasks = [(gi, ci) for gi in range(len(grid)) for ci in phase]
            for (gi, _), result in zip(tasks, pool.map(lambda task: one_chunk(*task), tasks)):
                chunks[gi].append(result)
            if phase.start == 0 and look is not None and all(
                    point_chunks[0][0] < sizes[0] for point_chunks in chunks):
                first = [point(gi) for gi in range(len(grid))]
                if look(first):
                    return first, sum(point_chunks[0][0] for point_chunks in chunks)
    finally:
        pool.shutdown(cancel_futures=True)
    lost = [sum(dropped for dropped, _ in point_chunks) for point_chunks in chunks]
    if config.replicates in lost:  # e.g. c * theta below the float spacing
        raise VerificationError(f"every replicate at theta={grid[lost.index(config.replicates)]:g} "
                                f"is degenerate; there is no sample to test")
    return [point(gi) for gi in range(len(grid))], sum(lost)


def _mean_se(moments: np.ndarray) -> tuple[float, float]:
    """Mean and its standard error sqrt(var / N) from ``_moments``; of one
    array, ``arr.mean()`` and ``arr.std(ddof=1) / sqrt(N)`` bit for bit."""
    count, mean, m2 = moments[:3]
    se = math.sqrt(m2 / (count - 1)) / math.sqrt(count) if count > 1 else math.inf
    return float(mean), float(se)


def _var_se(moments: np.ndarray) -> tuple[float, float]:
    """Sample variance and its standard error sqrt((m4 - var^2) / N) from ``_moments``."""
    count, _, m2, _, m4 = moments
    var = float(m2 / (count - 1)) if count > 1 else math.nan  # arr.var(ddof=1) bit for bit
    m4 = float(m4 / count)
    return var, math.sqrt(max(m4 - var * var, 0.0) / count)


def _z(diff: float, se: float, quantity: str, theta: float) -> float:
    """diff / se; a zero or undefined SE leaves nothing to test against."""
    if not 0.0 < se < math.inf:
        cause = ("a constant or too small sample cannot be tested" if se == 0.0 else
                 "its moments overflowed or fewer than two replicates were kept")
        raise VerificationError(f"standard error of {quantity} at theta={theta:g} is "
                                f"{se:g}; {cause}")
    return diff / se


def ks_2samp(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance D = sup |F_a - F_b| of two sorted samples.

    F_a - F_b only rises at points of ``a``, so its supremum is taken there.
    At ``a[i]`` the term (i + 1)/n1 - #{b <= a[i]}/n2 is at most
    F_a(a[i]) - F_b(a[i]), with equality at the last copy of a tied value:
    inside a run of ties F_b is constant while (i + 1)/n1 rises to F_a.  So
    the largest term of each run is that step's k1/n1 - k2/n2, the same
    float arithmetic as ``scipy.stats.ks_2samp``, and D equals its statistic
    bit for bit, ties included; likewise for F_b - F_a at the points of
    ``b``.  Both inputs must be sorted ascending; an empty one raises
    ValueError.

    Each one-sided maximum is searched only where it can lie, in two probe
    levels.  The term is computed exactly (one ``searchsorted``) at the
    probes, every ``_KS_STRIDE``-th point of ``a`` and its last; their
    largest term is a lower bound L.  The count #{b <= a[k]} never falls as
    k rises, so every term strictly between probes p < q is at most
    q/n1 - #{b <= a[p]}/n2, the gap's bound.  Only the blocks whose bound
    reaches L are probed again, every ``_KS_SUBSTRIDE``-th point, which
    raises L to the largest term probed so far, and only the sub-blocks
    whose bound reaches that are searched point by point.  The bound is the
    same float expression as a term, and division and subtraction round
    monotonically, so it also bounds the rounded terms: a skipped gap holds
    only floats below L, and no margin is needed.  D is therefore the float
    of the search over every point, ties included.
    """
    if a.size == 0 or b.size == 0:
        raise ValueError("KS distance needs two non-empty samples")
    return max(0.0, _ks_one_sided(a, b), _ks_one_sided(b, a))


#: Probe spacings of ``_ks_one_sided``: every 256th point of a sample, then
#: every 16th point of a block that can hold the supremum.
_KS_STRIDE, _KS_SUBSTRIDE = 256, 16

#: Blocks ``_ks_one_sided`` probes again and searches at once: at most 64
#: blocks of ``_KS_STRIDE`` points, so the batch's five index and term arrays
#: hold at most about 640 KiB.
_KS_BATCH = 64


def _ks_one_sided(a: np.ndarray, b: np.ndarray) -> float:
    """max over k of the float (k + 1)/n1 - #{b <= a[k]}/n2, a and b sorted,
    by the bounded search of ``ks_2samp``."""
    n1, n2 = a.size, b.size

    def probe(k, best):
        """The largest of ``best`` and the terms at the probes ``k`` (each row
        ascending), and the first probe of every gap in a row whose bound reaches it."""
        counts = np.searchsorted(b, a[k], side="right")
        best = max(best, ((k + 1) / n1 - counts / n2).max(initial=-math.inf))
        return best, k[..., :-1][k[..., 1:] / n1 - counts[..., :-1] / n2 >= best]

    # the first row spans the sample and each second-level row one block;
    # clipping a row's overhang repeats the last point, whose term is exact
    best, blocks = probe(np.minimum(np.arange(0, n1 - 1 + _KS_STRIDE, _KS_STRIDE), n1 - 1),
                         -math.inf)
    # a batch of blocks at a time, so the temporaries do not grow with the
    # number of blocks that reach the bound
    for i in range(0, blocks.size, _KS_BATCH):
        best, starts = probe(np.minimum(blocks[i:i + _KS_BATCH, None]
                                        + np.arange(0, _KS_STRIDE + 1, _KS_SUBSTRIDE), n1 - 1),
                             best)
        k = np.minimum(starts[:, None] + np.arange(1, _KS_SUBSTRIDE), n1 - 1)
        best = max(best, ((k + 1) / n1 - np.searchsorted(b, a[k], side="right") / n2)
                   .max(initial=-math.inf))
    return float(best)


def verify_ancillarity(token: str, statistic: str, config: MCConfig,
                       c: float = 1.0) -> VerificationReport:
    """Pass iff the statistic's sampling distribution is grid-invariant.

    Each grid point's sample is sorted once (after its mean and SE are
    taken: ``np.mean`` sums pairwise, so the order changes the last bits) and
    shared by every KS pair it belongs to.  Each pair's D is compared with
    its own threshold KS_CRITICAL * sqrt((n1 + n2) / (n1 n2)), since dropping
    degenerate replicates can leave the samples of unequal size; the report's
    ``ks_threshold`` is the threshold of the pair whose D comes closest to
    its own (largest D / threshold), the one threshold of every pair when
    the sizes are equal.

    First ``run_grid``'s look fails the claim on the first chunks alone, m_k
    replicates at point k, when some pair's D exceeds ``dkw_bound(m_i) +
    dkw_bound(m_j)``: by Massart's DKW inequality, with probability at most
    DKW_DELTA for an invariant statistic of any law.  Such a report holds
    the first chunks' means, SEs and D's, each point's ``replicates``,
    ``dkw_delta``, and the deciding pair's bound as ``ks_threshold``.
    """
    grid = config.theta_grid
    if len(grid) < 2:
        raise ValueError("ancillarity check needs at least 2 grid points")
    decided = []  # the look's (pair_stats, tested), once it fails the claim

    def look(first):
        samples = [np.sort(p[statistic]) for p in first]  # copies: the moments sum these
        eps = [dkw_bound(s.size, len(grid)) for s in samples]
        pairs = _ks_pairs(samples, grid, lambda i, j: eps[i] + eps[j])
        if any(d > t for d, t in pairs[1]):
            decided.append(pairs)
        return bool(decided)

    drawn, degenerate = run_grid(token, grid, config.n, c, config, [statistic], look=look)
    samples = [p[statistic] for p in drawn]
    points = []
    for t, s in zip(grid, samples):
        m, se = _mean_se(_moments(s, order=2))
        if not (math.isfinite(m) and math.isfinite(se)):  # squares overflowed, or N = 1
            raise VerificationError(f"{statistic} at theta={t:g} has mean {m:g} (SE {se:g}); "
                                    f"a report needs both finite")
        points.append(GridPointResult(param=t, estimates={statistic: m}, se={statistic: se},
                                      statistics={"replicates": s.size} if decided else {}))
    if decided:
        pair_stats, tested = decided[0]
    else:
        for s in samples:
            s.sort()
        # sqrt(2 / n) bit for bit when the sizes are equal
        pair_stats, tested = _ks_pairs(samples, grid, lambda i, j: KS_CRITICAL * math.sqrt(
            1.0 / samples[i].size + 1.0 / samples[j].size))
    max_ks = max(d for d, _ in tested)
    threshold = max(tested, key=lambda dt: dt[0] / dt[1])[1]
    invariant = all(d < t for d, t in tested)
    verdicts = {"distribution-invariant": "pass" if invariant else "fail"}
    if degenerate > 0:
        verdicts["no-degenerate-samples"] = "fail"
    return _report(f"ancillarity of {statistic} for {token}", config, points,
                   {"max_ks": max_ks, "ks_threshold": threshold, **pair_stats,
                    **({"dkw_delta": DKW_DELTA} if decided else {})}, verdicts, degenerate)


def dkw_bound(m: int, points: int) -> float:
    """sqrt(ln(2 points / DKW_DELTA) / (2 m)), which the empirical CDF of m draws
    exceeds, from its law's, with probability at most DKW_DELTA / points
    (Massart 1990, any law); infinite when m is 0."""
    return math.sqrt(math.log(2 * points / DKW_DELTA) / (2 * m)) if m else math.inf


def _ks_pairs(samples, grid, bound) -> tuple[dict, list]:
    """``{"ks[ti,tj]": D}`` of every pair of the sorted ``samples``, and each
    pair's (D, ``bound(i, j)``)."""
    ds = {(i, j): ks_2samp(samples[i], samples[j])
          for i in range(len(samples)) for j in range(i + 1, len(samples))}
    return ({f"ks[{grid[i]:g},{grid[j]:g}]": d for (i, j), d in ds.items()},
            [(d, bound(i, j)) for (i, j), d in ds.items()])


def look_z(points: int) -> float:
    """-ndtri(DKW_DELTA / (2 points)), which a standard normal z exceeds in
    absolute value with probability DKW_DELTA / points: a look that fails a
    claim when some point's |z| exceeds it fails a true claim with probability
    at most DKW_DELTA, under the normal approximation of each z.  5.10 at 3 points."""
    return -float(ndtri(DKW_DELTA / (2 * points)))


def _z_look(judge, points: int, decided: list):
    """``run_grid``'s look for a z-based verdict.  ``judge(drawn)`` is the code
    that makes the verifier's report points and statistics, ``max_abs_z``
    among them, from the moments ``run_grid`` returns.  On the first chunks,
    the look fails the claim when ``max_abs_z`` exceeds ``look_z(points)``, and
    appends the judgement to ``decided``, with each point's ``replicates``,
    ``look_z`` and ``look_level``.  First chunks that ``judge`` makes no report
    of (an SE of 0 or not finite, rao's self-check, or a squared SE out of the
    float range) are not judged: the run draws every chunk.
    """
    threshold = look_z(points)

    def look(first):
        try:
            report_points, statistics = judge(first)
        except (VerificationError, ArithmeticError):
            return False
        if statistics["max_abs_z"] > threshold:
            for point, moments in zip(report_points, first):
                # every quantity's moments count the point's kept replicates
                point.statistics["replicates"] = int(next(iter(moments.values()))[0])
            decided.append((report_points, {**statistics, "look_z": threshold,
                                            "look_level": DKW_DELTA}))
        return bool(decided)
    return look


def verify_first_order(token: str, statistic: str, config: MCConfig,
                       c: float = 1.0) -> VerificationReport:
    """Pass iff the statistic's mean is constant (within 3 SE) across the grid.

    When the statistic has a known parameter-free mean on the family (its
    row's ``target``), the comparison is against that constant; otherwise
    against the pooled grand mean.  A grid point where the statistic is
    constant (SE 0), or a z that is not finite, raises VerificationError,
    so a NaN never passes.  ``_z_look`` fails the claim
    on the first chunks alone when their max |z| exceeds ``look_z``.
    Streams: keeps the moments of each grid point, not its replicates.
    """
    target_fn = (resolve_statistic(statistic, token, config.n).target or {}).get(token)

    def judge(drawn):
        means, ses = zip(*(_mean_se(p[statistic]) for p in drawn))
        for t, se in zip(config.theta_grid, ses):
            _z(0.0, se, statistic, t)
        if target_fn is not None:
            target = target_fn(c)
            target_se = 0.0
        else:  # inverse-variance weights relative to the least variance, all in (0, 1]
            se_min = min(ses)
            wts = [(se_min / se) ** 2 for se in ses]
            target = sum(w * m for w, m in zip(wts, means)) / sum(wts)
            target_se = se_min / math.sqrt(sum(wts))
        zmax = 0.0
        points = []
        for t, m, se in zip(config.theta_grid, means, ses):
            z = (m - target) / math.hypot(se, target_se)
            if not math.isfinite(z):
                raise VerificationError(f"z of {statistic} at theta={t:g} is {z:g}; "
                                        f"its mean {m:g} or the target {target:g} is not finite")
            zmax = max(zmax, abs(z))
            points.append(GridPointResult(param=t, estimates={statistic: m},
                                          se={statistic: se}, statistics={"z": z}))
        return points, {"target_mean": target, "max_abs_z": zmax}

    decided = []
    drawn, degenerate = run_grid(token, config.theta_grid, config.n, c, config, [statistic],
                                 moments_of=lambda sim: sim,
                                 look=_z_look(judge, len(config.theta_grid), decided))
    points, statistics = decided[0] if decided else judge(drawn)
    verdicts = {"mean-constant": "pass" if statistics["max_abs_z"] < 3.0 else "fail"}
    return _report(f"first-order ancillarity of {statistic} for {token}", config, points,
                   statistics, verdicts, degenerate)


def _quantile_edges(arr: np.ndarray, k: int) -> np.ndarray:
    """The distinct k-quantile edges of ``arr``, ascending, from a sorted copy: the
    same order statistics, found faster than by partitioning the unsorted sample."""
    return np.unique(np.quantile(np.sort(arr), np.linspace(0.0, 1.0, k + 1)[1:-1],
                                 overwrite_input=True))


def _bin_index(arrays, edges) -> np.ndarray:
    """The int8 cell of each replicate among the bins of ``arrays`` at their
    ascending ``edges``: of one array x, its bin #{edges[0] <= x}; of two,
    a and b, the row-major index of (#{edges[0] <= a}, #{edges[1] <= b}).

    A bin is ``np.searchsorted(e, x, side="right")`` element for element,
    counted with one vectorised comparison per edge instead of a binary
    search on unsorted keys.  Preconditions: no array holds a NaN (one would
    land in bin 0, where searchsorted puts it last; ``run_grid``'s finiteness
    check leaves none, and +-inf are binned as searchsorted bins them), and
    there are at most 128 cells, so every index fits in int8.
    """
    idx = np.zeros(arrays[0].shape, dtype=np.int8)
    ge = np.empty(arrays[0].shape, dtype=bool)
    for arr, e in zip(arrays, edges):
        idx *= len(e) + 1
        for edge in e:
            idx += np.greater_equal(arr, edge, out=ge)
    return idx


def chi2_contingency(observed: np.ndarray) -> tuple[float, float]:
    """Pearson's chi-square test of independence on a 2-D table of counts.

    Returns (statistic, p-value), the same float arithmetic as
    ``scipy.stats.chi2_contingency`` with its defaults, and equal to its
    statistic and p-value bit for bit: expected counts from the margins,
    Yates' continuity correction when there is one degree of freedom, and
    the p-value from the chi-square survival function ``chdtrc``.  Every
    row and column sum must be positive.
    """
    observed = np.asarray(observed, dtype=np.float64)
    rows, cols = observed.sum(axis=1, keepdims=True), observed.sum(axis=0, keepdims=True)
    expected = rows * cols / observed.sum()
    dof = expected.size - sum(expected.shape) + 1
    if dof == 1:  # Yates: move each count toward its expectation by at most 0.5
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = float(((observed - expected) ** 2 / expected).sum())
    return stat, float(chdtrc(dof, stat))


def verify_independence(stat_a: str, stat_b: str, token: str, config: MCConfig,
                        c: float = 1.0) -> VerificationReport:
    """Pass iff no dependence between stat_a and stat_b is detected at any grid point.

    Each margin is split at the deciles (fewer bins for small N, so every
    expected cell count stays >= 5) of a pilot, ceil(N / N_CHUNKS) replicates
    a point (at least min(N, N_CHUNKS)) from ``master_seed + 1``; each chunk
    counts its table at those edges, and a chi-square test runs on their sum.
    """
    k = min(10, max(2, int(math.sqrt(config.replicates / 5.0))))
    pilot_config = replace(config, master_seed=config.master_seed + 1, replicates=min(
        config.replicates, max(N_CHUNKS, -(-config.replicates // N_CHUNKS))))
    edges = [[_quantile_edges(sim[name], k) for name in (stat_a, stat_b)] for sim in run_grid(
        token, config.theta_grid, config.n, c, pilot_config, [stat_a, stat_b])[0]]

    def count_table(gi, sim):  # in a pool thread; at most 10 x 10 cells
        shape = [len(e) + 1 for e in edges[gi]]
        cells = _bin_index([sim[stat_a], sim[stat_b]], edges[gi])
        return {"table": np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape)}

    drawn, degenerate = run_grid(token, config.theta_grid, config.n, c,
                                 config, [stat_a, stat_b], counts_of=count_table)
    points = []
    for t, counted in zip(config.theta_grid, drawn):
        table = counted["table"]
        # ties, or pilot edges past every counted value, leave bins empty: no information
        table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
        # a (near-)constant statistic is independent of anything
        chi2, p = chi2_contingency(table) if min(table.shape) >= 2 else (0.0, 1.0)
        points.append(GridPointResult(param=t, statistics={"chi2": chi2, "p_value": p}))
    min_p = min((pt.statistics["p_value"] for pt in points), default=1.0)
    verdicts = {"independent": "pass" if min_p >= INDEPENDENCE_ALPHA else "fail"}
    return _report(f"independence of {stat_a} and {stat_b} for {token}", config, points,
                   {"min_p_value": min_p, "alpha": INDEPENDENCE_ALPHA, "bins": k},
                   verdicts, degenerate)


@dataclass(frozen=True)
class ZeroMeanSpec:
    """A statistic with E_theta U = 0 at every theta.

    ``source`` names a simulated quantity, ``transform`` maps it
    elementwise, and ``center`` (with its standard error) is subtracted:
    U = transform(source) - center.  For an ancillary source the center is
    parameter-free, so U is zero-mean at every theta.
    """

    id: str
    source: str
    transform: object  # callable ndarray -> ndarray
    center: float
    center_se: float

    def evaluate(self, sim: dict) -> np.ndarray:
        return np.asarray(self.transform(sim[self.source]), dtype=float) - self.center


def identity(x):
    return x


def _positive_log(token: str, *_):
    """np.log of the ancillary of family ``token``; DomainError, before any log
    is taken, when some replicate of the ancillary is not positive."""
    def log(x):
        if not (x > 0).all():
            raise DomainError(f"transform 'log' needs a positive ancillary, but "
                              f"{FAMILIES[token].ancillary} takes values <= 0 "
                              f"on family {token!r}")
        return np.log(x)
    return log


def _median_indicator(token: str, config: MCConfig, c: float):
    """1{w <= median}, the ancillary's median frozen from 1e5 replicates at theta=1,
    drawn from ``config``'s ``master_seed + 2``."""
    median_run = replace(config, master_seed=config.master_seed + 2, replicates=100_000,
                         theta_grid=(1.0,))
    drawn, _ = run_grid(token, median_run.theta_grid, median_run.n, c, median_run, ["ancillary"])
    median = float(np.median(drawn[0]["ancillary"]))
    return lambda w: (np.asarray(w) <= median).astype(float)


#: Transforms of the ancillary for zero-mean statistics, by name: each maps
#: (token, config, c) to the elementwise transform; the log reads the token,
#: the median indicator all three, for its median run.
TRANSFORMS = {"log": _positive_log, "identity": lambda *_: identity,
              "indicator": _median_indicator}


#: Replicates of the run that estimates the centre of rao's U.
CENTRING_REPLICATES = 10 ** 6


def zero_mean_from_ancillary(transform: str, token: str, config: MCConfig,
                             c: float = 1.0) -> ZeroMeanSpec:
    """The zero-mean statistic U of family ``token``: the one builder of rao's U.

    A family row with a ``contrast`` gives that contrast, whose mean is 0
    exactly: centre 0, SE 0, and nothing is drawn.  Otherwise U is the
    ``TRANSFORMS[transform]`` of the ancillary less its mean, estimated once
    from CENTRING_REPLICATES at theta = 1, drawn from ``config``'s
    ``master_seed + 1`` (the indicator's median from ``+ 2``) on its workers,
    which it does not depend on; its SE is carried, so the covariance test
    can widen its error band.  Streams: keeps the moments, not the replicates.
    """
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    contrast = FAMILIES[token].contrast
    if contrast:
        return ZeroMeanSpec("first-contrast", contrast, identity, center=0.0, center_se=0.0)
    fn = TRANSFORMS[transform](token, config, c)
    centring = replace(config, master_seed=config.master_seed + 1,
                       replicates=CENTRING_REPLICATES, theta_grid=(1.0,))
    drawn, _ = run_grid(token, centring.theta_grid, centring.n, c, centring, ["ancillary"],
                        moments_of=lambda sim: {"U": fn(sim["ancillary"])})
    center, center_se = _mean_se(drawn[0]["U"])
    return ZeroMeanSpec(f"{transform}-of-ancillary", "ancillary", fn, center, center_se)


def rao_zero_cov(g_stat: str, u: ZeroMeanSpec, token: str, config: MCConfig,
                 power: int = 1, c: float = 1.0) -> VerificationReport:
    """Estimate E_theta(g^k * U) across the grid and test consistency with 0.

    Verdicts: ``consistent`` (pass) when every |z| < 3, ``violates`` (fail)
    when some |z| > 4, otherwise inconclusive.  An estimated centre
    (``center_se > 0``) is self-checked first, |mean U| < 4 SE at every grid
    point or VerificationError; on an exact centre the check could only
    turn sampling noise into an error.  ``_z_look`` fails the claim on the
    first chunks alone when their max |z| exceeds ``look_z``.
    Streams: keeps the moments of U, g^k U and g^k, not the replicates.
    """
    if not 1 <= power <= 6:
        raise ValueError(f"power must be in [1, 6], got {power}")

    def quantities(sim):
        uvals = u.evaluate(sim)
        g = sim[g_stat] ** power
        return {"U": uvals, "gU": g * uvals, "g": g}

    def judge(drawn):
        points = []
        zmax = 0.0
        for t, moments in zip(config.theta_grid, drawn):
            m_u, se_u = _mean_se(moments["U"])
            se_u_total = math.sqrt(se_u ** 2 + u.center_se ** 2)
            if u.center_se > 0 and abs(m_u) > 4.0 * se_u_total:
                raise VerificationError(
                    f"zero-mean self-check failed for {u.id} at theta={t}: "
                    f"mean {m_u:.4g} vs SE {se_u_total:.4g}")
            est, se_prod = _mean_se(moments["gU"])
            # uncertainty of the frozen centering constant enters through E[g^k]
            se = math.sqrt(se_prod ** 2 + (float(moments["g"][1]) * u.center_se) ** 2)
            z = _z(est, se, "E[g^k U]", t)
            zmax = max(zmax, abs(z))
            points.append(GridPointResult(
                param=t, estimates={"E[g^k U]": est}, se={"E[g^k U]": se},
                statistics={"z": z, "mean_U": m_u}))
        return points, {"max_abs_z": zmax, "power": power}

    decided = []
    drawn, degenerate = run_grid(token, config.theta_grid, config.n, c, config,
                                 [g_stat, u.source], moments_of=quantities,
                                 look=_z_look(judge, len(config.theta_grid), decided))
    points, statistics = decided[0] if decided else judge(drawn)
    zmax = statistics["max_abs_z"]
    if zmax < 3.0:
        verdict = "pass"       # consistent with the UMVUE necessary condition
    elif zmax > 4.0:
        verdict = "fail"       # violates the necessary condition
    else:
        verdict = "inconclusive"
    return _report(f"zero covariance of {g_stat}^{power} with {u.id} for {token}", config, points,
                   statistics, {"zero-covariance": verdict}, degenerate)


def cond_moment_dependence(g_stat: str, token: str, config: MCConfig,
                           w_stat: str = "ancillary", c: float = 1.0) -> VerificationReport:
    """Bin the ancillary into deciles, at ``config``'s one grid point theta, and
    test whether E(g^2 | bin) varies.

    Verdict ``fail`` (dependence detected) when the spread between the
    extreme bin means exceeds 4x their combined SE; ``pass`` means no
    dependence was detected.  When ``w_stat``'s row is the family's ancillary
    row and g's row has ``cond_m2`` (``nile_star``), each bin also carries that
    prediction at the bin center.  Ties in w can leave fewer than ten bins, and
    empty bins are dropped; fewer than two bins, a bin of fewer than two
    replicates, or a bin whose variance of g^2 underflowed where g varies
    raises VerificationError.

    The bins are grouped by one stable sort of the bin index: each bin is a
    slice of that permutation, which lists its replicates in their drawn
    order, so every bin's moments and median are those of a boolean-mask
    selection, bit for bit.
    """
    (theta,) = config.theta_grid  # ValueError unless the run has one grid point
    drawn, degenerate = run_grid(token, config.theta_grid, config.n, c, config,
                                 [g_stat, w_stat])
    binned = resolve_statistic(w_stat, token, config.n)
    predict = (resolve_statistic(g_stat, token, config.n).cond_m2
               if binned is STATISTICS.get(FAMILIES[token].ancillary) else None)
    sim = drawn[0]
    g, w = sim[g_stat], sim[w_stat]
    idx = _bin_index([w], [_quantile_edges(w, 10)])
    counts = np.bincount(idx)
    held = counts[counts > 0]  # ties in w, or a small sample, can leave a bin empty
    if held.size < 2:
        raise VerificationError(f"{w_stat} at theta={theta:g} falls in one decile bin; "
                                f"there are no bin means to compare")
    if held.min() < 2:
        raise VerificationError(f"a decile bin of {w_stat} at theta={theta:g} holds "
                                f"{held.min()} replicates; its mean cannot be tested")
    by_bin = np.argsort(idx, kind="stable")
    bins = []  # (mean, SE, center, count) of g^2 in each nonempty decile bin of w
    for end, count in zip(np.cumsum(held).tolist(), held.tolist()):
        sel = by_bin[end - count:end]
        with np.errstate(over="ignore"):  # an overflow gives the nan spread reported below
            g2 = g[sel] ** 2
        moments = _moments(g2, order=2)
        var = moments[2] / (count - 1)
        if var < np.finfo(float).tiny and np.ptp(g[sel]) > 0:  # g^2 underflowed
            raise VerificationError(f"{g_stat}^2 at theta={theta:g} has variance {var:g} in a "
                                    f"bin of {w_stat}, not a normal float; its SE cannot be "
                                    f"computed")
        bins.append((*_mean_se(moments), float(np.median(w[sel])), count))
    bin_means = [m for m, *_ in bins]
    i_lo = int(np.argmin(bin_means))
    i_hi = int(np.argmax(bin_means))
    spread = bin_means[i_hi] - bin_means[i_lo]
    spread_se = math.sqrt(bins[i_hi][1] ** 2 + bins[i_lo][1] ** 2)
    # g^2 overflowed, or is one value in every bin (e.g. g underflowed to 0): no test
    if not (math.isfinite(spread) and math.isfinite(spread_se)) or spread == spread_se == 0:
        raise VerificationError(f"spread of E[g^2|bin] at theta={theta:g} is {spread:g} "
                                f"(SE {spread_se:g}); it cannot be tested")
    points = []
    for m, se, center, count in bins:
        stats = {"bin_count": count}
        if predict:
            pred = predict(center, theta, config.n)
            stats["prediction"] = pred
            stats["prediction_z"] = _z(m - pred, se, f"E[g^2|bin] at centre {center:g}", theta)
        points.append(GridPointResult(param=center, estimates={"E[g^2|bin]": m},
                                      se={"E[g^2|bin]": se}, statistics=stats))
    depends = spread > 4.0 * spread_se
    return _report(f"conditional second moment of {g_stat} given {w_stat} for {token}",
                   config, points, {"spread": spread, "spread_se": spread_se, "theta": theta},
                   {"no-dependence": "fail" if depends else "pass"}, degenerate)


def _score(x1, theta, c):
    """Score of one observation ``x1`` of N(theta, (c theta)^2), from its pivot
    u = (x1 - theta) / theta, so that no power of theta is formed."""
    u = (x1 - theta) / theta
    return (-1.0 + u / (c * c) + u * u / (c * c)) / theta


#: Elements of the score that ``_scaled_score`` forms at once (64 KiB of float64).
_SCORE_BLOCK = 8192


def _scaled_score(x1, theta, c):
    """theta times ``_score`` of each ``x1``, filled into one array a block of
    ``_SCORE_BLOCK`` at a time, so that no temporary is longer than a block."""
    out = np.empty(x1.shape)
    for i in range(0, x1.size, _SCORE_BLOCK):
        out[i:i + _SCORE_BLOCK] = theta * _score(x1[i:i + _SCORE_BLOCK], theta, c)
    return out


def fisher_info(config: MCConfig, c: float) -> VerificationReport:
    """MC variance of the per-observation score vs the closed form (2 + 1/c^2)/theta^2,
    at ``config``'s one grid point theta.

    Also reports the location-only information 1/(c^2 theta^2) and the ratio
    (2 c^2 + 1) between the two.  Raises VerificationError before drawing where
    theta^2 or either information is not a normal float, or where c*theta is
    under 1e4 float spacings at theta, which rounds the draws to a few floats.
    Streams: keeps the moments of theta times the score of each replicate's one
    observation ``x1``, whose fourth central moment stays in the float range.
    """
    (theta,) = config.theta_grid  # ValueError unless the run has one grid point
    if not np.finfo(float).tiny <= theta * theta < math.inf:  # the variance's divisor
        raise VerificationError(f"score_variance at theta={theta:g}: theta^2 is not a normal float")
    FAMILIES["normal_cv"].check(theta, c)
    if c * theta < 1e4 * np.spacing(theta):  # rounding adds ~spacing^2/12 to (c theta)^2
        raise VerificationError(f"c*theta = {c * theta:g} at theta={theta:g} is under 1e4 float "
                                f"spacings at theta ({np.spacing(theta):g}); the draws would "
                                f"round to a few floats")
    closed = (2.0 + 1.0 / (c * c)) / (theta * theta)  # c > 1e-12 here, so c^2 > 0
    location_only = 1.0 / max(c * c * theta * theta, math.ulp(0.0))  # inf where that underflows
    for quantity, value in (("closed_form", closed), ("location_only", location_only)):
        if not np.finfo(float).tiny <= value < math.inf:
            raise VerificationError(f"{quantity} at theta={theta:g}, c={c:g} is {value:g}, "
                                    f"not a normal float")
    drawn, _ = run_grid("normal_cv", config.theta_grid, config.n, c, config, ["x1"],
                        moments_of=lambda sim: {"score": _scaled_score(sim["x1"], theta, c)})
    var, se = (v / (theta * theta) for v in _var_se(drawn[0]["score"]))
    z = _z(var - closed, se, "score_variance", theta)
    point = GridPointResult(param=theta, estimates={"score_variance": var},
                            se={"score_variance": se}, statistics={"z": z})
    return _report(f"Fisher information of N(theta, (c*theta)^2) at theta={theta:g}, c={c:g}",
                   config, [point], {"closed_form": closed, "location_only": location_only,
                                     "info_ratio": 2.0 * c * c + 1.0},
                   {"matches-closed-form": "pass" if abs(z) < 3.0 else "fail"})


def variance_table(estimators, token: str, config: MCConfig,
                   c: float = 1.0) -> VerificationReport:
    """MC bias, variance, and MSE per estimator per grid point.

    Raises VerificationError where an estimate, its variance or their SEs
    are not finite, or where a varying estimator's variance squared is not
    a normal float, so that its variance SE would underflow to 0.
    """
    drawn, degenerate = run_grid(token, config.theta_grid, config.n, c,
                                 config, list(estimators))
    points = []
    for t, sim in zip(config.theta_grid, drawn):
        est, se, stats = {}, {}, {}
        for name in estimators:
            moments = _moments(sim[name])
            m, m_se = _mean_se(moments)
            var, var_se = _var_se(moments)
            # var^2 and M4 / N underflowed, so the SE would read 0; a constant
            # estimator's zero variance and SE are exact
            if var * var < np.finfo(float).tiny and (var > 0 or np.ptp(sim[name]) > 0):
                raise VerificationError(f"{name} at theta={t:g} has variance {var:g}, whose "
                                        f"square is not a normal float; its SE cannot be computed")
            if not all(map(math.isfinite, (m, m_se, var, var_se))):
                raise VerificationError(f"{name} at theta={t:g} has mean {m:g} (SE {m_se:g}) and "
                                        f"variance {var:g} (SE {var_se:g}); a table needs all finite")
            est[f"{name}.bias"] = m - t
            se[f"{name}.bias"] = m_se
            est[f"{name}.variance"] = var
            se[f"{name}.variance"] = var_se
            est[f"{name}.mse"] = var + (m - t) ** 2
            stats[f"{name}.mean"] = m
        points.append(GridPointResult(param=t, estimates=est, se=se, statistics=stats))
    return _report(f"bias/variance/MSE of {', '.join(estimators)} for {token}", config, points,
                   {}, {"table-computed": "pass"}, degenerate)
