"""Empirical variograms over network distances and parametric model fitting.

The semivariance of a lag bin is half the mean squared difference of all
site pairs whose along-network separation falls in the bin. Two bounded
model shapes are supported, the spherical and the exponential; their range
parameter is the practical range, the distance where the model has reached
(almost) its sill.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyVariogramError,
    FitConvergenceError,
    InsufficientDataError,
    ValidationError,
)
from .tableio import NOT_STORED, record

MODEL_KINDS = ("spherical", "exponential")
# defaults of an empirical variogram and its fit: the lag bins, spanning
# LAG_PERCENTILES of the pair distances, and the fewest pairs of a used bin
LAG_BINS = 15
LAG_PERCENTILES = (1.0, 95.0)
MIN_PAIRS = 5

# The fitted range is searched within RANGE_LIMITS times the largest usable
# lag: over RANGE_GRID log-spaced values, then by zoom rounds over the two
# grid steps around the best one. Each round evaluates RANGE_ZOOM evenly
# spaced log-ranges across the bracket and keeps the two spacings around the
# best, a quarter of the bracket, until it is RANGE_XTOL wide in natural-log
# range: 15 rounds, 135 evaluations per fit and kind.
RANGE_LIMITS = (1e-6, 1e3)
RANGE_GRID = 128
RANGE_ZOOM = 9
RANGE_XTOL = 1e-9
_ZOOM_STEPS = np.linspace(0.0, 1.0, RANGE_ZOOM)
# Weighted RSS values closer than this relative gap (plus the same absolute
# gap) count as a tie.
RSS_TIE = 1e-15
# the lower bound of a fitted sill, over the largest usable semivariance
_SILL_FLOOR = 1e-8
# at most this many bytes of figures, the (fits, candidates) and (fits,
# candidates, lags) arrays of a search, go to one stacked range search
_SEARCH_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class VariogramModel:
    """A fitted (or assumed) variogram: nugget + sill * shape(h / range).

    The model value at lag zero is the nugget; beyond the range it stays at
    nugget + sill (the exponential shape reaches 95 percent of the sill
    there and is treated as saturated). ``degenerate`` marks fits
    where the sill collapsed to its lower bound, meaning the data showed no
    usable spatial structure. ``range_at_bound`` marks fits whose range ran
    to the upper end of the search, 1e3 times the largest usable lag: the
    data never levelled off, so range and sill are extrapolated. A JSON
    record stores the four parameters, not these fit diagnostics.
    """

    kind: str
    nugget: float
    sill: float
    range_km: float
    rss: float | None = field(default=None, metadata=NOT_STORED)
    degenerate: bool = field(default=False, metadata=NOT_STORED)
    range_at_bound: bool = field(default=False, metadata=NOT_STORED)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValidationError(f"kind must be one of {MODEL_KINDS}, got '{self.kind}'")
        if not (math.isfinite(self.nugget) and self.nugget >= 0):
            raise ValidationError(f"nugget must be nonnegative, got {self.nugget}")
        if not (math.isfinite(self.sill) and self.sill > 0):
            raise ValidationError(f"sill must be positive, got {self.sill}")
        if not (math.isfinite(self.range_km) and self.range_km > 0):
            raise ValidationError(f"range must be positive, got {self.range_km}")

    @classmethod
    def from_dict(cls, data):
        return record(cls, data, "variogram model")


def _shape(kind, h, range_km):
    """Unit-sill model shape, 0 at the origin and saturating at 1."""
    if kind == "spherical":
        r = np.minimum(h, range_km) / range_km
        return 1.5 * r - 0.5 * r**3
    # expm1 keeps full relative precision where h is far below the range
    if kind == "exponential":
        return -np.expm1(-3.0 * h / range_km)
    raise ValidationError(f"kind must be one of {MODEL_KINDS}, got '{kind}'")


def _model_gamma(kind, nugget, sill, range_km, h):
    return nugget + sill * _shape(kind, h, range_km)


def gamma(model, h):
    """Model semivariance at lag(s) ``h`` in km; h must be nonnegative, and
    an infinite lag, an unreachable pair, takes the full sill."""
    h_arr = np.asarray(h, dtype=float)
    if not np.all(h_arr >= 0):
        raise ValueError("lag distances must be nonnegative, not NaN")
    values = _model_gamma(model.kind, model.nugget, model.sill, model.range_km, h_arr)
    if np.isscalar(h) or h_arr.ndim == 0:
        return float(values)
    return values


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Binned semivariances: edges, per-bin estimate and pair count.

    Bins are left-closed; the last bin also includes its right edge. Bins
    without pairs carry NaN instead of a semivariance.
    """

    bin_edges: np.ndarray
    gamma_hat: np.ndarray
    pair_counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        gammas = np.asarray(self.gamma_hat, dtype=float)
        counts = np.asarray(self.pair_counts, dtype=int)
        if edges.ndim != 1 or edges.size < 2:
            raise ValidationError("need at least two bin edges")
        if edges[0] <= 0:
            raise ValidationError("bin edges must start above zero")
        if np.any(np.diff(edges) <= 0):
            raise ValidationError("bin edges must be strictly increasing")
        if gammas.shape != (edges.size - 1,) or counts.shape != gammas.shape:
            raise ValidationError("gamma and count arrays must have one entry per bin")
        empty = counts == 0
        if not np.all(np.isnan(gammas[empty])):
            raise ValidationError("bins without pairs must carry NaN")
        if not np.all(np.isfinite(gammas[~empty]) & (gammas[~empty] >= 0)):
            raise ValidationError("populated bins need finite nonnegative semivariances")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "gamma_hat", gammas)
        object.__setattr__(self, "pair_counts", counts)

    @property
    def centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def populated(self):
        return self.pair_counts > 0


def distance_bin_edges(distances, n_bins=LAG_BINS):
    """Equal-width lag bins spanning the ``LAG_PERCENTILES`` of pair distances.

    The tails are trimmed because extreme lags carry few pairs and destabilise
    the fit. Only finite positive distances count.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim == 2:
        iu, ju = np.triu_indices(d.shape[0], k=1)
        d = d[iu, ju]
    d = d[np.isfinite(d) & (d > 0)]
    if d.size == 0:
        raise EmptyVariogramError("no finite positive pair distance to bin")
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got {n_bins}")
    lo, hi = (float(np.percentile(d, pct)) for pct in LAG_PERCENTILES)
    lo = max(lo, hi * 1e-9)
    if not hi > lo:
        raise InsufficientDataError(
            "pair distances are too concentrated to form lag bins"
        )
    return np.linspace(lo, hi, n_bins + 1)


@dataclass(frozen=True, eq=False)
class LagPairs:
    """The usable site pairs of a distance matrix and their lag bins.

    Built once per set of sites and bin edges by ``lag_pairs``, then shared
    by every row of values observed at those sites. ``first`` and
    ``second`` index the two sites of each pair and ``bins`` its lag bin, in
    row-major order of the upper triangle; ``pair_counts`` holds the pairs
    per bin. The arrays are read-only.
    """

    sites: int
    bin_edges: np.ndarray
    first: np.ndarray
    second: np.ndarray
    bins: np.ndarray
    pair_counts: np.ndarray

    def variogram(self, values):
        """The empirical variogram of ``values``, one per site.

        Each bin's squared differences are added in pair order, so the
        semivariances are reproducible to the last bit. Finite values whose
        semivariances overflow raise ``FitConvergenceError``.
        """
        vals = np.asarray(values, dtype=float)
        if vals.shape != (self.sites,):
            raise ValidationError(f"{vals.size} values for {self.sites} sites")
        with np.errstate(over="ignore"):
            sq = (vals[self.first] - vals[self.second]) ** 2
        sums = np.bincount(self.bins, weights=sq, minlength=self.pair_counts.size)
        gammas = np.full(self.pair_counts.size, np.nan)
        populated = self.pair_counts > 0
        gammas[populated] = sums[populated] / (2.0 * self.pair_counts[populated])
        if np.isinf(gammas).any() and np.isfinite(vals).all():
            raise FitConvergenceError("the squared value differences overflow")
        return EmpiricalVariogram(
            bin_edges=self.bin_edges, gamma_hat=gammas, pair_counts=self.pair_counts
        )


def lag_pairs(distances, bin_edges):
    """Assign the unordered site pairs of a square distance matrix to lag bins.

    Pairs with an unreachable (infinite) separation are dropped; if no pair
    is usable at all an error is raised. Bins are left-closed and the last
    also includes its right edge; pairs outside every bin are dropped.
    """
    dist = np.asarray(distances, dtype=float)
    edges = np.array(bin_edges, dtype=float)
    n_bins = edges.size - 1
    iu, ju = np.triu_indices(dist.shape[0], k=1)
    d = dist[iu, ju]
    reachable = np.isfinite(d)
    if not reachable.any():
        raise EmptyVariogramError("every site pair is unreachable")

    idx = np.searchsorted(edges, d, side="right") - 1
    idx[d == edges[-1]] = n_bins - 1  # close the last bin on the right
    in_bin = reachable & (idx >= 0) & (idx < n_bins) & (d <= edges[-1])
    pairs = LagPairs(
        sites=dist.shape[0],
        bin_edges=edges,
        first=iu[in_bin],
        second=ju[in_bin],
        bins=idx[in_bin],
        pair_counts=np.bincount(idx[in_bin], minlength=n_bins),
    )
    for array in (edges, pairs.first, pairs.second, pairs.bins, pairs.pair_counts):
        array.flags.writeable = False
    return pairs


def empirical_variogram(values, distances, bin_edges):
    """Bin half the squared differences of all unordered site pairs.

    ``values`` aligns with the rows of the square ``distances`` matrix.
    This is ``lag_pairs(distances, bin_edges).variogram(values)``: pairs
    with an unreachable (infinite) separation are dropped, an empty
    variogram raises, and pairs are accumulated in a fixed row-major order
    so results are reproducible to the last bit.
    """
    vals = np.asarray(values, dtype=float)
    dist = np.asarray(distances, dtype=float)
    n = vals.size
    if dist.shape != (n, n):
        raise ValidationError(
            f"distance matrix shape {dist.shape} does not match {n} values"
        )
    if n < 2:
        raise InsufficientDataError("need at least two sites for a variogram")
    return lag_pairs(dist, bin_edges).variogram(vals)


class _Shapes(NamedTuple):
    """Unit-sill shapes of candidate (kind, range) rows at the usable lags,
    with the pair-weighted moments that no semivariance enters.

    Every moment is a sum along the lags of one row, so each row's figures
    do not depend on which other rows are stacked with it. The arrays are
    (candidates, lags), shared by every fit, or (fits, candidates, lags).
    """

    phi: np.ndarray  # (..., candidates, lags)
    mean: np.ndarray  # weighted mean of each row
    dev: np.ndarray  # phi minus its row mean
    dev_sq: np.ndarray  # weighted mean of dev**2
    sq: np.ndarray  # weighted mean of phi**2


def _shapes(kinds, ranges, h, w):
    """``_Shapes`` of the ranges ``ranges[k]`` of each ``kinds[k]``, stacked
    kind by kind along the candidate axis; ``ranges[k]`` is (candidates,) or
    (fits, candidates)."""
    phi = np.concatenate(
        [_shape(kind, h, r[..., None]) for kind, r in zip(kinds, ranges)], axis=-2
    )
    mean = np.einsum("...l,l->...", phi, w)
    dev = phi - mean[..., None]
    return _Shapes(
        phi, mean, dev,
        np.einsum("...l,...l,l->...", dev, dev, w),
        np.einsum("...l,...l,l->...", phi, phi, w),
    )


def _linear_fits(shapes, g, g_mean, w):
    """Pair-weighted least-squares nugget and sill for each candidate of each fit.

    ``g`` is (fits, lags), one row of scaled semivariances per fit, and
    ``g_mean`` its ``w @ g`` row by row; ``shapes`` holds the candidates,
    shared by every fit or one set per fit, and ``w`` is the pair counts
    over their sum. For a fixed kind and range the model is linear in
    nugget and sill, so the optimum under ``nugget >= 0`` and ``sill >=
    _SILL_FLOOR`` is the unconstrained one or lies on one of those two
    edges. All three are solved in closed form for every candidate at once.
    Returns ``(nugget, sill, phi_g)``: the first two of shape ``(3, fits,
    candidates)``, whose row 0 is the pure-nugget solution (sill at its
    floor), row 1 the zero-nugget one and row 2 the unconstrained one, and
    ``phi_g`` the weighted mean of ``phi * g`` per candidate. Every sum runs
    along the lags of one candidate, so each figure keeps its bits whatever
    else is stacked with it.
    """
    g_mean = g_mean[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi_g = np.einsum("...l,...l->...", shapes.phi, (w * g)[:, None, :])
        slope = np.einsum("...l,...l->...", shapes.dev, (w * (g - g_mean))[:, None, :])
        slope /= shapes.dev_sq
        nugget = np.empty((3, *slope.shape))
        sill = np.empty((3, *slope.shape))
        sill[0] = _SILL_FLOOR
        np.maximum(_SILL_FLOOR, phi_g / shapes.sq, out=sill[1])
        sill[2] = slope
        np.maximum(0.0, g_mean - _SILL_FLOOR * shapes.mean, out=nugget[0])
        nugget[1] = 0.0
        np.subtract(g_mean, slope * shapes.mean, out=nugget[2])
    return nugget, sill, phi_g


def _residual_sums(nugget, sill, phi, g, counts):
    """The weighted residual sum of squares of each ``(nugget, sill)`` at the
    unit-sill shape ``phi`` against the semivariances ``g``, broadcast
    together; infeasible or overflowing solutions carry an infinite one."""
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = sill[..., None] * phi
        residuals += nugget[..., None]
        residuals -= g
        rss = np.einsum("...l,...l,l->...", residuals, residuals, counts)
    rss[(nugget < 0) | (sill < _SILL_FLOOR) | ~np.isfinite(rss)] = np.inf
    return rss


def _least_squares(shapes, g, g_mean, w):
    """Each candidate's least-squares ``(nugget, sill, score)`` per fit.

    The unconstrained solution of ``_linear_fits`` is the optimum wherever
    it is feasible; elsewhere the optimum is the better of the two edge
    solutions. The score is the weighted mean squared residual less that
    of ``g`` itself, which every candidate of a fit shares, computed from
    the weighted moments alone: it ranks candidates with no sum over the
    lags, but it cancels where a fit is close, so it is no residual sum.
    A non-finite score reads infinite. Each array is (fits, candidates).
    """
    nugget, sill, phi_g = _linear_fits(shapes, g, g_mean, w)
    with np.errstate(over="ignore", invalid="ignore"):
        # n**2 + 2 n s mean - 2 n g_mean + s**2 sq - 2 s phi_g
        score = sill * shapes.mean
        score -= g_mean[:, None]
        score *= 2.0
        score += nugget
        score *= nugget
        cross = sill * shapes.sq
        cross -= 2.0 * phi_g
        cross *= sill
        score += cross
    unconstrained = (nugget[2] >= 0) & (sill[2] >= _SILL_FLOOR) & np.isfinite(score[2])
    choice = np.where(unconstrained, 2, score[1] < score[0])
    nugget, sill, score = (choice.choose(a) for a in (nugget, sill, score))
    score[~np.isfinite(score)] = np.inf
    return nugget, sill, score


def _improves(rss, best_rss):
    """Whether ``rss`` beats ``best_rss`` by more than a rounding-level tie."""
    rss, best_rss = float(rss), float(best_rss)
    return rss < best_rss - RSS_TIE * (1 + abs(best_rss))


def _grid_scan(kind, h, g, g_mean, counts, w):
    """The range grid and each fit's best grid index for ``kind``, ranked by
    the moment scores of ``_least_squares``, with its direct residual sum."""
    h_max = float(h.max())
    ranges = np.geomspace(RANGE_LIMITS[0] * h_max, RANGE_LIMITS[1] * h_max, RANGE_GRID)
    grid = _shapes((kind,), [ranges], h, w)
    nugget, sill, score = _least_squares(grid, g, g_mean, w)
    best = np.argmin(score, axis=-1)
    fits = np.arange(len(g))
    return ranges, best, _residual_sums(
        nugget[fits, best], sill[fits, best], grid.phi[best], g, counts
    )


def _best_ranges(kinds, h, g, counts, w):
    """Each fit's range of least weighted RSS per kind, for a stack of fits.

    The fits share one lag layout (``h``, ``counts``, ``w``) and ``g`` holds
    their scaled semivariances, one row each. A scan of the log grid,
    ranked by the moment scores of ``_least_squares``, finds each (fit,
    kind)'s best grid range; zoom rounds then narrow the bracket of the two
    grid steps around it, one stacked evaluation of every fit and kind per
    round, with one direct residual sum per candidate: that of its
    least-squares solution. The zoomed range is kept only if its residual
    sum beats the best grid range's beyond a rounding-level tie. Returns
    one list of ranges per fit, a range per kind; neither depends on the
    other fits or kinds searched with it.
    """
    # each fit's own dot, as a fit searched alone takes it
    g_mean = np.array([w @ row for row in g])
    scans = [_grid_scan(kind, h, g, g_mean, counts, w) for kind in kinds]
    ranges = scans[0][0]
    i = np.stack([best for _, best, _ in scans], axis=-1)
    grid_best = np.stack([rss for *_, rss in scans], axis=-1)
    at_fit, at_kind = np.ogrid[:len(g), :len(kinds)]
    log_ranges = np.log(ranges)
    lower = log_ranges[np.maximum(i - 1, 0)]
    upper = log_ranges[np.minimum(i + 1, RANGE_GRID - 1)]

    zoom_rss, zoom_log = np.full(i.shape, np.inf), lower
    # two grid steps, shrinking by the same factor each round: every fit
    # and kind runs the same number of rounds
    width = 2 * math.log(RANGE_LIMITS[1] / RANGE_LIMITS[0]) / (RANGE_GRID - 1)
    while width > RANGE_XTOL:
        points = lower[..., None] + (upper - lower)[..., None] * _ZOOM_STEPS
        points[..., -1] = upper
        candidates = np.exp(points)
        shapes = _shapes(kinds, [candidates[:, k] for k in range(len(kinds))], h, w)
        nugget, sill, _ = _least_squares(shapes, g, g_mean, w)
        rss = _residual_sums(nugget, sill, shapes.phi, g[:, None, :], counts)
        rss = rss.reshape(points.shape)
        j = np.argmin(rss, axis=-1)
        best = rss[at_fit, at_kind, j]
        better = best < zoom_rss
        zoom_rss = np.where(better, best, zoom_rss)
        zoom_log = np.where(better, points[at_fit, at_kind, j], zoom_log)
        lower = points[at_fit, at_kind, np.maximum(j - 1, 0)]
        upper = points[at_fit, at_kind, np.minimum(j + 1, RANGE_ZOOM - 1)]
        width *= 2 / (RANGE_ZOOM - 1)
    return [
        [
            math.exp(zoom_log[f, k]) if _improves(zoom_rss[f, k], grid_best[f, k])
            else float(ranges[i[f, k]])
            for k in range(len(kinds))
        ]
        for f in range(len(g))
    ]


def _fit_inputs(empirical, min_pairs):
    """The usable lags of a fit: ``(h, counts, w, g, scale)``.

    ``h`` holds the usable lag centres, ``counts`` their pair counts and
    ``w`` the counts over their sum; ``g`` is the semivariances divided by
    ``scale``, their maximum (or 1 where that is 0). Fewer than three usable
    bins raise ``InsufficientDataError``.
    """
    usable = empirical.populated & (empirical.pair_counts >= min_pairs) & np.isfinite(
        empirical.gamma_hat
    )
    if usable.sum() < 3:
        raise InsufficientDataError(
            f"variogram fitting needs at least 3 bins with {min_pairs}+ pairs, "
            f"got {int(usable.sum())}"
        )
    h = empirical.centers[usable]
    counts = empirical.pair_counts[usable].astype(float)
    w = counts / counts.sum()
    g_max = float(empirical.gamma_hat[usable].max())
    scale = g_max if g_max > 0 else 1.0
    return h, counts, w, empirical.gamma_hat[usable] / scale, scale


def search_ranges(empiricals, kinds=MODEL_KINDS, min_pairs=MIN_PAIRS):
    """The range ``fit_variogram`` searches for each kind, for many variograms.

    Returns one entry per empirical variogram: a list with a range per
    kind, to pass on as ``fit_variogram(..., ranges=...)``, or None where
    ``fit_variogram`` raises before it searches (an unknown kind, fewer
    than three usable lag bins); ``min_pairs`` below 1 raises
    ``ValueError``, as there. Variograms of one lag layout are searched
    together by ``_best_ranges``, in stacks whose figures hold at most
    ``_SEARCH_CHUNK_BYTES``: all of a layout's fits are one stack unless
    they are many or have many lags. Each range keeps the bits of the
    search ``fit_variogram`` makes alone.
    """
    if min_pairs < 1:
        raise ValueError(f"min_pairs must be at least 1, got {min_pairs}")
    kinds = tuple(kinds)
    searched = [None] * len(empiricals)
    if not kinds or not set(kinds) <= set(MODEL_KINDS):
        return searched
    layouts, members = {}, {}
    for f, empirical in enumerate(empiricals):
        try:
            h, counts, w, g, _ = _fit_inputs(empirical, min_pairs)
        except InsufficientDataError:
            continue  # fit_variogram raises it for this variogram
        layout = (h.tobytes(), counts.tobytes())
        layouts.setdefault(layout, (h, counts, w))
        members.setdefault(layout, []).append((f, g))
    for layout, (h, counts, w) in layouts.items():
        fits, rows = zip(*members[layout])
        g = np.array(rows)
        # a grid scan holds about 18 (fits, grid) figures of one kind at once,
        # a zoom round about 6 (fits, candidates, lags) figures of every kind
        per_fit = 8 * max(18 * RANGE_GRID, 6 * len(kinds) * RANGE_ZOOM * h.size)
        chunk = max(1, _SEARCH_CHUNK_BYTES // per_fit)
        for start in range(0, len(fits), chunk):
            stack = slice(start, start + chunk)
            for f, ranges in zip(fits[stack], _best_ranges(kinds, h, g[stack], counts, w)):
                searched[f] = ranges
    return searched


def fit_variogram(empirical, kinds=MODEL_KINDS, min_pairs=MIN_PAIRS, *, ranges=None):
    """Fit a variogram model to binned semivariances by weighted least squares.

    Residuals are weighted by the bin pair counts, bins with fewer than
    ``min_pairs`` pairs are ignored, and the shape with the lowest weighted
    residual sum of squares (RSS) wins. The fit uses variable projection:
    for a given range the model is linear in nugget and sill, which are
    solved in closed form under ``nugget >= 0`` and ``sill >= 1e-8 *
    max(gamma)``. The semivariances are fitted divided by their maximum,
    and nugget, sill and RSS scaled back, so no semivariance is squared;
    an RSS beyond the float range is reported as infinite. A best fit
    whose sill underflows to zero when scaled back, as with subnormal
    semivariances, raises ``FitConvergenceError``.

    Only the range is searched, in log space over ``RANGE_LIMITS`` times
    ``h_max``, the largest usable lag. Each kind's ``RANGE_GRID``
    log-spaced ranges are ranked by weighted moments alone; zoom rounds
    then search each kind's two grid steps around its best range, all kinds
    together, ``RANGE_ZOOM`` evenly spaced log-ranges per round, until the
    bracket is ``RANGE_XTOL`` wide. Each zoom candidate takes one direct
    residual sum, that of its least-squares nugget and sill. ``min_pairs``
    must be at least 1. ``ranges``, one per kind, positive and finite,
    skips the search: given as ``search_ranges`` returns them, the fit is
    the one the search would have given; given as one range for every
    kind, they pin it.

    A pure-nugget model (sill at its floor) is preferred whenever it fits
    as well as the best; such a fit is marked ``degenerate`` and reports
    ``h_max`` as its range, whatever the ranges given. A range within
    ``RANGE_XTOL`` of the upper bound, or beyond it, is marked
    ``range_at_bound``. Deterministic: no randomness anywhere.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("need at least one candidate kind")
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown variogram kind '{kind}'")
    if min_pairs < 1:
        raise ValueError(f"min_pairs must be at least 1, got {min_pairs}")
    if ranges is not None:
        ranges = [float(r) for r in ranges]
        if len(ranges) != len(kinds):
            raise ValueError(f"{len(ranges)} ranges for {len(kinds)} kinds")
        if not all(math.isfinite(r) and r > 0 for r in ranges):
            raise ValueError(f"ranges must be positive and finite, got {ranges} km")

    h, counts, w, g, scale = _fit_inputs(empirical, min_pairs)
    h_max = float(h.max())
    g_mean = np.array([w @ g])

    def fits_at(fit_kinds, fit_ranges):
        shapes = _shapes(fit_kinds, [np.array([r]) for r in fit_ranges], h, w)
        nugget, sill, _ = _linear_fits(shapes, g[None], g_mean, w)
        rss = _residual_sums(nugget, sill, shapes.phi, g, counts)
        return rss[:, 0], nugget[:, 0], sill[:, 0]

    if ranges is None:
        (ranges,) = _best_ranges(kinds, h, g[None], counts, w)
    rss, nugget, sill = fits_at(kinds, ranges)
    # per kind, the pure-nugget solution wins ties
    choice = np.zeros(len(kinds), dtype=int)
    for k in range(len(kinds)):
        for j in (1, 2):
            if _improves(rss[j, k], rss[choice[k], k]):
                choice[k] = j
    degenerate = choice == 0
    if degenerate.any():
        # a pure-nugget fit reports the largest usable lag as its range
        flat = np.flatnonzero(degenerate)
        rss[:, flat], nugget[:, flat], sill[:, flat] = fits_at(
            [kinds[k] for k in flat], [h_max] * flat.size
        )
        for k in flat:
            ranges[k] = h_max

    fit_rss = rss[choice, np.arange(len(kinds))]
    best = None
    for k in range(len(kinds)):
        if math.isfinite(fit_rss[k]) and (best is None or _improves(fit_rss[k], fit_rss[best])):
            best = k
    if best is None:
        raise FitConvergenceError(
            f"no variogram model of kinds {kinds} has a finite residual sum of squares"
        )
    j = choice[best]
    fit_sill = float(sill[j, best]) * scale
    if not fit_sill > 0:
        raise FitConvergenceError(
            f"the {kinds[best]} fit's sill underflows to {fit_sill} "
            f"at a semivariance scale of {scale:.3e}"
        )
    return VariogramModel(
        kind=kinds[best],
        nugget=float(nugget[j, best]) * scale,
        sill=fit_sill,
        range_km=ranges[best],
        rss=float(fit_rss[best]) * (scale * scale),
        degenerate=bool(degenerate[best]),
        range_at_bound=math.log(RANGE_LIMITS[1] * h_max / ranges[best]) <= RANGE_XTOL,
    )
