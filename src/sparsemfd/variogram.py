"""Empirical variograms over network distances and parametric model fitting.

The semivariance of a lag bin is half the mean squared difference of all
site pairs whose along-network separation falls in the bin. Three bounded
model shapes are supported; their range parameter is the practical range,
the distance where the model has reached (almost) its sill.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyVariogramError,
    FitConvergenceError,
    InsufficientDataError,
    ValidationError,
)
from .tableio import NOT_STORED, record

MODEL_KINDS = ("spherical", "exponential", "gaussian")

# The fitted range is searched over RANGE_GRID log-spaced values, then
# refined to RANGE_XTOL in natural-log range.
RANGE_GRID = 128
RANGE_XTOL = 1e-9
# Weighted RSS values closer than this relative gap (plus the same absolute
# gap) count as a tie.
RSS_TIE = 1e-15


@dataclass(frozen=True)
class VariogramModel:
    """A fitted (or assumed) variogram: nugget + sill * shape(h / range).

    The model value at lag zero is the nugget; beyond the range it stays at
    nugget + sill (the exponential and gaussian shapes reach 95 percent of
    the sill there and are treated as saturated). ``degenerate`` marks fits
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
    if kind == "gaussian":
        return -np.expm1(-3.0 * h**2 / range_km**2)
    raise ValidationError(f"kind must be one of {MODEL_KINDS}, got '{kind}'")


def _model_gamma(kind, nugget, sill, range_km, h):
    return nugget + sill * _shape(kind, h, range_km)


def gamma(model, h):
    """Model semivariance at lag(s) ``h`` in km; h must be nonnegative."""
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0):
        raise ValueError("lag distances must be nonnegative")
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


def distance_bin_edges(distances, n_bins=15, lower_pct=1.0, upper_pct=95.0):
    """Equal-width lag bins spanning the given percentile range of pair distances.

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
    lo = float(np.percentile(d, lower_pct))
    hi = float(np.percentile(d, upper_pct))
    lo = max(lo, hi * 1e-9)
    if not hi > lo:
        raise InsufficientDataError(
            "pair distances are too concentrated to form lag bins"
        )
    return np.linspace(lo, hi, n_bins + 1)


def empirical_variogram(values, distances, bin_edges):
    """Bin half the squared differences of all unordered site pairs.

    ``values`` aligns with the rows of the square ``distances`` matrix.
    Pairs with an unreachable (infinite) separation are dropped; if no pair
    is usable at all the variogram is empty and an error is raised. Pairs
    are accumulated in a fixed row-major order so results are reproducible
    to the last bit.
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

    edges = np.asarray(bin_edges, dtype=float)
    n_bins = edges.size - 1
    iu, ju = np.triu_indices(n, k=1)
    d = dist[iu, ju]
    reachable = np.isfinite(d)
    if not reachable.any():
        raise EmptyVariogramError("every site pair is unreachable")
    sq = (vals[iu] - vals[ju]) ** 2
    d = d[reachable]
    sq = sq[reachable]

    idx = np.searchsorted(edges, d, side="right") - 1
    idx[d == edges[-1]] = n_bins - 1  # close the last bin on the right
    in_bin = (idx >= 0) & (idx < n_bins) & (d <= edges[-1])

    counts = np.zeros(n_bins, dtype=int)
    sums = np.zeros(n_bins)
    np.add.at(counts, idx[in_bin], 1)
    np.add.at(sums, idx[in_bin], sq[in_bin])

    gammas = np.full(n_bins, np.nan)
    populated = counts > 0
    gammas[populated] = sums[populated] / (2.0 * counts[populated])
    return EmpiricalVariogram(bin_edges=edges, gamma_hat=gammas, pair_counts=counts)


def _linear_fits(kind, ranges, h, g, counts, sill_floor):
    """Pair-weighted least-squares nugget and sill for each candidate range.

    For a fixed range the model is linear in nugget and sill, so the
    optimum under ``nugget >= 0`` and ``sill >= sill_floor`` is the
    unconstrained one or lies on one of those two edges. All three are
    solved in closed form for every range at once. Returns the arrays
    ``(rss, nugget, sill)`` of shape ``(3, len(ranges))``: row 0 is the
    pure-nugget solution (sill at its floor), row 1 the zero-nugget one,
    row 2 the unconstrained one. Infeasible or overflowing solutions carry
    an infinite weighted residual sum of squares.
    """
    phi = _shape(kind, h, ranges[:, None])
    w = counts / counts.sum()
    g_mean = w @ g
    phi_mean = phi @ w
    dphi = phi - phi_mean[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slope = (dphi @ (w * (g - g_mean))) / ((dphi**2) @ w)
        sill = np.stack([
            np.full_like(phi_mean, sill_floor),
            np.maximum(sill_floor, (phi @ (w * g)) / ((phi**2) @ w)),
            slope,
        ])
        nugget = np.stack([
            np.maximum(0.0, g_mean - sill_floor * phi_mean),
            np.zeros_like(phi_mean),
            g_mean - slope * phi_mean,
        ])
        residuals = nugget[..., None] + sill[..., None] * phi - g
        rss = (residuals**2) @ counts
    feasible = (nugget >= 0) & (sill >= sill_floor) & np.isfinite(rss)
    return np.where(feasible, rss, np.inf), nugget, sill


def _improves(rss, best_rss):
    """Whether ``rss`` beats ``best_rss`` by more than a rounding-level tie."""
    rss, best_rss = float(rss), float(best_rss)
    return rss < best_rss - RSS_TIE * (1 + abs(best_rss))


def _best_range(kind, h, g, counts, sill_floor, range_bounds):
    """The range of least weighted RSS: a log-grid scan, then a bounded
    scalar refinement over the two grid steps around the best grid range."""
    # Imported here, its only use, so that importing the package does not
    # load scipy.optimize.
    from scipy.optimize import minimize_scalar

    ranges = np.geomspace(*range_bounds, RANGE_GRID)
    grid_rss = _linear_fits(kind, ranges, h, g, counts, sill_floor)[0].min(axis=0)
    i = int(np.argmin(grid_rss))

    def rss_at(log_range):
        fits = _linear_fits(kind, np.exp([log_range]), h, g, counts, sill_floor)
        return float(fits[0].min())

    refined = minimize_scalar(
        rss_at,
        bounds=(math.log(ranges[max(i - 1, 0)]), math.log(ranges[min(i + 1, RANGE_GRID - 1)])),
        method="bounded",
        options={"xatol": RANGE_XTOL},
    )
    if _improves(refined.fun, grid_rss[i]):
        return float(math.exp(refined.x))
    return float(ranges[i])


def fit_variogram(empirical, kinds=MODEL_KINDS, min_pairs=5, fixed_range_km=None):
    """Fit a variogram model to binned semivariances by weighted least squares.

    Residuals are weighted by the bin pair counts, bins with fewer than
    ``min_pairs`` pairs are ignored, and the shape with the lowest weighted
    residual sum of squares (RSS) wins. The fit uses variable projection:
    for a given range the model is linear in nugget and sill, which are
    solved in closed form under ``nugget >= 0`` and ``sill >= 1e-8 *
    max(gamma)``. Only the range is searched, in log space over
    ``[1e-6, 1e3] * h_max`` (``h_max`` the largest usable lag): a scan of
    ``RANGE_GRID`` log-spaced ranges, then a bounded scalar minimisation
    over the two grid steps around the best one, to ``RANGE_XTOL`` in
    log-range. ``fixed_range_km`` pins the range and skips the search.

    A pure-nugget model (sill at its floor) is preferred whenever it fits
    as well as the best; such a fit is marked ``degenerate`` and, unless the
    range is pinned, reports ``h_max`` as its range. A searched range within
    ``RANGE_XTOL`` of the upper bound is marked ``range_at_bound``.
    Deterministic: no randomness anywhere.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("need at least one candidate kind")
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown variogram kind '{kind}'")
    if fixed_range_km is not None and not fixed_range_km > 0:
        raise ValueError(f"fixed range must be positive, got {fixed_range_km}")

    usable = empirical.populated & (empirical.pair_counts >= min_pairs) & np.isfinite(
        empirical.gamma_hat
    )
    if usable.sum() < 3:
        raise InsufficientDataError(
            f"variogram fitting needs at least 3 bins with {min_pairs}+ pairs, "
            f"got {int(usable.sum())}"
        )
    h = empirical.centers[usable]
    g = empirical.gamma_hat[usable]
    counts = empirical.pair_counts[usable].astype(float)

    g_max = float(g.max())
    sill_floor = 1e-8 * (g_max if g_max > 0 else 1.0)
    h_max = float(h.max())
    range_bounds = (1e-6 * h_max, 1e3 * h_max)

    best = None
    for kind in kinds:
        if fixed_range_km is None:
            range_km = _best_range(kind, h, g, counts, sill_floor, range_bounds)
        else:
            range_km = float(fixed_range_km)
        rss, nugget, sill = (v[:, 0] for v in _linear_fits(
            kind, np.array([range_km]), h, g, counts, sill_floor
        ))
        j = 0  # the pure-nugget solution wins ties
        for k in (1, 2):
            if _improves(rss[k], rss[j]):
                j = k
        if j == 0 and fixed_range_km is None:
            range_km = h_max
            rss, nugget, sill = (v[:, 0] for v in _linear_fits(
                kind, np.array([h_max]), h, g, counts, sill_floor
            ))
        if math.isfinite(rss[j]) and (best is None or _improves(rss[j], best[0])):
            best = (float(rss[j]), kind, float(nugget[j]), float(sill[j]), range_km, j == 0)

    if best is None:
        raise FitConvergenceError(
            f"no variogram model of kinds {kinds} has a finite residual sum of squares"
        )
    rss, kind, nugget, sill, range_km, degenerate = best
    return VariogramModel(
        kind=kind,
        nugget=nugget,
        sill=sill,
        range_km=range_km,
        rss=rss,
        degenerate=degenerate,
        range_at_bound=fixed_range_km is None
        and math.log(range_bounds[1] / range_km) <= RANGE_XTOL,
    )
