"""Audit of the variogram fits an experiment makes.

A fitted variogram appears in no output table, yet it decides every kriged
value. The audit records each call to ``sparsemfd.variogram.fit_variogram``
during one extra, untimed experiment: the empirical variogram it was given,
its arguments, and the model it returned or the exception it raised. The
check then asks, with numpy only, whether every returned model fits its
empirical variogram about as well as the best model of the allowed shapes
within the fitter's bounds: its pair-weighted residual sum of squares (RSS)
may exceed that optimum by at most ``RSS_REL_TOL``, except for a few fits
caught in a local optimum.

The optimum is found independently of the package. For a fixed shape and
range the model is linear in nugget and sill, which are solved in closed
form under their bounds; the range is searched on a log grid that is
refined twice around its best point. A fitter that reaches the same
optimum, or a better one, passes whatever its path; a fitter whose models
fit worse does not, and neither does a fit that raises although three
usable lag bins exist. Calls that pin the range are not handled: the
experiment makes none.
"""
from __future__ import annotations

import functools
import inspect
import math

import numpy as np

# A fit may exceed the best weighted RSS by RSS_REL_TOL; up to a share
# NEAR_MISS_SHARE of the fits may exceed it by up to RSS_REL_LIMIT, for the
# local optima a multistart fitter can settle in. On grid10-refit the
# package's own fitter was within 4.4e-5 on all but two of 2160 fits (seeds
# 0-44), which were 1.1e-3 and 6.6e-3 above; a range 1 % off the fitted one
# puts nearly every fit above RSS_REL_TOL.
RSS_REL_TOL = 1e-4
RSS_REL_LIMIT = 0.25
NEAR_MISS_SHARE = 0.05
RSS_ABS_TOL = 1e-12  # times the weighted sum of squared semivariances
RANGE_GRID = 400  # log-spaced ranges per search level
RANGE_ZOOMS = 3  # each level searches the two grid steps around the last best
MIN_USABLE_BINS = 3  # fewer usable lag bins than this cannot be fitted


# --- child side: record the fits -------------------------------------------

def record_fits(records):
    """Wrap ``fit_variogram`` wherever the package binds it; each call appends
    one record to ``records``. ``restore()`` on the result unwraps it."""
    import sparsemfd.variogram as variogram

    from .tracer import Installation, package_modules

    original = variogram.fit_variogram
    signature = inspect.signature(original)

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = bound.arguments
        empirical = arguments["empirical"]
        entry = {
            "edges": np.asarray(empirical.bin_edges, dtype=float).tolist(),
            "gamma": np.asarray(empirical.gamma_hat, dtype=float).tolist(),
            "counts": np.asarray(empirical.pair_counts).astype(int).tolist(),
            "kinds": list(arguments["kinds"]),
            "min_pairs": int(arguments["min_pairs"]),
        }
        records.append(entry)
        try:
            model = original(*args, **kwargs)
        except Exception as exc:
            entry["raised"] = type(exc).__name__
            raise
        entry["model"] = [model.kind, model.nugget, model.sill, model.range_km]
        return model

    installation = Installation()
    installation.rebind(original, recorded, package_modules())
    return installation


# --- parent side: check the fits ---------------------------------------------

def shape(kind, h, range_km):
    """Unit-sill variogram shapes; ``range_km`` is the practical range."""
    if kind == "spherical":
        r = np.minimum(h, range_km) / range_km
        return 1.5 * r - 0.5 * r**3
    if kind == "exponential":
        return 1.0 - np.exp(-3.0 * h / range_km)
    if kind == "gaussian":
        return 1.0 - np.exp(-3.0 * h**2 / range_km**2)
    raise ValueError(f"unknown variogram kind {kind!r}")


class Problem:
    """One weighted least-squares variogram fit, as ``fit_variogram`` poses it."""

    def __init__(self, record):
        edges = np.asarray(record["edges"], dtype=float)
        gamma = np.asarray(record["gamma"], dtype=float)
        counts = np.asarray(record["counts"], dtype=float)
        usable = (counts > 0) & (counts >= record["min_pairs"]) & np.isfinite(gamma)
        self.kinds = tuple(record["kinds"])
        self.h = (0.5 * (edges[:-1] + edges[1:]))[usable]
        self.g = gamma[usable]
        self.c = counts[usable]
        self.fittable = int(usable.sum()) >= MIN_USABLE_BINS
        if self.fittable:
            g_max = float(self.g.max())
            self.sill_floor = 1e-8 * (g_max if g_max > 0 else 1.0)
            h_max = float(self.h.max())
            self.range_bounds = (1e-6 * h_max, 1e3 * h_max)

    def rss(self, kind, nugget, sill, range_km):
        residual = nugget + sill * shape(kind, self.h, range_km) - self.g
        return float(self.c @ residual**2)

    def _best_linear(self, kind, ranges):
        """Least RSS over nugget >= 0 and sill >= floor for each range."""
        phi = shape(kind, self.h[None, :], ranges[:, None])
        c, g, floor = self.c, self.g, self.sill_floor
        a, b, cc = c.sum(), phi @ c, (phi**2) @ c
        d, e = c @ g, (phi * g) @ c
        det = a * cc - b**2
        with np.errstate(divide="ignore", invalid="ignore"):
            solvable = det > 0
            interior = (
                np.where(solvable, (d * cc - b * e) / det, np.nan),
                np.where(solvable, (a * e - b * d) / det, np.nan),
            )
        candidates = [
            interior,
            (np.zeros_like(b), np.maximum(floor, e / cc)),
            (np.maximum(0.0, (d - floor * b) / a), np.full_like(b, floor)),
        ]
        best = np.full(ranges.shape, np.inf)
        for nugget, sill in candidates:
            feasible = (nugget >= 0) & (sill >= floor)  # False where NaN
            rss = ((nugget[:, None] + sill[:, None] * phi - g) ** 2) @ c
            best = np.where(feasible & np.isfinite(rss) & (rss < best), rss, best)
        return best

    def optimum(self):
        """The least RSS any allowed model reaches."""
        best = math.inf
        for kind in self.kinds:
            lo, hi = (math.log(r) for r in self.range_bounds)
            for _ in range(RANGE_ZOOMS):
                grid = np.linspace(lo, hi, RANGE_GRID)
                values = self._best_linear(kind, np.exp(grid))
                i = int(np.argmin(values))
                best = min(best, float(values[i]))
                lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        return best

    def model_error(self, model):
        """Why ``model`` lies outside the fitter's bounds, or None."""
        kind, nugget, sill, range_km = model
        if kind not in self.kinds:
            return f"kind {kind!r} not among {self.kinds}"
        if not nugget >= 0 or not sill >= self.sill_floor * (1 - 1e-12):
            return f"nugget {nugget!r} or sill {sill!r} out of bounds"
        lo, hi = self.range_bounds
        if not lo * (1 - 1e-12) <= range_km <= hi * (1 + 1e-12):
            return f"range {range_km!r} outside [{lo!r}, {hi!r}]"
        return None


def check_fits(records, expected_fits):
    """Error messages for the recorded fits of one experiment."""
    errors = []
    if len(records) != expected_fits:
        errors.append(f"fit audit: {len(records)} variogram fits recorded, expected {expected_fits}")
    near_misses = []
    for i, record in enumerate(records):
        problem = Problem(record)
        if "raised" in record:
            if problem.fittable:
                errors.append(f"fit {i}: raised {record['raised']} on a fittable variogram")
            continue
        if not problem.fittable:
            errors.append(f"fit {i}: returned a model from fewer than {MIN_USABLE_BINS} usable bins")
            continue
        out_of_bounds = problem.model_error(record["model"])
        if out_of_bounds:
            errors.append(f"fit {i}: {out_of_bounds}")
            continue
        best = problem.optimum()
        floor = RSS_ABS_TOL * float(problem.c @ problem.g**2)
        excess = (problem.rss(*record["model"]) - best) / max(best, floor)
        if excess > RSS_REL_LIMIT:
            errors.append(f"fit {i}: weighted RSS {excess:.3g} above the best model's")
        elif excess > RSS_REL_TOL:
            near_misses.append(f"fit {i} (+{excess:.2g})")
    allowed = int(NEAR_MISS_SHARE * len(records))
    if len(near_misses) > allowed:
        errors.append(
            f"fit audit: {len(near_misses)} fits (at most {allowed} allowed) exceed the "
            f"best weighted RSS by more than {RSS_REL_TOL:g}: {', '.join(near_misses[:5])}"
        )
    return errors
