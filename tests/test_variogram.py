"""Variogram models, binned semivariances and model fitting.

The empirical variogram is checked against a direct pair-loop oracle written
here in plain Python, so the vectorised accumulation never verifies itself.
The variable-projection fitter is checked against a multistart
``scipy.optimize.least_squares`` fit of all three parameters, kept here as
the reference implementation, and its range search against the earlier
bounded Brent refinement (``scipy.optimize.minimize_scalar``). The stacked
range search is checked bit for bit against the same search run one fit
at a time, kept here as the oracle.
"""

import dataclasses
import json
import math
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from sparsemfd import variogram
from sparsemfd.errors import (
    EmptyVariogramError,
    EstimationError,
    FitConvergenceError,
    InsufficientDataError,
    ValidationError,
)
from sparsemfd.variogram import (
    MODEL_KINDS,
    RANGE_GRID,
    RANGE_LIMITS,
    RANGE_XTOL,
    RANGE_ZOOM,
    EmpiricalVariogram,
    VariogramModel,
    distance_bin_edges,
    empirical_variogram,
    fit_variogram,
    lag_pairs,
    search_ranges,
    _model_gamma,
    _shape,
    gamma,
)

RECORDED_FITS = os.path.join(os.path.dirname(__file__), "data", "grid10_refit_seed3_fits.json")


def brute_force_variogram(values, distances, edges):
    """Reference semivariances by explicit pair enumeration in row-major order."""
    n = len(values)
    n_bins = len(edges) - 1
    sums = [0.0] * n_bins
    counts = [0] * n_bins
    for i in range(n):
        for j in range(i + 1, n):
            d = distances[i][j]
            if not np.isfinite(d):
                continue
            if d == edges[-1]:
                b = n_bins - 1
            else:
                b = None
                for c in range(n_bins):
                    if edges[c] <= d < edges[c + 1]:
                        b = c
                        break
                if b is None:
                    continue
            sums[b] += (values[i] - values[j]) ** 2
            counts[b] += 1
    gammas = [s / (2.0 * c) if c else float("nan") for s, c in zip(sums, counts)]
    return gammas, counts


def reference_fit(empirical, kinds=MODEL_KINDS, min_pairs=5):
    """Multistart bounded least squares over nugget, sill and range.

    Each kind is optimised from three quartile-based range starts with a
    trust-region solver; returns ``(rss, kind, nugget, sill, range_km)`` of
    the lowest pair-weighted residual sum of squares, or None.
    """
    usable = empirical.populated & (empirical.pair_counts >= min_pairs)
    h = empirical.centers[usable]
    g = empirical.gamma_hat[usable]
    weights = np.sqrt(empirical.pair_counts[usable].astype(float))
    g_max = float(g.max())
    g_min = float(max(g.min(), 0.0))
    sill_floor = 1e-8 * (g_max if g_max > 0 else 1.0)
    h_max = float(h.max())
    range_bounds = (1e-6 * h_max, 1e3 * h_max)
    range_starts = [float(np.clip(np.percentile(h, p), *range_bounds)) for p in (25, 50, 75)]
    nugget_start = 0.5 * g_min
    sill_start = max(g_max - nugget_start, 10 * sill_floor)
    best = None
    for kind in kinds:
        for range_start in range_starts:
            def residuals(p):
                return weights * (_model_gamma(kind, p[0], p[1], p[2], h) - g)

            result = least_squares(
                residuals, (nugget_start, sill_start, range_start),
                bounds=([0.0, sill_floor, range_bounds[0]], [np.inf, np.inf, range_bounds[1]]),
                method="trf", xtol=1e-13, ftol=1e-13, gtol=1e-13, max_nfev=2000,
            )
            if not result.success:
                continue
            rss = float(2.0 * result.cost)
            if best is None or rss < best[0] - 1e-15 * (1 + abs(best[0])):
                best = (rss, kind, *(float(x) for x in result.x))
    return best


def _brent_linear_fits(kind, ranges, h, g, counts, sill_floor):
    """Closed-form pure-nugget, zero-nugget and unconstrained fits per range."""
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
        rss = ((nugget[..., None] + sill[..., None] * phi - g) ** 2) @ counts
    feasible = (nugget >= 0) & (sill >= sill_floor) & np.isfinite(rss)
    return np.where(feasible, rss, np.inf), nugget, sill


def _beats(rss, best_rss):
    return rss < best_rss - 1e-15 * (1 + abs(best_rss))


def brent_reference_fit(empirical, kinds=MODEL_KINDS, min_pairs=5):
    """The variable-projection fit with its range refined by bounded Brent.

    Per kind: the best of 128 log-spaced ranges over ``[1e-6, 1e3] x
    h_max``, refined by ``minimize_scalar(method="bounded")`` on log-range
    over the two grid steps around it (``xatol`` 1e-9) and kept only if it
    beats the grid range beyond a tie; ties go to the pure-nugget model,
    which reports ``h_max`` as its range. Returns ``(kind, nugget, sill,
    range_km, rss, degenerate, range_at_bound)``.
    """
    from scipy.optimize import minimize_scalar

    usable = empirical.populated & (empirical.pair_counts >= min_pairs)
    h = empirical.centers[usable]
    g = empirical.gamma_hat[usable]
    counts = empirical.pair_counts[usable].astype(float)
    g_max = float(g.max())
    sill_floor = 1e-8 * (g_max if g_max > 0 else 1.0)
    h_max = float(h.max())
    ranges = np.geomspace(1e-6 * h_max, 1e3 * h_max, 128)
    best = None
    for kind in kinds:
        grid_rss = _brent_linear_fits(kind, ranges, h, g, counts, sill_floor)[0].min(axis=0)
        i = int(np.argmin(grid_rss))
        refined = minimize_scalar(
            lambda x: float(_brent_linear_fits(
                kind, np.exp([x]), h, g, counts, sill_floor)[0].min()),
            bounds=(math.log(ranges[max(i - 1, 0)]), math.log(ranges[min(i + 1, 127)])),
            method="bounded",
            options={"xatol": 1e-9},
        )
        range_km = math.exp(refined.x) if _beats(refined.fun, grid_rss[i]) else float(ranges[i])
        rss, nugget, sill = (v[:, 0] for v in _brent_linear_fits(
            kind, np.array([range_km]), h, g, counts, sill_floor))
        j = 0
        for k in (1, 2):
            if _beats(rss[k], rss[j]):
                j = k
        if j == 0:
            range_km = h_max
            rss, nugget, sill = (v[:, 0] for v in _brent_linear_fits(
                kind, np.array([h_max]), h, g, counts, sill_floor))
        if math.isfinite(rss[j]) and (best is None or _beats(rss[j], best[4])):
            best = (kind, float(nugget[j]), float(sill[j]), range_km, float(rss[j]), j == 0)
    return (*best, math.log(1e3 * h_max / best[3]) <= 1e-9)


def assert_matches_the_brent_reference(empirical, kinds=MODEL_KINDS, min_pairs=5):
    fit = fit_variogram(empirical, kinds=kinds, min_pairs=min_pairs)
    kind, _, _, range_km, rss, degenerate, at_bound = brent_reference_fit(
        empirical, kinds, min_pairs
    )
    assert (fit.kind, fit.degenerate, fit.range_at_bound) == (kind, degenerate, at_bound)
    assert fit.rss <= rss * (1 + 1e-12)
    if fit.range_km != pytest.approx(range_km, rel=1e-6):
        # a flat valley, where the data do not pin the range: every range
        # between the two fits as well as both
        for between in np.geomspace(fit.range_km, range_km, 7):
            pinned = fit_variogram(
                empirical, kinds=(kind,), min_pairs=min_pairs, ranges=(between,)
            )
            assert pinned.rss <= rss * (1 + 1e-12)
    # a kind's search does not depend on the other kinds searched with it
    alone = fit_variogram(empirical, kinds=(fit.kind,), min_pairs=min_pairs)
    assert alone == fit


def weighted_rss(empirical, model, min_pairs=5):
    usable = empirical.populated & (empirical.pair_counts >= min_pairs)
    residuals = gamma(model, empirical.centers[usable]) - empirical.gamma_hat[usable]
    return float(empirical.pair_counts[usable] @ residuals**2)


# --- model curve --------------------------------------------------------------


def test_gamma_boundary_values():
    model = VariogramModel(kind="spherical", nugget=1.0, sill=16.0, range_km=2.0)
    assert gamma(model, 0.0) == 1.0
    assert gamma(model, 2.0) == 17.0
    # half the range: 1 + 16 * (1.5 * 0.5 - 0.5 * 0.125)
    assert gamma(model, 1.0) == 12.0
    # flat beyond the range
    assert gamma(model, 4.0) == 17.0
    assert gamma(model, 400.0) == 17.0


def test_gamma_saturating_kinds_near_the_sill_at_the_range():
    model = VariogramModel(kind="exponential", nugget=0.0, sill=10.0, range_km=3.0)
    assert gamma(model, 0.0) == 0.0
    assert gamma(model, 3.0) == pytest.approx(10.0 * (1 - np.exp(-3.0)), rel=1e-12)
    assert gamma(model, 30.0) == pytest.approx(10.0, rel=1e-6)


def test_gamma_vector_input():
    model = VariogramModel(kind="spherical", nugget=1.0, sill=16.0, range_km=2.0)
    out = gamma(model, np.array([0.0, 1.0, 2.0]))
    assert out.tolist() == [1.0, 12.0, 17.0]
    assert isinstance(gamma(model, 1.0), float)


def test_gamma_rejects_negative_lag():
    model = VariogramModel(kind="spherical", nugget=0.0, sill=1.0, range_km=1.0)
    with pytest.raises(ValueError):
        gamma(model, -0.1)


def test_gamma_rejects_a_nan_lag_and_takes_the_sill_at_an_infinite_one():
    model = VariogramModel(kind="exponential", nugget=1.0, sill=2.0, range_km=3.0)
    for lags in (math.nan, [1.0, math.nan], np.array([[0.0, math.nan]])):
        with pytest.raises(ValueError, match="nonnegative, not NaN"):
            gamma(model, lags)
    # an unreachable pair: infinite lags stay allowed
    assert gamma(model, math.inf) == 3.0
    assert gamma(model, [0.0, math.inf]).tolist() == [1.0, 3.0]


def test_model_parameter_validation():
    with pytest.raises(ValidationError):
        VariogramModel(kind="cubic", nugget=0.0, sill=1.0, range_km=1.0)
    with pytest.raises(ValidationError):
        VariogramModel(kind="spherical", nugget=-1.0, sill=1.0, range_km=1.0)
    with pytest.raises(ValidationError):
        VariogramModel(kind="spherical", nugget=0.0, sill=0.0, range_km=1.0)
    with pytest.raises(ValidationError):
        VariogramModel(kind="spherical", nugget=0.0, sill=1.0, range_km=0.0)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(MODEL_KINDS),
    nugget=st.floats(min_value=0.0, max_value=10.0),
    sill=st.floats(min_value=0.1, max_value=100.0),
    range_km=st.floats(min_value=0.1, max_value=10.0),
)
def test_gamma_is_nondecreasing(kind, nugget, sill, range_km):
    model = VariogramModel(kind=kind, nugget=nugget, sill=sill, range_km=range_km)
    h = np.linspace(0.0, 2.0 * range_km, 101)
    values = gamma(model, h)
    assert np.all(np.diff(values) >= -1e-12)
    assert values[0] == nugget


# --- lag bins -----------------------------------------------------------------


def test_bin_edges_from_matrix():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    edges = distance_bin_edges(d, n_bins=4)
    assert edges.size == 5
    assert edges[0] > 0
    assert np.all(np.diff(edges) > 0)


def test_bin_edges_ignore_unreachable_pairs():
    d = np.array([1.0, np.inf, 2.0, 3.0])
    edges = distance_bin_edges(d, n_bins=2)
    assert np.isfinite(edges).all()


def test_bin_edges_degenerate_distances():
    with pytest.raises(InsufficientDataError):
        distance_bin_edges(np.array([2.0, 2.0, 2.0]), n_bins=3)
    with pytest.raises(EmptyVariogramError):
        distance_bin_edges(np.array([np.inf, np.inf]))


# --- empirical variogram ------------------------------------------------------


def test_constant_field_has_zero_semivariance():
    n = 6
    rng = np.random.default_rng(0)
    pos = rng.uniform(0.0, 10.0, size=n)
    d = np.abs(pos[:, None] - pos[None, :])
    emp = empirical_variogram(np.full(n, 3.3), d, distance_bin_edges(d, n_bins=4))
    assert np.all(emp.gamma_hat[emp.populated] == 0.0)


def test_two_sites_single_pair():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    emp = empirical_variogram(np.array([0.0, 2.0]), d, np.array([0.5, 1.5]))
    assert emp.gamma_hat.tolist() == [2.0]
    assert emp.pair_counts.tolist() == [1]


def test_matches_pair_loop_oracle():
    rng = np.random.default_rng(12)
    n = 12
    pos = rng.uniform(0.0, 8.0, size=n)
    d = np.abs(pos[:, None] - pos[None, :])
    values = rng.normal(50.0, 10.0, size=n)
    edges = distance_bin_edges(d, n_bins=6)
    emp = empirical_variogram(values, d, edges)
    want_gamma, want_counts = brute_force_variogram(values, d, edges)
    assert emp.pair_counts.tolist() == want_counts
    for got, want in zip(emp.gamma_hat, want_gamma):
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert got == want  # bit-identical accumulation


def test_lag_pairs_serve_every_row_bit_for_bit():
    rng = np.random.default_rng(31)
    pos = rng.uniform(0.0, 8.0, size=20)
    d = np.abs(pos[:, None] - pos[None, :])
    d[3, 7] = d[7, 3] = np.inf
    edges = distance_bin_edges(d, n_bins=7)
    pairs = lag_pairs(d, edges)
    for _ in range(5):
        values = rng.normal(50.0, 10.0, size=20)
        shared = pairs.variogram(values)
        direct = empirical_variogram(values, d, edges)
        want_gamma, want_counts = brute_force_variogram(values, d, edges)
        assert shared.pair_counts.tolist() == direct.pair_counts.tolist() == want_counts
        assert shared.gamma_hat.tobytes() == direct.gamma_hat.tobytes()
        assert shared.gamma_hat.tobytes() == np.array(want_gamma).tobytes()
    with pytest.raises(ValidationError):
        pairs.variogram(np.zeros(19))


def test_unreachable_pairs_are_dropped():
    d = np.array([
        [0.0, 1.0, np.inf],
        [1.0, 0.0, np.inf],
        [np.inf, np.inf, 0.0],
    ])
    emp = empirical_variogram(np.array([0.0, 4.0, 100.0]), d, np.array([0.5, 1.5]))
    # the detached third site contributes nothing
    assert emp.gamma_hat.tolist() == [8.0]
    assert emp.pair_counts.tolist() == [1]


def test_all_pairs_unreachable_raises():
    d = np.full((2, 2), np.inf)
    np.fill_diagonal(d, 0.0)
    with pytest.raises(EmptyVariogramError):
        empirical_variogram(np.array([1.0, 2.0]), d, np.array([0.5, 1.5]))


def test_bin_boundaries_left_closed_last_right_closed():
    # distances exactly on the edges: 1.0 starts bin 0, 2.0 starts bin 1,
    # 3.0 is the last edge and still counts
    pos = np.array([0.0, 1.0, 3.0, 6.0])
    d = np.abs(pos[:, None] - pos[None, :])
    edges = np.array([1.0, 2.0, 3.0])
    emp = empirical_variogram(np.array([0.0, 1.0, 2.0, 3.0]), d, edges)
    # pairs: (0,1)=1.0 -> bin 0; (1,2)=2.0 -> bin 1; (0,2)=3.0 -> bin 1;
    # (2,3)=3.0 -> bin 1; (0,3)=6.0 and (1,3)=5.0 fall outside
    assert emp.pair_counts.tolist() == [1, 3]


def test_values_distances_shape_mismatch():
    with pytest.raises(ValidationError):
        empirical_variogram(np.array([1.0, 2.0, 3.0]), np.zeros((2, 2)), np.array([0.5, 1.5]))


def test_empirical_validation():
    with pytest.raises(ValidationError):
        EmpiricalVariogram(
            bin_edges=np.array([0.0, 1.0]),
            gamma_hat=np.array([1.0]),
            pair_counts=np.array([2]),
        )
    with pytest.raises(ValidationError):
        EmpiricalVariogram(
            bin_edges=np.array([0.5, 1.0]),
            gamma_hat=np.array([1.0]),
            pair_counts=np.array([0]),  # empty bin must carry NaN
        )


# --- model fitting ------------------------------------------------------------


def _synthetic_empirical(model, edges, counts_per_bin=40):
    centers = 0.5 * (edges[:-1] + edges[1:])
    return EmpiricalVariogram(
        bin_edges=edges,
        gamma_hat=gamma(model, centers),
        pair_counts=np.full(centers.size, counts_per_bin),
    )


def test_fit_recovers_noiseless_spherical():
    true = VariogramModel(kind="spherical", nugget=0.5, sill=2.0, range_km=3.0)
    emp = _synthetic_empirical(true, np.linspace(0.25, 6.0, 13))
    fit = fit_variogram(emp)
    assert fit.kind == "spherical"
    assert fit.nugget == pytest.approx(0.5, abs=1e-6)
    assert fit.sill == pytest.approx(2.0, abs=1e-6)
    assert fit.range_km == pytest.approx(3.0, abs=1e-6)
    assert not fit.degenerate
    assert not fit.range_at_bound


def test_fit_prefers_the_generating_shape():
    true = VariogramModel(kind="spherical", nugget=0.5, sill=2.0, range_km=3.0)
    emp = _synthetic_empirical(true, np.linspace(0.25, 6.0, 13))
    best = fit_variogram(emp)
    rss_by_kind = {
        kind: fit_variogram(emp, kinds=(kind,)).rss for kind in MODEL_KINDS
    }
    assert best.rss == min(rss_by_kind.values())
    assert rss_by_kind["spherical"] < rss_by_kind["exponential"]


def test_fit_flat_input_is_degenerate():
    edges = np.linspace(0.5, 5.0, 11)
    emp = EmpiricalVariogram(
        bin_edges=edges,
        gamma_hat=np.full(10, 7.5),
        pair_counts=np.full(10, 30),
    )
    fit = fit_variogram(emp)
    assert fit.degenerate
    assert fit.nugget == pytest.approx(7.5, rel=1e-6)
    assert fit.sill <= 1e-6 * 7.5  # collapsed to the lower bound


def test_a_degenerate_fit_does_not_depend_on_the_ranges_given():
    flat = EmpiricalVariogram(
        bin_edges=np.linspace(0.5, 5.0, 11),
        gamma_hat=np.full(10, 7.5),
        pair_counts=np.full(10, 30),
    )
    pinned = fit_variogram(flat, ranges=(2.0, 2.0))
    assert pinned.degenerate
    assert pinned == fit_variogram(flat)


def test_fit_with_fixed_range():
    true = VariogramModel(kind="exponential", nugget=1.0, sill=9.0, range_km=2.0)
    emp = _synthetic_empirical(true, np.linspace(0.2, 4.0, 11))
    fit = fit_variogram(emp, kinds=("exponential",), ranges=(2.0,))
    assert fit.range_km == 2.0
    assert fit.nugget == pytest.approx(1.0, abs=1e-6)
    assert fit.sill == pytest.approx(9.0, abs=1e-6)


def test_fit_ignores_thin_bins():
    true = VariogramModel(kind="spherical", nugget=0.0, sill=4.0, range_km=2.0)
    edges = np.linspace(0.25, 4.0, 9)
    centers = 0.5 * (edges[:-1] + edges[1:])
    gammas = gamma(true, centers)
    counts = np.full(centers.size, 50)
    # poison one bin that the count filter must exclude
    gammas = gammas.copy()
    gammas[3] = 1e6
    counts[3] = 2
    emp = EmpiricalVariogram(bin_edges=edges, gamma_hat=gammas, pair_counts=counts)
    fit = fit_variogram(emp, min_pairs=5)
    assert fit.sill == pytest.approx(4.0, abs=1e-5)


def test_fit_needs_three_usable_bins():
    emp = EmpiricalVariogram(
        bin_edges=np.array([0.5, 1.0, 1.5]),
        gamma_hat=np.array([1.0, 2.0]),
        pair_counts=np.array([10, 10]),
    )
    with pytest.raises(InsufficientDataError):
        fit_variogram(emp)


def test_fit_kind_subset_and_validation():
    true = VariogramModel(kind="spherical", nugget=0.2, sill=3.0, range_km=1.5)
    emp = _synthetic_empirical(true, np.linspace(0.1, 3.0, 11))
    fit = fit_variogram(emp, kinds=("exponential",))
    assert fit.kind == "exponential"
    with pytest.raises(ValueError):
        fit_variogram(emp, kinds=())
    # along-network distance does not admit a Gaussian covariance in general
    for kinds in (("cubic",), ("gaussian",), ("exponential", "gaussian")):
        with pytest.raises(ValueError):
            fit_variogram(emp, kinds=kinds)
    with pytest.raises(ValueError):
        fit_variogram(emp, ranges=(-1.0, -1.0))


@pytest.mark.parametrize("min_pairs", [0, -3])
def test_fit_and_search_reject_min_pairs_below_one(min_pairs):
    emp = _synthetic_empirical(
        VariogramModel(kind="spherical", nugget=0.5, sill=2.0, range_km=3.0),
        np.linspace(0.25, 6.0, 13),
    )
    with pytest.raises(ValueError, match=f"^min_pairs must be at least 1, got {min_pairs}$"):
        fit_variogram(emp, min_pairs=min_pairs)
    for empiricals in ([emp], []):
        with pytest.raises(ValueError, match="^min_pairs must be at least 1"):
            search_ranges(empiricals, min_pairs=min_pairs)


@pytest.mark.parametrize("range_km", [math.inf, math.nan, 0.0, -1.0])
def test_fit_rejects_a_fixed_range_that_is_not_positive_and_finite(range_km):
    emp = _synthetic_empirical(
        VariogramModel(kind="spherical", nugget=0.5, sill=2.0, range_km=3.0),
        np.linspace(0.25, 6.0, 13),
    )
    with pytest.raises(ValueError, match="^ranges must be positive and finite"):
        fit_variogram(emp, ranges=(range_km, range_km))


@pytest.mark.parametrize("kind, range_km", [
    ("spherical", 3.0), ("spherical", 11.0),
    ("exponential", 0.7), ("exponential", 3.0), ("exponential", 40.0),
])
def test_fit_recovers_the_range_of_an_exact_model_curve(kind, range_km):
    # one direct residual sum per zoom candidate resolves the range to
    # RANGE_XTOL; a residual sum from moments alone would stop near 1e-5
    true = VariogramModel(kind=kind, nugget=0.5, sill=2.0, range_km=range_km)
    fit = fit_variogram(_synthetic_empirical(true, np.linspace(0.5, 6.5, 13)))
    assert (fit.kind, fit.degenerate, fit.range_at_bound) == (kind, False, False)
    assert fit.range_km == pytest.approx(range_km, rel=RANGE_XTOL, abs=0.0)


def test_fit_is_deterministic():
    rng = np.random.default_rng(5)
    true = VariogramModel(kind="spherical", nugget=0.5, sill=2.0, range_km=3.0)
    edges = np.linspace(0.25, 6.0, 13)
    centers = 0.5 * (edges[:-1] + edges[1:])
    noisy = gamma(true, centers) * (1.0 + 0.05 * rng.standard_normal(centers.size))
    emp = EmpiricalVariogram(
        bin_edges=edges, gamma_hat=noisy, pair_counts=np.full(centers.size, 40)
    )
    first = fit_variogram(emp)
    second = fit_variogram(emp)
    assert (first.kind, first.nugget, first.sill, first.range_km, first.rss) == (
        second.kind, second.nugget, second.sill, second.range_km, second.rss
    )


def _noisy_empirical(rng, kind):
    truth = VariogramModel(
        kind=kind,
        nugget=float(rng.uniform(0.0, 2.0)),
        sill=float(rng.uniform(1.0, 10.0)),
        range_km=float(rng.uniform(0.5, 5.0)),
    )
    edges = np.linspace(0.2, float(rng.uniform(4.0, 10.0)), 13)
    centers = 0.5 * (edges[:-1] + edges[1:])
    noisy = gamma(truth, centers) * np.abs(1.0 + 0.15 * rng.standard_normal(centers.size))
    return EmpiricalVariogram(
        bin_edges=edges, gamma_hat=noisy, pair_counts=rng.integers(5, 200, centers.size)
    )


def test_fit_reaches_the_reference_rss():
    rng = np.random.default_rng(2024)
    for case in range(60):
        kind = MODEL_KINDS[case % len(MODEL_KINDS)]
        emp = _noisy_empirical(rng, kind)
        fit = fit_variogram(emp, kinds=(kind,))
        reference = reference_fit(emp, kinds=(kind,))
        assert fit.rss == pytest.approx(weighted_rss(emp, fit), rel=1e-12)
        assert fit.rss <= reference[0] * (1 + 1e-6), (case, fit, reference)


def test_range_search_matches_the_brent_refinement():
    rng = np.random.default_rng(2024)
    for case in range(60):
        kind = MODEL_KINDS[case % len(MODEL_KINDS)]
        emp = _noisy_empirical(rng, kind)
        assert_matches_the_brent_reference(emp, kinds=(kind,))
        assert_matches_the_brent_reference(emp)


def test_recorded_refit_fits_match_the_brent_refinement():
    # every fit of a seed-3 grid10-refit experiment: 24 bins x 2 variables,
    # recorded when the Gaussian kind was still a candidate, which is dropped
    with open(RECORDED_FITS) as handle:
        records = json.load(handle)
    assert len(records) == 48
    for record in records:
        emp = EmpiricalVariogram(
            bin_edges=np.array(record["edges"]),
            gamma_hat=np.array(record["gamma"]),
            pair_counts=np.array(record["counts"]),
        )
        kinds = tuple(kind for kind in record["kinds"] if kind != "gaussian")
        assert kinds == MODEL_KINDS
        assert_matches_the_brent_reference(emp, kinds, record["min_pairs"])


def test_fixed_range_matches_weighted_lstsq():
    rng = np.random.default_rng(77)
    for kind in MODEL_KINDS:
        emp = _noisy_empirical(rng, kind)
        range_km = 2.5
        fit = fit_variogram(emp, kinds=(kind,), ranges=(range_km,))
        root_w = np.sqrt(emp.pair_counts.astype(float))
        design = np.column_stack([np.ones(emp.centers.size), gamma(
            VariogramModel(kind=kind, nugget=0.0, sill=1.0, range_km=range_km), emp.centers
        )])
        (nugget, sill), *_ = np.linalg.lstsq(root_w[:, None] * design, root_w * emp.gamma_hat)
        assert nugget > 0 and sill > 0  # an interior optimum
        assert fit.range_km == range_km
        assert fit.nugget == pytest.approx(nugget, rel=1e-9)
        assert fit.sill == pytest.approx(sill, rel=1e-9)


def test_fit_flags_a_range_stopped_at_its_bound():
    edges = np.linspace(0.5, 6.5, 13)
    centers = 0.5 * (edges[:-1] + edges[1:])
    emp = EmpiricalVariogram(
        bin_edges=edges, gamma_hat=centers.copy(), pair_counts=np.full(12, 40)
    )
    fit = fit_variogram(emp)
    assert fit.range_at_bound
    assert not fit.degenerate
    assert fit.range_km == pytest.approx(1e3 * centers.max(), rel=1e-9)


def test_a_range_given_beyond_the_search_bound_is_flagged():
    true = VariogramModel(kind="spherical", nugget=0.5, sill=2.0, range_km=3.0)
    emp = _synthetic_empirical(true, np.linspace(0.25, 6.0, 13))
    beyond = 2 * RANGE_LIMITS[1] * emp.centers.max()
    fit = fit_variogram(emp, kinds=("spherical",), ranges=(beyond,))
    assert fit.range_km == beyond
    assert fit.range_at_bound
    assert not fit_variogram(emp, kinds=("spherical",), ranges=(3.0,)).range_at_bound


def test_degenerate_fit_reports_the_largest_lag_as_range():
    edges = np.linspace(0.5, 5.0, 11)
    emp = EmpiricalVariogram(
        bin_edges=edges,
        gamma_hat=np.array([9.0, 8.0, 8.5, 7.0, 7.5, 6.0, 6.5, 5.0, 5.5, 4.0]),
        pair_counts=np.full(10, 30),
    )
    fit = fit_variogram(emp)
    assert fit.degenerate
    assert not fit.range_at_bound
    assert fit.range_km == emp.centers.max()


def test_semivariances_too_large_to_square_still_fit():
    edges = np.array([0.5, 1.0, 1.5, 2.0])
    counts = np.full(3, 10)
    unit = fit_variogram(EmpiricalVariogram(
        bin_edges=edges, gamma_hat=np.array([1.0, 2.0, 3.0]), pair_counts=counts
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = fit_variogram(EmpiricalVariogram(
            bin_edges=edges, gamma_hat=np.array([1e200, 2e200, 3e200]), pair_counts=counts
        ))
    assert (huge.kind, huge.degenerate, huge.range_at_bound) == (
        unit.kind, unit.degenerate, unit.range_at_bound
    )
    assert huge.nugget == pytest.approx(1e200 * unit.nugget, rel=1e-12, abs=0.0)
    assert huge.sill == pytest.approx(1e200 * unit.sill, rel=1e-12)
    assert huge.range_km == pytest.approx(unit.range_km, rel=1e-12)


@pytest.mark.parametrize("kinds", [("spherical",), MODEL_KINDS])
def test_a_sill_that_underflows_fails_the_fit(kinds):
    # subnormal semivariances: the fit of the scaled ones succeeds, but its
    # sill times the scale rounds to zero
    emp = EmpiricalVariogram(
        bin_edges=np.array([0.5, 1.0, 1.5, 2.0]), gamma_hat=np.array([5e-324] * 3),
        pair_counts=np.full(3, 5),
    )
    (searched,) = search_ranges([emp], kinds)
    for ranges in (None, searched):
        with pytest.raises(FitConvergenceError, match=r"^the \w+ fit's sill underflows to 0\.0"):
            fit_variogram(emp, kinds=kinds, ranges=ranges)
    # a scale that leaves the sill above zero still fits
    tiny = fit_variogram(dataclasses.replace(emp, gamma_hat=np.array([1e-300, 2e-300, 3e-300])))
    assert tiny.sill > 0


# --- stacked range search -----------------------------------------------------


def _oracle_fits(kinds, ranges, h, g, counts, w, sill_floor=1e-8):
    """Each (kind, range) candidate's least-squares solution for one fit, as
    one fit alone computes it: ``(score, rss)``, its moment score and its
    direct weighted residual sum of squares.

    The solution is the unconstrained one where that is feasible, else the
    better of the pure-nugget and the zero-nugget edge by score; the score
    is the weighted mean squared residual less that of ``g``.
    """
    phi = np.concatenate([_shape(kind, h, r[:, None]) for kind, r in zip(kinds, ranges)])
    mean = np.einsum("cl,l->c", phi, w)
    dev = phi - mean[:, None]
    dev_sq, sq = np.einsum("cl,cl,l->c", dev, dev, w), np.einsum("cl,cl,l->c", phi, phi, w)
    g_mean = w @ g
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi_g = np.einsum("cl,l->c", phi, w * g)
        slope = np.einsum("cl,l->c", dev, w * (g - g_mean)) / dev_sq
        nugget = np.stack([
            np.maximum(0.0, g_mean - sill_floor * mean), np.zeros_like(mean), g_mean - slope * mean
        ])
        sill = np.stack([
            np.full_like(mean, sill_floor), np.maximum(sill_floor, phi_g / sq), slope
        ])
        score = nugget * (nugget + 2.0 * (sill * mean - g_mean)) + sill * (sill * sq - 2.0 * phi_g)
        unconstrained = (nugget[2] >= 0) & (sill[2] >= sill_floor) & np.isfinite(score[2])
        choice = np.where(unconstrained, 2, np.where(score[1] < score[0], 1, 0))
        column = np.arange(mean.size)
        nugget, sill, score = nugget[choice, column], sill[choice, column], score[choice, column]
        residuals = sill[:, None] * phi + nugget[:, None] - g
        rss = np.einsum("cl,cl,l->c", residuals, residuals, counts)
    score[~np.isfinite(score)] = np.inf
    rss[(nugget < 0) | (sill < sill_floor) | ~np.isfinite(rss)] = np.inf
    return score, rss


def per_row_search(empirical, kinds=MODEL_KINDS, min_pairs=5):
    """Each kind's searched range for one empirical variogram, by the
    search of one fit at a time: a grid scan of each kind ranked by score,
    then zoom rounds over each kind's two grid steps around its best range,
    ranked by direct residual sums."""
    usable = empirical.populated & (empirical.pair_counts >= min_pairs) & np.isfinite(
        empirical.gamma_hat
    )
    h = empirical.centers[usable]
    counts = empirical.pair_counts[usable].astype(float)
    w = counts / counts.sum()
    g_max = float(empirical.gamma_hat[usable].max())
    g = empirical.gamma_hat[usable] / (g_max if g_max > 0 else 1.0)
    h_max = float(h.max())
    ranges = np.geomspace(RANGE_LIMITS[0] * h_max, RANGE_LIMITS[1] * h_max, RANGE_GRID)
    i, grid_rss = [], []
    for kind in kinds:
        score, rss = _oracle_fits((kind,), [ranges], h, g, counts, w)
        i.append(int(np.argmin(score)))
        grid_rss.append(rss[i[-1]])
    log_ranges = np.log(ranges)
    lower = log_ranges[np.maximum(np.array(i) - 1, 0)]
    upper = log_ranges[np.minimum(np.array(i) + 1, RANGE_GRID - 1)]
    rows = np.arange(len(kinds))
    zoom_rss, zoom_log = np.full(len(kinds), np.inf), lower
    width = 2 * math.log(RANGE_LIMITS[1] / RANGE_LIMITS[0]) / (RANGE_GRID - 1)
    while width > RANGE_XTOL:
        points = lower[:, None] + (upper - lower)[:, None] * np.linspace(0.0, 1.0, RANGE_ZOOM)
        points[:, -1] = upper
        _, rss = _oracle_fits(kinds, np.exp(points), h, g, counts, w)
        rss = rss.reshape(len(kinds), RANGE_ZOOM)
        j = np.argmin(rss, axis=1)
        better = rss[rows, j] < zoom_rss
        zoom_rss = np.where(better, rss[rows, j], zoom_rss)
        zoom_log = np.where(better, points[rows, j], zoom_log)
        lower = points[rows, np.maximum(j - 1, 0)]
        upper = points[rows, np.minimum(j + 1, RANGE_ZOOM - 1)]
        width *= 2 / (RANGE_ZOOM - 1)
    return [
        math.exp(zoom_log[k]) if _beats(zoom_rss[k], grid_rss[k]) else float(ranges[i[k]])
        for k in rows
    ]


def _model_bits(model):
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(model)
    )


def _fit_bits(empirical, kinds, min_pairs=5, ranges=None):
    """Every field of a fit to the last bit, or the type and text of its error."""
    try:
        return _model_bits(fit_variogram(empirical, kinds, min_pairs, ranges=ranges))
    except EstimationError as exc:
        return type(exc).__name__, str(exc)


def assert_stacked_search_matches_the_oracle(empiricals, kinds=MODEL_KINDS, min_pairs=5):
    searched = search_ranges(empiricals, kinds, min_pairs)
    assert len(searched) == len(empiricals)
    for empirical, ranges in zip(empiricals, searched):
        usable = empirical.populated & (empirical.pair_counts >= min_pairs)
        if usable.sum() < 3:
            assert ranges is None
        else:
            want = per_row_search(empirical, kinds, min_pairs)
            assert [r.hex() for r in ranges] == [r.hex() for r in want]
        # a fit finished with the searched ranges is the fit searched alone
        assert _fit_bits(empirical, kinds, min_pairs, ranges) == _fit_bits(
            empirical, kinds, min_pairs
        )
    return searched


def _recorded_empiricals():
    with open(RECORDED_FITS) as handle:
        records = json.load(handle)
    return [
        EmpiricalVariogram(
            bin_edges=np.array(record["edges"]),
            gamma_hat=np.array(record["gamma"]),
            pair_counts=np.array(record["counts"]),
        )
        for record in records
    ]


def _record_stacks(monkeypatch):
    """The (fits, lags) shape of the semivariances of each stacked search."""
    stacks = []
    search = variogram._best_ranges

    def recording(kinds, h, g, *args):
        stacks.append(g.shape)
        return search(kinds, h, g, *args)

    monkeypatch.setattr(variogram, "_best_ranges", recording)
    return stacks


def _stack_bytes_per_fit(lags, kinds=MODEL_KINDS):
    """The figures of one fit in a stacked search: 18 (fits, grid) arrays of
    one kind's grid scan, or 6 (fits, candidates, lags) arrays of a zoom
    round over every kind, whichever is larger."""
    return 8 * max(18 * RANGE_GRID, 6 * len(kinds) * RANGE_ZOOM * lags)


def test_stacked_search_matches_the_per_row_search_on_the_recorded_refit(monkeypatch):
    # the 48 fits of a seed-3 grid10-refit experiment share one lag layout
    empiricals = _recorded_empiricals()
    assert len({e.pair_counts.tobytes() + e.bin_edges.tobytes() for e in empiricals}) == 1
    stacks = _record_stacks(monkeypatch)
    search_ranges(empiricals)
    # the whole layout is one stack, whose figures fit _SEARCH_CHUNK_BYTES
    ((chunk, lags),) = stacks
    assert chunk == len(empiricals)
    assert chunk * _stack_bytes_per_fit(lags) <= variogram._SEARCH_CHUNK_BYTES
    assert_stacked_search_matches_the_oracle(empiricals)
    # a smaller bound splits the layout into stacks of the same size, in row order
    chunk = 20
    monkeypatch.setattr(variogram, "_SEARCH_CHUNK_BYTES", chunk * _stack_bytes_per_fit(lags))
    for size in (1, chunk - 1, chunk, chunk + 1, len(empiricals)):
        stacks.clear()
        search_ranges(empiricals[-size:])
        assert [rows for rows, _ in stacks] == [chunk] * (size // chunk) + (
            [size % chunk] if size % chunk else []
        )
        assert_stacked_search_matches_the_oracle(empiricals[-size:])


@pytest.mark.parametrize("lags", [15, 60])
def test_a_stacked_search_allocates_at_most_its_chunk_bytes(lags):
    # a grid scan dominates at 15 lags, a zoom round at 60
    edges = np.linspace(0.5, 6.5, lags + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rng = np.random.default_rng(lags)
    empiricals = [
        EmpiricalVariogram(edges, rng.uniform(0.5, 1.5, lags) * np.minimum(centers, 3.0),
                           np.full(lags, 40))
        for _ in range(48)
    ]
    tracemalloc.start()
    try:
        search_ranges(empiricals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= variogram._SEARCH_CHUNK_BYTES


@st.composite
def _stacked_variograms(draw):
    """Variograms over one or two lag layouts, with the kinds to fit them.

    Rows follow a model curve, are flat (a pure nugget), grow linearly (a
    range at its bound), fall (degenerate) or are arbitrary; a row may lose
    its first lag bin, which gives it a second lag layout, or all but two
    bins, which leaves it unfittable.
    """
    lags = draw(st.integers(min_value=3, max_value=15))
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=lags, max_size=lags))
    edges = np.cumsum([draw(st.floats(0.05, 1.0)), *steps])
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = np.array(draw(st.lists(st.integers(5, 200), min_size=lags, max_size=lags)))
    empiricals = []
    for shape in draw(st.lists(
        st.sampled_from(("model", "flat", "linear", "falling", "any")), min_size=1, max_size=9
    )):
        if shape == "model":
            model = VariogramModel(
                kind=draw(st.sampled_from(MODEL_KINDS)),
                nugget=draw(st.floats(0.0, 10.0)),
                sill=draw(st.floats(0.1, 100.0)),
                range_km=draw(st.floats(0.05, 20.0)),
            )
            values = gamma(model, centers)
        elif shape == "flat":
            values = np.full(lags, draw(st.floats(0.0, 100.0)))
        elif shape == "linear":
            values = draw(st.floats(0.01, 10.0)) * centers
        elif shape == "falling":
            values = draw(st.floats(1.0, 100.0)) / centers
        else:
            values = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=lags, max_size=lags)))
        row_counts = counts.copy()
        drop = draw(st.sampled_from(("none", "first", "most")))
        if drop == "first":
            row_counts[0] = 0
        elif drop == "most":
            row_counts[2:] = 0
        empiricals.append(EmpiricalVariogram(
            bin_edges=edges,
            gamma_hat=np.where(row_counts > 0, values, np.nan),
            pair_counts=row_counts,
        ))
    kinds = draw(st.sampled_from(
        [(kind,) for kind in MODEL_KINDS]
        + [("exponential", "spherical"), MODEL_KINDS]
    ))
    return empiricals, kinds


@settings(max_examples=40, deadline=None)
@given(stack=_stacked_variograms(), chunk_bytes=st.sampled_from((1, 1 << 16, 1 << 20)))
def test_stacked_search_matches_the_per_row_search(stack, chunk_bytes):
    empiricals, kinds = stack
    with mock.patch.object(variogram, "_SEARCH_CHUNK_BYTES", chunk_bytes):
        assert_stacked_search_matches_the_oracle(empiricals, kinds)


def test_stacked_search_covers_the_special_fits():
    # a pure nugget, a range at its bound, a degenerate fit and one curve,
    # stacked in one lag layout with an unfittable row among them
    edges = np.linspace(0.5, 6.5, 13)
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = np.full(12, 40)
    curve = gamma(VariogramModel("spherical", 0.5, 2.0, 3.0), centers)
    thin = counts.copy()
    thin[2:] = 0
    empiricals = [
        EmpiricalVariogram(edges, np.full(12, 7.5), counts),
        EmpiricalVariogram(edges, centers.copy(), counts),
        EmpiricalVariogram(edges, 9.0 - 0.4 * centers, counts),
        EmpiricalVariogram(edges, np.where(thin > 0, curve, np.nan), thin),
        EmpiricalVariogram(edges, curve, counts),
    ]
    searched = assert_stacked_search_matches_the_oracle(empiricals)
    fits = [fit_variogram(e, ranges=r) if r else None for e, r in zip(empiricals, searched)]
    assert fits[0].degenerate and fits[2].degenerate
    assert fits[1].range_at_bound
    assert fits[3] is None
    assert fits[4].range_km == pytest.approx(3.0, abs=1e-6)
    for kinds in ((), ("cubic",), ("spherical", "cubic"), ("spherical", "gaussian")):
        # fit_variogram raises for these before it searches
        assert search_ranges(empiricals, kinds) == [None] * len(empiricals)


def test_searched_ranges_are_checked():
    emp = _synthetic_empirical(
        VariogramModel(kind="spherical", nugget=0.5, sill=2.0, range_km=3.0),
        np.linspace(0.25, 6.0, 13),
    )
    (ranges,) = search_ranges([emp])
    assert fit_variogram(emp, ranges=tuple(ranges)) == fit_variogram(emp)
    for bad in (ranges[:1], [*ranges, 1.0], [0.0, *ranges[1:]], [-1.0, *ranges[1:]],
                [math.nan, *ranges[1:]], [math.inf, *ranges[1:]]):
        with pytest.raises(ValueError):
            fit_variogram(emp, ranges=bad)
    with pytest.raises(TypeError):
        fit_variogram(emp, MODEL_KINDS, 5, ranges)  # keyword-only
