"""MFD assembly, quadratic fitting and confidence bands.

The least squares path is checked against the normal equations solved by
hand in the test, independent of the production lstsq call.
"""

import numpy as np
import pytest

from sparsemfd.errors import (
    AlignmentError,
    InsufficientDataError,
    RankDeficiencyError,
    ValidationError,
)
from sparsemfd.mfd import (
    MFDPoint,
    build_mfd,
    fit_quadratic_with_ci,
)


# --- point assembly -----------------------------------------------------------


def test_build_mfd_pairs_series_by_bin():
    points = build_mfd({0: 600.0, 1: 900.0}, {0: 20.0, 1: 45.0})
    assert [p.bin_index for p in points] == [0, 1]
    assert points[0].speed_km_per_h == pytest.approx(30.0)
    assert points[1].flow_veh_per_h == 900.0


def test_build_mfd_zero_density_has_no_speed():
    (point,) = build_mfd({0: 0.0}, {0: 0.0})
    assert point.speed_km_per_h is None


def test_build_mfd_mismatched_bins():
    with pytest.raises(AlignmentError) as err:
        build_mfd({0: 1.0, 1: 2.0}, {0: 1.0, 2: 2.0})
    assert "1" in str(err.value) and "2" in str(err.value)


def test_mfd_point_rejects_negative_state():
    with pytest.raises(ValidationError):
        MFDPoint(bin_index=0, density_veh_per_km=-1.0, flow_veh_per_h=0.0,
                 speed_km_per_h=None)


# --- quadratic fit ------------------------------------------------------------


def test_noiseless_parabola_is_recovered_exactly():
    k = np.linspace(1.0, 35.0, 12)
    q = 2.0 * k - 0.05 * k**2
    fit = fit_quadratic_with_ci(k, q)
    assert fit.coefficients == pytest.approx((0.0, 2.0, -0.05), abs=1e-8)
    fitted, lo, hi = fit.band(np.array([5.0, 20.0]))
    assert np.allclose(hi - lo, 0.0, atol=1e-8)
    assert fitted == pytest.approx(2.0 * np.array([5.0, 20.0]) - 0.05 * np.array([5.0, 20.0]) ** 2)


def test_fit_matches_hand_solved_normal_equations():
    # four points, three distinct densities
    x = np.array([1.0, 2.0, 2.0, 4.0])
    y = np.array([3.0, 5.0, 4.5, 6.0])
    design = np.column_stack([np.ones(4), x, x**2])
    normal = design.T @ design
    want = np.linalg.solve(normal, design.T @ y)
    fit = fit_quadratic_with_ci(x, y)
    assert fit.coefficients == pytest.approx(tuple(want), rel=1e-9)
    # the stored inverse reproduces the normal matrix
    assert fit.xtx_inv @ normal == pytest.approx(np.eye(3), abs=1e-9)
    residuals = y - design @ want
    assert fit.residual_variance == pytest.approx(
        float(residuals @ residuals) / 1.0, rel=1e-9
    )
    assert fit.degrees_of_freedom == 1


def test_band_width_grows_away_from_the_data():
    rng = np.random.default_rng(8)
    x = np.linspace(0.0, 10.0, 20)
    y = 1.0 + 0.5 * x - 0.03 * x**2 + rng.normal(0.0, 0.3, size=20)
    fit = fit_quadratic_with_ci(x, y)
    _, lo_mid, hi_mid = fit.band(5.0)
    _, lo_far, hi_far = fit.band(14.0)
    assert (hi_far - lo_far)[0] > (hi_mid - lo_mid)[0]


def test_prediction_band_is_wider_than_mean_band():
    rng = np.random.default_rng(21)
    x = np.linspace(0.0, 10.0, 15)
    y = 2.0 + x - 0.08 * x**2 + rng.normal(0.0, 0.4, size=15)
    fit = fit_quadratic_with_ci(x, y)
    _, lo_m, hi_m = fit.band(4.0, kind="mean")
    _, lo_p, hi_p = fit.band(4.0, kind="prediction")
    assert (hi_p - lo_p)[0] > (hi_m - lo_m)[0]


def test_band_level_ordering():
    rng = np.random.default_rng(4)
    x = np.linspace(0.0, 10.0, 15)
    y = 2.0 + x - 0.08 * x**2 + rng.normal(0.0, 0.4, size=15)
    fit = fit_quadratic_with_ci(x, y)
    _, lo90, hi90 = fit.band(5.0, confidence=0.90)
    _, lo99, hi99 = fit.band(5.0, confidence=0.99)
    assert (hi99 - lo99)[0] > (hi90 - lo90)[0]
    with pytest.raises(ValueError):
        fit.band(5.0, confidence=1.5)
    with pytest.raises(ValueError):
        fit.band(5.0, kind="tube")


def test_fit_scales_with_the_response():
    """Scaling y scales the coefficients and the band margins alike."""
    rng = np.random.default_rng(14)
    x = np.linspace(1.0, 30.0, 18)
    y = 2.0 * x - 0.05 * x**2 + rng.normal(0.0, 1.0, size=18)
    alpha = 3.5
    base = fit_quadratic_with_ci(x, y)
    scaled = fit_quadratic_with_ci(x, alpha * y)
    assert np.asarray(scaled.coefficients) == pytest.approx(
        alpha * np.asarray(base.coefficients), rel=1e-9
    )
    _, lo_b, hi_b = base.band(12.0)
    _, lo_s, hi_s = scaled.band(12.0)
    assert (hi_s - lo_s)[0] == pytest.approx(alpha * (hi_b - lo_b)[0], rel=1e-9)


def test_fit_input_requirements():
    with pytest.raises(InsufficientDataError):
        fit_quadratic_with_ci([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(RankDeficiencyError):
        fit_quadratic_with_ci([1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(AlignmentError):
        fit_quadratic_with_ci([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
