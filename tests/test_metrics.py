"""Error metrics and the paired comparison test."""

import json
import math

import numpy as np
import pytest

from sparsemfd.errors import (
    AlignmentError,
    DegenerateTestError,
    InsufficientDataError,
    ValidationError,
)
from sparsemfd.metrics import (
    _t_two_sided_tail,
    compute_metrics,
    paired_t_test,
    t_critical_value,
)
from sparsemfd.mfd import QuadraticFit
from sparsemfd.tableio import write_json


def test_metrics_worked_example():
    report = compute_metrics([110.0, 190.0], [100.0, 200.0])
    assert report.rmse == 10.0
    assert report.mae == 10.0
    assert report.mape_percent == pytest.approx(7.5, rel=1e-12)
    assert report.r2 == pytest.approx(0.96, rel=1e-12)
    assert report.n_points == 2
    assert report.mape_skipped == 0


def test_metrics_perfect_estimate():
    report = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert report.rmse == 0.0
    assert report.mae == 0.0
    assert report.mape_percent == 0.0
    assert report.r2 == 1.0


def test_metrics_constant_reference_has_no_r2():
    report = compute_metrics([1.0, 2.0], [5.0, 5.0])
    assert report.r2 is None
    assert report.rmse > 0


def test_metrics_mape_skips_reference_zeros():
    report = compute_metrics([1.0, 10.0], [0.0, 20.0])
    assert report.mape_skipped == 1
    assert report.mape_percent == pytest.approx(50.0, rel=1e-12)
    all_zero = compute_metrics([1.0, 2.0], [0.0, 0.0])
    assert all_zero.mape_percent is None
    assert all_zero.mape_skipped == 2


def test_metrics_bounds_and_swap_behaviour():
    rng = np.random.default_rng(6)
    actual = rng.uniform(50.0, 150.0, size=30)
    estimated = actual + rng.normal(0.0, 10.0, size=30)
    report = compute_metrics(estimated, actual)
    assert report.rmse >= report.mae >= 0.0
    assert report.r2 <= 1.0
    swapped = compute_metrics(actual, estimated)
    # absolute errors are symmetric in the roles, relative ones are not
    assert swapped.rmse == report.rmse
    assert swapped.mae == report.mae
    assert swapped.mape_percent != report.mape_percent
    assert swapped.r2 != report.r2


def test_metrics_input_validation():
    with pytest.raises(AlignmentError):
        compute_metrics([1.0, 2.0], [1.0])
    with pytest.raises(InsufficientDataError):
        compute_metrics([], [])
    with pytest.raises(ValidationError, match="actual series holds a non-finite value"):
        compute_metrics([1.0, 2.0], [1.0, math.inf])


# --- paired t test ------------------------------------------------------------


def test_t_test_worked_example():
    b = np.array([10.0, 20.0, 30.0])
    a = b + np.array([1.0, 2.0, 3.0])
    result = paired_t_test(a, b)
    assert result.t_statistic == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
    assert result.degrees_of_freedom == 2
    assert result.mean_difference == pytest.approx(2.0, abs=1e-12)
    # closed form for two degrees of freedom: p = 1 - t / sqrt(2 + t^2)
    t = result.t_statistic
    assert result.p_value == pytest.approx(1.0 - t / math.sqrt(2.0 + t * t), abs=1e-12)
    assert not result.reject  # p is about 0.074


def test_t_test_large_sample_rejects():
    # 124 pairs built so the sample standard deviation is exactly one
    n = 124
    target_t = 7.089
    c = math.sqrt((n - 1) / n)
    diffs = np.array([c, -c] * (n // 2)) + target_t / math.sqrt(n)
    result = paired_t_test(diffs, np.zeros(n))
    assert result.degrees_of_freedom == 123
    assert result.t_statistic == pytest.approx(target_t, rel=1e-9)
    assert result.p_value < 1e-4
    assert result.reject


def test_t_test_antisymmetry():
    rng = np.random.default_rng(2)
    a = rng.normal(10.0, 2.0, size=12)
    b = rng.normal(11.0, 2.0, size=12)
    ab = paired_t_test(a, b)
    ba = paired_t_test(b, a)
    assert ab.t_statistic == -ba.t_statistic
    assert ab.p_value == ba.p_value
    assert ab.reject == ba.reject


def test_t_test_identical_series_is_degenerate():
    a = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateTestError):
        paired_t_test(a, a)
    # a constant nonzero difference is degenerate too
    with pytest.raises(DegenerateTestError):
        paired_t_test(a + 5.0, a)


def test_t_test_input_validation():
    with pytest.raises(InsufficientDataError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(AlignmentError):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [2.0, 1.0], alpha=0.0)
    with pytest.raises(ValidationError, match=r"first series holds a non-finite value \(inf\)"):
        paired_t_test([1.0, 2.0, math.inf], [0.5, 1.0, 2.0])


def test_critical_value_table_entry():
    assert t_critical_value(123) == pytest.approx(1.9794, abs=5e-4)
    assert t_critical_value(2) == pytest.approx(4.3027, abs=5e-4)
    with pytest.raises(ValueError):
        t_critical_value(0)


def test_t_distribution_matches_scipy_stats_to_the_declared_tolerance():
    # quantiles within 1e-12 relative up to df 200 and 1e-10 beyond, two-sided
    # tails within 1e-10 relative for |t| <= 60 wherever they reach 1e-300
    from scipy import stats

    rng = np.random.default_rng(3)
    levels = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
    for df in [*range(1, 201), 1000, 10_000, 100_000]:
        quantiles = [t_critical_value(df, level) for level in levels]
        expected = [stats.t.ppf(0.5 + level / 2.0, df) for level in levels]
        assert all(type(q) is float for q in quantiles)
        assert quantiles == pytest.approx(expected, rel=1e-12 if df <= 200 else 1e-10, abs=0)

        fit = QuadraticFit(
            coefficients=(1.0, 2.0, -0.1), xtx_inv=np.eye(3), residual_variance=4.0,
            n_points=df + 3,
        )
        x = np.array([0.0, 3.5])
        spread = fit._standard_error(x, False)
        for level, quantile in zip(levels, quantiles):
            fitted, low, high = fit.band(x, confidence=level)
            assert np.array_equal(low, fitted - quantile * spread)
            assert np.array_equal(high, fitted + quantile * spread)

        # a grid to |t| = 60, the quantiles, and tails near 1e-9 as in the
        # p values of the CLI-default experiment
        t_values = np.concatenate([
            np.linspace(0.0, 60.0, 121), quantiles,
            stats.t.isf(np.array([2.5e-10, 5e-10, 1e-9]), df),
        ])
        reference = 2.0 * stats.t.sf(t_values, df)
        kept = reference >= 1e-300
        tails = [_t_two_sided_tail(float(t), df) for t in t_values[kept]]
        assert tails == pytest.approx(reference[kept].tolist(), rel=1e-10, abs=0)

        # a mean shift of 2 / sqrt(n) keeps t near 2 at every df
        a = rng.normal(2.0 / math.sqrt(df + 1), 1.0, size=df + 1)
        result = paired_t_test(a, np.zeros(df + 1))
        assert result.p_value == pytest.approx(
            2.0 * stats.t.sf(abs(result.t_statistic), df), rel=1e-10, abs=0
        )


def test_t_test_result_holds_python_scalars_that_json_accepts(tmp_path):
    # an np.float64 p value would turn reject into an np.bool_, which the
    # JSON encoder refuses
    result = paired_t_test([1.0, 2.5, 2.0, 4.0], [1.5, 1.0, 1.0, 2.0])
    assert type(result.t_statistic) is float
    assert type(result.degrees_of_freedom) is int
    assert type(result.p_value) is float
    assert type(result.reject) is bool
    write_json(tmp_path / "t_test.json", result)
    stored = json.loads((tmp_path / "t_test.json").read_text())
    assert stored["p_value"] == result.p_value
    assert stored["reject"] is result.reject
