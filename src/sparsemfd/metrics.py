"""Error metrics and the paired comparison test between estimators."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, DegenerateTestError, InsufficientDataError, ValidationError
from .tableio import NOT_STORED


@dataclass(frozen=True)
class MetricsReport:
    """Pointwise error summary of an estimated series against a reference.

    ``mape_percent`` skips reference zeros (counted in ``mape_skipped``) and
    is None when every reference value is zero. ``r2`` is None when the
    reference series is constant, where explained variance is undefined.
    """

    rmse: float
    mae: float
    mape_percent: float | None
    r2: float | None
    n_points: int
    mape_skipped: int


def _require_finite(values, name):
    """Reject a series holding NaN or an infinity, naming the series."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"{name} series holds a non-finite value ({values[i]}) at position {i}"
        )


def compute_metrics(estimated, actual):
    est = np.asarray(estimated, dtype=float)
    act = np.asarray(actual, dtype=float)
    if est.shape != act.shape or est.ndim != 1:
        raise AlignmentError(
            f"series must be equal-length vectors, got {est.shape} and {act.shape}"
        )
    _require_finite(est, "estimated")
    _require_finite(act, "actual")
    if est.size == 0:
        raise InsufficientDataError("metrics need at least one point")

    errors = est - act
    rmse = float(np.sqrt(np.mean(errors**2)))
    mae = float(np.mean(np.abs(errors)))

    nonzero = act != 0
    skipped = int(np.sum(~nonzero))
    if nonzero.any():
        mape = float(100.0 * np.mean(np.abs(errors[nonzero] / act[nonzero])))
    else:
        mape = None

    sst = float(np.sum((act - act.mean()) ** 2))
    r2 = 1.0 - float(np.sum(errors**2)) / sst if sst > 0 else None

    return MetricsReport(
        rmse=rmse,
        mae=mae,
        mape_percent=mape,
        r2=r2,
        n_points=int(est.size),
        mape_skipped=skipped,
    )


@dataclass(frozen=True)
class PairedTTestResult:
    """Two-sided paired t test on the differences a - b.

    A JSON record stores the statistic, its degrees of freedom, the p value
    and the verdict; ``mean_difference`` is a table column only.
    """

    t_statistic: float
    degrees_of_freedom: int
    p_value: float
    mean_difference: float = field(metadata=NOT_STORED)
    alpha: float = field(metadata=NOT_STORED)
    reject: bool


def paired_t_test(a, b, alpha=0.05):
    """Test whether two paired series differ in mean.

    The statistic is the mean difference over its standard error with n - 1
    degrees of freedom. Identical series have zero variance and make the
    statistic undefined, which is reported as a degenerate test. A NaN or
    an infinity in either series is rejected as invalid input.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.shape != b_arr.shape or a_arr.ndim != 1:
        raise AlignmentError(
            f"series must be equal-length vectors, got {a_arr.shape} and {b_arr.shape}"
        )
    _require_finite(a_arr, "first")
    _require_finite(b_arr, "second")
    n = a_arr.size
    if n < 2:
        raise InsufficientDataError(f"paired test needs at least 2 pairs, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")

    diffs = a_arr - b_arr
    spread = float(np.std(diffs, ddof=1))
    if spread == 0.0:
        raise DegenerateTestError(
            "differences have zero variance, the paired statistic is undefined"
        )
    # Imported here and in t_critical_value, its only uses, so that
    # importing the package does not load scipy.special.
    from scipy.special import stdtr

    mean_diff = float(diffs.mean())
    t_statistic = mean_diff / (spread / np.sqrt(n))
    df = n - 1
    p_value = float(2.0 * stdtr(df, -abs(t_statistic)))
    return PairedTTestResult(
        t_statistic=float(t_statistic),
        degrees_of_freedom=df,
        p_value=p_value,
        mean_difference=mean_diff,
        alpha=alpha,
        reject=p_value < alpha,
    )


def t_critical_value(degrees_of_freedom, confidence=0.95):
    """Two-sided critical value of the t distribution."""
    if degrees_of_freedom < 1:
        raise ValueError(f"degrees of freedom must be positive, got {degrees_of_freedom}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    from scipy.special import stdtrit

    return float(stdtrit(degrees_of_freedom, 0.5 + confidence / 2.0))
