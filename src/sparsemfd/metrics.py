"""Error metrics and the paired comparison test between estimators."""
from __future__ import annotations

import functools
import itertools
import math
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
    mean_diff = float(diffs.mean())
    t_statistic = mean_diff / (spread / math.sqrt(n))
    df = n - 1
    p_value = _t_two_sided_tail(abs(t_statistic), df)
    return PairedTTestResult(
        t_statistic=t_statistic,
        degrees_of_freedom=df,
        p_value=p_value,
        mean_difference=mean_diff,
        alpha=alpha,
        reject=p_value < alpha,
    )


def t_critical_value(degrees_of_freedom, confidence=0.95):
    """Two-sided critical value of the t distribution, searched once per
    (degrees of freedom, confidence) and then remembered."""
    if degrees_of_freedom < 1:
        raise ValueError(f"degrees of freedom must be positive, got {degrees_of_freedom}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return _t_quantile(float(degrees_of_freedom), float(confidence))


@functools.lru_cache(maxsize=256)
def _t_quantile(v, confidence):
    """Newton steps from t = 0 on the two-sided tail, which is convex and
    decreasing for t >= 0, so every step lands short of the root."""
    alpha = 1.0 - confidence
    log_scale = _log_gamma_half_step(v / 2.0) - 0.5 * math.log(v * math.pi)
    t = 0.0
    while True:
        density = math.exp(log_scale - (v + 1.0) / 2.0 * math.log1p(t * t / v))
        step = (_t_two_sided_tail(t, v) - alpha) / (2.0 * density)
        t += step
        if step <= 1e-15 * t:
            return t


def _t_two_sided_tail(t, v):
    """P(|T| >= t) for t >= 0 and v degrees of freedom: I_x(v/2, 1/2) at
    x = v/(v+t^2), whose continued fraction converges fast below
    x = (a+1)/(a+b+2); above, 1 - I_{1-x}(1/2, v/2) (Numerical Recipes, 6.4)."""
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a, b = v / 2.0, 0.5
    # log of x^a (1-x)^b / B(a, b)
    log_front = _log_gamma_half_step(a) - math.lgamma(b) - a * math.log1p(t2 / v)
    log_front -= b * math.log1p(v / t2)
    x = v / (v + t2)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, t2 / (v + t2)) / b


def _log_gamma_half_step(z):
    """log(Gamma(z + 1/2) / Gamma(z)); past z = 100 an asymptotic series
    replaces two lgamma values, whose rounding grows with their size."""
    if z < 100.0:
        return math.lgamma(z + 0.5) - math.lgamma(z)
    return 0.5 * math.log(z) - 1.0 / (8.0 * z) + 1.0 / (192.0 * z**3) - 1.0 / (640.0 * z**5)


def _beta_fraction(a, b, x):
    """Continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    c = 1.0
    d = fraction = 1.0 / (1.0 - (a + b) * x / (a + 1.0))  # positive below the switch
    for m in itertools.count(1):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) <= 2.0**-52:
            return fraction
