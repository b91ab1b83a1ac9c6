"""Macroscopic fundamental diagram assembly and quadratic fitting.

An MFD point pairs the network density and flow of one bin; the network
speed is their ratio. The flow-density relation is summarised by a least
squares parabola with pointwise confidence bands for the mean response.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, InsufficientDataError, RankDeficiencyError, ValidationError
from .metrics import t_critical_value


@dataclass(frozen=True)
class MFDPoint:
    """Network state of one bin; speed is None where density vanishes."""

    bin_index: int
    density_veh_per_km: float
    flow_veh_per_h: float
    speed_km_per_h: float | None

    def __post_init__(self):
        for name in ("density_veh_per_km", "flow_veh_per_h"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(
                    f"bin {self.bin_index}: {name} must be nonnegative, got {value}"
                )


def build_mfd(flow_series, density_series):
    """Pair per-bin flow and density series into MFD points.

    Both arguments map bin index to value (or are iterables of such pairs)
    and must cover exactly the same bins.
    """
    flows = dict(flow_series)
    densities = dict(density_series)
    if flows.keys() != densities.keys():
        only_flow = sorted(set(flows) - set(densities))
        only_density = sorted(set(densities) - set(flows))
        raise AlignmentError(
            f"flow and density series cover different bins "
            f"(flow only: {only_flow[:8]}, density only: {only_density[:8]})"
        )
    points = []
    for bin_index in sorted(flows):
        q = flows[bin_index]
        k = densities[bin_index]
        points.append(
            MFDPoint(
                bin_index=bin_index,
                density_veh_per_km=k,
                flow_veh_per_h=q,
                speed_km_per_h=q / k if k > 0 else None,
            )
        )
    return points


@dataclass(frozen=True)
class QuadraticFit:
    """Least squares parabola y = c0 + c1 x + c2 x^2 with its uncertainty.

    ``xtx_inv`` is the inverse normal matrix; together with the residual
    variance it gives the standard error of the fitted mean at any x, from
    which confidence bands follow with n - 3 degrees of freedom.
    """

    coefficients: tuple
    xtx_inv: np.ndarray
    residual_variance: float
    n_points: int

    @property
    def degrees_of_freedom(self):
        return self.n_points - 3

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        c0, c1, c2 = self.coefficients
        values = c0 + c1 * x_arr + c2 * x_arr**2
        if np.isscalar(x) or x_arr.ndim == 0:
            return float(values)
        return values

    def _standard_error(self, x_arr, predictive):
        design = np.column_stack([np.ones_like(x_arr), x_arr, x_arr**2])
        quad_form = np.einsum("ij,jk,ik->i", design, self.xtx_inv, design)
        if predictive:
            quad_form = quad_form + 1.0
        return np.sqrt(self.residual_variance * quad_form)

    def band(self, x, confidence=0.95, kind="mean"):
        """Fitted values with pointwise lower and upper band.

        ``kind`` is "mean" for the confidence band of the fitted mean or
        "prediction" for the wider band of a new observation.
        """
        if kind not in ("mean", "prediction"):
            raise ValueError(f"kind must be 'mean' or 'prediction', got '{kind}'")
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        fitted = self(x_arr)
        critical = t_critical_value(self.degrees_of_freedom, confidence)
        margin = critical * self._standard_error(x_arr, kind == "prediction")
        return fitted, fitted - margin, fitted + margin


def fit_quadratic_with_ci(x, y):
    """Fit a parabola to (x, y) points and keep everything bands need.

    Requires at least four points with three distinct x values; fewer
    distinct x values leave the normal matrix rank deficient.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.shape != y_arr.shape or x_arr.ndim != 1:
        raise AlignmentError(
            f"x and y must be equal-length vectors, got {x_arr.shape} and {y_arr.shape}"
        )
    n = x_arr.size
    if n < 4:
        raise InsufficientDataError(f"quadratic fit needs at least 4 points, got {n}")
    if np.unique(x_arr).size < 3:
        raise RankDeficiencyError(
            "quadratic fit needs at least 3 distinct x values"
        )

    design = np.column_stack([np.ones(n), x_arr, x_arr**2])
    coefficients, _, rank, _ = np.linalg.lstsq(design, y_arr, rcond=None)
    if rank < 3:
        raise RankDeficiencyError("design matrix is rank deficient")
    residuals = y_arr - design @ coefficients
    sse = float(residuals @ residuals)
    return QuadraticFit(
        coefficients=tuple(float(c) for c in coefficients),
        xtx_inv=np.linalg.inv(design.T @ design),
        residual_variance=sse / (n - 3),
        n_points=n,
    )
