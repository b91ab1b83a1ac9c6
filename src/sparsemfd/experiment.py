"""Coverage-seed-estimator experiment grids with reproducible outputs.

One experiment sweeps coverage fractions and sampling seeds over a set of
estimators, always comparing the estimators on the identical detector
subsample. Every cell records its estimates, error metrics against the
full-coverage reference, MFD points and a fitted flow-density parabola;
per cell failures are recorded, never fatal to the grid. All files written
for one configuration and seed set are byte-for-byte reproducible.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import (
    DegenerateTestError,
    InsufficientDataError,
    NotEstimableError,
    NumericError,
    ValidationError,
)
# impute_network is not called here; perfbench's tracer wraps it under
# this module's name, so the import stays
from .kriging import (  # noqa: F401
    ImputationDistances,
    ImputedField,
    impute_network,
    impute_observed,
    network_mean_from_field,
)
from .metrics import compute_metrics, paired_t_test
from .mfd import build_mfd, fit_quadratic_with_ci
from .network import load_detector_sites, load_network
from .scaling import (
    VARIABLES,
    HierarchyPartition,
    ScaledEstimate,
    hierarchical_estimate,
    uniform_estimate,
)
from .sensing import (
    edie_truth_series,
    load_readings,
    reading_columns,
    sample_coverage,
    save_coverage_plan,
)
from .synth import SyntheticScenario, generate_scenario
from .tableio import delimiter_for, write_table
from .variogram import MODEL_KINDS, VariogramModel

ESTIMATOR_NAMES = ("uniform", "hierarchical", "variogram")
STATUS_OK = "ok"
STATUS_NOT_ESTIMABLE = "not-estimable"
STATUS_FAILED = "failed"

MANIFEST_VERSION = 1

ESTIMATES_HEADER = (
    "bin_index", "method", "variable", "value", "ttd_or_ttt", "hierarchy_count"
)
FIELD_HEADER = ("link_id", "bin_index", "variable", "value", "provenance")
MODEL_HEADER = (
    "kind", "nugget", "sill", "range_km", "rss", "bin_index", "degenerate",
    "range_at_bound",
)
BAND_HEADER = ("x", "y_fit", "ci_low", "ci_high")
MFD_HEADER = ("bin_index", "density_veh_per_km", "flow_veh_per_h", "speed_km_per_h")
METRIC_FIELDS = ("rmse", "mae", "mape_percent", "r2", "n_points", "mape_skipped")
TTEST_FIELDS = ("t_statistic", "degrees_of_freedom", "p_value", "mean_difference", "reject")


@dataclass(frozen=True)
class VariogramSettings:
    """Knobs of the variogram estimator inside an experiment."""

    kinds: tuple = MODEL_KINDS
    lag_bins: int = 15
    min_pairs: int = 5
    max_neighbors: int = 16
    min_neighbors: int = 3
    refit_per_bin: bool = True
    fixed_model: VariogramModel | None = None
    min_length_coverage: float = 0.95

    def __post_init__(self):
        if not self.kinds or not set(self.kinds) <= set(MODEL_KINDS):
            raise ValidationError(
                f"kinds must be a non-empty subset of {MODEL_KINDS}, got {self.kinds!r}"
            )
        if self.lag_bins < 1 or self.min_pairs < 1:
            raise ValidationError(
                f"lag_bins and min_pairs must be at least 1, "
                f"got {self.lag_bins} and {self.min_pairs}"
            )
        if not 1 <= self.min_neighbors <= self.max_neighbors:
            raise ValidationError(
                f"need 1 <= min_neighbors <= max_neighbors, "
                f"got {self.min_neighbors} and {self.max_neighbors}"
            )
        if not 0.0 < self.min_length_coverage <= 1.0:
            raise ValidationError(
                f"min_length_coverage must lie in (0, 1], got {self.min_length_coverage}"
            )
        if self.fixed_model is not None and not isinstance(self.fixed_model, VariogramModel):
            raise ValidationError(
                f"fixed_model must be a VariogramModel or None, got {self.fixed_model!r}"
            )

    def to_dict(self):
        out = {
            "kinds": list(self.kinds),
            "lag_bins": self.lag_bins,
            "min_pairs": self.min_pairs,
            "max_neighbors": self.max_neighbors,
            "min_neighbors": self.min_neighbors,
            "refit_per_bin": self.refit_per_bin,
            "min_length_coverage": self.min_length_coverage,
            "fixed_model": None,
        }
        if self.fixed_model is not None:
            m = self.fixed_model
            out["fixed_model"] = {
                "kind": m.kind, "nugget": m.nugget,
                "sill": m.sill, "range_km": m.range_km,
            }
        return out

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        if "kinds" in data:
            data["kinds"] = tuple(data["kinds"])
        if data.get("fixed_model") is not None:
            data["fixed_model"] = VariogramModel(**data["fixed_model"])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(f"malformed variogram settings: {exc}")


def model_row(model, bin_index):
    """One ``MODEL_HEADER`` row: a variogram model and the bin it served."""
    return (
        model.kind, model.nugget, model.sill, model.range_km, model.rss,
        bin_index, model.degenerate, model.range_at_bound,
    )


def field_rows(imputed, network):
    """``FIELD_HEADER`` rows of one imputed field, in network link order."""
    return [
        (link.id, imputed.bin_index, imputed.variable, imputed.values.get(link.id),
         imputed.provenance.get(link.id))
        for link in network.links
    ]


@dataclass(frozen=True)
class BinOutcome:
    """One (bin, variable) of an estimator: an estimate or its failure.

    Exactly one of ``estimate`` and ``failure`` is set. ``field`` is the
    kriged field of the variogram estimator, kept also when it covers too
    little length for an estimate.
    """

    bin_index: int
    variable: str
    estimate: ScaledEstimate | None = None
    failure: NotEstimableError | None = None
    field: ImputedField | None = None


def estimate_bins(estimator, observations, bins, variables, network, sites=(),
                  distances=None, known_site_ids=None,
                  settings=VariogramSettings(), uniform_mode="exact",
                  duration_h=1.0):
    """Run one estimator over every (bin, variable); yield a ``BinOutcome`` each.

    ``observations`` is an ``ObservationGrid`` over ``network``'s links. A
    ``NotEstimableError`` fails only its own pair, as a failure reading
    "bin {b} ({variable}): {reason}"; numeric and validation errors
    propagate. The hierarchy partition is built once per distinct set of
    observed links. Without ``refit_per_bin`` each variable reuses the model
    of its first estimable bin. ``sites``, ``distances`` and
    ``known_site_ids`` are those of ``impute_network``; the distances are
    built once when omitted.
    """
    if estimator not in ESTIMATOR_NAMES:
        raise ValidationError(f"unknown estimator '{estimator}'")
    if estimator == "variogram" and distances is None:
        distances = ImputationDistances.build(network, sites)
    partitions = {}
    reused = {}
    for b in bins:
        row = observations.row(b)
        if row is not None:
            equipped = observations.observed[row]
            if estimator == "hierarchical":
                key = equipped.tobytes()
                if key not in partitions:
                    partitions[key] = HierarchyPartition.from_network(
                        network,
                        [observations.link_ids[j] for j in np.flatnonzero(equipped).tolist()],
                    )
                partition = partitions[key]
        for variable in variables:
            imputed = None
            try:
                if row is None:
                    raise InsufficientDataError("no equipped observation")
                values = observations.values(variable)[row]
                if estimator == "uniform":
                    estimate = uniform_estimate(
                        b, values, equipped, network, variable,
                        mode=uniform_mode, duration_h=duration_h,
                    )
                elif estimator == "hierarchical":
                    estimate = hierarchical_estimate(
                        b, values, partition, variable, duration_h=duration_h
                    )
                else:
                    model = settings.fixed_model
                    if model is None and not settings.refit_per_bin:
                        model = reused.get(variable)
                    imputed = impute_observed(
                        network, b, observations.observed_values(b, variable), sites,
                        distances=distances, model=model, variable=variable,
                        kinds=settings.kinds, lag_bins=settings.lag_bins,
                        min_pairs=settings.min_pairs,
                        max_neighbors=settings.max_neighbors,
                        min_neighbors=settings.min_neighbors,
                        known_site_ids=known_site_ids,
                    )
                    value, _ = network_mean_from_field(
                        imputed, network, settings.min_length_coverage
                    )
                    if not settings.refit_per_bin:
                        reused.setdefault(variable, imputed.model)
                    estimate = ScaledEstimate(
                        bin_index=b, variable=variable, value=value,
                        ttd_or_ttt=value * network.total_length_km * duration_h,
                        method="variogram", hierarchy_count=0, duration_h=duration_h,
                    )
            except NotEstimableError as exc:
                failure = NotEstimableError(f"bin {b} ({variable}): {exc}")
                yield BinOutcome(b, variable, failure=failure, field=imputed)
                continue
            yield BinOutcome(b, variable, estimate=estimate, field=imputed)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a grid run depends on.

    Exactly one data source: a synthetic scenario or the three input paths
    of a recorded data set. With recorded data the reference is available
    only if every link reports in every bin; otherwise metrics are skipped
    and the cells still produce estimates.
    """

    coverages: tuple
    seeds: tuple
    estimators: tuple = ESTIMATOR_NAMES
    scenario: SyntheticScenario | None = None
    network_path: str | None = None
    sites_path: str | None = None
    readings_path: str | None = None
    uniform_mode: str = "exact"
    variogram: VariogramSettings = VariogramSettings()
    band_samples: int = 50

    def __post_init__(self):
        object.__setattr__(self, "coverages", tuple(self.coverages))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.coverages:
            raise ValidationError("need at least one coverage fraction")
        for c in self.coverages:
            if not 0.0 < c <= 1.0:
                raise ValidationError(f"coverage fractions must lie in (0, 1], got {c}")
        if not self.seeds:
            raise ValidationError("need at least one seed")
        if not self.estimators:
            raise ValidationError("need at least one estimator")
        for e in self.estimators:
            if e not in ESTIMATOR_NAMES:
                raise ValidationError(
                    f"unknown estimator '{e}', expected one of {ESTIMATOR_NAMES}"
                )
        paths = (self.network_path, self.sites_path, self.readings_path)
        if self.scenario is not None:
            if any(p is not None for p in paths):
                raise ValidationError("give either a scenario or data paths, not both")
        elif not all(p is not None for p in paths):
            raise ValidationError(
                "recorded-data mode needs network_path, sites_path and readings_path"
            )
        if self.uniform_mode not in ("exact", "mean-only"):
            raise ValidationError(f"unknown uniform mode '{self.uniform_mode}'")
        if self.band_samples < 2:
            raise ValidationError("band_samples must be at least 2")

    def to_dict(self):
        return {
            "coverages": list(self.coverages),
            "seeds": list(self.seeds),
            "estimators": list(self.estimators),
            "scenario": self.scenario.to_dict() if self.scenario else None,
            "network_path": self.network_path,
            "sites_path": self.sites_path,
            "readings_path": self.readings_path,
            "uniform_mode": self.uniform_mode,
            "variogram": self.variogram.to_dict(),
            "band_samples": self.band_samples,
        }

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        if data.get("scenario") is not None:
            data["scenario"] = SyntheticScenario.from_dict(data["scenario"])
        if data.get("variogram") is not None:
            data["variogram"] = VariogramSettings.from_dict(data["variogram"])
        else:
            data.pop("variogram", None)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(f"malformed experiment config: {exc}")


def load_experiment_config(path):
    with open(path) as handle:
        return ExperimentConfig.from_dict(json.load(handle))


def save_experiment_config(config, path):
    with open(path, "w") as handle:
        json.dump(config.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@dataclass
class CellResult:
    """Outcome of one (coverage, seed, estimator) combination."""

    coverage: float
    seed: int
    estimator: str
    status: str = STATUS_OK
    message: str | None = None
    estimates: list = field(default_factory=list)
    failed_bins: list = field(default_factory=list)
    metrics_flow: object = None
    metrics_density: object = None
    mfd_points: list = field(default_factory=list)
    quad_fit: object = None
    fit_message: str | None = None
    fields: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)

    def series(self, variable):
        return {
            e.bin_index: e.value for e in self.estimates if e.variable == variable
        }

    @property
    def name(self):
        return f"cov{self.coverage:g}_seed{self.seed}_{self.estimator}"


@dataclass
class TTestCell:
    coverage: float
    seed: int
    result: object = None
    message: str | None = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    network: object
    bin_indices: tuple
    truth_flow: dict | None
    truth_density: dict | None
    clamped_count: int | None
    plans: dict = field(default_factory=dict)
    cells: list = field(default_factory=list)
    ttests: list = field(default_factory=list)

    def cell(self, coverage, seed, estimator):
        for c in self.cells:
            if (c.coverage, c.seed, c.estimator) == (coverage, seed, estimator):
                return c
        return None


def _materialise(config):
    if config.scenario is not None:
        data = generate_scenario(config.scenario)
        return data.network, list(data.sites), list(data.readings), data.clamped_count
    network = load_network(config.network_path)
    sites = load_detector_sites(config.sites_path, network=network)
    readings = load_readings(config.readings_path)
    return network, sites, readings, None


def _truth_series(grid, network):
    try:
        return edie_truth_series(grid, network)
    except InsufficientDataError:
        return None, None


def _record(cell, outcome):
    b, variable = outcome.bin_index, outcome.variable
    if outcome.field is not None:
        cell.models[(b, variable)] = outcome.field.model
    if outcome.failure is not None:
        if b not in cell.failed_bins:
            cell.failed_bins.append(b)
        if cell.message is None:
            cell.message = str(outcome.failure)
        return
    cell.estimates.append(outcome.estimate)
    if outcome.field is not None:
        cell.fields[(b, variable)] = outcome.field


def _attach_metrics(cell, truth_flow, truth_density, bin_indices):
    if cell.status != STATUS_OK or truth_flow is None:
        return
    flow = cell.series("flow")
    density = cell.series("density")
    cell.metrics_flow = compute_metrics(
        [flow[b] for b in bin_indices], [truth_flow[b] for b in bin_indices]
    )
    cell.metrics_density = compute_metrics(
        [density[b] for b in bin_indices], [truth_density[b] for b in bin_indices]
    )


def _attach_mfd(cell):
    flow = cell.series("flow")
    density = cell.series("density")
    common = sorted(set(flow) & set(density))
    if not common:
        cell.fit_message = "no bin with both flow and density"
        return
    cell.mfd_points = build_mfd(
        {b: max(flow[b], 0.0) for b in common},
        {b: max(density[b], 0.0) for b in common},
    )
    k = [p.density_veh_per_km for p in cell.mfd_points]
    q = [p.flow_veh_per_h for p in cell.mfd_points]
    try:
        cell.quad_fit = fit_quadratic_with_ci(k, q)
    except NotEstimableError as exc:
        cell.fit_message = str(exc)


def _attach_ttest(result, coverage, seed):
    hier = result.cell(coverage, seed, "hierarchical")
    unif = result.cell(coverage, seed, "uniform")
    if hier is None or unif is None:
        return
    record = TTestCell(coverage=coverage, seed=seed)
    if hier.quad_fit is None or unif.quad_fit is None:
        record.message = "missing MFD fit for at least one method"
    else:
        bins_h = {p.bin_index: p.density_veh_per_km for p in hier.mfd_points}
        bins_u = {p.bin_index: p.density_veh_per_km for p in unif.mfd_points}
        common = sorted(set(bins_h) & set(bins_u))
        if len(common) < 2:
            record.message = "fewer than two shared bins"
        else:
            fitted_h = [hier.quad_fit(bins_h[b]) for b in common]
            fitted_u = [unif.quad_fit(bins_u[b]) for b in common]
            try:
                record.result = paired_t_test(fitted_h, fitted_u)
            except DegenerateTestError as exc:
                record.message = str(exc)
    result.ttests.append(record)


def run_experiment(config, output_dir=None, fmt="csv"):
    """Run the full grid; optionally write all outputs below ``output_dir``."""
    network, sites, readings, clamped = _materialise(config)
    columns = reading_columns(readings, sites, network.link_ids)
    bin_indices = tuple(columns.bins.tolist())
    truth_flow, truth_density = _truth_series(columns.observe(), network)
    geometry = (
        ImputationDistances.build(network, sites)
        if "variogram" in config.estimators
        else None
    )

    result = ExperimentResult(
        config=config,
        network=network,
        bin_indices=bin_indices,
        truth_flow=truth_flow,
        truth_density=truth_density,
        clamped_count=clamped,
    )

    for coverage in config.coverages:
        for seed in config.seeds:
            plan, _ = sample_coverage(sites, network, coverage, seed)
            retained_ids = set(plan.retained_detectors)
            observations = columns.observe(plan.retained_detectors)
            result.plans[(coverage, seed)] = plan

            for estimator in config.estimators:
                cell = CellResult(coverage=coverage, seed=seed, estimator=estimator)
                try:
                    for outcome in estimate_bins(
                        estimator, observations, bin_indices, VARIABLES, network,
                        sites=sites, distances=geometry, known_site_ids=retained_ids,
                        settings=config.variogram, uniform_mode=config.uniform_mode,
                    ):
                        _record(cell, outcome)
                    if cell.failed_bins:
                        cell.status = STATUS_NOT_ESTIMABLE
                except NumericError as exc:
                    cell.status = STATUS_FAILED
                    cell.message = str(exc)
                _attach_metrics(cell, truth_flow, truth_density, bin_indices)
                _attach_mfd(cell)
                result.cells.append(cell)
            _attach_ttest(result, coverage, seed)

    if output_dir is not None:
        write_outputs(result, output_dir, fmt)
    return result


def metrics_dict(report):
    if report is None:
        return None
    return {name: getattr(report, name) for name in METRIC_FIELDS}


def write_outputs(result, output_dir, fmt="csv"):
    """Write manifest, plans, estimates, metrics and plot tables."""
    delim = delimiter_for(fmt)
    ext = fmt
    out = os.fspath(output_dir)
    os.makedirs(os.path.join(out, "plans"), exist_ok=True)
    os.makedirs(os.path.join(out, "cells"), exist_ok=True)

    for (coverage, seed), plan in sorted(result.plans.items()):
        save_coverage_plan(
            plan, os.path.join(out, "plans", f"cov{coverage:g}_seed{seed}.json")
        )

    manifest_cells = []
    for cell in result.cells:
        cell_dir = os.path.join(out, "cells", cell.name)
        os.makedirs(cell_dir, exist_ok=True)
        write_table(
            os.path.join(cell_dir, f"estimates.{ext}"),
            ESTIMATES_HEADER,
            map(
                attrgetter(*ESTIMATES_HEADER),
                sorted(cell.estimates, key=lambda e: (e.bin_index, e.variable)),
            ),
            delim,
        )
        if cell.estimator == "variogram":
            write_table(
                os.path.join(cell_dir, f"models.{ext}"),
                MODEL_HEADER + ("variable",),
                [
                    model_row(model, b) + (variable,)
                    for (b, variable), model in sorted(cell.models.items())
                ],
                delim,
            )
        manifest_cells.append(
            {
                "coverage": cell.coverage,
                "seed": cell.seed,
                "estimator": cell.estimator,
                "status": cell.status,
                "message": cell.message,
                "failed_bins": list(cell.failed_bins),
                "path": f"cells/{cell.name}",
                "metrics_flow": metrics_dict(cell.metrics_flow),
                "metrics_density": metrics_dict(cell.metrics_density),
            }
        )

    metrics_rows = [
        (cell.coverage, cell.seed, cell.estimator, variable)
        + tuple(getattr(report, name) for name in METRIC_FIELDS)
        for cell in result.cells
        for variable, report in (
            ("flow", cell.metrics_flow), ("density", cell.metrics_density)
        )
        if report is not None
    ]
    write_table(
        os.path.join(out, f"metrics.{ext}"),
        ("coverage", "seed", "estimator", "variable") + METRIC_FIELDS,
        metrics_rows,
        delim,
    )

    ttest_header = ("coverage", "seed") + TTEST_FIELDS + ("message",)
    ttest_rows = []
    manifest_ttests = []
    for record in result.ttests:
        entry = {"coverage": record.coverage, "seed": record.seed, "message": record.message}
        entry.update((name, getattr(record.result, name, None)) for name in TTEST_FIELDS)
        ttest_rows.append(tuple(entry[name] for name in ttest_header))
        del entry["mean_difference"]  # a table column only
        manifest_ttests.append(entry)
    write_table(os.path.join(out, f"ttests.{ext}"), ttest_header, ttest_rows, delim)

    manifest = {
        "version": MANIFEST_VERSION,
        "config": result.config.to_dict(),
        "bin_indices": list(result.bin_indices),
        "truth_available": result.truth_flow is not None,
        "clamped_count": result.clamped_count,
        "cells": manifest_cells,
        "ttests": manifest_ttests,
    }
    with open(os.path.join(out, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")

    emit_plot_data(result, output_dir, fmt)
    return os.path.join(out, "manifest.json")


def emit_plot_data(result, output_dir, fmt="csv"):
    """Write the figure-shaped tables: series, scatter, MFD points and bands,
    and per-link imputed fields. Returns the written paths."""
    delim = delimiter_for(fmt)
    ext = fmt
    out = os.fspath(output_dir)
    os.makedirs(os.path.join(out, "cells"), exist_ok=True)
    written = []

    if result.truth_flow is not None:
        points = build_mfd(result.truth_flow, result.truth_density)
        path = write_table(
            os.path.join(out, f"mfd_actual.{ext}"),
            MFD_HEADER,
            map(attrgetter(*MFD_HEADER), points),
            delim,
        )
        written.append(path)

    for cell in result.cells:
        cell_dir = os.path.join(out, "cells", cell.name)
        os.makedirs(cell_dir, exist_ok=True)
        flow = cell.series("flow")
        density = cell.series("density")

        series_rows = []
        scatter_rows = []
        for b in result.bin_indices:
            est_q = flow.get(b)
            est_k = density.get(b)
            act_q = result.truth_flow.get(b) if result.truth_flow else None
            act_k = result.truth_density.get(b) if result.truth_density else None
            series_rows.append(
                (
                    b, est_q, act_q,
                    est_q - act_q if (est_q is not None and act_q is not None) else None,
                    est_k, act_k,
                    est_k - act_k if (est_k is not None and act_k is not None) else None,
                )
            )
            if est_q is not None and act_q is not None:
                scatter_rows.append((b, act_q, est_q, act_k, est_k))
        written.append(
            write_table(
                os.path.join(cell_dir, f"series.{ext}"),
                (
                    "bin_index", "estimated_flow", "actual_flow", "flow_residual",
                    "estimated_density", "actual_density", "density_residual",
                ),
                series_rows,
                delim,
            )
        )
        written.append(
            write_table(
                os.path.join(cell_dir, f"scatter.{ext}"),
                ("bin_index", "actual_flow", "estimated_flow",
                 "actual_density", "estimated_density"),
                scatter_rows,
                delim,
            )
        )

        written.append(
            write_table(
                os.path.join(cell_dir, f"mfd_points.{ext}"),
                MFD_HEADER,
                map(attrgetter(*MFD_HEADER), cell.mfd_points),
                delim,
            )
        )

        band_rows = []
        if cell.quad_fit is not None and cell.mfd_points:
            k_values = [p.density_veh_per_km for p in cell.mfd_points]
            grid = np.linspace(min(k_values), max(k_values), result.config.band_samples)
            fitted, low, high = cell.quad_fit.band(grid)
            band_rows = list(zip(grid, fitted, low, high))
        written.append(
            write_table(
                os.path.join(cell_dir, f"mfd_fit.{ext}"), BAND_HEADER, band_rows, delim
            )
        )

        if cell.fields:
            rows = [
                row for _, imputed in sorted(cell.fields.items())
                for row in field_rows(imputed, result.network)
            ]
            written.append(
                write_table(os.path.join(cell_dir, f"field.{ext}"), FIELD_HEADER, rows, delim)
            )
    return written
