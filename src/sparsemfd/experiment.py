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
import numbers
import os
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import (
    DegenerateTestError,
    EstimationError,
    InsufficientDataError,
    NotEstimableError,
    NumericError,
    ValidationError,
)
# impute_network is not called here; perfbench's tracer wraps it under
# this module's name, so the import stays
from .kriging import (  # noqa: F401
    MAX_NEIGHBORS,
    MIN_LENGTH_COVERAGE,
    MIN_NEIGHBORS,
    ImputationDistances,
    ImputedField,
    impute_network,
    impute_rows,
    network_mean_from_field,
)
from .metrics import PairedTTestResult, compute_metrics, paired_t_test
from .mfd import build_mfd, fit_quadratic_with_ci
from .network import load_detector_sites, load_network
from .scaling import (
    UNIFORM_MODES,
    VARIABLES,
    HierarchyPartition,
    ScaledEstimate,
    UniformPartition,
    hierarchical_estimate,
    uniform_estimate,
)
from .sensing import (
    edie_truth_series,
    load_readings,
    reading_columns,
    sample_grouped,
    sites_by_hierarchy,
)
from .synth import SyntheticScenario, generate_scenario
from .tableio import (
    delimiter_for,
    encode,
    format_column,
    format_value,
    record,
    write_columns,
    write_json,
    write_table,
)
from .variogram import LAG_BINS, MIN_PAIRS, MODEL_KINDS, VariogramModel

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
# the fields of a t test without a result, all written as null
NO_TTEST = PairedTTestResult(None, None, None, None, None, None)


@dataclass(frozen=True)
class VariogramSettings:
    """Knobs of the variogram estimator inside an experiment."""

    kinds: tuple = MODEL_KINDS
    lag_bins: int = LAG_BINS
    min_pairs: int = MIN_PAIRS
    max_neighbors: int = MAX_NEIGHBORS
    min_neighbors: int = MIN_NEIGHBORS
    fixed_model: VariogramModel | None = None
    min_length_coverage: float = MIN_LENGTH_COVERAGE

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

    @classmethod
    def from_dict(cls, data):
        return record(cls, data, "variogram settings", fixed_model=VariogramModel.from_dict)


def model_row(model, bin_index):
    """One ``MODEL_HEADER`` row: a variogram model and the bin it served."""
    return (
        model.kind, model.nugget, model.sill, model.range_km, model.rss,
        bin_index, model.degenerate, model.range_at_bound,
    )


def field_columns(imputed, link_cells):
    """The formatted ``FIELD_HEADER`` columns of one imputed field, in
    network link order; ``link_cells`` are the network's formatted link ids."""
    count = len(link_cells)
    return (
        link_cells, [format_value(imputed.bin_index)] * count,
        [format_value(imputed.variable)] * count, format_column(imputed.values),
        imputed.provenance.tolist(),
    )


def write_field_table(path, fields, network, delimiter=","):
    """Write the ``FIELD_HEADER`` table of the imputed ``fields`` of
    ``network``, one block per field: only one field's cells are held at a
    time, and the link ids are formatted once."""
    link_cells = format_column(network.link_ids)
    return write_columns(
        path, FIELD_HEADER, (field_columns(f, link_cells) for f in fields), delimiter
    )


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

    ``observations`` is an ``ObservationGrid`` over ``network``'s links. The
    bins are grouped by their set of observed links once. When the first bin
    of a set comes up, every (bin, variable) row of the set is estimated in
    one pass (``_estimate_set``), and the outcomes then follow in (bin,
    variable) order. A ``NotEstimableError`` fails only its own pair, as a
    failure reading "bin {b} ({variable}): {reason}"; numeric and validation
    errors propagate. A row's own failure, a failed fit or a singular
    system, surfaces at that row's turn, after the same outcomes as row by
    row, and so does the ``ValueError`` of an unknown variable. ``sites``,
    ``distances`` and ``known_site_ids`` are those of ``impute_network``;
    the distances are built once when omitted.
    """
    if estimator not in ESTIMATOR_NAMES:
        raise ValidationError(f"unknown estimator '{estimator}'")
    retained = None
    if estimator == "variogram":
        if distances is None:
            distances = ImputationDistances.build(network, sites)
        retained = distances.site_mask(known_site_ids)
    sets = {}
    for b in bins:
        row = observations.row(b)
        if row is not None:
            sets.setdefault(observations.observed[row].tobytes(), []).append(b)
    pending = {}
    for b in bins:
        row = observations.row(b)
        if row is not None and b not in pending:
            pending.update(_estimate_set(
                estimator, sets[observations.observed[row].tobytes()], variables,
                observations, network, distances, retained, settings, uniform_mode,
                duration_h,
            ))
        outcomes = pending.pop(b, {})
        for variable in variables:
            if row is None:
                yield _failure(b, variable, "no equipped observation")
                continue
            if variable not in VARIABLES:
                observations.values(variable)  # raises the ValueError that names it
            outcome = outcomes[variable]
            if not isinstance(outcome, BinOutcome):
                # the traceback holds this frame: it must not hold the error too
                del outcomes, pending
                try:
                    raise outcome
                finally:
                    del outcome
            yield outcome


def _estimate_set(estimator, group, variables, observations, network, distances, retained,
                  settings, uniform_mode, duration_h):
    """Estimate every (bin, known variable) row of ``group``, the bins
    observed on one set of links.

    The scaling estimators build one partition for the set; the variogram
    estimator kriges every row in one ``impute_rows`` call, with
    ``fixed_model`` or with one fit per row. Returns ``{bin: {variable:
    outcome}}``, each outcome a ``BinOutcome`` or a row's error that is not
    a ``NotEstimableError``, to be raised at its turn. No exception kept
    holds a traceback into this frame, so none keeps the distances alive.
    """
    rows = [observations.row(b) for b in group]
    equipped = observations.observed[rows[0]]
    stacked = [v for v in variables if v in VARIABLES]
    labels = [(b, v) for v in stacked for b in group]
    fields = [None] * len(labels)
    if estimator == "uniform":
        partition = UniformPartition.from_mask(network, equipped)
    elif estimator == "hierarchical":
        partition = HierarchyPartition.from_network(
            network, [observations.link_ids[j] for j in np.flatnonzero(equipped).tolist()]
        )
    elif labels:
        try:
            fields = impute_rows(
                labels, np.concatenate([observations.values(v)[rows] for v in stacked]),
                equipped, distances, model=settings.fixed_model, kinds=settings.kinds,
                lag_bins=settings.lag_bins, min_pairs=settings.min_pairs,
                max_neighbors=settings.max_neighbors, min_neighbors=settings.min_neighbors,
                retained=retained,
            )
        except NotEstimableError as exc:
            # an error of the whole set, say no known site: every row fails
            fields = [exc.with_traceback(None)] * len(labels)
    outcomes = {b: {} for b in group}
    for (b, variable), field in zip(labels, fields):
        if isinstance(field, EstimationError):
            # a row's own fit or solve failed; any but a NotEstimableError
            # is raised at the row's turn
            outcomes[b][variable] = (
                _failure(b, variable, field) if isinstance(field, NotEstimableError) else field
            )
            continue
        values = observations.values(variable)[observations.row(b)]
        try:
            if estimator == "uniform":
                estimate = uniform_estimate(
                    b, values, partition, variable, mode=uniform_mode, duration_h=duration_h,
                )
            elif estimator == "hierarchical":
                estimate = hierarchical_estimate(
                    b, values, partition, variable, duration_h=duration_h
                )
            else:
                value, _ = network_mean_from_field(field, network, settings.min_length_coverage)
                estimate = ScaledEstimate(
                    bin_index=b, variable=variable, value=value,
                    ttd_or_ttt=value * network.total_length_km * duration_h,
                    method="variogram", hierarchy_count=0, duration_h=duration_h,
                )
        except NotEstimableError as exc:
            outcomes[b][variable] = _failure(b, variable, exc, field)
            continue
        outcomes[b][variable] = BinOutcome(b, variable, estimate=estimate, field=field)
    return outcomes


def _failure(b, variable, reason, field=None):
    """The ``BinOutcome`` of a (bin, variable) that ``reason`` makes not estimable."""
    failure = NotEstimableError(f"bin {b} ({variable}): {reason}")
    return BinOutcome(b, variable, failure=failure, field=field)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a grid run depends on.

    Exactly one data source: a synthetic scenario or the three input paths
    of a recorded data set. With recorded data the reference is available
    only if every link reports in every bin; otherwise metrics are skipped
    and the cells still produce estimates.
    """

    coverages: tuple[float, ...]
    seeds: tuple[int, ...]
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    scenario: SyntheticScenario | None = None
    network_path: str | None = None
    sites_path: str | None = None
    readings_path: str | None = None
    uniform_mode: str = "exact"
    variogram: VariogramSettings = VariogramSettings()
    band_samples: int = 50

    def __post_init__(self):
        object.__setattr__(self, "coverages", tuple(self.coverages))
        seeds = tuple(self.seeds)
        for s in seeds:
            # int() would truncate a float seed without a word
            if isinstance(s, bool) or not isinstance(s, numbers.Integral):
                raise ValidationError(f"seeds must be integers, got {s!r}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
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
        if self.uniform_mode not in UNIFORM_MODES:
            raise ValidationError(f"unknown uniform mode '{self.uniform_mode}'")
        if self.band_samples < 2:
            raise ValidationError("band_samples must be at least 2")

    @classmethod
    def from_dict(cls, data):
        return record(
            cls, data, "experiment config",
            scenario=SyntheticScenario.from_dict, variogram=VariogramSettings.from_dict,
        )


def load_experiment_config(path):
    with open(path) as handle:
        return ExperimentConfig.from_dict(json.load(handle))


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
        return data.network, list(data.sites), data.readings, data.clamped_count
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

    groups = sites_by_hierarchy(sites, network)
    for coverage in config.coverages:
        for seed in config.seeds:
            plan, _ = sample_grouped(groups, coverage, seed)
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
    # the distances are the largest array of a run, and writing needs none
    del geometry

    if output_dir is not None:
        write_outputs(result, output_dir, fmt)
    return result


def write_outputs(result, output_dir, fmt="csv"):
    """Write manifest, plans, estimates, metrics and plot tables."""
    delim = delimiter_for(fmt)
    ext = fmt
    out = os.fspath(output_dir)
    os.makedirs(os.path.join(out, "plans"), exist_ok=True)
    os.makedirs(os.path.join(out, "cells"), exist_ok=True)

    for (coverage, seed), plan in sorted(result.plans.items()):
        write_json(os.path.join(out, "plans", f"cov{coverage:g}_seed{seed}.json"), plan)

    manifest_cells = []
    for cell in result.cells:
        cell_dir = os.path.join(out, "cells", cell.name)
        os.makedirs(cell_dir, exist_ok=True)
        estimates = sorted(cell.estimates, key=lambda e: (e.bin_index, e.variable))
        write_columns(
            os.path.join(cell_dir, f"estimates.{ext}"),
            ESTIMATES_HEADER,
            [_attribute_columns(estimates, ESTIMATES_HEADER)],
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
                "failed_bins": cell.failed_bins,
                "path": f"cells/{cell.name}",
                "metrics_flow": cell.metrics_flow,
                "metrics_density": cell.metrics_density,
                "mfd_fit_message": cell.fit_message,
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
    for ttest in result.ttests:
        tested = ttest.result or NO_TTEST
        ttest_rows.append(
            (ttest.coverage, ttest.seed) + attrgetter(*TTEST_FIELDS)(tested) + (ttest.message,)
        )
        manifest_ttests.append(
            {"coverage": ttest.coverage, "seed": ttest.seed, "message": ttest.message,
             **encode(tested)}
        )
    write_table(os.path.join(out, f"ttests.{ext}"), ttest_header, ttest_rows, delim)

    manifest = {
        "version": MANIFEST_VERSION,
        "config": result.config,
        "bin_indices": result.bin_indices,
        "truth_available": result.truth_flow is not None,
        "clamped_count": result.clamped_count,
        "cells": manifest_cells,
        "ttests": manifest_ttests,
    }
    path = write_json(os.path.join(out, "manifest.json"), manifest)

    emit_plot_data(result, output_dir, fmt)
    return path


def _attribute_columns(items, names):
    """One formatted column per attribute of ``items`` that ``names`` lists."""
    return [format_column([getattr(item, name) for item in items]) for name in names]


def _series_columns(estimated, actual, actual_cells, bins):
    """The estimated, actual and residual cells of one variable's series
    over ``bins``, and the positions of the bins with both values."""
    estimated = [estimated.get(b) for b in bins]
    residual = [
        e - a if (e is not None and a is not None) else None
        for e, a in zip(estimated, actual)
    ]
    paired = [i for i, r in enumerate(residual) if r is not None]
    return format_column(estimated), actual_cells, format_column(residual), paired


def emit_plot_data(result, output_dir, fmt="csv"):
    """Write the figure-shaped tables: series, scatter, MFD points and bands,
    and per-link imputed fields. Returns the written paths.

    Every table is built as formatted columns. The bin and truth columns
    are formatted once and shared by every cell; a field table is written
    one field at a time.
    """
    delim = delimiter_for(fmt)
    ext = fmt
    out = os.fspath(output_dir)
    os.makedirs(os.path.join(out, "cells"), exist_ok=True)
    written = []

    if result.truth_flow is not None:
        points = build_mfd(result.truth_flow, result.truth_density)
        path = write_columns(
            os.path.join(out, f"mfd_actual.{ext}"),
            MFD_HEADER,
            [_attribute_columns(points, MFD_HEADER)],
            delim,
        )
        written.append(path)

    bins = result.bin_indices
    bin_cells = format_column(bins)
    # each variable's truth values and their cells
    truth = {}
    for variable, series in (("flow", result.truth_flow), ("density", result.truth_density)):
        actual = [series.get(b) for b in bins] if series else [None] * len(bins)
        truth[variable] = actual, format_column(actual)

    for cell in result.cells:
        cell_dir = os.path.join(out, "cells", cell.name)
        os.makedirs(cell_dir, exist_ok=True)
        est_q, act_q, res_q, paired = _series_columns(cell.series("flow"), *truth["flow"], bins)
        est_k, act_k, res_k, _ = _series_columns(cell.series("density"), *truth["density"], bins)
        written.append(
            write_columns(
                os.path.join(cell_dir, f"series.{ext}"),
                (
                    "bin_index", "estimated_flow", "actual_flow", "flow_residual",
                    "estimated_density", "actual_density", "density_residual",
                ),
                [[bin_cells, est_q, act_q, res_q, est_k, act_k, res_k]],
                delim,
            )
        )
        # the bins with an estimated and an actual flow
        scatter = [bin_cells, act_q, est_q, act_k, est_k]
        if len(paired) < len(bins):
            scatter = [[column[i] for i in paired] for column in scatter]
        written.append(
            write_columns(
                os.path.join(cell_dir, f"scatter.{ext}"),
                ("bin_index", "actual_flow", "estimated_flow",
                 "actual_density", "estimated_density"),
                [scatter],
                delim,
            )
        )

        written.append(
            write_columns(
                os.path.join(cell_dir, f"mfd_points.{ext}"),
                MFD_HEADER,
                [_attribute_columns(cell.mfd_points, MFD_HEADER)],
                delim,
            )
        )

        band = [[] for _ in BAND_HEADER]
        if cell.quad_fit is not None and cell.mfd_points:
            k_values = [p.density_veh_per_km for p in cell.mfd_points]
            grid = np.linspace(min(k_values), max(k_values), result.config.band_samples)
            band = [grid, *cell.quad_fit.band(grid)]
        written.append(
            write_columns(
                os.path.join(cell_dir, f"mfd_fit.{ext}"),
                BAND_HEADER,
                [list(map(format_column, band))],
                delim,
            )
        )

        if cell.fields:
            written.append(
                write_field_table(
                    os.path.join(cell_dir, f"field.{ext}"),
                    map(cell.fields.get, sorted(cell.fields)),
                    result.network,
                    delim,
                )
            )
    return written
