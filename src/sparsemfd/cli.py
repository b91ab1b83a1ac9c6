"""Command line front end.

Exit codes: 0 on success, 2 for invalid input, 3 when an estimator is not
applicable to the data, 4 for numeric failures. A command that estimates
bin by bin exits 3 or 4 only when no bin was estimated.
"""
from __future__ import annotations

import functools
import math
import os
import sys
from operator import attrgetter
from types import SimpleNamespace

import click
import numpy as np
from click.core import ParameterSource

from .errors import (
    EstimationError,
    DegenerateTestError,
    InsufficientDataError,
    NotEstimableError,
    NumericError,
    ValidationError,
)
from .experiment import (
    BAND_HEADER,
    ESTIMATES_HEADER,
    ESTIMATOR_NAMES,
    MFD_HEADER,
    MODEL_HEADER,
    ExperimentConfig,
    VariogramSettings,
    estimate_bins,
    load_experiment_config,
    model_row,
    run_experiment,
    write_field_table,
)
from .kriging import failed_length_fraction, known_sites
from .metrics import compute_metrics, paired_t_test
from .mfd import BAND_SAMPLES, build_mfd, check_band_samples, fit_quadratic_with_ci
from .network import (
    NETWORK_COLUMNS,
    SITE_COLUMNS,
    load_detector_sites,
    load_network,
    site_distance_matrix,
)
from .sensing import (
    edie_truth_series,
    load_coverage_plan,
    load_readings,
    reading_columns,
    sample_coverage,
    sample_coverage_counts,
    sites_by_hierarchy,
    write_readings,
)
from .scaling import UNIFORM_MODES, VARIABLES
from .synth import (
    DEFAULT_DIURNAL,
    SyntheticScenario,
    generate_scenario,
    load_scenario,
)
from .tableio import FLOAT, INT, TEXT, delimiter_for, encode, read_table, write_json, write_table
from .variogram import (
    MODEL_KINDS,
    VariogramModel,
    distance_bin_edges,
    empirical_variogram,
    fit_variogram,
)

# the CLI's variogram and kriging defaults are those of an experiment
DEFAULTS = VariogramSettings()

EXIT_VALIDATION = 2
EXIT_NOT_ESTIMABLE = 3
EXIT_NUMERIC = 4


def _abort(exc, code):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def guarded(func):
    """Map package errors onto the documented exit codes."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except NotEstimableError as exc:
            _abort(exc, EXIT_NOT_ESTIMABLE)
        except NumericError as exc:
            _abort(exc, EXIT_NUMERIC)
        except (EstimationError, ValueError) as exc:
            _abort(exc, EXIT_VALIDATION)

    return wrapper


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option(
    "--output-dir", type=click.Path(file_okay=False), default=".",
    show_default=True, help="Directory for generated files.",
)
@click.option(
    "--format", "fmt", type=click.Choice(("csv", "tsv")), default="csv",
    show_default=True, help="Delimiter family of written tables.",
)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--bins", "n_bins", type=int, default=24, show_default=True,
    help="Number of time bins for synthetic data.",
)
@click.pass_context
def main(ctx, output_dir, fmt, seed, n_bins):
    """Estimate network-wide traffic flow, density and MFDs from sparse sensors."""
    ctx.obj = SimpleNamespace(
        output_dir=output_dir,
        fmt=fmt,
        delim=delimiter_for(fmt),
        seed=seed,
        n_bins=n_bins,
    )


def _failure_note(failure):
    """How ``scale`` and ``impute`` print a (bin, variable) failure."""
    kind = "failed" if isinstance(failure, NumericError) else "not estimable"
    return f"{kind} ({failure})"


def _out(obj, name):
    os.makedirs(obj.output_dir, exist_ok=True)
    return os.path.join(obj.output_dir, name)


def _table(obj, stem):
    return _out(obj, f"{stem}.{obj.fmt}")


@main.command()
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--sites", "sites_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--readings", "readings_file", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
@guarded
def ingest(obj, network_file, sites_file, readings_file):
    """Validate input tables and print a summary."""
    network = load_network(network_file, obj.delim)
    lengths = network.length_by_hierarchy()
    click.echo(
        f"network: {len(network.links)} links, {len(network.nodes)} nodes, "
        f"{network.total_length_km:.3f} km"
    )
    for h in sorted(network.hierarchy_set):
        click.echo(
            f"  hierarchy {h}: {len(network.links_of_hierarchy(h))} links, "
            f"{lengths[h]:.3f} km"
        )
    if sites_file:
        sites = load_detector_sites(sites_file, network=network, delimiter=obj.delim)
        groups = sites_by_hierarchy(sites, network)
        breakdown = ", ".join(f"{h}: {len(groups[h])}" for h in sorted(groups))
        click.echo(f"sites: {len(sites)} detectors ({breakdown})")
    if readings_file:
        readings = load_readings(readings_file, obj.delim)
        if sites_file:
            reading_columns(readings, sites, network.link_ids)
        click.echo(
            f"readings: {len(readings)} rows, {len(set(readings.detector_ids))} detectors, "
            f"{np.unique(readings.bin_index).size} bins"
        )
    click.echo("ok")


def _parse_counts(text):
    counts = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        if not value:
            raise ValueError(f"counts entry '{part}' is not of the form hierarchy=count")
        hierarchy = int(key.strip())
        if hierarchy in counts:
            raise ValueError(f"counts give hierarchy {hierarchy} twice")
        counts[hierarchy] = int(value.strip())
    return counts


@main.command()
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("sites_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--fraction", type=float, help="Coverage fraction in (0, 1].")
@click.option("--counts", help='Explicit per-hierarchy counts, e.g. "1=12,2=22,3=8".')
@click.pass_obj
@guarded
def sample(obj, network_file, sites_file, fraction, counts):
    """Select a reproducible stratified detector subsample."""
    if (fraction is None) == (counts is None):
        raise click.UsageError("give exactly one of --fraction or --counts")
    network = load_network(network_file, obj.delim)
    sites = load_detector_sites(sites_file, network=network, delimiter=obj.delim)
    if counts is not None:
        plan, retained = sample_coverage_counts(
            sites, network, _parse_counts(counts), obj.seed
        )
    else:
        plan, retained = sample_coverage(sites, network, fraction, obj.seed)
    plan_path = write_json(_out(obj, "plan.json"), plan)
    sites_path = write_table(
        _table(obj, "retained_sites"),
        SITE_COLUMNS,
        [(s.detector_id, s.link_id, s.offset_fraction) for s in retained],
        obj.delim,
    )
    summary = ", ".join(
        f"{h}: {c}" for h, c in sorted(plan.per_hierarchy_counts.items())
    )
    click.echo(f"retained {len(retained)} of {len(sites)} detectors ({summary})")
    click.echo(f"wrote {plan_path} and {sites_path}")


@main.command()
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("sites_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("readings_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--plan", "plan_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--fraction", type=float, help="Sample a fresh subset at this coverage.")
@click.option(
    "--method", type=click.Choice(("uniform", "hierarchical", "both")), default="both",
    show_default=True,
)
@click.option(
    "--uniform-mode", type=click.Choice(UNIFORM_MODES), default="exact", show_default=True,
)
@click.option("--duration-h", type=float, default=1.0, show_default=True)
@click.pass_obj
@guarded
def scale(obj, network_file, sites_file, readings_file, plan_file, fraction,
          method, uniform_mode, duration_h):
    """Scale equipped observations to per-bin network means."""
    if plan_file is not None and fraction is not None:
        raise click.UsageError("give at most one of --plan or --fraction")
    if not 0.0 < duration_h < math.inf:
        raise ValidationError(f"--duration-h must be positive and finite, got {duration_h}")
    network = load_network(network_file, obj.delim)
    sites = load_detector_sites(sites_file, network=network, delimiter=obj.delim)
    readings = load_readings(readings_file, obj.delim)
    # every reading is checked, also those of detectors the plan drops
    columns = reading_columns(readings, sites, network.link_ids)
    if plan_file is not None:
        retained_ids = load_coverage_plan(plan_file).retained_detectors
    elif fraction is not None:
        plan, _ = sample_coverage(sites, network, fraction, obj.seed)
        retained_ids = plan.retained_detectors
    else:
        retained_ids = None
    observations = columns.observe(retained_ids)
    bins = observations.observed_bins
    methods = ("uniform", "hierarchical") if method == "both" else (method,)
    estimates = []
    failures = []
    for m in methods:
        for outcome in estimate_bins(
            m, observations, bins, VARIABLES, network,
            uniform_mode=uniform_mode, duration_h=duration_h,
        ):
            if outcome.failure is not None:
                failures.append(outcome.failure)
                click.echo(f"{m}: {_failure_note(outcome.failure)}")
            else:
                estimates.append(outcome.estimate)
    estimates.sort(key=attrgetter("bin_index"))  # stable: methods keep their order
    path = write_table(
        _table(obj, "estimates"), ESTIMATES_HEADER,
        map(attrgetter(*ESTIMATES_HEADER), estimates), obj.delim,
    )
    click.echo(f"wrote {path} ({len(estimates)} rows over {len(bins)} bins)")
    if failures and not estimates:
        raise failures[0]


@main.command()
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("sites_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("readings_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--bin-index", type=int, default=0, show_default=True)
@click.option("--variable", type=click.Choice(("flow", "density")), default="flow",
              show_default=True)
@click.option("--lag-bins", type=int, default=DEFAULTS.lag_bins, show_default=True)
@click.option("--min-pairs", type=int, default=DEFAULTS.min_pairs, show_default=True)
@click.option("--kind", "kinds", multiple=True, type=click.Choice(MODEL_KINDS),
              help="Candidate model shapes; default both.")
@click.option("--fixed-range-km", type=float,
              help="Give every kind this range instead of searching it.")
@click.pass_obj
@guarded
def variogram(obj, network_file, sites_file, readings_file, bin_index, variable,
              lag_bins, min_pairs, kinds, fixed_range_km):
    """Estimate and fit a variogram from one bin of equipped data."""
    network = load_network(network_file, obj.delim)
    sites = load_detector_sites(sites_file, network=network, delimiter=obj.delim)
    readings = load_readings(readings_file, obj.delim)
    grid = reading_columns(readings, sites, network.link_ids).observe()
    row = grid.row(bin_index)
    if row is None:
        raise InsufficientDataError("no equipped observation")
    known, values = known_sites(
        grid.values(variable)[row], grid.observed[row],
        np.array([network.position(s.link_id) for s in sites], dtype=np.intp),
    )
    distances = site_distance_matrix(network, [sites[i] for i in known])
    edges = distance_bin_edges(distances, n_bins=lag_bins)
    empirical = empirical_variogram(values, distances, edges)
    kinds = kinds or MODEL_KINDS
    model = fit_variogram(
        empirical, kinds=kinds, min_pairs=min_pairs,
        ranges=None if fixed_range_km is None else [fixed_range_km] * len(kinds),
    )

    emp_path = write_table(
        _table(obj, "variogram"),
        ("lag_low_km", "lag_high_km", "lag_center_km", "gamma", "pair_count"),
        [
            (
                empirical.bin_edges[i], empirical.bin_edges[i + 1],
                empirical.centers[i],
                empirical.gamma_hat[i] if empirical.pair_counts[i] > 0 else None,
                int(empirical.pair_counts[i]),
            )
            for i in range(empirical.pair_counts.size)
        ],
        obj.delim,
    )
    model_path = write_table(
        _table(obj, "variogram_model"), MODEL_HEADER, [model_row(model, bin_index)],
        obj.delim,
    )
    if model.degenerate:
        note = " (degenerate: no spatial structure)"
    elif model.range_at_bound:
        note = " (range at search bound: no sill reached)"
    else:
        note = ""
    click.echo(
        f"fitted {model.kind}: nugget {model.nugget:.4g}, sill {model.sill:.4g}, "
        f"range {model.range_km:.4g} km, rss {model.rss:.4g}{note}"
    )
    click.echo(f"wrote {emp_path} and {model_path}")


def _read_model_table(path, delimiter):
    """The one variogram model of a model table.

    The models of the rows before the first faulty row are checked first,
    then that row's fault, then the row count.
    """
    table = read_table(path, dict(zip(MODEL_HEADER[:4], (TEXT, FLOAT, FLOAT, FLOAT))), delimiter)
    models = [VariogramModel(*row) for row in table.rows()]
    table.check()
    if not models:
        raise EstimationError(f"model table '{path}' has no rows")
    if len(models) > 1:
        raise ValidationError(f"model table '{path}' has {len(models)} rows, expected one")
    return models[0]


@main.command()
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("sites_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("readings_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--bin-index", type=int, help="Impute one bin; default all bins.")
@click.option("--variable", type=click.Choice(("flow", "density")), default="flow",
              show_default=True)
@click.option("--model-file", type=click.Path(exists=True, dir_okay=False),
              help="Variogram model table; fitted per bin when omitted.")
@click.option("--max-neighbors", type=int, default=DEFAULTS.max_neighbors, show_default=True)
@click.option("--min-neighbors", type=int, default=DEFAULTS.min_neighbors, show_default=True)
@click.option("--lag-bins", type=int, default=DEFAULTS.lag_bins, show_default=True)
@click.option("--min-pairs", type=int, default=DEFAULTS.min_pairs, show_default=True)
@click.option("--min-length-coverage", type=float, default=DEFAULTS.min_length_coverage,
              show_default=True)
@click.pass_obj
@guarded
def impute(obj, network_file, sites_file, readings_file, bin_index, variable,
           model_file, max_neighbors, min_neighbors, lag_bins, min_pairs,
           min_length_coverage):
    """Krige every unobserved link and report per-bin network means."""
    network = load_network(network_file, obj.delim)
    sites = load_detector_sites(sites_file, network=network, delimiter=obj.delim)
    readings = load_readings(readings_file, obj.delim)
    observations = reading_columns(readings, sites, network.link_ids).observe()
    bins = [bin_index] if bin_index is not None else observations.observed_bins
    settings = VariogramSettings(
        lag_bins=lag_bins,
        min_pairs=min_pairs,
        max_neighbors=max_neighbors,
        min_neighbors=min_neighbors,
        fixed_model=_read_model_table(model_file, obj.delim) if model_file else None,
        min_length_coverage=min_length_coverage,
    )

    fields = []
    failures = []
    for outcome in estimate_bins(
        "variogram", observations, bins, (variable,), network, sites=sites,
        settings=settings,
    ):
        b, field = outcome.bin_index, outcome.field
        if field is not None:
            fields.append(field)
        if outcome.failure is not None:
            failures.append(outcome.failure)
            click.echo(f"bin {b}: {_failure_note(outcome.failure)}")
            continue
        covered = 1.0 - failed_length_fraction(field, network)
        click.echo(
            f"bin {b}: network {variable} {outcome.estimate.value:.4g} "
            f"({covered:.1%} of length covered, {field.failed_count} links failed)"
        )
    path = write_field_table(_table(obj, "field"), fields, network, obj.delim)
    click.echo(f"wrote {path}")
    if failures and len(failures) == len(bins):
        raise failures[0]


def _read_estimates(path, delimiter, method=None):
    """Flow and density series ``{bin_index: value}`` of one method's rows.

    Every row is read, also those of the methods ``method`` leaves out; the
    rows before the first faulty row are checked first, then its fault.
    """
    table = read_table(path, dict(zip(ESTIMATES_HEADER[:4], (INT, TEXT, TEXT, FLOAT))), delimiter)
    methods = set(table["method"])
    if method is None and len(methods) > 1:
        raise EstimationError(
            f"table '{path}' mixes methods {sorted(methods)}; pick one with --method"
        )
    series = {}
    for b, row_method, variable, value in table.rows():
        if method is not None and row_method != method:
            continue
        if (variable, b) in series:
            raise EstimationError(
                f"duplicate entry for variable '{variable}' bin {b} in '{path}'"
            )
        series[variable, b] = value
    table.check()
    flow = {b: v for (variable, b), v in series.items() if variable == "flow"}
    density = {b: v for (variable, b), v in series.items() if variable == "density"}
    return flow, density


@main.command()
@click.argument("estimates_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", help="Restrict to one method when the table mixes several.")
@click.option("--band-samples", type=int, default=BAND_SAMPLES, show_default=True)
@click.pass_obj
@guarded
def mfd(obj, estimates_file, method, band_samples):
    """Build MFD points from an estimates table and fit a parabola."""
    check_band_samples(band_samples, "--band-samples")
    flow, density = _read_estimates(estimates_file, obj.delim, method)
    points = build_mfd(flow, density)
    points_path = write_table(
        _table(obj, "mfd_points"), MFD_HEADER, map(attrgetter(*MFD_HEADER), points),
        obj.delim,
    )
    k = [p.density_veh_per_km for p in points]
    q = [p.flow_veh_per_h for p in points]
    fit = fit_quadratic_with_ci(k, q)
    grid = np.linspace(min(k), max(k), band_samples)
    fitted, low, high = fit.band(grid)
    fit_path = write_table(
        _table(obj, "mfd_fit"), BAND_HEADER, zip(grid, fitted, low, high), obj.delim
    )
    c0, c1, c2 = fit.coefficients
    click.echo(
        f"fit: q = {c0:.4g} + {c1:.4g} k + {c2:.4g} k^2 over {fit.n_points} points"
    )
    click.echo(f"wrote {points_path} and {fit_path}")


@main.command()
@click.argument("estimated_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("actual_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--variable", type=click.Choice(("flow", "density")), default="flow",
              show_default=True)
@click.option("--method", help="Method filter for the estimated table.")
@click.option("--actual-method", help="Method filter for the reference table.")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.pass_obj
@guarded
def evaluate(obj, estimated_file, actual_file, variable, method, actual_method, alpha):
    """Compare an estimated series against a reference series."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"--alpha must lie in (0, 1), got {alpha}")
    est_flow, est_density = _read_estimates(estimated_file, obj.delim, method)
    act_flow, act_density = _read_estimates(actual_file, obj.delim, actual_method)
    est = est_flow if variable == "flow" else est_density
    act = act_flow if variable == "flow" else act_density
    if set(est) != set(act):
        raise EstimationError(
            f"bin sets differ (estimated only: {sorted(set(est) - set(act))[:8]}, "
            f"reference only: {sorted(set(act) - set(est))[:8]})"
        )
    bins = sorted(est)
    est_series = [est[b] for b in bins]
    act_series = [act[b] for b in bins]
    report = compute_metrics(est_series, act_series)
    mape = f"{report.mape_percent:.4g}%" if report.mape_percent is not None else "n/a"
    r2 = f"{report.r2:.6g}" if report.r2 is not None else "n/a"
    click.echo(
        f"{variable}: rmse {report.rmse:.6g}, mae {report.mae:.6g}, "
        f"mape {mape}, r2 {r2} over {report.n_points} bins"
    )
    payload = {"variable": variable, **encode(report)}
    try:
        test = paired_t_test(est_series, act_series, alpha=alpha)
        verdict = "differ" if test.reject else "do not differ"
        click.echo(
            f"paired test: t {test.t_statistic:.4f}, df {test.degrees_of_freedom}, "
            f"p {test.p_value:.4g}; series {verdict} at alpha {alpha:g}"
        )
        payload["t_test"] = encode(test)
    except DegenerateTestError as exc:
        click.echo(f"paired test undefined: {exc}")
        payload["t_test"] = None
    path = write_json(_out(obj, "evaluation.json"), payload)
    click.echo(f"wrote {path}")


def _diurnal_profile(n_bins):
    if n_bins == len(DEFAULT_DIURNAL):
        return DEFAULT_DIURNAL
    base = np.arange(len(DEFAULT_DIURNAL), dtype=float)
    target = np.linspace(0, len(DEFAULT_DIURNAL) - 1, n_bins)
    return tuple(float(v) for v in np.interp(target, base, DEFAULT_DIURNAL))


@main.command()
@click.option("--scenario", "scenario_file", type=click.Path(exists=True, dir_okay=False),
              help="Scenario description; defaults to the built-in three-class grid.")
@click.pass_obj
@guarded
def synth(obj, scenario_file):
    """Generate a synthetic network with full detector coverage."""
    if scenario_file:
        scenario = load_scenario(scenario_file)
    else:
        scenario = SyntheticScenario(
            seed=obj.seed, diurnal=_diurnal_profile(obj.n_bins)
        )
    data = generate_scenario(scenario)
    network_path = write_table(
        _table(obj, "network"),
        NETWORK_COLUMNS,
        [
            (l.id, l.from_node, l.to_node, l.length_km, l.hierarchy)
            for l in data.network.links
        ],
        obj.delim,
    )
    sites_path = write_table(
        _table(obj, "sites"),
        SITE_COLUMNS,
        [(s.detector_id, s.link_id, s.offset_fraction) for s in data.sites],
        obj.delim,
    )
    readings_path = write_readings(_table(obj, "readings"), data.readings, obj.delim)
    truth_rows = []
    truth_flow, truth_density = edie_truth_series(
        reading_columns(data.readings, data.sites, data.network.link_ids).observe(),
        data.network,
    )
    for b, q in truth_flow.items():
        k = truth_density[b]
        truth_rows.append((b, "edie", "flow", q, q * data.network.total_length_km, 0))
        truth_rows.append((b, "edie", "density", k, k * data.network.total_length_km, 0))
    truth_path = write_table(
        _table(obj, "truth"), ESTIMATES_HEADER, truth_rows, obj.delim
    )
    write_json(_out(obj, "scenario.json"), scenario)
    click.echo(
        f"generated {len(data.network.links)} links x {len(scenario.diurnal)} bins "
        f"(seed {scenario.seed}, {data.clamped_count} draws clamped at zero)"
    )
    click.echo(
        f"wrote {network_path}, {sites_path}, {readings_path}, {truth_path}"
    )


@main.command()
@click.option("--config", "config_file", type=click.Path(exists=True, dir_okay=False),
              help="Experiment description; defaults to a small synthetic grid.")
@click.option("--coverage", "coverages", multiple=True, type=float,
              help="Coverage fractions for the default grid.")
@click.pass_obj
@guarded
def experiment(obj, config_file, coverages):
    """Run a coverage-seed-estimator grid and write every table."""
    if config_file:
        root = click.get_current_context().find_root()
        given = ["--coverage"] * bool(coverages) + [
            flag for flag, name in (("--seed", "seed"), ("--bins", "n_bins"))
            if root.get_parameter_source(name) is not ParameterSource.DEFAULT
        ]
        if given:
            raise click.UsageError(f"give at most one of --config or {given[0]}")
        config = load_experiment_config(config_file)
    else:
        config = ExperimentConfig(
            coverages=tuple(coverages) or (0.3, 0.2, 0.1),
            seeds=(obj.seed,),
            estimators=ESTIMATOR_NAMES,
            scenario=SyntheticScenario(
                seed=obj.seed, diurnal=_diurnal_profile(obj.n_bins)
            ),
        )
    os.makedirs(obj.output_dir, exist_ok=True)
    result = run_experiment(config, output_dir=obj.output_dir, fmt=obj.fmt)
    for cell in result.cells:
        note = f" ({cell.message})" if cell.message else ""
        click.echo(f"{cell.name}: {cell.status}{note}")
    click.echo(f"wrote {os.path.join(os.fspath(obj.output_dir), 'manifest.json')}")


if __name__ == "__main__":
    main()
