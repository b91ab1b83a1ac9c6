"""Experiment grid runner: cells, manifest, outputs and reruns."""

import csv
import json
import os

import pytest

from sparsemfd import experiment, kriging, metrics
from sparsemfd.errors import ValidationError
from sparsemfd.experiment import (
    ESTIMATOR_NAMES,
    FIELD_HEADER,
    MODEL_HEADER,
    STATUS_NOT_ESTIMABLE,
    STATUS_OK,
    ExperimentConfig,
    VariogramSettings,
    emit_plot_data,
    load_experiment_config,
    run_experiment,
)
from sparsemfd.network import NETWORK_COLUMNS, SITE_COLUMNS, load_detector_sites, load_network
from sparsemfd.scaling import HierarchyPartition, hierarchical_scaled_mean
from sparsemfd.sensing import READINGS_HEADER, aggregate_to_links, load_readings, write_readings
from sparsemfd.synth import DEFAULT_VARIOGRAM, SyntheticScenario, generate_scenario
from sparsemfd.tableio import delimiter_for, encode, write_json, write_table
from sparsemfd.variogram import VariogramModel
from conftest import reference_write_table, traced_peak

SMALL_SCENARIO = SyntheticScenario(
    rows=5, cols=5, diurnal=(0.4, 0.8, 1.0, 0.6), seed=3
)

# imputation model with a longer reach than the generative one, so that a 40%
# sample still covers the 5x5 grid
IMPUTE_MODEL = VariogramModel(
    kind=DEFAULT_VARIOGRAM.kind,
    nugget=DEFAULT_VARIOGRAM.nugget,
    sill=DEFAULT_VARIOGRAM.sill,
    range_km=1.5,
)


def small_config(**overrides):
    base = dict(
        coverages=(0.4, 1.0),
        seeds=(0, 1),
        estimators=ESTIMATOR_NAMES,
        scenario=SMALL_SCENARIO,
        variogram=VariogramSettings(fixed_model=IMPUTE_MODEL),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- configuration ------------------------------------------------------------


def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValidationError):
        ExperimentConfig(coverages=(0.5,), seeds=(0,))
    with pytest.raises(ValidationError):
        ExperimentConfig(
            coverages=(0.5,), seeds=(0,), scenario=SMALL_SCENARIO,
            network_path="n.csv", sites_path="s.csv", readings_path="r.csv",
        )
    with pytest.raises(ValidationError):
        ExperimentConfig(
            coverages=(0.5,), seeds=(0,), network_path="n.csv",
        )


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(coverages=(), seeds=(0,), scenario=SMALL_SCENARIO)
    with pytest.raises(ValidationError):
        ExperimentConfig(coverages=(1.5,), seeds=(0,), scenario=SMALL_SCENARIO)
    with pytest.raises(ValidationError):
        ExperimentConfig(coverages=(0.5,), seeds=(), scenario=SMALL_SCENARIO)
    with pytest.raises(ValidationError):
        ExperimentConfig(
            coverages=(0.5,), seeds=(0,), estimators=("ridge",),
            scenario=SMALL_SCENARIO,
        )
    with pytest.raises(ValidationError):
        ExperimentConfig(
            coverages=(0.5,), seeds=(0,), scenario=SMALL_SCENARIO,
            uniform_mode="strict",
        )
    with pytest.raises(ValidationError):
        ExperimentConfig(
            coverages=(0.5,), seeds=(0,), scenario=SMALL_SCENARIO, band_samples=1,
        )


@pytest.mark.parametrize(
    "grid",
    [
        dict(coverages=(0.1, 0.1000001), seeds=(0,)),
        dict(coverages=(0.1,), seeds=(0, 0)),
        dict(coverages=(0.1,), seeds=(0,), estimators=("uniform", "uniform")),
    ],
    ids=["coverages-that-format-alike", "repeated-seed", "repeated-estimator"],
)
def test_two_cells_may_not_share_a_name(grid):
    # the second cell's files would overwrite the first's
    with pytest.raises(ValidationError) as err:
        ExperimentConfig(scenario=SMALL_SCENARIO, **{"estimators": ("uniform",), **grid})
    assert str(err.value) == "cell names must be unique, repeated: cov0.1_seed0_uniform"


def test_config_json_round_trip(tmp_path):
    config = small_config(
        variogram=VariogramSettings(
            kinds=("exponential",), lag_bins=10,
            fixed_model=VariogramModel(
                kind="exponential", nugget=1.0, sill=100.0, range_km=2.0
            ),
        )
    )
    path = tmp_path / "config.json"
    write_json(path, config)
    assert load_experiment_config(path) == config


def test_variogram_settings_round_trip():
    settings = VariogramSettings(kinds=("gaussian",), min_pairs=8)
    assert VariogramSettings.from_dict(encode(settings)) == settings
    with pytest.raises(ValidationError):
        VariogramSettings.from_dict({"window": 3})


@pytest.mark.parametrize("value", [False, True])
def test_per_bin_refits_are_no_setting(value):
    # every bin fits its own model unless a fixed_model serves them all
    with pytest.raises(ValidationError, match="^malformed variogram settings: .*'refit_per_bin'"):
        VariogramSettings.from_dict({"refit_per_bin": value})
    with pytest.raises(ValidationError, match="'refit_per_bin'"):
        ExperimentConfig.from_dict(
            {"coverages": [0.3], "seeds": [0], "scenario": {},
             "variogram": {"refit_per_bin": value}}
        )


def test_variogram_settings_are_checked_at_construction():
    with pytest.raises(ValidationError, match="min_length_coverage"):
        ExperimentConfig(
            coverages=(0.5, 0.3), seeds=(0,), scenario=SMALL_SCENARIO,
            variogram=VariogramSettings(min_length_coverage=1.5),
        )
    for bad in (
        dict(kinds=()),
        dict(kinds=("spherical", "cubic")),
        dict(lag_bins=0),
        dict(min_pairs=0),
        dict(min_neighbors=0),
        dict(min_neighbors=5, max_neighbors=4),
        dict(min_length_coverage=0.0),
        dict(fixed_model={"kind": "spherical"}),
    ):
        with pytest.raises(ValidationError):
            VariogramSettings(**bad)
    with pytest.raises(ValidationError):
        VariogramSettings.from_dict({"lag_bins": 0})
    assert VariogramSettings(kinds=("gaussian",), min_neighbors=1, max_neighbors=1,
                             min_length_coverage=1.0).lag_bins == 15


# --- grid runs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    return run_experiment(small_config())


def test_every_grid_cell_is_present(small_run):
    combos = {(c.coverage, c.seed, c.estimator) for c in small_run.cells}
    assert combos == {
        (cov, seed, est)
        for cov in (0.4, 1.0)
        for seed in (0, 1)
        for est in ESTIMATOR_NAMES
    }
    assert all(
        c.status in (STATUS_OK, STATUS_NOT_ESTIMABLE, "failed")
        for c in small_run.cells
    )
    assert set(small_run.plans) == {(0.4, 0), (0.4, 1), (1.0, 0), (1.0, 1)}


def test_full_coverage_cells_reproduce_the_truth(small_run):
    for estimator in ESTIMATOR_NAMES:
        for seed in (0, 1):
            cell = small_run.cell(1.0, seed, estimator)
            assert cell.status == STATUS_OK
            for report in (cell.metrics_flow, cell.metrics_density):
                assert report.rmse == pytest.approx(0.0, abs=1e-9)
                assert report.mae == pytest.approx(0.0, abs=1e-9)
                assert report.mape_percent == pytest.approx(0.0, abs=1e-9)
                assert report.r2 == pytest.approx(1.0, abs=1e-9)


def test_cells_carry_estimates_and_mfd(small_run):
    cell = small_run.cell(0.4, 0, "hierarchical")
    assert cell.status == STATUS_OK
    assert sorted(cell.series("flow")) == [0, 1, 2, 3]
    assert sorted(cell.series("density")) == [0, 1, 2, 3]
    assert len(cell.mfd_points) == 4
    assert cell.quad_fit is not None
    assert cell.name == "cov0.4_seed0_hierarchical"


def test_variogram_cells_keep_their_fields(small_run):
    cell = small_run.cell(0.4, 1, "variogram")
    assert cell.status == STATUS_OK
    assert set(cell.fields) == {(b, v) for b in range(4) for v in ("flow", "density")}
    field = cell.fields[(0, "flow")]
    assert field.failed_count == 0


def test_missing_cell_lookup_returns_none(small_run):
    assert small_run.cell(0.9, 0, "uniform") is None


def test_sparse_short_range_cell_is_not_estimable():
    config = ExperimentConfig(
        coverages=(0.05,),
        seeds=(2,),
        estimators=("variogram",),
        scenario=SyntheticScenario(diurnal=(0.5, 1.0)),
        variogram=VariogramSettings(
            fixed_model=VariogramModel(
                kind="exponential", nugget=25.0, sill=1600.0, range_km=2.0
            )
        ),
    )
    result = run_experiment(config)
    (cell,) = result.cells
    assert cell.status == STATUS_NOT_ESTIMABLE
    assert cell.failed_bins == [0, 1]
    assert cell.message is not None
    assert cell.metrics_flow is None


def test_a_refit_cell_writes_every_model_and_only_the_estimable_fields(tmp_path):
    config = ExperimentConfig(
        coverages=(0.3,),
        seeds=(0,),
        estimators=("variogram",),
        scenario=SyntheticScenario(rows=6, cols=6, diurnal=(0.4, 0.9, 1.0, 0.6), seed=3),
    )
    (cell,) = run_experiment(config, output_dir=tmp_path).cells
    # every bin fits each variable's own model; one variable of each bin
    # gives a field too short of the length threshold
    estimable = {(0, "flow"), (1, "density"), (2, "flow"), (3, "density")}
    assert cell.failed_bins == [0, 1, 2, 3]
    assert set(cell.fields) == estimable
    cell_dir = tmp_path / "cells" / cell.name
    with open(cell_dir / "models.csv", newline="") as handle:
        reader = csv.DictReader(handle)
        assert tuple(reader.fieldnames) == MODEL_HEADER + ("variable",)
        models = {(int(row["bin_index"]), row["variable"]): row["kind"] for row in reader}
    assert models == {key: model.kind for key, model in cell.models.items()}
    assert set(models) == {(b, v) for b in range(4) for v in ("flow", "density")}
    field_rows = (cell_dir / "field.csv").read_text().splitlines()[1:]
    assert {(int(r.split(",")[1]), r.split(",")[2]) for r in field_rows} == estimable


def test_a_refit_experiment_fits_once_per_plan_bin_and_variable(monkeypatch):
    config = ExperimentConfig(
        coverages=(0.5, 0.8),
        seeds=(0, 1),
        estimators=("variogram",),
        scenario=SyntheticScenario(rows=6, cols=6, diurnal=(0.4, 0.9, 1.0, 0.6), seed=3),
    )
    fits = []
    fit = kriging.fit_variogram

    def recording_fit(*args, **kwargs):
        fits.append(args)
        return fit(*args, **kwargs)

    imputations = []
    impute = experiment.impute_rows

    def recording_impute(labels, *args, **kwargs):
        before = len(fits)
        try:
            return impute(labels, *args, **kwargs)
        finally:
            imputations.append((tuple(labels), len(fits) - before))

    solves = []
    solve = kriging._kriging_weights

    def recording_solve(models, *args):
        solves.append(len(models))
        return solve(models, *args)

    monkeypatch.setattr(kriging, "fit_variogram", recording_fit)
    monkeypatch.setattr(kriging, "_kriging_weights", recording_solve)
    monkeypatch.setattr(experiment, "impute_rows", recording_impute)
    run_experiment(config)
    # four plans, each with four bins of two variables observed on one set
    # of links: one call per plan fits each of its eight rows once, and
    # solves their weights in one call
    assert [sorted(labels) for labels, _ in imputations] == [
        sorted((b, variable) for b in range(4) for variable in ("flow", "density"))
    ] * 4
    assert [count for _, count in imputations] == [8] * 4
    assert len(fits) == 32
    assert solves == [8] * 4


# --- recorded data mode -------------------------------------------------------


def _write_recorded_inputs(tmp_path):
    network_path = tmp_path / "network.csv"
    sites_path = tmp_path / "sites.csv"
    readings_path = tmp_path / "readings.csv"
    write_table(
        network_path,
        NETWORK_COLUMNS,
        [
            ("A1", "a", "b", 1.0, 1),
            ("A2", "b", "c", 1.0, 1),
            ("B1", "c", "d", 2.0, 2),
            ("B2", "d", "e", 2.0, 2),
        ],
    )
    write_table(sites_path, ("detector_id", "link_id"), [
        ("d1", "A1"), ("d2", "A2"), ("d3", "B1"),
    ])
    write_table(
        readings_path,
        READINGS_HEADER,
        [
            ("d1", 0, 100.0, 10.0, 10.0),
            ("d2", 0, 120.0, 12.0, 10.0),
            ("d3", 0, 40.0, 8.0, 5.0),
            ("d1", 1, 80.0, 8.0, 10.0),
            ("d2", 1, 90.0, 9.0, 10.0),
            # d3 is silent in bin 1, so hierarchy 2 has no coverage there
        ],
    )
    return network_path, sites_path, readings_path


def test_recorded_data_run(tmp_path):
    network_path, sites_path, readings_path = _write_recorded_inputs(tmp_path)
    config = ExperimentConfig(
        coverages=(1.0,),
        seeds=(0,),
        estimators=("uniform", "hierarchical"),
        network_path=str(network_path),
        sites_path=str(sites_path),
        readings_path=str(readings_path),
    )
    result = run_experiment(config)
    # link B2 never reports, so no reference truth and no metrics
    assert result.truth_flow is None
    uniform = result.cell(1.0, 0, "uniform")
    assert uniform.status == STATUS_OK
    assert sorted(uniform.series("flow")) == [0, 1]
    assert uniform.metrics_flow is None
    hier = result.cell(1.0, 0, "hierarchical")
    assert hier.status == STATUS_NOT_ESTIMABLE
    assert hier.failed_bins == [1]
    assert sorted(hier.series("flow")) == [0]


def test_the_reason_a_cell_has_no_mfd_fit_is_in_the_manifest(tmp_path):
    # uniform estimates two bins and hierarchical one: too few for a parabola
    network_path, sites_path, readings_path = _write_recorded_inputs(tmp_path)
    config = ExperimentConfig(
        coverages=(1.0,), seeds=(0,), estimators=("uniform", "hierarchical"),
        network_path=str(network_path), sites_path=str(sites_path),
        readings_path=str(readings_path),
    )
    run_experiment(config, output_dir=tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert {c["estimator"]: c["mfd_fit_message"] for c in manifest["cells"]} == {
        "uniform": "quadratic fit needs at least 4 points, got 2",
        "hierarchical": "quadratic fit needs at least 4 points, got 1",
    }


def test_partition_rebuilt_only_for_a_bin_with_a_silent_detector(tmp_path, monkeypatch):
    network_path, sites_path, readings_path = _write_recorded_inputs(tmp_path)
    with open(readings_path, "a") as handle:
        # bin 2 is complete again, like bin 0
        handle.write("d1,2,90.0,9.0,10.0\nd2,2,110.0,11.0,10.0\nd3,2,50.0,9.0,5.5\n")
    config = ExperimentConfig(
        coverages=(1.0,),
        seeds=(0,),
        estimators=("hierarchical",),
        network_path=str(network_path),
        sites_path=str(sites_path),
        readings_path=str(readings_path),
    )
    builds = []
    from_network = HierarchyPartition.from_network.__func__

    def counting(cls, network, equipped_link_ids):
        builds.append(set(equipped_link_ids))
        return from_network(cls, network, equipped_link_ids)

    monkeypatch.setattr(HierarchyPartition, "from_network", classmethod(counting))
    (cell,) = run_experiment(config).cells
    # one partition for the cell, one more for bin 1 where d3 is silent
    assert builds == [{"A1", "A2", "B1"}, {"A1", "A2"}]
    assert cell.failed_bins == [1]
    assert cell.message == (
        "bin 1 (flow): hierarchy 2 has non-equipped links but no equipped observation"
    )
    monkeypatch.undo()

    network = load_network(network_path)
    observations = aggregate_to_links(
        load_readings(readings_path), load_detector_sites(sites_path, network=network)
    )
    for b in (0, 2):
        obs = [o for o in observations if o.bin_index == b]
        partition = HierarchyPartition.from_network(network, [o.link_id for o in obs])
        for variable in ("flow", "density"):
            expected = hierarchical_scaled_mean(obs, partition, variable)
            assert cell.series(variable)[b] == expected.value


# --- outputs ------------------------------------------------------------------


def _tree_bytes(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def test_outputs_written_and_rerun_is_byte_identical(tmp_path):
    config = small_config(coverages=(0.5,), seeds=(0, 1))
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    run_experiment(config, output_dir=dir_a)
    run_experiment(config, output_dir=dir_b)

    tree_a = _tree_bytes(dir_a)
    tree_b = _tree_bytes(dir_b)
    assert set(tree_a) == set(tree_b)
    for name in tree_a:
        assert tree_a[name] == tree_b[name], f"{name} differs between reruns"

    cell_files = {"estimates.csv", "series.csv", "mfd_points.csv", "mfd_fit.csv"}
    cells = {
        f"cov0.5_seed{seed}_{estimator}": cell_files
        | ({"models.csv", "field.csv"} if estimator == "variogram" else set())
        for seed in (0, 1) for estimator in ESTIMATOR_NAMES
    }
    assert set(tree_a) == (
        {"manifest.json", "metrics.csv", "mfd_actual.csv"}
        | {f"plans/cov0.5_seed{seed}.json" for seed in (0, 1)}
        | {f"cells/{cell}/{name}" for cell, names in cells.items() for name in names}
    )

    manifest = json.loads(tree_a["manifest.json"].decode())
    assert set(manifest) == {
        "version", "config", "bin_indices", "truth_available", "clamped_count", "cells",
    }
    assert manifest["version"] == 2
    assert manifest["truth_available"] is True
    assert len(manifest["cells"]) == 6
    assert all(c["status"] == STATUS_OK for c in manifest["cells"])
    assert all(c["mfd_fit_message"] is None for c in manifest["cells"])


def test_variogram_cell_writes_field_table(tmp_path):
    config = small_config(coverages=(0.5,), seeds=(0,), estimators=("variogram",))
    out = tmp_path / "out"
    run_experiment(config, output_dir=out, fmt="tsv")
    field_path = out / "cells" / "cov0.5_seed0_variogram" / "field.tsv"
    assert field_path.exists()
    header = field_path.read_text().splitlines()[0]
    assert header.split("\t") == ["link_id", "bin_index", "variable", "value", "provenance"]


@pytest.mark.parametrize("fmt", ["csv", "tsv"])
def test_field_tables_quote_link_ids_as_the_per_cell_writer(fmt, tmp_path):
    # link ids with a comma, a tab, a double quote or a newline in them
    data = generate_scenario(SMALL_SCENARIO)
    quoted = {
        link.id: f'{link.id},\t"{i}"' + ("\nend" if i % 3 == 0 else "")
        for i, link in enumerate(data.network.links)
    }
    # the inputs are read in the format of the outputs
    delimiter = delimiter_for(fmt)
    paths = [tmp_path / f"{name}.{fmt}" for name in ("network", "sites", "readings")]
    reference_write_table(paths[0], NETWORK_COLUMNS, [
        (quoted[l.id], l.from_node, l.to_node, l.length_km, l.hierarchy)
        for l in data.network.links
    ], delimiter)
    reference_write_table(paths[1], SITE_COLUMNS, [
        (s.detector_id, quoted[s.link_id], s.offset_fraction) for s in data.sites
    ], delimiter)
    write_readings(paths[2], data.readings, delimiter)
    config = ExperimentConfig(
        coverages=(0.6,), seeds=(0,), estimators=("variogram",),
        network_path=str(paths[0]), sites_path=str(paths[1]), readings_path=str(paths[2]),
        variogram=VariogramSettings(fixed_model=IMPUTE_MODEL),
    )
    result = run_experiment(config, output_dir=tmp_path / "out", fmt=fmt)
    (cell,) = result.cells
    assert len(cell.fields) > 1
    rows = [
        (link_id, imputed.bin_index, imputed.variable, value, source)
        for _, imputed in sorted(cell.fields.items())
        for link_id, value, source in zip(
            result.network.link_ids, imputed.values.tolist(), imputed.provenance.tolist()
        )
    ]
    assert set(quoted.values()) == set(result.network.link_ids)
    reference = reference_write_table(tmp_path / f"reference.{fmt}", FIELD_HEADER, rows, delimiter)
    written = tmp_path / "out" / "cells" / cell.name / f"field.{fmt}"
    assert written.read_bytes() == reference.read_bytes()


def test_field_rows_are_streamed_to_the_table(tmp_path):
    # every link of the default city is observed in each of its 24 bins
    config = ExperimentConfig(
        coverages=(1.0,), seeds=(0,), estimators=("variogram",),
        scenario=SyntheticScenario(),
        variogram=VariogramSettings(fixed_model=DEFAULT_VARIOGRAM),
    )
    result = run_experiment(config)
    (cell,) = result.cells
    fields = sorted(cell.fields.items())

    def materialise():
        # the rows of every field held at once, as tuples of Python values
        return [
            (link_id, imputed.bin_index, imputed.variable, value, source)
            for _, imputed in fields
            for link_id, value, source in zip(
                result.network.link_ids, imputed.values.tolist(), imputed.provenance.tolist()
            )
        ]

    rows, listed = traced_peak(materialise)
    assert len(rows) == 180 * 24 * 2
    del rows
    _, peak = traced_peak(emit_plot_data, result, tmp_path)
    assert peak < listed


def test_a_scaling_experiment_searches_each_t_quantile_once(tmp_path, monkeypatch):
    tail = metrics._t_two_sided_tail
    searches = []

    def recording_tail(t, v):
        # a Newton search for a quantile starts at t = 0
        if t == 0.0:
            searches.append(v)
        return tail(t, v)

    monkeypatch.setattr(metrics, "_t_two_sided_tail", recording_tail)
    metrics._t_quantile.cache_clear()
    degrees = set()
    bands = 0
    for diurnal in ((0.4, 0.8, 1.0, 0.6), (0.4, 0.8, 1.0, 0.6, 0.9, 0.5)):
        config = small_config(
            estimators=("uniform", "hierarchical"), coverages=(0.4, 0.6, 1.0),
            scenario=SyntheticScenario(rows=5, cols=5, diurnal=diurnal, seed=3),
        )
        result = run_experiment(config, output_dir=tmp_path / f"bins{len(diurnal)}")
        fits = [cell.quad_fit for cell in result.cells if cell.quad_fit is not None]
        degrees |= {fit.degrees_of_freedom for fit in fits}
        bands += len(fits)
    assert degrees == {1, 3} and bands == 24
    assert sorted(searches) == [1.0, 3.0]
    metrics._t_quantile.cache_clear()
