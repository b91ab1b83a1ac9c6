"""End-to-end runs of the command line interface."""

import json

import pytest
from click.testing import CliRunner

from sparsemfd.cli import main
from sparsemfd.network import NETWORK_COLUMNS, load_detector_sites, load_network
from sparsemfd.sensing import READINGS_HEADER, sample_coverage
from sparsemfd.tableio import write_table

ESTIMATES_HEADER = (
    "bin_index", "method", "variable", "value", "ttd_or_ttt", "hierarchy_count"
)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


def synth_dir(runner, tmp_path, name="data", extra=()):
    out = tmp_path / name
    result = invoke(
        runner, ["--output-dir", str(out), "--bins", "4", *extra, "synth"]
    )
    assert result.exit_code == 0, result.output
    return out


# --- corridor fixtures for the imputation paths -------------------------------


def write_corridor(tmp_path, equipped, n_links=6, n_bins=2):
    """Chain of 0.5 km links with detectors only on the equipped ones."""
    network = tmp_path / "network.csv"
    sites = tmp_path / "sites.csv"
    readings = tmp_path / "readings.csv"
    write_table(
        network,
        NETWORK_COLUMNS,
        [(f"c{i}", f"n{i}", f"n{i + 1}", 0.5, 1) for i in range(n_links)],
    )
    write_table(
        sites,
        ("detector_id", "link_id", "offset_fraction"),
        [(f"d{i}", f"c{i}", 0.5) for i in equipped],
    )
    rows = []
    for b in range(n_bins):
        for i in equipped:
            flow = 100.0 + 10.0 * i + 5.0 * b
            rows.append((f"d{i}", b, flow, flow / 25.0, 25.0))
    write_table(readings, READINGS_HEADER, rows)
    return network, sites, readings


def write_model(path, kind="spherical", nugget=0.0, sill=100.0, range_km=5.0):
    write_table(
        path,
        ("kind", "nugget", "sill", "range_km"),
        [(kind, nugget, sill, range_km)],
    )
    return path


# --- ingest and synth ---------------------------------------------------------


def test_synth_then_ingest(runner, tmp_path):
    out = synth_dir(runner, tmp_path)
    for name in ("network.csv", "sites.csv", "readings.csv", "truth.csv", "scenario.json"):
        assert (out / name).exists()
    result = invoke(
        runner,
        [
            "ingest", str(out / "network.csv"),
            "--sites", str(out / "sites.csv"),
            "--readings", str(out / "readings.csv"),
        ],
    )
    assert result.exit_code == 0
    assert "network: 180 links" in result.output
    assert "sites: 180 detectors" in result.output
    assert "4 bins" in result.output
    assert result.output.rstrip().endswith("ok")


def test_synth_is_deterministic(runner, tmp_path):
    a = synth_dir(runner, tmp_path, "a")
    b = synth_dir(runner, tmp_path, "b")
    assert (a / "readings.csv").read_bytes() == (b / "readings.csv").read_bytes()


def test_synth_tsv_format(runner, tmp_path):
    out = tmp_path / "tsv"
    result = invoke(
        runner, ["--output-dir", str(out), "--format", "tsv", "--bins", "2", "synth"]
    )
    assert result.exit_code == 0
    first = (out / "network.tsv").read_text().splitlines()[0]
    assert "\t" in first and "," not in first


def test_ingest_rejects_malformed_network(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("link_id,from_node,to_node,length_km,hierarchy\nL1,a,b,-2.0,1\n")
    result = invoke(runner, ["ingest", str(bad)])
    assert result.exit_code == 2
    assert "error:" in result.output


# --- sampling -----------------------------------------------------------------


def test_sample_fraction_writes_plan(runner, tmp_path):
    data = synth_dir(runner, tmp_path)
    out = tmp_path / "sampled"
    result = invoke(
        runner,
        [
            "--output-dir", str(out), "--seed", "7",
            "sample", str(data / "network.csv"), str(data / "sites.csv"),
            "--fraction", "0.3",
        ],
    )
    assert result.exit_code == 0
    # per-class rounding: 36, 72 and 72 links at 30% give 11 + 22 + 22
    assert "retained 55 of 180 detectors (1: 11, 2: 22, 3: 22)" in result.output
    plan = json.loads((out / "plan.json").read_text())
    assert plan["fraction"] == 0.3
    assert plan["seed"] == 7
    assert len(plan["retained_detectors"]) == 55
    lines = (out / "retained_sites.csv").read_text().splitlines()
    assert len(lines) == 56  # header plus one row per detector


def test_sample_counts_mode(runner, tmp_path):
    data = synth_dir(runner, tmp_path)
    out = tmp_path / "counted"
    result = invoke(
        runner,
        [
            "--output-dir", str(out),
            "sample", str(data / "network.csv"), str(data / "sites.csv"),
            "--counts", "1=5,2=9,3=2",
        ],
    )
    assert result.exit_code == 0
    assert "retained 16 of 180 detectors (1: 5, 2: 9, 3: 2)" in result.output


def test_sample_needs_exactly_one_mode(runner, tmp_path):
    data = synth_dir(runner, tmp_path)
    args = ["sample", str(data / "network.csv"), str(data / "sites.csv")]
    neither = invoke(runner, args)
    both = invoke(runner, args + ["--fraction", "0.3", "--counts", "1=2,2=2,3=2"])
    assert neither.exit_code == 2
    assert both.exit_code == 2


# --- scaling ------------------------------------------------------------------


def test_scale_full_pipeline(runner, tmp_path):
    data = synth_dir(runner, tmp_path)
    out = tmp_path / "scaled"
    plan_dir = tmp_path / "planned"
    result = invoke(
        runner,
        [
            "--output-dir", str(plan_dir), "--seed", "3",
            "sample", str(data / "network.csv"), str(data / "sites.csv"),
            "--fraction", "0.2",
        ],
    )
    assert result.exit_code == 0
    result = invoke(
        runner,
        [
            "--output-dir", str(out),
            "scale", str(data / "network.csv"), str(data / "sites.csv"),
            str(data / "readings.csv"), "--plan", str(plan_dir / "plan.json"),
        ],
    )
    assert result.exit_code == 0
    lines = (out / "estimates.csv").read_text().splitlines()
    # four bins x two methods x two variables, plus the header
    assert len(lines) == 17
    assert lines[0].split(",") == list(ESTIMATES_HEADER)
    methods = {line.split(",")[1] for line in lines[1:]}
    assert methods == {"uniform", "hierarchical"}


def test_scale_rejects_plan_and_fraction_together(runner, tmp_path):
    data = synth_dir(runner, tmp_path)
    result = invoke(
        runner,
        [
            "scale", str(data / "network.csv"), str(data / "sites.csv"),
            str(data / "readings.csv"),
            "--plan", str(data / "scenario.json"), "--fraction", "0.2",
        ],
    )
    assert result.exit_code == 2


def write_two_classes(tmp_path, d3_bins):
    """Two links per hierarchy; hierarchy 2 has one detector, d3, which
    reports only in ``d3_bins``."""
    network = tmp_path / "network.csv"
    sites = tmp_path / "sites.csv"
    readings = tmp_path / "readings.csv"
    write_table(
        network,
        NETWORK_COLUMNS,
        [
            ("A1", "a", "b", 1.0, 1),
            ("A2", "b", "c", 1.0, 1),
            ("B1", "c", "d", 2.0, 2),
            ("B2", "d", "e", 2.0, 2),
        ],
    )
    write_table(sites, ("detector_id", "link_id"), [("d1", "A1"), ("d2", "A2"), ("d3", "B1")])
    rows = []
    for b in range(2):
        rows.append(("d1", b, 100.0, 10.0, 10.0))
        rows.append(("d2", b, 120.0, 12.0, 10.0))
        if b in d3_bins:
            rows.append(("d3", b, 40.0, 8.0, 5.0))
    write_table(readings, READINGS_HEADER, rows)
    return network, sites, readings


def test_scale_single_uncovered_bin_does_not_abort(runner, tmp_path):
    network, sites, readings = write_two_classes(tmp_path, d3_bins=(0,))
    out = tmp_path / "scaled"
    result = invoke(
        runner,
        [
            "--output-dir", str(out),
            "scale", str(network), str(sites), str(readings), "--method", "hierarchical",
        ],
    )
    assert result.exit_code == 0, result.output
    reason = "hierarchy 2 has non-equipped links but no equipped observation"
    assert f"hierarchical: not estimable (bin 1 (flow): {reason})" in result.output
    assert f"hierarchical: not estimable (bin 1 (density): {reason})" in result.output
    lines = (out / "estimates.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["0", "hierarchical", "flow"], ["0", "hierarchical", "density"],
    ]


def test_scale_exits_when_no_bin_is_estimable(runner, tmp_path):
    network, sites, readings = write_two_classes(tmp_path, d3_bins=())
    out = tmp_path / "scaled"
    result = invoke(
        runner,
        [
            "--output-dir", str(out),
            "scale", str(network), str(sites), str(readings), "--method", "hierarchical",
        ],
    )
    assert result.exit_code == 3
    assert "not estimable (bin 0 (flow): hierarchy 2" in result.output
    assert "not estimable (bin 1 (density): hierarchy 2" in result.output
    # the table is still written, with its header only
    assert (out / "estimates.csv").read_text().splitlines() == [",".join(ESTIMATES_HEADER)]


def test_scale_rejects_readings_of_unknown_detectors(runner, tmp_path):
    network, sites, readings = write_two_classes(tmp_path, d3_bins=(0, 1))
    with open(readings, "a") as handle:
        handle.write("d9,0,50.0,5.0,10.0\n")
    result = invoke(
        runner,
        ["scale", str(network), str(sites), str(readings), "--fraction", "0.5"],
    )
    assert result.exit_code == 2
    assert "unknown detector 'd9'" in result.output


def test_scale_checks_readings_of_detectors_the_plan_drops(runner, tmp_path):
    network, sites, readings = write_two_classes(tmp_path, d3_bins=(0, 1))
    net = load_network(network)
    site_table = load_detector_sites(sites, network=net)
    plan, _ = sample_coverage(site_table, net, 0.5, seed=0)
    (dropped,) = {s.detector_id for s in site_table} - set(plan.retained_detectors)
    with open(readings, "a") as handle:
        handle.write(f"{dropped},1,50.0,5.0,10.0\n")
    result = invoke(
        runner,
        ["--seed", "0", "scale", str(network), str(sites), str(readings), "--fraction", "0.5"],
    )
    assert result.exit_code == 2
    assert f"detector '{dropped}' reports twice in bin 1" in result.output


# --- variogram and imputation -------------------------------------------------


def test_variogram_command(runner, tmp_path):
    data = synth_dir(runner, tmp_path)
    out = tmp_path / "vario"
    result = invoke(
        runner,
        [
            "--output-dir", str(out),
            "variogram", str(data / "network.csv"), str(data / "sites.csv"),
            str(data / "readings.csv"), "--bin-index", "1",
        ],
    )
    assert result.exit_code == 0, result.output
    assert "fitted" in result.output
    emp_lines = (out / "variogram.csv").read_text().splitlines()
    assert emp_lines[0] == "lag_low_km,lag_high_km,lag_center_km,gamma,pair_count"
    assert len(emp_lines) == 16  # header plus the default 15 lag bins
    model_lines = (out / "variogram_model.csv").read_text().splitlines()
    assert len(model_lines) == 2
    kind = model_lines[1].split(",")[0]
    assert kind in ("spherical", "exponential", "gaussian")
    assert "search bound" not in result.output


def test_variogram_command_notes_a_range_at_its_bound(runner, tmp_path):
    # a linear trend along the corridor: the semivariance grows with the
    # square of the lag and never levels off
    network, sites, readings = write_corridor(tmp_path, equipped=tuple(range(12)), n_links=12)
    result = invoke(
        runner,
        [
            "--output-dir", str(tmp_path / "vario"),
            "variogram", str(network), str(sites), str(readings),
            "--lag-bins", "4", "--min-pairs", "1",
        ],
    )
    assert result.exit_code == 0, result.output
    assert "(range at search bound: no sill reached)" in result.output
    header, row = (tmp_path / "vario" / "variogram_model.csv").read_text().splitlines()
    assert header == "kind,nugget,sill,range_km,rss,bin_index,degenerate,range_at_bound"
    assert row.split(",")[-2:] == ["False", "True"]


def test_written_variogram_model_feeds_impute(runner, tmp_path):
    equipped = tuple(i for i in range(12) if i not in (4, 7))
    network, sites, readings = write_corridor(tmp_path, equipped=equipped, n_links=12)
    fitted = tmp_path / "vario"
    result = invoke(
        runner,
        [
            "--output-dir", str(fitted),
            "variogram", str(network), str(sites), str(readings),
            "--lag-bins", "4", "--min-pairs", "1",
        ],
    )
    assert result.exit_code == 0, result.output
    result = invoke(
        runner,
        [
            "--output-dir", str(tmp_path / "imputed"),
            "impute", str(network), str(sites), str(readings),
            "--bin-index", "0", "--model-file", str(fitted / "variogram_model.csv"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "bin 0: network flow" in result.output
    assert "100.0% of length covered" in result.output


def test_impute_fills_unobserved_links(runner, tmp_path):
    network, sites, readings = write_corridor(tmp_path, equipped=(0, 2, 5))
    model = write_model(tmp_path / "model.csv", range_km=5.0)
    out = tmp_path / "imputed"
    result = invoke(
        runner,
        [
            "--output-dir", str(out),
            "impute", str(network), str(sites), str(readings),
            "--model-file", str(model),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "bin 0: network flow" in result.output
    assert "bin 1: network flow" in result.output
    assert "100.0% of length covered" in result.output
    lines = (out / "field.csv").read_text().splitlines()
    assert len(lines) == 13  # header plus 6 links x 2 bins
    provenance = {line.split(",")[-1] for line in lines[1:]}
    assert provenance == {"observed", "imputed"}


def test_impute_exits_when_no_bin_is_estimable(runner, tmp_path):
    network, sites, readings = write_corridor(tmp_path, equipped=(0, 5))
    model = write_model(tmp_path / "model.csv", range_km=0.4)
    out = tmp_path / "failed"
    result = invoke(
        runner,
        [
            "--output-dir", str(out),
            "impute", str(network), str(sites), str(readings),
            "--model-file", str(model),
        ],
    )
    assert result.exit_code == 3
    assert "bin 0: not estimable" in result.output
    assert "bin 1: not estimable" in result.output
    # the partial field is still written for inspection
    assert (out / "field.csv").exists()


def test_impute_single_failing_bin_does_not_abort(runner, tmp_path):
    network, sites, readings = write_corridor(tmp_path, equipped=(0, 2, 5), n_bins=1)
    extra = (100.0 + 10.0 * 1 + 5.0 * 1)
    with open(readings, "a") as handle:
        handle.write(f"d0,1,{extra},{extra / 25.0},25.0\n")
    model = write_model(tmp_path / "model.csv", range_km=5.0)
    out = tmp_path / "partial"
    result = invoke(
        runner,
        [
            "--output-dir", str(out),
            "impute", str(network), str(sites), str(readings),
            "--model-file", str(model),
        ],
    )
    # bin 1 has a single detector and cannot reach the neighbor quorum,
    # but bin 0 still completes, so the run as a whole succeeds
    assert result.exit_code == 0, result.output
    assert "bin 0: network flow" in result.output
    assert "bin 1: not estimable" in result.output


def test_impute_unfittable_bin_does_not_abort(runner, tmp_path):
    equipped = tuple(i for i in range(12) if i not in (4, 7))
    network, sites, readings = write_corridor(tmp_path, equipped=equipped, n_links=12, n_bins=1)
    with open(readings, "a") as handle:
        for i in (0, 1, 2):
            flow = 100.0 + 10.0 * i + 5.0
            handle.write(f"d{i},1,{flow},{flow / 25.0},25.0\n")
    out = tmp_path / "refit"
    result = invoke(
        runner,
        ["--output-dir", str(out), "impute", str(network), str(sites), str(readings)],
    )
    # bin 1's three detectors give too few populated lag bins for a fit,
    # which fails that bin alone
    assert result.exit_code == 0, result.output
    assert "bin 0: network flow" in result.output
    assert (
        "bin 1: not estimable (bin 1 (flow): variogram fitting needs at least 3 bins"
        in result.output
    )
    lines = (out / "field.csv").read_text().splitlines()
    assert len(lines) == 13  # header plus bin 0's 12 links; bin 1 has no field
    assert {line.split(",")[1] for line in lines[1:]} == {"0"}


# --- mfd and evaluate ---------------------------------------------------------


def _estimates_rows(method, flows, densities):
    rows = []
    for b, (q, k) in enumerate(zip(flows, densities)):
        rows.append((b, method, "flow", q, q * 3.0, 1))
        rows.append((b, method, "density", k, k * 3.0, 1))
    return rows


def test_mfd_command(runner, tmp_path):
    est = tmp_path / "estimates.csv"
    write_table(
        est, ESTIMATES_HEADER,
        _estimates_rows("uniform", (600.0, 1000.0, 1200.0, 1300.0), (10.0, 20.0, 30.0, 40.0)),
    )
    out = tmp_path / "mfd"
    result = invoke(runner, ["--output-dir", str(out), "mfd", str(est)])
    assert result.exit_code == 0, result.output
    assert "fit: q =" in result.output
    points = (out / "mfd_points.csv").read_text().splitlines()
    assert len(points) == 5
    fit = (out / "mfd_fit.csv").read_text().splitlines()
    assert fit[0] == "x,y_fit,ci_low,ci_high"
    assert len(fit) == 51  # header plus the default 50 band samples


def test_mfd_mixed_methods_need_a_filter(runner, tmp_path):
    est = tmp_path / "mixed.csv"
    rows = _estimates_rows("uniform", (600.0, 1000.0, 1200.0, 1300.0), (10.0, 20.0, 30.0, 40.0))
    rows += _estimates_rows("hierarchical", (610.0, 990.0, 1190.0, 1310.0), (11.0, 21.0, 29.0, 41.0))
    write_table(est, ESTIMATES_HEADER, rows)
    unfiltered = invoke(runner, ["--output-dir", str(tmp_path / "x"), "mfd", str(est)])
    assert unfiltered.exit_code == 2
    assert "mixes methods" in unfiltered.output
    filtered = invoke(
        runner,
        ["--output-dir", str(tmp_path / "y"), "mfd", str(est), "--method", "uniform"],
    )
    assert filtered.exit_code == 0


def test_mfd_duplicate_bin_rows(runner, tmp_path):
    est = tmp_path / "dup.csv"
    rows = _estimates_rows("uniform", (600.0, 1000.0, 1200.0, 1300.0), (10.0, 20.0, 30.0, 40.0))
    rows.append((0, "uniform", "flow", 620.0, 1860.0, 1))
    write_table(est, ESTIMATES_HEADER, rows)
    result = invoke(runner, ["mfd", str(est)])
    assert result.exit_code == 2
    assert "duplicate entry" in result.output


def test_evaluate_against_reference(runner, tmp_path):
    est = tmp_path / "est.csv"
    act = tmp_path / "act.csv"
    write_table(
        est, ESTIMATES_HEADER,
        _estimates_rows("uniform", (610.0, 1005.0, 1190.0, 1302.0), (10.0, 20.0, 30.0, 40.0)),
    )
    write_table(
        act, ESTIMATES_HEADER,
        _estimates_rows("edie", (600.0, 1000.0, 1200.0, 1300.0), (10.0, 20.0, 30.0, 40.0)),
    )
    out = tmp_path / "eval"
    result = invoke(runner, ["--output-dir", str(out), "evaluate", str(est), str(act)])
    assert result.exit_code == 0, result.output
    assert "flow: rmse" in result.output
    assert "paired test: t" in result.output
    payload = json.loads((out / "evaluation.json").read_text())
    assert payload["variable"] == "flow"
    assert payload["n_points"] == 4
    assert payload["t_test"] is not None


def test_evaluate_constant_offset_has_no_t_test(runner, tmp_path):
    est = tmp_path / "est.csv"
    act = tmp_path / "act.csv"
    flows = (600.0, 1000.0, 1200.0, 1300.0)
    write_table(
        est, ESTIMATES_HEADER,
        _estimates_rows("uniform", tuple(q + 5.0 for q in flows), (10.0, 20.0, 30.0, 40.0)),
    )
    write_table(
        act, ESTIMATES_HEADER,
        _estimates_rows("edie", flows, (10.0, 20.0, 30.0, 40.0)),
    )
    out = tmp_path / "eval"
    result = invoke(runner, ["--output-dir", str(out), "evaluate", str(est), str(act)])
    assert result.exit_code == 0
    assert "rmse 5" in result.output
    assert "paired test undefined" in result.output
    payload = json.loads((out / "evaluation.json").read_text())
    assert payload["rmse"] == pytest.approx(5.0)
    assert payload["t_test"] is None


def test_evaluate_mismatched_bins(runner, tmp_path):
    est = tmp_path / "est.csv"
    act = tmp_path / "act.csv"
    write_table(
        est, ESTIMATES_HEADER,
        _estimates_rows("uniform", (600.0, 1000.0), (10.0, 20.0)),
    )
    write_table(
        act, ESTIMATES_HEADER,
        _estimates_rows("edie", (600.0, 1000.0, 1200.0), (10.0, 20.0, 30.0)),
    )
    result = invoke(runner, ["evaluate", str(est), str(act)])
    assert result.exit_code == 2
    assert "bin sets differ" in result.output


# --- experiment ---------------------------------------------------------------


def test_experiment_with_config_file(runner, tmp_path):
    from sparsemfd.experiment import ExperimentConfig, save_experiment_config
    from sparsemfd.synth import SyntheticScenario

    config = ExperimentConfig(
        coverages=(0.5,),
        seeds=(0,),
        estimators=("uniform", "hierarchical"),
        scenario=SyntheticScenario(rows=4, cols=4, diurnal=(0.5, 1.0, 0.75, 0.6), seed=1),
    )
    config_path = tmp_path / "config.json"
    save_experiment_config(config, config_path)
    out = tmp_path / "run"
    result = invoke(
        runner,
        ["--output-dir", str(out), "experiment", "--config", str(config_path)],
    )
    assert result.exit_code == 0, result.output
    assert "cov0.5_seed0_uniform: ok" in result.output
    assert "cov0.5_seed0_hierarchical: ok" in result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["cells"]) == 2
    assert (out / "cells" / "cov0.5_seed0_uniform" / "estimates.csv").exists()
