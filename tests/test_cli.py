"""End-to-end runs of the command line interface."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import sparsemfd
from sparsemfd.cli import _read_estimates, _read_model_table, guarded, main
from sparsemfd.errors import (
    EstimationError,
    InsufficientDataError,
    NotEstimableError,
    NumericError,
    SchemaError,
    SingularSystemError,
    ValidationError,
)
from sparsemfd.network import (
    NETWORK_COLUMNS,
    SITE_COLUMNS,
    Link,
    Network,
    load_detector_sites,
    load_network,
    midpoint_sites,
)
from sparsemfd.sensing import READINGS_HEADER, sample_coverage
from sparsemfd.tableio import BLOCK_ROWS, write_json, write_table
from conftest import reference_read_estimates, reference_read_model_table

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


# --- exit codes ---------------------------------------------------------------


@pytest.mark.parametrize(
    "error, code",
    [
        (NotEstimableError("no estimate"), 3),
        (InsufficientDataError("too few"), 3),
        (NumericError("broke down"), 4),
        (SingularSystemError(), 4),
        (EstimationError("bad input"), 2),
        (ValidationError("invalid"), 2),
        (ValueError("out of range"), 2),
    ],
)
def test_guarded_maps_each_error_family_to_its_exit_code(error, code, capsys):
    @guarded
    def command():
        raise error

    with pytest.raises(SystemExit) as exited:
        command()
    assert exited.value.code == code
    assert capsys.readouterr().err == f"error: {error}\n"


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


def test_ingest_rejects_a_bin_beyond_64_bits(runner, tmp_path):
    data = synth_dir(runner, tmp_path)
    readings = tmp_path / "readings.csv"
    readings.write_text(
        ",".join(READINGS_HEADER[:4]) + "\ndh0_0,0,100,10\ndh0_0,99999999999999999999,100,10\n"
    )
    result = runner.invoke(main, [
        "ingest", str(data / "network.csv"), "--sites", str(data / "sites.csv"),
        "--readings", str(readings),
    ])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert (
        "error: integer beyond 64 bits: '99999999999999999999' "
        "[field 'bin_index'] [line 3]"
    ) in result.output


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


@pytest.mark.parametrize("table", ["network", "sites", "readings"])
def test_scale_rejects_plan_and_fraction_before_reading_a_table(runner, tmp_path, table):
    data = synth_dir(runner, tmp_path)
    tables = {name: str(data / f"{name}.csv") for name in ("network", "sites", "readings")}
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("detector_id,bin_index\nd1,not-a-bin\n")
    tables[table] = str(malformed)
    result = invoke(
        runner,
        [
            "scale", tables["network"], tables["sites"], tables["readings"],
            "--plan", str(data / "scenario.json"), "--fraction", "0.2",
        ],
    )
    assert result.exit_code == 2
    assert "give at most one of --plan or --fraction" in result.output


@pytest.mark.parametrize("duration", ["0", "-2", "nan", "inf"])
def test_scale_rejects_a_duration_that_is_not_positive_and_finite(runner, tmp_path, duration):
    data = synth_dir(runner, tmp_path)
    out = tmp_path / "scaled"
    result = invoke(
        runner,
        [
            "--output-dir", str(out),
            "scale", str(data / "network.csv"), str(data / "sites.csv"),
            str(data / "readings.csv"), "--duration-h", duration,
        ],
    )
    assert result.exit_code == 2
    assert f"--duration-h must be positive and finite, got {float(duration)}" in result.output
    assert not out.exists()


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


def test_scale_rejects_a_plan_naming_unknown_detectors(runner, tmp_path):
    network, sites, readings = write_two_classes(tmp_path, d3_bins=(0, 1))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "fraction": 0.5, "seed": 0, "per_hierarchy_counts": {"1": 1, "2": 1},
        "retained_detectors": ["d1", "ghost"],
    }))
    result = invoke(
        runner, ["scale", str(network), str(sites), str(readings), "--plan", str(plan)]
    )
    assert result.exit_code == 2
    assert "unknown detector ids in retained_ids: 'ghost'" in result.output


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
    assert kind in ("spherical", "exponential")
    assert "search bound" not in result.output


def test_every_command_runs_without_scipy(runner, tmp_path):
    # scipy is a test oracle only: with its import made to fail, every
    # command still runs, the t distribution of mfd, evaluate and
    # experiment included
    data = synth_dir(runner, tmp_path)
    # every third detector, so that the fitted model has links to krige
    with open(data / "sites.csv") as handle:
        kept = {line.split(",")[0] for i, line in enumerate(handle) if i and i % 3 == 0}
    with open(data / "readings.csv") as handle:
        lines = [line for i, line in enumerate(handle) if not i or line.split(",")[0] in kept]
    (tmp_path / "sparse.csv").write_text("".join(lines))
    network, sites, readings = (
        str(data / name) for name in ("network.csv", "sites.csv", "readings.csv")
    )
    estimates = str(tmp_path / "scale" / "estimates.csv")
    commands = [
        ["--output-dir", str(tmp_path / "s"), "--bins", "4", "synth"],
        ["ingest", network, "--sites", sites, "--readings", readings],
        ["--output-dir", str(tmp_path / "p"), "sample", network, sites, "--fraction", "0.3"],
        ["--output-dir", str(tmp_path / "scale"), "scale", network, sites, readings,
         "--fraction", "0.3"],
        ["--output-dir", str(tmp_path / "v"), "variogram", network, sites, readings,
         "--bin-index", "1"],
        ["--output-dir", str(tmp_path / "i"), "impute", network, sites,
         str(tmp_path / "sparse.csv"), "--bin-index", "0"],
        ["--output-dir", str(tmp_path / "m"), "mfd", estimates, "--method", "uniform"],
        ["--output-dir", str(tmp_path / "e"), "evaluate", estimates, str(data / "truth.csv"),
         "--method", "uniform"],
        ["--output-dir", str(tmp_path / "x"), "--bins", "4", "experiment", "--coverage", "0.3"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from sparsemfd.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as exit:\n"
        "        assert not exit.code, (args, exit.code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sparsemfd.__file__)))
    subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], env=env, check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )
    assert (tmp_path / "v" / "variogram_model.csv").exists()
    provenance = {
        line.rsplit(",", 1)[-1]
        for line in (tmp_path / "i" / "field.csv").read_text().splitlines()[1:]
    }
    assert "imputed" in provenance
    assert len((tmp_path / "m" / "mfd_fit.csv").read_text().splitlines()) == 51
    assert json.loads((tmp_path / "e" / "evaluation.json").read_text())["t_test"] is not None
    # the band of an experiment cell's MFD fit needs the t quantile
    with open(tmp_path / "x" / "cells" / "cov0.3_seed0_uniform" / "mfd_fit.csv") as handle:
        band = list(csv.DictReader(handle))
    assert band
    assert all(math.isfinite(float(row[name])) for row in band for name in ("ci_low", "ci_high"))


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


@pytest.mark.parametrize("option, value, message", [
    ("--min-pairs", "0", "min_pairs must be at least 1, got 0"),
    ("--min-pairs", "-3", "min_pairs must be at least 1, got -3"),
    ("--fixed-range-km", "inf", "fixed range must be positive and finite, got inf km"),
])
def test_variogram_command_rejects_a_bad_fit_setting(runner, tmp_path, option, value, message):
    network, sites, readings = write_corridor(tmp_path, equipped=tuple(range(12)), n_links=12)
    out = tmp_path / "vario"
    result = invoke(
        runner,
        [
            "--output-dir", str(out),
            "variogram", str(network), str(sites), str(readings),
            "--lag-bins", "4", option, value,
        ],
    )
    assert result.exit_code == 2
    assert result.output == f"error: {message}\n"
    assert not out.exists()


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


def write_subnormal_corridor(tmp_path, bin1_flows=None):
    """The 20-link corridor of the kriging tests' sill underflow, equipped on
    every other link, with its flows of 0 or 3.2e-162: the subnormal
    semivariances make bin 0's flow fit underflow and bin 1's flow system
    singular. ``bin1_flows`` replaces bin 1's flows."""
    rng = np.random.default_rng(0)
    net = Network([Link(f"a{i}", f"a{i}", f"a{i + 1}", 0.5, 1) for i in range(20)])
    sites = midpoint_sites(net)
    rows = [
        ["@" + l.id, b, float(rng.integers(0, 2) * 3.2e-162), float(10 + rng.random()), None]
        for b in (0, 1) for l in net.links[::2]
    ]
    for row, flow in zip(rows[10:], bin1_flows or ()):
        row[2] = flow
    paths = [tmp_path / name for name in ("network.csv", "sites.csv", "readings.csv")]
    write_table(paths[0], NETWORK_COLUMNS,
                [(l.id, l.from_node, l.to_node, l.length_km, l.hierarchy) for l in net.links])
    write_table(paths[1], SITE_COLUMNS,
                [(s.detector_id, s.link_id, s.offset_fraction) for s in sites])
    write_table(paths[2], READINGS_HEADER, rows)
    return paths


def test_impute_writes_the_bins_around_a_numeric_failure(runner, tmp_path):
    paths = write_subnormal_corridor(tmp_path, [100.0 + 5.0 * i for i in range(10)])
    out = tmp_path / "out"
    result = invoke(runner, [
        "--output-dir", str(out), "impute", *map(str, paths),
        "--lag-bins", "4", "--min-pairs", "1",
    ])
    # bin 0's fit fails numerically, alone: bin 1 is estimated and written
    assert result.exit_code == 0, result.output
    assert result.output.startswith(
        "bin 0: failed (bin 0 (flow): the exponential fit's sill underflows to 0.0 "
    )
    assert "bin 1: network flow 123.6 (100.0% of length covered" in result.output
    lines = (out / "field.csv").read_text().splitlines()
    assert len(lines) == 21  # header plus bin 1's 20 links; bin 0 has no field
    assert {line.split(",")[1] for line in lines[1:]} == {"1"}


def test_impute_exits_4_when_every_bin_fails_numerically(runner, tmp_path):
    paths = write_subnormal_corridor(tmp_path)
    out = tmp_path / "out"
    result = invoke(runner, [
        "--output-dir", str(out), "impute", *map(str, paths),
        "--lag-bins", "4", "--min-pairs", "1",
    ])
    assert result.exit_code == 4, result.output
    assert "bin 0: failed (bin 0 (flow): the exponential fit's sill underflows" in result.output
    assert "bin 1: failed (bin 1 (flow): kriging system is singular" in result.output
    # the first failure is the error, and the empty field table is still written
    assert "error: bin 0 (flow): the exponential fit's sill underflows" in result.output
    assert (out / "field.csv").read_text().splitlines() == [
        "link_id,bin_index,variable,value,provenance"
    ]


def test_impute_rejects_a_model_table_of_two_rows(runner, tmp_path):
    network, sites, readings = write_corridor(tmp_path, equipped=(0, 2, 5))
    model = tmp_path / "model.csv"
    write_table(
        model,
        ("kind", "nugget", "sill", "range_km"),
        [("spherical", 0, 100, 5), ("exponential", 0, 9000, 0.1)],
    )
    result = invoke(
        runner,
        [
            "--output-dir", str(tmp_path / "imputed"),
            "impute", str(network), str(sites), str(readings),
            "--bin-index", "0", "--model-file", str(model),
        ],
    )
    assert result.exit_code == 2
    assert f"error: model table '{model}' has 2 rows, expected one" in result.output


def _same_outcome(read, reference, path, delimiter, *args):
    """``read`` and ``reference`` on one table give equal values, or errors
    of one type and text."""
    try:
        expected = reference(str(path), delimiter, *args)
    except Exception as exc:
        with pytest.raises(type(exc)) as err:
            read(str(path), delimiter, *args)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
    else:
        assert read(str(path), delimiter, *args) == expected


MODEL_HEADER_TEXT = "kind,nugget,sill,range_km"
MODEL_CORPUS = [
    MODEL_HEADER_TEXT + "\nspherical,0,100,5\n",
    # the table the variogram command writes
    MODEL_HEADER_TEXT + ",rss,bin_index,degenerate,range_at_bound\n"
    "exponential,47690.5,140700.25,19.0,1.017e12,1,False,False\n",
    "\n" + MODEL_HEADER_TEXT + "\n\n  exponential , 1e0 ,2, 3 \n ,,, \n",
    MODEL_HEADER_TEXT + "\nspherical,0,100,5\nexponential,0,9000,0.1\n",
    MODEL_HEADER_TEXT + "\n",
    MODEL_HEADER_TEXT + "\n\n,,,\n",
    # a short row, a repeated column
    MODEL_HEADER_TEXT + "\nspherical,0,100\n",
    MODEL_HEADER_TEXT + ",sill\nspherical,0,x,5,7\n",
    # parse faults and value faults
    MODEL_HEADER_TEXT + "\nspherical,0,nan,5\n",
    MODEL_HEADER_TEXT + "\nspherical,zero,100,5\n",
    MODEL_HEADER_TEXT + "\nspherical,0,-100,5\n",
    MODEL_HEADER_TEXT + "\nlinear,0,100,5\n",
    MODEL_HEADER_TEXT + "\n,0,100,5\n",
    "kind,nugget,sill\nspherical,0,100\n",
    "",
]


@pytest.mark.parametrize("doc", MODEL_CORPUS)
@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_model_table_matches_the_per_row_reference(doc, delimiter, tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(doc.replace(",", delimiter), newline="")
    _same_outcome(_read_model_table, reference_read_model_table, path, delimiter)


@pytest.mark.parametrize(
    "rows, text",
    [
        (["spherical,0,100,5", "exponential,0,nan,0.1"],
         "NaN is not a valid value [field 'sill'] [line 3]"),
        (["spherical,0,100,5"] * (BLOCK_ROWS + 5) + ["exponential,0,100,?"],
         f"not a number: '?' [field 'range_km'] [line {BLOCK_ROWS + 7}]"),
    ],
)
def test_a_model_table_reports_a_faulty_row_before_its_row_count(rows, text, tmp_path):
    # the rows before the faulty one are models; the per-row reader
    # reported the row count here
    path = tmp_path / "model.csv"
    path.write_text("\n".join([MODEL_HEADER_TEXT, *rows]) + "\n")
    with pytest.raises(SchemaError) as err:
        _read_model_table(str(path), ",")
    assert str(err.value) == text


EST_HEADER = ",".join(ESTIMATES_HEADER)


def _long_estimates(fault_row, fault, rows=BLOCK_ROWS + 40):
    """An estimates table of ``rows`` rows of method "u", flow and density
    in turn, whose row ``fault_row`` (0-based) is ``fault``."""
    lines = [EST_HEADER]
    for i in range(rows):
        variable = ("flow", "density")[i % 2]
        lines.append(fault if i == fault_row else f"{i // 2},u,{variable},{i * 0.5},1,1")
    return "\n".join(lines) + "\n"


ESTIMATES_CORPUS = [
    EST_HEADER + "\n0,u,flow,100,300,1\n0,u,density,10,30,1\n1,u,flow,120.5,3,1\n",
    # only the four read columns, blank and short rows, padded cells
    "bin_index,method,variable,value\n 0 , u , flow , 1e2 \n\n,,,\n+1,u,density,7\n",
    EST_HEADER + "\n0,u,flow\n",
    EST_HEADER + "\n0,u,flow,1,,\n0,u\n",
    # a repeated column reads its last cell
    EST_HEADER + ",value\n0,u,flow,x,1,1,5\n",
    # mixed methods, duplicates
    EST_HEADER + "\n0,u,flow,1,1,1\n0,h,flow,2,1,1\n",
    EST_HEADER + "\n0,u,flow,1,1,1\n0,u,flow,2,1,1\n",
    EST_HEADER + "\n0,u,flow,1,1,1\n0,h,flow,2,1,1\n0,u,flow,3,1,1\n",
    # parse faults
    EST_HEADER + "\n0,u,flow,nan,1,1\n",
    EST_HEADER + "\n0.5,u,flow,1,1,1\n",
    EST_HEADER + "\n0,u,,1,1,1\n",
    EST_HEADER + "\n0,u,flow,1,1,1\n1,u,flow,inf,1,1\n2,u,flow,-,1,1\n",
    "bin_index,method,variable\n0,u,flow\n",
    "",
    # past the first block: a parse fault, and a duplicate before one
    _long_estimates(BLOCK_ROWS + 5, "9999,u,flow,x,1,1"),
    _long_estimates(3, "0,u,flow,7,1,1") + "9999,u,flow,x,1,1\n",
    _long_estimates(-1, ""),
]


@pytest.mark.parametrize("doc", ESTIMATES_CORPUS)
@pytest.mark.parametrize("delimiter", [",", "\t"])
@pytest.mark.parametrize("method", [None, "u"])
def test_estimates_table_matches_the_per_row_reference(doc, delimiter, method, tmp_path):
    path = tmp_path / "estimates.txt"
    path.write_text(doc.replace(",", delimiter), newline="")
    _same_outcome(_read_estimates, reference_read_estimates, path, delimiter, method)


def test_every_row_of_an_estimates_table_is_checked(runner, tmp_path):
    # the row of the method that --method leaves out was not parsed before
    est = tmp_path / "estimates.csv"
    rows = _estimates_rows("uniform", (600.0, 1000.0, 1200.0, 1300.0), (10.0, 20.0, 30.0, 40.0))
    est.write_text(
        ",".join(ESTIMATES_HEADER) + "\n"
        + "".join(",".join(map(str, row)) + "\n" for row in rows)
        + "x,hierarchical,flow,1,1,1\n"
    )
    result = invoke(
        runner, ["--output-dir", str(tmp_path / "m"), "mfd", str(est), "--method", "uniform"]
    )
    assert result.exit_code == 2
    assert f"not an integer: 'x' [field 'bin_index'] [line {len(rows) + 2}]" in result.output


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


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_mfd_rejects_a_band_of_fewer_than_two_samples(runner, tmp_path, samples):
    est = tmp_path / "estimates.csv"
    write_table(
        est, ESTIMATES_HEADER,
        _estimates_rows("uniform", (600.0, 1000.0, 1200.0, 1300.0), (10.0, 20.0, 30.0, 40.0)),
    )
    out = tmp_path / "mfd"
    result = invoke(
        runner, ["--output-dir", str(out), "mfd", str(est), "--band-samples", str(samples)]
    )
    assert result.exit_code == 2
    assert f"--band-samples must be at least 2, got {samples}" in result.output
    assert not (out / "mfd_fit.csv").exists()


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


def test_evaluate_rejects_non_finite_values(runner, tmp_path):
    est = tmp_path / "est.csv"
    act = tmp_path / "act.csv"
    write_table(
        est, ESTIMATES_HEADER,
        _estimates_rows("uniform", (1.0, 2.0, math.inf), (10.0, 20.0, 30.0)),
    )
    write_table(
        act, ESTIMATES_HEADER,
        _estimates_rows("edie", (0.5, 1.0, 2.0), (10.0, 20.0, 30.0)),
    )
    out = tmp_path / "eval"
    result = invoke(runner, ["--output-dir", str(out), "evaluate", str(est), str(act)])
    assert result.exit_code == 2
    assert "estimated series holds a non-finite value (inf)" in result.output
    assert not (out / "evaluation.json").exists()


@pytest.mark.parametrize("alpha", ["2", "0", "1", "nan"])
def test_evaluate_rejects_alpha_before_reading_a_table(runner, tmp_path, alpha):
    act = tmp_path / "act.csv"
    write_table(act, ESTIMATES_HEADER, _estimates_rows("edie", (600.0, 1000.0), (10.0, 20.0)))
    malformed = tmp_path / "malformed.csv"
    malformed.write_text(EST_HEADER + "\nnot-a-bin,u,flow,1,1,1\n")
    out = tmp_path / "eval"
    for est in (act, malformed):
        result = invoke(runner, [
            "--output-dir", str(out), "evaluate", str(est), str(act), "--alpha", alpha,
        ])
        assert result.exit_code == 2
        assert result.output == f"error: --alpha must lie in (0, 1), got {float(alpha)}\n"
    assert not out.exists()


# --- experiment ---------------------------------------------------------------


def test_experiment_with_config_file(runner, tmp_path):
    from sparsemfd.experiment import ExperimentConfig
    from sparsemfd.synth import SyntheticScenario

    config = ExperimentConfig(
        coverages=(0.5,),
        seeds=(0,),
        estimators=("uniform", "hierarchical"),
        scenario=SyntheticScenario(rows=4, cols=4, diurnal=(0.5, 1.0, 0.75, 0.6), seed=1),
    )
    config_path = tmp_path / "config.json"
    write_json(config_path, config)
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


def test_experiment_reads_its_inputs_in_the_format_of_its_outputs(runner, tmp_path):
    out = {}
    for fmt in ("csv", "tsv"):
        data = synth_dir(runner, tmp_path, f"data-{fmt}", extra=("--format", fmt))
        config_path = tmp_path / f"config-{fmt}.json"
        config_path.write_text(json.dumps({
            "coverages": [0.3], "seeds": [0], "estimators": ["uniform", "hierarchical"],
            **{f"{name}_path": str(data / f"{name}.{fmt}")
               for name in ("network", "sites", "readings")},
        }))
        out[fmt] = tmp_path / f"run-{fmt}"
        result = invoke(runner, [
            "--output-dir", str(out[fmt]), "--format", fmt, "experiment",
            "--config", str(config_path),
        ])
        assert result.exit_code == 0, result.output
        assert (out[fmt] / "manifest.json").exists()
    # the same estimates from the same tables in either format
    for estimator in ("uniform", "hierarchical"):
        tables = [
            (out[fmt] / "cells" / f"cov0.3_seed0_{estimator}" / f"estimates.{fmt}").read_text()
            for fmt in ("csv", "tsv")
        ]
        assert tables[0].replace(",", "\t") == tables[1]


def test_experiment_refuses_a_config_with_coverages(runner, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "coverages": [0.3], "seeds": [0], "scenario": {"rows": 4, "cols": 4},
    }))
    out = tmp_path / "run"
    result = invoke(runner, [
        "--output-dir", str(out), "experiment", "--config", str(config_path), "--coverage", "0.5",
    ])
    assert result.exit_code == 2, result.output
    assert "give at most one of --config or --coverage" in result.output
    assert not out.exists()


@pytest.mark.parametrize("given", [["--seed", "7"], ["--bins", "3"], ["--seed", "0"]])
def test_experiment_refuses_a_config_with_a_global_seed_or_bins(runner, tmp_path, given):
    # a config sets its own seeds and bins; an explicit --seed or --bins,
    # even at its default value, would be silently ignored
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "coverages": [0.3], "seeds": [0], "scenario": {"rows": 4, "cols": 4},
    }))
    out = tmp_path / "run"
    result = invoke(runner, [
        "--output-dir", str(out), *given, "experiment", "--config", str(config_path),
    ])
    assert result.exit_code == 2, result.output
    assert f"give at most one of --config or {given[0]}" in result.output
    assert not out.exists()


def test_a_gaussian_variogram_is_refused_with_the_allowed_kinds(runner, tmp_path):
    # along-network distance does not admit a Gaussian covariance in general,
    # so no command fits, kriges or simulates with one
    data = synth_dir(runner, tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "coverages": [0.3], "seeds": [0], "scenario": {"rows": 4, "cols": 4},
        "variogram": {"kinds": ["exponential", "gaussian"]},
    }))
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "rows": 4, "cols": 4,
        "variogram": {"kind": "gaussian", "nugget": 25.0, "sill": 1600.0, "range_km": 1.0},
    }))
    out = tmp_path / "run"
    for args in (
        ["variogram", *(str(data / f"{name}.csv") for name in ("network", "sites", "readings")),
         "--kind", "gaussian"],
        ["experiment", "--config", str(config_path)],
        ["synth", "--scenario", str(scenario_path)],
    ):
        result = invoke(runner, ["--output-dir", str(out), *args])
        assert result.exit_code == 2, result.output
        assert "'gaussian'" in result.output
        assert "'spherical', 'exponential'" in result.output
        assert not out.exists()


def test_experiment_refuses_a_config_that_names_refit_per_bin(runner, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "coverages": [0.3], "seeds": [0], "scenario": {"rows": 4, "cols": 4},
        "variogram": {"refit_per_bin": False},
    }))
    out = tmp_path / "run"
    result = invoke(
        runner, ["--output-dir", str(out), "experiment", "--config", str(config_path)]
    )
    assert result.exit_code == 2, result.output
    assert "'refit_per_bin'" in result.output
    assert not out.exists()
