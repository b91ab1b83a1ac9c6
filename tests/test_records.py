"""JSON records: the exact text written, and malformed input rejected."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from sparsemfd.cli import main
from sparsemfd.errors import ValidationError
from sparsemfd.experiment import ExperimentConfig, VariogramSettings, load_experiment_config
from sparsemfd.metrics import PairedTTestResult
from sparsemfd.network import NETWORK_COLUMNS
from sparsemfd.sensing import READINGS_HEADER, CoveragePlan, load_coverage_plan
from sparsemfd.synth import SyntheticScenario, load_scenario
from sparsemfd.tableio import write_json, write_table
from sparsemfd.variogram import VariogramModel

# --- golden bytes -------------------------------------------------------------

DEFAULT_SCENARIO_TEXT = """\
{
  "cols": 10,
  "density_exponent": 1.3,
  "density_noise_ratio": null,
  "diurnal": [
    0.25,
    0.18,
    0.15,
    0.15,
    0.2,
    0.35,
    0.6,
    0.9,
    1.0,
    0.85,
    0.75,
    0.72,
    0.7,
    0.72,
    0.75,
    0.8,
    0.95,
    1.0,
    0.9,
    0.7,
    0.55,
    0.45,
    0.35,
    0.3
  ],
  "edge_lengths_km": [
    0.65,
    0.625,
    0.235
  ],
  "mean_densities": [
    45.0,
    30.0,
    18.0
  ],
  "mean_flows": [
    1000.0,
    400.0,
    150.0
  ],
  "noise_scale": 1.0,
  "rows": 10,
  "seed": 0,
  "variogram": {
    "kind": "exponential",
    "nugget": 25.0,
    "range_km": 1.0,
    "sill": 1600.0
  }
}
"""

# the fit diagnostics of the fixed model are not stored
FIXED_MODEL_CONFIG = ExperimentConfig(
    coverages=(0.5,), seeds=(1,), network_path="network.csv", sites_path="sites.csv",
    readings_path="readings.csv",
    variogram=VariogramSettings(
        kinds=("spherical",),
        fixed_model=VariogramModel(
            "spherical", 1.5, 100.0, 2.0, rss=3.0, degenerate=True, range_at_bound=True
        ),
    ),
)
FIXED_MODEL_CONFIG_TEXT = """\
{
  "band_samples": 50,
  "coverages": [
    0.5
  ],
  "estimators": [
    "uniform",
    "hierarchical",
    "variogram"
  ],
  "network_path": "network.csv",
  "readings_path": "readings.csv",
  "scenario": null,
  "seeds": [
    1
  ],
  "sites_path": "sites.csv",
  "uniform_mode": "exact",
  "variogram": {
    "fixed_model": {
      "kind": "spherical",
      "nugget": 1.5,
      "range_km": 2.0,
      "sill": 100.0
    },
    "kinds": [
      "spherical"
    ],
    "lag_bins": 15,
    "max_neighbors": 16,
    "min_length_coverage": 0.95,
    "min_neighbors": 3,
    "min_pairs": 5
  }
}
"""

# hierarchy keys are text, so "10" sorts before "2"
PLAN = CoveragePlan(0.25, 4, {2: 3, 10: 1}, ("d1", "d2", "d3", "d9"))
PLAN_TEXT = """\
{
  "fraction": 0.25,
  "per_hierarchy_counts": {
    "10": 1,
    "2": 3
  },
  "retained_detectors": [
    "d1",
    "d2",
    "d3",
    "d9"
  ],
  "seed": 4
}
"""


# the mean difference and alpha are not stored
TTEST = PairedTTestResult(2.5, 3, 0.0875, mean_difference=1.25, alpha=0.05, reject=False)
TTEST_TEXT = """\
{
  "degrees_of_freedom": 3,
  "p_value": 0.0875,
  "reject": false,
  "t_statistic": 2.5
}
"""


@pytest.mark.parametrize(
    "value, text",
    [
        (SyntheticScenario(), DEFAULT_SCENARIO_TEXT),
        (FIXED_MODEL_CONFIG, FIXED_MODEL_CONFIG_TEXT),
        (PLAN, PLAN_TEXT),
        (TTEST, TTEST_TEXT),
    ],
    ids=["default-scenario", "fixed-model-config", "plan", "t-test"],
)
def test_records_are_written_to_the_byte(tmp_path, value, text):
    path = tmp_path / "record.json"
    assert write_json(path, value) == path
    assert path.read_text() == text


# --- malformed input ----------------------------------------------------------

CONFIG = {"coverages": [0.5], "seeds": [0]}
MODEL = {"kind": "exponential", "nugget": 1, "sill": 100}
PLAN_PAYLOAD = {
    "fraction": 1.0, "seed": 0, "per_hierarchy_counts": {"1": 1},
    "retained_detectors": ["d0"],
}

# (record, payload, the record the error names)
MALFORMED = [
    pytest.param(
        "config", {**CONFIG, "scenario": {"variogram": {**MODEL, "range": 1}}},
        "variogram model", id="model-with-unknown-key",
    ),
    pytest.param(
        "config", {**CONFIG, "scenario": {}, "variogram": {"fixed_model": MODEL}},
        "variogram model", id="fixed-model-without-range",
    ),
    pytest.param("config", [1, 2], "experiment config", id="config-not-an-object"),
    pytest.param(
        "config", {**CONFIG, "scenario": {"mean_flows": 5}}, "scenario",
        id="mean-flows-not-a-list",
    ),
    pytest.param(
        "config", {**CONFIG, "scenario": {}, "variogram": {"kinds": 5}},
        "variogram settings", id="kinds-not-a-list",
    ),
    pytest.param(
        "plan", {**PLAN_PAYLOAD, "per_hierarchy_counts": [1]}, "coverage plan",
        id="counts-not-an-object",
    ),
    pytest.param("scenario", {"variogram": MODEL}, "variogram model", id="model-without-range"),
    pytest.param(
        "plan", {**PLAN_PAYLOAD, "retained": ["d0"]}, "coverage plan", id="plan-with-unknown-key",
    ),
    # scalars of the wrong type
    pytest.param("scenario", {"rows": "5"}, "scenario", id="rows-as-text"),
    pytest.param("scenario", {"seed": 1.5}, "scenario", id="seed-as-float"),
    pytest.param(
        "config", {**CONFIG, "scenario": {}, "variogram": {"lag_bins": 2.5}},
        "variogram settings", id="lag-bins-as-float",
    ),
    # lists of the wrong type, or not lists at all
    pytest.param(
        "config", {**CONFIG, "seeds": [1.5], "scenario": {}}, "experiment config",
        id="seed-list-with-a-float",
    ),
    pytest.param(
        "config", {**CONFIG, "estimators": "uniform", "scenario": {}}, "experiment config",
        id="estimators-as-text",
    ),
]
LOADERS = {
    "config": load_experiment_config, "scenario": load_scenario, "plan": load_coverage_plan,
}
COMMANDS = {
    "config": ("experiment", "--config"), "scenario": ("synth", "--scenario"),
    "plan": ("scale", "--plan"),
}


def write_payload(tmp_path, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("kind, payload, what", MALFORMED)
def test_malformed_records_raise_validation_error(tmp_path, kind, payload, what):
    with pytest.raises(ValidationError, match=f"^malformed {what}: "):
        LOADERS[kind](write_payload(tmp_path, payload))


def one_detector_tables(tmp_path):
    """Network, sites and readings of one equipped link."""
    paths = [tmp_path / name for name in ("network.csv", "sites.csv", "readings.csv")]
    write_table(paths[0], NETWORK_COLUMNS, [("L0", "a", "b", 1.0, 1)])
    write_table(paths[1], ("detector_id", "link_id"), [("d0", "L0")])
    write_table(paths[2], READINGS_HEADER, [("d0", 0, 100.0, 10.0, 10.0)])
    return [str(p) for p in paths]


@pytest.mark.parametrize("kind, payload, what", MALFORMED)
def test_malformed_records_exit_2_without_a_traceback(tmp_path, kind, payload, what):
    args = [*COMMANDS[kind], str(write_payload(tmp_path, payload))]
    if kind == "plan":
        args += one_detector_tables(tmp_path)
    result = CliRunner().invoke(main, ["--output-dir", str(tmp_path / "out"), *args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: malformed {what}: " in result.output
    assert "Traceback" not in result.output


def test_a_null_nested_record_takes_its_default():
    config = ExperimentConfig.from_dict(
        {**CONFIG, "scenario": {"variogram": None}, "variogram": None}
    )
    assert config.variogram == VariogramSettings()
    assert config.scenario == SyntheticScenario()
    assert VariogramSettings.from_dict({"fixed_model": None}) == VariogramSettings()


def test_a_record_keeps_the_text_of_its_own_validation_error():
    with pytest.raises(ValidationError, match="^lag_bins and min_pairs must be at least 1"):
        ExperimentConfig.from_dict({**CONFIG, "scenario": {}, "variogram": {"lag_bins": 0}})
    with pytest.raises(ValidationError, match="^range must be positive"):
        SyntheticScenario.from_dict({"variogram": {**MODEL, "range_km": -1}})


@pytest.mark.parametrize(
    "cls, payload, text",
    [
        (SyntheticScenario, {"seed": True}, "'seed' must be int, got True"),
        (SyntheticScenario, {"rows": [5]}, "'rows' must be int, got [5]"),
        (SyntheticScenario, {"cols": None}, "'cols' must be int, got None"),
        (SyntheticScenario, {"noise_scale": False}, "'noise_scale' must be float, got False"),
        (SyntheticScenario, {"density_noise_ratio": "0.5"},
         "'density_noise_ratio' must be float or null, got '0.5'"),
        (VariogramModel, {**MODEL, "kind": 1, "range_km": 1}, "'kind' must be str, got 1"),
        (VariogramModel, {**MODEL, "degenerate": 1}, "'degenerate' must be bool, got 1"),
        (ExperimentConfig, {**CONFIG, "scenario": {}, "network_path": 3},
         "'network_path' must be str or null, got 3"),
        (ExperimentConfig, {**CONFIG, "seeds": [0, 1.5], "scenario": {}},
         "'seeds' items must be int, got 1.5"),
        (ExperimentConfig, {**CONFIG, "seeds": [True], "scenario": {}},
         "'seeds' items must be int, got True"),
        (ExperimentConfig, {**CONFIG, "coverages": [False], "scenario": {}},
         "'coverages' items must be float, got False"),
        (ExperimentConfig, {**CONFIG, "estimators": "uniform", "scenario": {}},
         "'estimators' must be a list, got 'uniform'"),
        (ExperimentConfig, {**CONFIG, "estimators": ["uniform", 2], "scenario": {}},
         "'estimators' items must be str, got 2"),
        (ExperimentConfig, {**CONFIG, "seeds": 0, "scenario": {}},
         "'seeds' must be a list, got 0"),
    ],
)
def test_a_scalar_must_have_the_type_of_its_field(cls, payload, text):
    with pytest.raises(ValidationError) as err:
        cls.from_dict(payload)
    assert str(err.value).endswith(text)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "1"])
def test_a_config_built_in_python_rejects_a_seed_that_is_not_an_int(seed):
    with pytest.raises(ValidationError, match=r"^seeds must be integers, got "):
        ExperimentConfig(coverages=(0.5,), seeds=(0, seed), scenario=SyntheticScenario(rows=4, cols=4))


def test_a_config_built_in_python_keeps_integer_seeds():
    config = ExperimentConfig(
        coverages=(0.5,), seeds=(np.int64(3), 1), scenario=SyntheticScenario(rows=4, cols=4)
    )
    assert config.seeds == (3, 1)
    assert all(type(seed) is int for seed in config.seeds)


def test_numbers_and_nulls_that_fit_their_fields_are_kept():
    scenario = SyntheticScenario.from_dict(
        {"noise_scale": 2, "density_noise_ratio": None, "rows": 4, "seed": 3}
    )
    assert (scenario.noise_scale, scenario.density_noise_ratio, scenario.rows) == (2, None, 4)
    model = VariogramModel.from_dict({**MODEL, "range_km": 2.5})
    assert (model.nugget, model.range_km) == (1, 2.5)
    config = ExperimentConfig.from_dict(
        {"coverages": [1, 0.5], "seeds": [3, 1], "estimators": ["uniform"], "scenario": {}}
    )
    assert (config.coverages, config.seeds, config.estimators) == ((1, 0.5), (3, 1), ("uniform",))


def test_a_plan_converts_its_fraction_and_seed(tmp_path):
    payload = {**PLAN_PAYLOAD, "fraction": 1, "seed": "0"}
    plan = load_coverage_plan(write_payload(tmp_path, payload))
    assert (type(plan.fraction), plan.seed) == (float, 0)
    with pytest.raises(ValidationError, match="^malformed coverage plan: "):
        load_coverage_plan(write_payload(tmp_path, {**PLAN_PAYLOAD, "fraction": "most"}))
