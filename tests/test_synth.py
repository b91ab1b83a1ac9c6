"""Synthetic network generation and correlated ground truth."""

import numpy as np
import pytest

from sparsemfd.errors import GenerationError, ValidationError
from sparsemfd.network import DetectorSite, site_distance_matrix
from sparsemfd.sensing import aggregate_to_links
from sparsemfd.synth import (
    SyntheticScenario,
    corridor_network,
    covariance_factor,
    generate_scenario,
    grid_network,
    load_scenario,
    simulate_correlated_field,
)
from sparsemfd.tableio import write_json
from sparsemfd.variogram import (
    VariogramModel,
    empirical_variogram,
    fit_variogram,
    gamma,
)


# --- network builders ---------------------------------------------------------


def test_grid_network_shape_and_classes():
    net = grid_network(10, 10)
    assert len(net.links) == 180
    counts = {h: len(net.links_of_hierarchy(h)) for h in sorted(net.hierarchy_set)}
    assert counts == {1: 36, 2: 72, 3: 72}
    lengths = net.length_by_hierarchy()
    assert lengths[1] == pytest.approx(23.4, rel=1e-9)
    assert lengths[2] == pytest.approx(45.0, rel=1e-9)
    assert lengths[3] == pytest.approx(16.92, rel=1e-9)


def test_grid_network_is_connected():
    net = grid_network(4, 5)
    sites = tuple(DetectorSite("d" + l.id, l.id) for l in net.links)
    d = site_distance_matrix(net, sites)
    assert np.isfinite(d).all()


def test_corridor_network_is_a_chain():
    net = corridor_network(5, edge_km=0.5)
    assert len(net.links) == 5
    assert net.total_length_km == pytest.approx(2.5, rel=1e-12)
    assert all(l.hierarchy == 1 for l in net.links)


def test_grid_rejects_degenerate_size():
    with pytest.raises(ValidationError):
        grid_network(1, 5)


# --- scenario parameters ------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(ValidationError):
        SyntheticScenario(mean_flows=(100.0, 400.0, 150.0))  # not decreasing
    with pytest.raises(ValidationError):
        SyntheticScenario(mean_densities=(45.0, 30.0))  # needs three classes
    with pytest.raises(ValidationError):
        SyntheticScenario(diurnal=(1.0, 0.0))
    with pytest.raises(ValidationError):
        SyntheticScenario(noise_scale=-1.0)
    with pytest.raises(ValidationError):
        SyntheticScenario(density_exponent=0.0)


def test_scenario_json_round_trip(tmp_path):
    scenario = SyntheticScenario(rows=5, cols=6, seed=11, noise_scale=0.5)
    path = tmp_path / "scenario.json"
    write_json(path, scenario)
    assert load_scenario(path) == scenario


def test_scenario_from_dict_rejects_unknown_fields():
    with pytest.raises(ValidationError):
        SyntheticScenario.from_dict({"rows": 5, "wheels": 4})


# --- correlated residual fields -----------------------------------------------


def test_covariance_factor_reproduces_the_covariance():
    pos = np.linspace(0.0, 5.0, 12)
    d = np.abs(pos[:, None] - pos[None, :])
    model = VariogramModel(kind="exponential", nugget=1.0, sill=4.0, range_km=2.0)
    factor = covariance_factor(d, model)
    total = model.sill + model.nugget
    want = total - gamma(model, d)
    np.fill_diagonal(want, total)
    assert factor @ factor.T == pytest.approx(want, abs=1e-6)


def reference_covariance_factor(distances, model, jitter=1e-8):
    """The factor of a covariance built with an identity matrix for the jitter."""
    total = model.sill + model.nugget
    cov = total - gamma(model, distances)
    np.fill_diagonal(cov, total)
    return np.linalg.cholesky(cov + jitter * total * np.eye(distances.shape[0]))


@pytest.mark.parametrize("size", [10, 16, 30])
def test_covariance_factor_keeps_its_bits_on_the_default_scenarios(size):
    scenario = SyntheticScenario(rows=size, cols=size)
    net = grid_network(size, size)
    sites = tuple(DetectorSite("d" + l.id, l.id, 0.5) for l in net.links)
    d = site_distance_matrix(net, sites)
    expected = reference_covariance_factor(d, scenario.variogram).tobytes()
    assert covariance_factor(d, scenario.variogram).tobytes() == expected


def test_covariance_factor_rejects_indefinite_inputs():
    # the spherical shape is not positive definite over this grid's network
    # metric once the range grows past about a kilometre
    net = grid_network(10, 10)
    sites = tuple(DetectorSite("d" + l.id, l.id) for l in net.links)
    d = site_distance_matrix(net, sites)
    bad = VariogramModel(kind="spherical", nugget=25.0, sill=1600.0, range_km=1.5)
    with pytest.raises(GenerationError):
        covariance_factor(d, bad)


def test_simulated_field_is_reproducible():
    pos = np.linspace(0.0, 8.0, 30)
    d = np.abs(pos[:, None] - pos[None, :])
    model = VariogramModel(kind="exponential", nugget=0.5, sill=2.0, range_km=2.0)
    a = simulate_correlated_field(d, model, np.random.default_rng(5))
    b = simulate_correlated_field(d, model, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_simulated_field_variance_tracks_the_total_sill():
    pos = np.linspace(0.0, 400.0, 500)
    d = np.abs(pos[:, None] - pos[None, :])
    model = VariogramModel(kind="exponential", nugget=1.0, sill=9.0, range_km=2.0)
    field = simulate_correlated_field(d, model, np.random.default_rng(0))
    # sites are many ranges apart on average, so the sample variance should
    # land near sill plus nugget
    assert float(np.var(field)) == pytest.approx(10.0, rel=0.3)


# --- generated scenarios ------------------------------------------------------


def test_generation_is_deterministic():
    scenario = SyntheticScenario(rows=5, cols=5, diurnal=(0.5, 1.0))
    a = generate_scenario(scenario)
    b = generate_scenario(scenario)
    for column in ("detector_ids", "bin_index", "flow", "density", "speed"):
        first, second = getattr(a.readings, column), getattr(b.readings, column)
        assert np.asarray(first).tobytes() == np.asarray(second).tobytes()
    assert a.clamped_count == b.clamped_count


def test_noiseless_generation_is_exact_class_means():
    scenario = SyntheticScenario(
        rows=5, cols=5, diurnal=(0.5, 1.0), noise_scale=0.0
    )
    data = generate_scenario(scenario)
    assert data.clamped_count == 0
    # bin by bin, and one reading per link in link order within a bin
    n = len(data.network.links)
    assert data.readings.detector_ids == tuple(s.detector_id for s in data.sites) * 2
    assert data.readings.bin_index.tolist() == [0] * n + [1] * n
    observations = aggregate_to_links(data.readings, data.sites)
    assert len(observations) == 2 * n
    for obs in observations:
        link = data.network.link(obs.link_id)
        factor = scenario.diurnal[obs.bin_index]
        assert obs.flow_veh_per_h == scenario.mean_flows[link.hierarchy - 1] * factor
        assert obs.density_veh_per_km == (
            scenario.mean_densities[link.hierarchy - 1]
            * factor**scenario.density_exponent
        )


def test_generated_values_are_clamped_nonnegative():
    scenario = SyntheticScenario(rows=5, cols=5, diurnal=(0.15,), noise_scale=4.0)
    data = generate_scenario(scenario)
    assert data.clamped_count > 0
    assert (data.readings.flow >= 0.0).all()
    assert (data.readings.density >= 0.0).all()


def reference_generate(scenario):
    """The per-bin, per-link loop that generated readings before they were
    built as arrays: flow, density and speed lists in bin-major link order,
    and the clamped count."""
    network = grid_network(scenario.rows, scenario.cols, scenario.edge_lengths_km)
    sites = tuple(DetectorSite("d" + link.id, link.id, 0.5) for link in network.links)
    n = len(network.links)
    class_flow = np.array([scenario.mean_flows[l.hierarchy - 1] for l in network.links])
    class_density = np.array([scenario.mean_densities[l.hierarchy - 1] for l in network.links])
    density_ratio = (
        scenario.density_noise_ratio
        if scenario.density_noise_ratio is not None
        else float(np.mean(scenario.mean_densities) / np.mean(scenario.mean_flows))
    )
    factor = None
    if scenario.noise_scale > 0:
        factor = covariance_factor(site_distance_matrix(network, sites), scenario.variogram)
    rng = np.random.default_rng(scenario.seed)
    flows, densities, speeds = [], [], []
    clamped = 0
    for diurnal in scenario.diurnal:
        if factor is not None:
            flow = class_flow * diurnal + scenario.noise_scale * (
                factor @ rng.standard_normal(n)
            )
            density = class_density * diurnal**scenario.density_exponent + (
                scenario.noise_scale * density_ratio * (factor @ rng.standard_normal(n))
            )
        else:
            flow = class_flow * diurnal
            density = class_density * diurnal**scenario.density_exponent
        clamped += int((flow < 0).sum() + (density < 0).sum())
        for q, k in zip(np.maximum(flow, 0.0), np.maximum(density, 0.0)):
            flows.append(float(q))
            densities.append(float(k))
            speeds.append(float(q) / float(k) if k > 0 else None)
    return flows, densities, speeds, clamped


@pytest.mark.parametrize(
    "scenario",
    [
        SyntheticScenario(rows=5, cols=4, diurnal=(0.5, 1.0, 0.8), seed=3),
        SyntheticScenario(rows=4, cols=4, diurnal=(0.5, 1.0), noise_scale=0.0),
        SyntheticScenario(
            rows=4, cols=5, diurnal=(1, 2), mean_flows=(1000, 400, 150),
            mean_densities=(45, 30, 18), density_exponent=2,
        ),
        SyntheticScenario(rows=5, cols=5, diurnal=(0.15, 0.3), noise_scale=4.0,
                          density_noise_ratio=0.2),
    ],
    ids=["noisy", "noiseless", "integers", "clamped"],
)
def test_generated_readings_match_the_per_link_loop(scenario):
    flows, densities, speeds, clamped = reference_generate(scenario)
    readings = generate_scenario(scenario).readings
    assert readings.flow.tobytes() == np.array(flows).tobytes()
    assert readings.density.tobytes() == np.array(densities).tobytes()
    expected_speed = np.array([np.nan if v is None else v for v in speeds])
    assert readings.speed.tobytes() == expected_speed.tobytes()
    assert generate_scenario(scenario).clamped_count == clamped


def test_default_scenario_bins():
    scenario = SyntheticScenario()
    assert scenario.n_bins == 24
    assert max(scenario.diurnal) == 1.0


# --- generator consistency ----------------------------------------------------


def test_large_sample_variogram_round_trip():
    """A long transect generated from a known model refits close to it."""
    model = VariogramModel(kind="spherical", nugget=0.0, sill=400.0, range_km=2.0)
    n, edge = 2500, 0.05
    pos = (np.arange(n) + 0.5) * edge
    d = np.abs(pos[:, None] - pos[None, :])
    values = simulate_correlated_field(d, model, np.random.default_rng(0))
    fit = fit_variogram(
        empirical_variogram(values, d, np.linspace(0.1, 4.0, 21))
    )
    assert fit.kind == "spherical"
    assert fit.nugget <= 0.05 * 400.0
    assert fit.sill == pytest.approx(400.0, rel=0.20)
    assert fit.range_km == pytest.approx(2.0, rel=0.20)


def test_empirical_variograms_approach_the_generating_model():
    """More sites mean a smaller gap between the binned semivariances and
    the model that generated them; the refit tightens along the way."""
    model = VariogramModel(kind="spherical", nugget=0.0, sill=400.0, range_km=2.0)
    edges = np.linspace(0.1, 5.0, 16)
    gap_to_truth = []
    gap_to_fit = []
    for n in (50, 200, 800):
        pos = (np.arange(n) + 0.5) * 0.05
        d = np.abs(pos[:, None] - pos[None, :])
        factor = covariance_factor(d, model)
        truth_gaps = []
        fit_gaps = []
        for seed in range(11):
            values = factor @ np.random.default_rng(seed).standard_normal(n)
            emp = empirical_variogram(values, d, edges)
            pop = emp.populated
            centers = emp.centers[pop]
            truth_gaps.append(
                float(np.mean((gamma(model, centers) - emp.gamma_hat[pop]) ** 2))
            )
            fit = fit_variogram(emp)
            fit_gaps.append(
                float(np.mean((gamma(fit, centers) - emp.gamma_hat[pop]) ** 2))
            )
        gap_to_truth.append(float(np.median(truth_gaps)))
        gap_to_fit.append(float(np.median(fit_gaps)))
    assert gap_to_truth[0] > gap_to_truth[1] > gap_to_truth[2]
    assert gap_to_fit[0] > gap_to_fit[1] > gap_to_fit[2]
