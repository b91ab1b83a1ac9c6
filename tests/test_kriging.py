"""Ordinary kriging solver and whole-network imputation.

The solver is verified against an independent oracle that assembles the
full unbiasedness-constrained system from scratch and solves it with
least squares instead of the production direct solve.
"""

import gc
import importlib
import pkgutil
import re
import struct
import warnings
import weakref

import numpy as np
import pytest

import sparsemfd
from sparsemfd import experiment, kriging, variogram
from sparsemfd.errors import (
    EstimationError,
    IncompleteFieldError,
    InsufficientDataError,
    InsufficientNeighborsError,
    NotEstimableError,
    NumericError,
    SingularSystemError,
    ValidationError,
)
from sparsemfd.kriging import (
    PROVENANCE_FAILED,
    PROVENANCE_IMPUTED,
    PROVENANCE_OBSERVED,
    ImputationDistances,
    ImputedField,
    failed_length_fraction,
    impute_network,
    impute_rows,
    known_sites,
    network_mean_from_field,
    solve_kriging,
)
from sparsemfd.experiment import (
    ExperimentConfig,
    VariogramSettings,
    estimate_bins,
    field_columns,
    run_experiment,
)
from sparsemfd import network as network_module
from sparsemfd.network import (
    NETWORK_COLUMNS,
    DetectorSite,
    Link,
    Network,
    cross_distance_matrix,
    midpoint_sites,
    site_distance_matrix,
)
from sparsemfd.scaling import (
    HierarchyPartition,
    UniformPartition,
    hierarchical_estimate,
    uniform_estimate,
)
from sparsemfd.sensing import (
    LinkObservation,
    load_readings,
    reading_columns,
    sample_coverage,
    write_readings,
)
from sparsemfd.synth import (
    DEFAULT_VARIOGRAM,
    SyntheticScenario,
    generate_scenario,
    grid_network,
)
from sparsemfd.tableio import format_column, format_value, write_table
from sparsemfd.variogram import (
    VariogramModel,
    distance_bin_edges,
    empirical_variogram,
    gamma,
)
from conftest import corridor_network, make_readings, reading_rows, traced_peak


def spherical_gamma(nugget, sill, range_km, h):
    """Reference semivariance, written out independently of the package."""
    h = np.asarray(h, dtype=float)
    r = np.minimum(h, range_km) / range_km
    return nugget + sill * (1.5 * r - 0.5 * r**3)


def oracle_weights(model, target_dists, pair_dists):
    """Assemble and solve the constrained system directly with lstsq."""
    m = len(target_dists)
    a = np.zeros((m + 1, m + 1))
    for i in range(m):
        for j in range(m):
            if i != j:
                a[i, j] = spherical_gamma(
                    model.nugget, model.sill, model.range_km, pair_dists[i][j]
                )
        a[i, m] = 1.0
        a[m, i] = 1.0
    b = np.zeros(m + 1)
    for i in range(m):
        d = target_dists[i]
        b[i] = 0.0 if d <= 1e-12 else spherical_gamma(
            model.nugget, model.sill, model.range_km, d
        )
    b[m] = 1.0
    solution, *_ = np.linalg.lstsq(a, b, rcond=None)
    return solution[:m], solution[m]


def _line_dists(positions, target):
    positions = np.asarray(positions, dtype=float)
    pair = np.abs(positions[:, None] - positions[None, :])
    return np.abs(positions - target), pair


MODEL = VariogramModel(kind="spherical", nugget=0.0, sill=2.0, range_km=10.0)


# --- solver worked examples ---------------------------------------------------


def test_single_neighbor_takes_its_value():
    target, pair = _line_dists([1.0], 0.0)
    sol = solve_kriging(MODEL, [5.0], target, pair, min_neighbors=1)
    assert sol.weights.tolist() == [1.0]
    assert sol.prediction == 5.0
    assert sol.neighbor_ids == (0,)


def test_symmetric_pair_splits_evenly():
    target, pair = _line_dists([-1.0, 1.0], 0.0)
    sol = solve_kriging(MODEL, [4.0, 8.0], target, pair, min_neighbors=2)
    assert sol.weights == pytest.approx([0.5, 0.5], abs=1e-12)
    assert sol.prediction == pytest.approx(6.0, abs=1e-12)


def test_three_neighbor_instance_matches_oracle():
    model = VariogramModel(kind="spherical", nugget=0.0, sill=1.0, range_km=5.0)
    positions = [1.0, 2.0, 3.0]
    target, pair = _line_dists(positions, 0.0)
    sol = solve_kriging(model, [10.0, 20.0, 30.0], target, pair)
    w, mu = oracle_weights(model, target, pair)
    assert sol.weights == pytest.approx(w, abs=1e-9)
    assert sol.lagrange == pytest.approx(mu, abs=1e-9)
    assert float(np.sum(sol.weights)) == pytest.approx(1.0, abs=1e-10)


def test_weights_sum_to_one_for_random_configurations():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        model = VariogramModel(
            kind="spherical",
            nugget=float(rng.uniform(0.0, 2.0)),
            sill=float(rng.uniform(1.0, 10.0)),
            range_km=float(rng.uniform(5.0, 20.0)),
        )
        positions = rng.uniform(-4.0, 4.0, size=n)
        target, pair = _line_dists(positions, 0.0)
        sol = solve_kriging(model, rng.normal(size=n), target, pair)
        assert abs(float(np.sum(sol.weights)) - 1.0) <= 1e-10


def test_exact_at_known_site_without_nugget():
    model = VariogramModel(kind="spherical", nugget=0.0, sill=3.0, range_km=8.0)
    positions = [0.0, 1.5, -2.0, 3.0]
    values = [42.0, 10.0, 20.0, 30.0]
    target, pair = _line_dists(positions, 0.0)  # coincides with the first site
    sol = solve_kriging(model, values, target, pair)
    assert sol.prediction == pytest.approx(42.0, abs=1e-8)
    assert sol.variance == pytest.approx(0.0, abs=1e-8)


def test_shift_and_scale_equivariance():
    rng = np.random.default_rng(3)
    values = rng.normal(50.0, 5.0, size=5)
    positions = rng.uniform(-3.0, 3.0, size=5)
    target, pair = _line_dists(positions, 0.5)
    base = solve_kriging(MODEL, values, target, pair)
    shifted = solve_kriging(MODEL, values + 100.0, target, pair)
    scaled = solve_kriging(MODEL, values * 3.0, target, pair)
    assert shifted.prediction == pytest.approx(base.prediction + 100.0, rel=1e-9)
    assert scaled.prediction == pytest.approx(base.prediction * 3.0, rel=1e-9)
    # weights do not depend on the values at all
    assert shifted.weights == pytest.approx(base.weights, abs=1e-12)


def test_coincident_neighbors_are_merged():
    # two sites at the same spot with different values act as one site
    # carrying their running mean
    positions = np.array([1.0, 1.0, -2.0])
    target = np.abs(positions - 0.0)
    pair = np.abs(positions[:, None] - positions[None, :])
    sol = solve_kriging(MODEL, [10.0, 30.0, 6.0], target, pair, min_neighbors=2)
    assert len(sol.weights) == 2
    merged = solve_kriging(MODEL, [20.0, 6.0], np.array([1.0, 2.0]),
                           np.array([[0.0, 3.0], [3.0, 0.0]]), min_neighbors=2)
    assert sol.prediction == pytest.approx(merged.prediction, rel=1e-12)


def test_out_of_range_sites_are_not_neighbors():
    model = VariogramModel(kind="spherical", nugget=0.0, sill=1.0, range_km=2.0)
    positions = [0.5, 1.0, 1.5, 30.0]
    target, pair = _line_dists(positions, 0.0)
    sol = solve_kriging(model, [1.0, 2.0, 3.0, 999.0], target, pair)
    assert sol.neighbor_ids == (0, 1, 2)


def test_coincident_sites_count_as_one_location():
    # two sites at one spot and one out of range: a single location is in
    # range, too few for two neighbours
    positions = np.array([1.0, 1.0, 30.0])
    target = np.abs(positions)
    pair = np.abs(positions[:, None] - positions[None, :])
    with pytest.raises(InsufficientNeighborsError) as err:
        solve_kriging(MODEL, [10.0, 30.0, 6.0], target, pair, min_neighbors=2)
    assert err.value.found == 1
    assert err.value.required == 2


def test_too_few_neighbors_in_range():
    model = VariogramModel(kind="spherical", nugget=0.0, sill=1.0, range_km=1.0)
    positions = [0.5, 5.0, 9.0]
    target, pair = _line_dists(positions, 0.0)
    with pytest.raises(InsufficientNeighborsError) as err:
        solve_kriging(model, [1.0, 2.0, 3.0], target, pair)
    assert err.value.found == 1
    assert err.value.required == 3


def test_neighbor_cap_keeps_the_nearest():
    rng = np.random.default_rng(9)
    positions = np.linspace(0.5, 5.0, 12)
    target, pair = _line_dists(positions, 0.0)
    sol = solve_kriging(MODEL, rng.normal(size=12), target, pair, max_neighbors=4)
    assert sol.neighbor_ids == (0, 1, 2, 3)


def test_singular_system_reported():
    # a subnormal sill underflows every semivariance to exactly zero while
    # the sites stay distinct, leaving identical rows in the system
    model = VariogramModel(kind="exponential", nugget=0.0, sill=1e-315, range_km=1.0)
    target, pair = _line_dists([2e-12, 4e-12, 6e-12], 0.0)
    with pytest.raises(SingularSystemError) as err:
        solve_kriging(model, [1.0, 2.0, 3.0], target, pair)
    assert err.value.condition is None or err.value.condition > 1e12


def test_solver_input_validation():
    target, pair = _line_dists([1.0, 2.0], 0.0)
    with pytest.raises(ValidationError):
        solve_kriging(MODEL, [1.0, 2.0, 3.0], target, pair)
    with pytest.raises(ValidationError):
        solve_kriging(MODEL, [1.0, 2.0], target, pair, ids=("a",))
    with pytest.raises(ValueError):
        solve_kriging(MODEL, [1.0, 2.0], target, pair, min_neighbors=0)
    with pytest.raises(ValueError):
        solve_kriging(MODEL, [1.0, 2.0], target, pair, min_neighbors=3, max_neighbors=2)


# --- whole-network imputation -------------------------------------------------


def _corridor_setup(n_links=20, equip_every=2):
    net = corridor_network(n_links, edge_km=1.0)
    sites = midpoint_sites(net)
    truth = {l.id: 100.0 + 10.0 * (i + 0.5) for i, l in enumerate(net.links)}
    obs = tuple(
        LinkObservation(l.id, 0, truth[l.id], 10.0)
        for i, l in enumerate(net.links)
        if i % equip_every == 0
    )
    return net, sites, truth, obs


def test_full_coverage_passes_observations_through():
    net, sites, truth, _ = _corridor_setup()
    obs = tuple(LinkObservation(l.id, 0, truth[l.id], 10.0) for l in net.links)
    model = VariogramModel(kind="spherical", nugget=0.0, sill=100.0, range_km=5.0)
    field = impute_network(net, obs, sites, model=model)
    assert field.failed_count == 0
    assert field.provenance.tolist() == [PROVENANCE_OBSERVED] * len(net.links)
    assert field.values.tolist() == [truth[l.id] for l in net.links]


def test_alternating_coverage_recovers_a_linear_profile():
    net, sites, truth, obs = _corridor_setup()
    model = VariogramModel(kind="spherical", nugget=0.0, sill=100.0, range_km=5.0)
    field = impute_network(net, obs, sites, model=model)
    assert field.failed_count == 0
    for i, link in enumerate(net.links):
        if i % 2 == 1:
            assert field.provenance[i] == PROVENANCE_IMPUTED
            if 2 <= i <= 17:  # interior links, away from the flat boundary
                assert field.values[i] == pytest.approx(
                    truth[link.id], rel=0.05
                )


def test_short_range_on_a_big_sparse_network_mostly_fails():
    # thousands of links, seven detectors, a one kilometre range: almost
    # nothing has three in-range neighbors
    net = grid_network(36, 35)
    picks = [net.links[j] for j in (0, 400, 800, 1200, 1600, 2000, 2400)]
    sites = tuple(DetectorSite("d" + l.id, l.id, 0.5) for l in picks)
    obs = tuple(LinkObservation(l.id, 0, 500.0, 30.0) for l in picks)
    model = VariogramModel(kind="exponential", nugget=10.0, sill=400.0, range_km=1.0)
    field = impute_network(net, obs, sites, model=model)
    assert failed_length_fraction(field, net) > 0.5
    with pytest.raises(IncompleteFieldError):
        network_mean_from_field(field, net)


def test_imputation_fits_a_model_when_none_is_given():
    rng = np.random.default_rng(17)
    net = corridor_network(40, edge_km=0.5)
    sites = midpoint_sites(net)
    obs = tuple(
        LinkObservation(l.id, 0, float(80.0 + rng.normal(0.0, 5.0)), 10.0)
        for i, l in enumerate(net.links)
        if i % 2 == 0
    )
    field = impute_network(net, obs, sites, lag_bins=8)
    assert field.model is not None
    assert field.model.rss is not None


def test_known_site_ids_narrow_the_detector_set():
    net, sites, truth, obs = _corridor_setup()
    model = VariogramModel(kind="spherical", nugget=0.0, sill=100.0, range_km=5.0)
    distances = ImputationDistances.build(net, sites)
    known = {"@" + o.link_id for o in obs}
    field = impute_network(
        net, obs, sites, distances=distances, model=model, known_site_ids=known
    )
    assert field.failed_count == 0
    with pytest.raises(InsufficientDataError):
        impute_network(
            net, obs, sites, distances=distances, model=model, known_site_ids=set()
        )


def reference_merge(pairs, values):
    """Coincident sites merged one site at a time, in site order.

    Each site joins the first group whose first site lies within 1e-12 of
    it, or starts a new group; a group keeps the running mean of its
    values. Returns the first sites, the means and the group sizes.
    """
    firsts, means, sizes = [], [], []
    for index in range(len(pairs)):
        for pos, first in enumerate(firsts):
            if pairs[index, first] <= 1e-12:
                sizes[pos] += 1
                means[pos] += (values[index] - means[pos]) / sizes[pos]
                break
        else:
            firsts.append(index)
            means.append(float(values[index]))
            sizes.append(1)
    return np.array(firsts), np.array(means), np.array(sizes)


def reference_solve(model, values, target, pairs, max_neighbors, min_neighbors):
    """One target at a time: merge coincident sites, select, assemble, solve.

    Returns ``(prediction, neighbor_count, merged)``, or None with too few
    distinct locations in range; ``merged`` tells whether a neighbour
    stands for more than one site. Raises ``SingularSystemError`` like the
    package.
    """
    firsts, means, sizes = reference_merge(pairs, values)
    target = target[firsts]
    in_range = np.flatnonzero(np.isfinite(target) & (target <= model.range_km))
    if in_range.size < min_neighbors:
        return None
    selected = in_range[np.argsort(target[in_range], kind="stable")][:max_neighbors]
    kept = firsts[selected]
    m = len(kept)
    system = np.zeros((m + 1, m + 1))
    block = gamma(model, pairs[np.ix_(kept, kept)])
    np.fill_diagonal(block, 0.0)
    system[:m, :m] = block
    system[:m, m] = 1.0
    system[m, :m] = 1.0
    rhs = np.ones(m + 1)
    target_kept = target[selected]
    rhs[:m] = np.where(target_kept <= 1e-12, 0.0, gamma(model, target_kept))
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError(condition=float(np.linalg.cond(system)))
    if not np.all(np.isfinite(solution)):
        raise SingularSystemError(condition=float(np.linalg.cond(system)))
    return float(solution[:m] @ means[selected]), m, bool((sizes[selected] > 1).any())


def reference_impute(network, observations, sites, model, max_neighbors=16, min_neighbors=3):
    """Krige every unobserved link with its own solve, in link order.

    Returns ``(values, provenance, failed_count, cases)``, the first two as
    lists in link order; ``cases`` holds the neighbour count of every solved
    link and ``"merged"`` when a neighbour of a link merged coincident sites.
    """
    observed = {o.link_id: float(o.flow_veh_per_h) for o in observations}
    distances = ImputationDistances.build(network, sites)
    known = [i for i, site in enumerate(sites) if site.link_id in observed]
    known_values = np.array([observed[sites[i].link_id] for i in known])
    known_pairs = distances.between_sites[np.ix_(known, known)]
    values, provenance, failed, cases = [], [], 0, set()
    for column, link in enumerate(network.links):
        if link.id in observed:
            values.append(observed[link.id])
            provenance.append(PROVENANCE_OBSERVED)
            continue
        solved = reference_solve(
            model, known_values, distances.site_to_target[known, column],
            known_pairs, max_neighbors, min_neighbors,
        )
        if solved is None:
            values.append(float("nan"))
            provenance.append(PROVENANCE_FAILED)
            failed += 1
            continue
        value, count, merged = solved
        values.append(value)
        provenance.append(PROVENANCE_IMPUTED)
        cases.add(count)
        if merged:
            cases.add("merged")
    return values, provenance, failed, cases


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _two_component_layout(rng):
    """A 6x6 grid beside a detached 8-link corridor.

    About half the grid links are observed but only the corridor's first
    link, so the corridor's targets lack neighbours. Besides a midpoint
    detector per link, two detectors sit on the shared node of two grid
    links, at zero distance from each other.
    """
    grid = grid_network(6, 6)
    spur = [Link(f"s{i}", f"x{i}", f"x{i + 1}", 0.4, 2) for i in range(8)]
    net = Network(grid.links + tuple(spur))
    first = grid.links[int(rng.integers(0, 4))]
    second = next(l for l in grid.links if l.from_node == first.to_node)
    sites = midpoint_sites(net) + (
        DetectorSite("end", first.id, 1.0),
        DetectorSite("start", second.id, 0.0),
    )
    equipped = {first.id, second.id, "s0"} | {
        l.id for l in grid.links if rng.random() < 0.5
    }
    obs = tuple(
        LinkObservation(l.id, 0, float(rng.normal(500.0, 80.0)), 20.0)
        for l in net.links
        if l.id in equipped
    )
    return net, sites, obs


@pytest.mark.parametrize(
    "model, max_neighbors, min_neighbors",
    [
        (VariogramModel(kind="exponential", nugget=50.0, sill=4000.0, range_km=1.2), 5, 3),
        (VariogramModel(kind="spherical", nugget=0.0, sill=900.0, range_km=1.5), 16, 4),
        (VariogramModel(kind="exponential", nugget=10.0, sill=2500.0, range_km=2.5), 24, 2),
    ],
)
def test_batched_imputation_matches_the_per_link_reference(model, max_neighbors, min_neighbors):
    cases = set()
    for seed in range(4):
        net, sites, obs = _two_component_layout(np.random.default_rng(seed))
        distances = ImputationDistances.build(net, sites)
        assert np.isinf(distances.site_to_target).any()
        field = impute_network(
            net, obs, sites, distances=distances, model=model,
            max_neighbors=max_neighbors, min_neighbors=min_neighbors,
        )
        values, provenance, failed, seen = reference_impute(
            net, obs, sites, model, max_neighbors, min_neighbors
        )
        assert _bits(field.values.tolist()) == _bits(values)
        assert field.provenance.tolist() == provenance
        assert field.failed_count == failed
        cases |= seen | ({"failed"} if failed else set())
    # the layouts reach every path: merged neighbours, short columns, and
    # neighbour counts both below and at the cap
    assert {"merged", "failed", max_neighbors} <= cases
    assert any(isinstance(c, int) and c < max_neighbors for c in cases)


def test_imputation_reports_the_first_singular_link():
    # two detached corridors whose sites are picometres apart: a subnormal
    # sill underflows every semivariance, so every system is singular; the
    # longer corridor comes first in link order but has more neighbours
    model = VariogramModel(kind="exponential", nugget=0.0, sill=1e-315, range_km=1.0)
    links = [Link(f"a{i}", f"a{i}", f"a{i + 1}", 2e-12, 1) for i in range(12)]
    links += [Link(f"b{i}", f"b{i}", f"b{i + 1}", 2e-12, 1) for i in range(8)]
    net = Network(links)
    sites = midpoint_sites(net)
    obs = tuple(
        LinkObservation(l.id, 0, float(i), 1.0)
        for i, l in enumerate(net.links)
        if i % 2 == 0
    )
    with pytest.raises(SingularSystemError) as err:
        impute_network(net, obs, sites, model=model)
    with pytest.raises(SingularSystemError) as reference:
        reference_impute(net, obs, sites, model)
    assert err.value.condition == reference.value.condition
    assert err.value.condition is None or err.value.condition > 1e12


def test_neighbor_limits_are_checked_once_a_link_is_kriged():
    net, sites, truth, obs = _corridor_setup()
    model = VariogramModel(kind="spherical", nugget=0.0, sill=100.0, range_km=5.0)
    with pytest.raises(ValueError):
        impute_network(net, obs, sites, model=model, min_neighbors=0)
    with pytest.raises(ValueError):
        impute_network(net, obs, sites, model=model, min_neighbors=4, max_neighbors=3)
    # with every link observed nothing is kriged and nothing is checked
    full = tuple(LinkObservation(l.id, 0, truth[l.id], 10.0) for l in net.links)
    field = impute_network(net, full, sites, model=model, min_neighbors=0)
    assert field.failed_count == 0


def test_impute_validates_observations():
    net, sites, truth, obs = _corridor_setup()
    model = VariogramModel(kind="spherical", nugget=0.0, sill=100.0, range_km=5.0)
    with pytest.raises(InsufficientDataError):
        impute_network(net, (), sites, model=model)
    doubled = obs + (obs[0],)
    with pytest.raises(ValidationError):
        impute_network(net, doubled, sites, model=model)
    mixed = obs + (LinkObservation(obs[0].link_id, 1, 1.0, 1.0),)
    with pytest.raises(ValidationError):
        impute_network(net, mixed, sites, model=model)
    with pytest.raises(ValueError):
        impute_network(net, obs, sites, model=model, variable="speed")


def test_imputation_distances_take_one_shortest_path_run(monkeypatch):
    net = grid_network(4, 5)
    # sites off the midpoints, two on one link, and a link without a site
    sites = tuple(
        DetectorSite(f"d{i}", link.id, (0.0, 0.3, 1.0)[i % 3])
        for i, link in enumerate(net.links[1:] + net.links[2:3])
    )
    kernel = network_module._shortest_paths
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(network_module, "_shortest_paths", counted)
    distances = ImputationDistances.build(net, sites)
    assert len(calls) == 1
    monkeypatch.undo()

    between = distances.between_sites
    expected = site_distance_matrix(net, sites)
    assert between.shape == expected.shape and between.tobytes() == expected.tobytes()
    assert np.array_equal(between, between.T)
    assert not np.diag(between).any()
    cross = cross_distance_matrix(net, sites, midpoint_sites(net))
    assert distances.site_to_target.shape == cross.shape
    assert distances.site_to_target.tobytes() == cross.tobytes()


def _default_grid_sites(net):
    """The synthetic scenario's layout: one detector at each link's midpoint."""
    return tuple(DetectorSite("d" + link.id, link.id, 0.5) for link in net.links)


def test_imputation_distances_peak_below_6_mib_on_the_16x16_grid():
    # the dense kernel peaked at 11.8 MiB; the 480 x 960 result is 3.5 MiB
    net = grid_network(16, 16)
    sites = _default_grid_sites(net)
    ImputationDistances.build(net, sites[:3])
    distances, peak = traced_peak(ImputationDistances.build, net, sites)
    assert distances.site_to_target.shape == (480, 480)
    assert peak <= 6 * 2**20


def test_imputation_distances_are_two_views_of_one_array():
    net = grid_network(4, 5)
    distances = ImputationDistances.build(net, _default_grid_sites(net))
    base = distances.between_sites.base
    assert base is not None and distances.site_to_target.base is base
    n = len(distances.site_ids)
    assert base.shape == (n, n + len(net.links))


def test_known_site_ids_must_name_detector_sites():
    net, sites, truth, obs = _corridor_setup()
    model = VariogramModel(kind="spherical", nugget=0.0, sill=100.0, range_km=5.0)
    distances = ImputationDistances.build(net, sites)
    with pytest.raises(ValidationError, match="known_site_ids: 'typo'$"):
        impute_network(
            net, obs, sites, distances=distances, model=model,
            known_site_ids={sites[0].detector_id, "typo"},
        )
    # at most ten unknown ids are named
    unknown = {f"x{i:02d}" for i in range(12)}
    with pytest.raises(ValidationError) as err:
        distances.site_mask(unknown)
    assert str(err.value) == (
        "unknown detector ids in known_site_ids: "
        + ", ".join(f"'x{i:02d}'" for i in range(10))
        + " and 2 more"
    )


# --- weights shared across bins and variables ---------------------------------


SHARED_MODEL = VariogramModel(kind="exponential", nugget=20.0, sill=3000.0, range_km=1.6)
SHARED_BINS = (0, 1, 2, 3)


def _shared_weights_scenario(seed, silent_bin=None):
    """Readings of a 6x6 grid over four bins, about 60 % of links equipped.

    Besides a midpoint detector per equipped link, three detectors sit on
    the shared node of three equipped links, at zero distance from each
    other. Values follow a smooth trend plus noise, so a refit finds
    structure. With ``silent_bin`` one midpoint detector, alone on its
    link, reports in every bin but that one.
    """
    rng = np.random.default_rng(seed)
    net = grid_network(6, 6)
    first = net.links[int(rng.integers(0, 4))]
    second, third = [l for l in net.links if l.from_node == first.to_node]
    node_links = {first.id, second.id, third.id}
    equipped = node_links | {l.id for l in net.links if rng.random() < 0.6}
    sites = tuple(
        DetectorSite("@" + l.id, l.id, 0.5) for l in net.links if l.id in equipped
    ) + (
        DetectorSite("end", first.id, 1.0),
        DetectorSite("start", second.id, 0.0),
        DetectorSite("down", third.id, 0.0),
    )
    silent = next(s.detector_id for s in sites if s.link_id not in node_links)
    trend = {l.id: 400.0 + 150.0 * np.sin(0.4 * i) for i, l in enumerate(net.links)}
    readings = make_readings(
        (
            site.detector_id, b,
            float(trend[site.link_id] * (0.5 + 0.3 * b) + rng.normal(0.0, 25.0)),
            float(trend[site.link_id] / 20.0 + rng.normal(0.0, 1.5)),
        )
        for b in SHARED_BINS
        for site in sites
        if not (b == silent_bin and site.detector_id == silent)
    )
    grid = reading_columns(readings, sites, net.link_ids).observe()
    return net, sites, grid


def impute_observed(bin_index, values, observed, distances, variable="flow", **kwargs):
    """One bin's field from a one-row ``impute_rows`` stack; its failure is raised."""
    (field,) = impute_rows(((bin_index, variable),), values[None], observed, distances, **kwargs)
    if isinstance(field, EstimationError):
        raise field
    return field


def reference_estimate_bins(grid, network, sites, settings):
    """Per (bin, variable), one unshared ``impute_observed`` call and its mean.

    Returns ``(bin, variable, field, value, failure text)`` tuples, the
    field None where the fit raised; the model is ``fixed_model`` or, without
    one, the row's own fit.
    """
    distances = ImputationDistances.build(network, sites)
    out = []
    for b in SHARED_BINS:
        row = grid.row(b)
        for variable in ("flow", "density"):
            field = None
            try:
                field = impute_observed(
                    b, grid.values(variable)[row], grid.observed[row], distances,
                    model=settings.fixed_model, variable=variable, kinds=settings.kinds,
                    lag_bins=settings.lag_bins, min_pairs=settings.min_pairs,
                    max_neighbors=settings.max_neighbors,
                    min_neighbors=settings.min_neighbors,
                )
                value, _ = network_mean_from_field(
                    field, network, settings.min_length_coverage
                )
            except NotEstimableError as exc:
                out.append((b, variable, field, None, f"bin {b} ({variable}): {exc}"))
                continue
            out.append((b, variable, field, value, None))
    return out


def _count_weight_solves(monkeypatch):
    """Record every ``_kriging_weights`` call as the list of its batches."""
    calls = []
    solve = kriging._kriging_weights

    def counting(*args):
        *head, consume = args
        batches = []
        calls.append(batches)

        def recording(batch):
            batches.append(batch)
            consume(batch)

        return solve(*head, recording)

    monkeypatch.setattr(kriging, "_kriging_weights", counting)
    return calls


def _record_merges(monkeypatch):
    """Record the first sites that each ``_merge_coincident`` call returns,
    None where no two known sites coincide."""
    firsts = []
    merge = kriging._merge_coincident

    def recording(pairs, values):
        merged = merge(pairs, values)
        firsts.append(merged[0])
        return merged

    monkeypatch.setattr(kriging, "_merge_coincident", recording)
    return firsts


@pytest.mark.parametrize(
    "settings",
    [
        VariogramSettings(fixed_model=SHARED_MODEL, min_length_coverage=0.5),
        VariogramSettings(lag_bins=8, min_length_coverage=0.5),
    ],
    ids=["fixed", "refit"],
)
def test_shared_weights_match_one_solve_per_bin_and_variable(settings, monkeypatch):
    merged = False
    for seed in range(3):
        net, sites, grid = _shared_weights_scenario(seed, silent_bin=2)
        calls = _count_weight_solves(monkeypatch)
        firsts = _record_merges(monkeypatch)
        outcomes = list(estimate_bins(
            "variogram", grid, SHARED_BINS, ("flow", "density"), net, sites=sites,
            settings=settings,
        ))
        monkeypatch.undo()
        merged |= any(f is not None for f in firsts)
        expected = reference_estimate_bins(grid, net, sites, settings)
        assert len(outcomes) == len(expected)
        for outcome, (b, variable, field, value, failure) in zip(outcomes, expected):
            assert (outcome.bin_index, outcome.variable) == (b, variable)
            assert (outcome.field is None) == (field is None)
            if field is not None:
                assert outcome.field.values.tobytes() == field.values.tobytes()
                assert outcome.field.provenance.tolist() == field.provenance.tolist()
                assert outcome.field.model == field.model
            if failure is None:
                assert outcome.failure is None
                assert _bits([outcome.estimate.value]) == _bits([value])
            else:
                assert outcome.estimate is None
                assert str(outcome.failure) == failure
        if settings.fixed_model is not None:
            # the silent bin has its own observed links, the others share one set
            assert len(calls) == 2
            # the per-link reference agrees on the flow fields too
            for outcome in outcomes[::2]:
                row = grid.row(outcome.bin_index)
                obs = tuple(
                    LinkObservation(net.link_ids[j], outcome.bin_index, float(grid.flow[row, j]), 1.0)
                    for j in np.flatnonzero(grid.observed[row])
                )
                values, provenance, _, _ = reference_impute(net, obs, sites, SHARED_MODEL)
                assert _bits(outcome.field.values.tolist()) == _bits(values)
                assert outcome.field.provenance.tolist() == provenance
    assert merged


def test_fixed_model_weights_are_solved_once_per_observed_link_set(monkeypatch):
    net, sites, grid = _shared_weights_scenario(5)
    calls = _count_weight_solves(monkeypatch)
    outcomes = list(estimate_bins(
        "variogram", grid, SHARED_BINS, ("flow", "density"), net, sites=sites,
        settings=VariogramSettings(fixed_model=SHARED_MODEL),
    ))
    assert len(outcomes) == 2 * len(SHARED_BINS)
    assert len(calls) == 1
    # per-bin fits get weights of their own, all solved in the one call of
    # their observed-link set
    calls.clear()
    list(estimate_bins(
        "variogram", grid, SHARED_BINS, ("flow",), net, sites=sites,
        settings=VariogramSettings(lag_bins=8),
    ))
    assert len(calls) == 1
    assert {int(r) for rows, *_ in calls[0] for r in rows} == set(range(len(SHARED_BINS)))
    # a silent bin has its own observed links and its own call
    net, sites, grid = _shared_weights_scenario(5, silent_bin=2)
    calls.clear()
    list(estimate_bins(
        "variogram", grid, SHARED_BINS, ("flow", "density"), net, sites=sites,
        settings=VariogramSettings(lag_bins=8),
    ))
    assert len(calls) == 2
    assert [{int(r) for rows, *_ in batches for r in rows} for batches in calls] == [
        set(range(2 * (len(SHARED_BINS) - 1))), {0, 1},
    ]


def test_twin_detectors_leave_fixed_model_fields_bit_identical(monkeypatch):
    # every detector listed twice at its offset with the same readings: a
    # link's mean and the kriging inputs stay those of one detector
    data = generate_scenario(SyntheticScenario(rows=6, cols=6, diurnal=(0.5, 1.0, 0.8), seed=2))
    kept = {s.detector_id for s in data.sites[::3]}
    rows = [row for row in reading_rows(data.readings) if row[0] in kept]
    twins = tuple(
        site for s in data.sites
        for site in (s, DetectorSite(s.detector_id + "+twin", s.link_id, s.offset_fraction))
    )
    twin_rows = rows + [(f"{d}+twin", *rest) for d, *rest in rows]
    settings = VariogramSettings(fixed_model=SHARED_MODEL, min_length_coverage=0.5)
    outcomes = {}
    for name, sites, readings in (("alone", data.sites, rows), ("twins", twins, twin_rows)):
        grid = reading_columns(make_readings(readings), sites, data.network.link_ids).observe()
        firsts = _record_merges(monkeypatch)
        outcomes[name] = [
            (o.bin_index, o.variable, o.field.values.tobytes(), o.field.provenance.tolist(),
             _bits([o.estimate.value]), o.failure)
            for o in estimate_bins(
                "variogram", grid, grid.observed_bins, ("flow", "density"), data.network,
                sites=sites, settings=settings,
            )
        ]
        monkeypatch.undo()
        assert any(f is not None for f in firsts) == (name == "twins")
    assert outcomes["twins"] == outcomes["alone"]
    assert all(failure is None for *_, failure in outcomes["alone"])
    assert all(PROVENANCE_IMPUTED in provenance for *_, provenance, _, _ in outcomes["alone"])


def record_fits_by_label(monkeypatch):
    """Record each ``experiment.impute_rows`` call as its labels and the
    empirical variograms fitted during it, which come one per row, in row
    order."""
    calls = []
    fit = kriging.fit_variogram

    def recording_fit(empirical, **kwargs):
        calls[-1][1].append(empirical)
        return fit(empirical, **kwargs)

    impute = experiment.impute_rows

    def recording_impute(labels, *args, **kwargs):
        calls.append((tuple(labels), []))
        return impute(labels, *args, **kwargs)

    monkeypatch.setattr(kriging, "fit_variogram", recording_fit)
    monkeypatch.setattr(experiment, "impute_rows", recording_impute)
    return calls


def test_shared_lag_bins_give_the_direct_empirical_variogram_bit_for_bit(monkeypatch):
    net, sites, grid = _shared_weights_scenario(4, silent_bin=2)
    calls = record_fits_by_label(monkeypatch)
    assignments = []
    assign = kriging.lag_pairs

    def recording_lag_pairs(*args):
        assignments.append(args)
        return assign(*args)

    monkeypatch.setattr(kriging, "lag_pairs", recording_lag_pairs)
    outcomes = list(estimate_bins(
        "variogram", grid, SHARED_BINS, ("flow", "density"), net, sites=sites,
        settings=VariogramSettings(lag_bins=8, min_length_coverage=0.5),
    ))
    # the silent bin has its own observed links, the others share one set
    assert len(assignments) == len(calls) == 2
    fitted = {label: empirical for labels, fits in calls for label, empirical in zip(labels, fits)}
    assert sum(len(fits) for _, fits in calls) == len(fitted) == len(outcomes)
    assert set(fitted) == {(o.bin_index, o.variable) for o in outcomes}
    distances = ImputationDistances.build(net, sites)
    for (b, variable), empirical in fitted.items():
        row = grid.row(b)
        known, values = known_sites(
            grid.values(variable)[row], grid.observed[row], distances.site_links
        )
        pairs = distances.between_sites[np.ix_(known, known)]
        direct = empirical_variogram(values, pairs, distance_bin_edges(pairs, n_bins=8))
        assert empirical.bin_edges.tobytes() == direct.bin_edges.tobytes()
        assert empirical.gamma_hat.tobytes() == direct.gamma_hat.tobytes()
        assert empirical.pair_counts.tolist() == direct.pair_counts.tolist()


def test_per_bin_refits_call_fit_variogram_once_per_row_wherever_it_is_bound(monkeypatch):
    # fit_variogram rebound in every package module that binds it, as an
    # audit of the fits wraps it: the stacked range search must leave one
    # call per (bin, variable) row, each finishing its row with its ranges
    modules = [sparsemfd] + [
        importlib.import_module(f"sparsemfd.{info.name}")
        for info in pkgutil.iter_modules(sparsemfd.__path__)
    ]
    fit = variogram.fit_variogram
    calls = []

    def recording_fit(empirical, *args, **kwargs):
        calls.append((empirical.gamma_hat.tobytes(), kwargs.get("ranges")))
        return fit(empirical, *args, **kwargs)

    bound = [m for m in modules if getattr(m, "fit_variogram", None) is fit]
    assert {m.__name__ for m in bound} >= {"sparsemfd.variogram", "sparsemfd.kriging"}
    for module in bound:
        monkeypatch.setattr(module, "fit_variogram", recording_fit)
    net, sites, grid = _shared_weights_scenario(6, silent_bin=2)
    outcomes = list(estimate_bins(
        "variogram", grid, SHARED_BINS, ("flow", "density"), net, sites=sites,
        settings=VariogramSettings(lag_bins=8, min_length_coverage=0.5),
    ))
    assert len(outcomes) == 2 * len(SHARED_BINS)
    assert len(calls) == len(outcomes)
    assert len({empirical for empirical, _ in calls}) == len(calls)
    assert all(len(ranges) == len(variogram.MODEL_KINDS) for _, ranges in calls)


def _per_bin_outcomes(grid, network, sites, model, bins):
    """``estimate_bins`` as one ``impute_observed`` call per (bin, variable),
    in the form of ``_refit_outcomes``; a singular system fails its row."""
    distances = ImputationDistances.build(network, sites)
    for b in bins:
        row = grid.row(b)
        for variable in ("flow", "density"):
            try:
                field = impute_observed(
                    b, grid.values(variable)[row], grid.observed[row], distances, model=model,
                    variable=variable,
                )
            except SingularSystemError as exc:
                yield b, variable, f"bin {b} ({variable}): {exc}", None
                continue
            value, _ = network_mean_from_field(field, network)
            yield b, variable, _bits([value]), field.values.tobytes()


def _numeric_failures(outcomes):
    """The ``(bin, variable)`` of each outcome that failed numerically; every
    other failure must be a ``NotEstimableError``."""
    failures = [o for o in outcomes if o.failure is not None]
    assert all(isinstance(o.failure, (NotEstimableError, NumericError)) for o in failures)
    return [(o.bin_index, o.variable) for o in failures if isinstance(o.failure, NumericError)]


def test_shared_weights_report_the_same_singular_link(tmp_path):
    # the subnormal-sill corridors of the per-link singular test, two bins
    model = VariogramModel(kind="exponential", nugget=0.0, sill=1e-315, range_km=1.0)
    links = [Link(f"a{i}", f"a{i}", f"a{i + 1}", 2e-12, 1) for i in range(12)]
    links += [Link(f"b{i}", f"b{i}", f"b{i + 1}", 2e-12, 1) for i in range(8)]
    net = Network(links)
    sites = midpoint_sites(net)
    equipped = [l for i, l in enumerate(net.links) if i % 2 == 0]
    readings = make_readings(
        ("@" + l.id, b, float(i), 1.0)
        for b in (0, 1)
        for i, l in enumerate(equipped)
    )
    grid = reading_columns(readings, sites, net.link_ids).observe()
    outcomes = estimate_bins(
        "variogram", grid, (0, 1), ("flow", "density"), net, sites=sites,
        settings=VariogramSettings(fixed_model=model),
    )
    obs = tuple(LinkObservation(l.id, 0, float(i), 1.0) for i, l in enumerate(equipped))
    with pytest.raises(SingularSystemError) as reference:
        reference_impute(net, obs, sites, model)
    # the one model's error fails every row, each as a numeric failure
    assert _numeric_failures(outcomes) == [(b, v) for b in (0, 1) for v in ("flow", "density")]
    assert [str(o.failure) for o in outcomes] == [
        f"bin {b} ({v}): {reference.value}" for b in (0, 1) for v in ("flow", "density")
    ]

    # two observed-link sets, the second one singular: every link reports
    # in bins 0 and 2, so nothing is kriged there, and bins 1 and 3 observe
    # the equipped links above; bins 0 and 2 are estimated, bins 1 and 3
    # fail, as row by row
    readings = make_readings(
        ("@" + l.id, b, float(i + b), 1.0 + b)
        for b in range(4)
        for i, l in enumerate(net.links)
        if b % 2 == 0 or i % 2 == 0
    )
    grid = reading_columns(readings, sites, net.link_ids).observe()
    bins = (0, 1, 2, 3)
    outcomes = estimate_bins(
        "variogram", grid, bins, ("flow", "density"), net, sites=sites,
        settings=VariogramSettings(fixed_model=model),
    )
    stacked = list(_refit_outcomes(outcomes))
    per_bin = list(_per_bin_outcomes(grid, net, sites, model, bins))
    assert stacked == per_bin
    failed = [(b, v) for b in (1, 3) for v in ("flow", "density")]
    assert _numeric_failures(outcomes) == failed
    assert [text for b, v, text, _ in stacked if (b, v) in failed] == [
        f"bin {b} ({v}): {reference.value}" for b, v in failed
    ]

    # an experiment cell keeps the estimates of bins 0 and 2 and the first
    # numeric failure's message
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("network", "sites", "readings")}
    write_table(paths["network"], NETWORK_COLUMNS,
                [(l.id, l.from_node, l.to_node, l.length_km, l.hierarchy) for l in net.links])
    write_table(paths["sites"], ("detector_id", "link_id", "offset_fraction"),
                [(s.detector_id, s.link_id, s.offset_fraction) for s in sites])
    write_readings(paths["readings"], readings)
    (cell,) = run_experiment(ExperimentConfig(
        coverages=(1.0,), seeds=(0,), estimators=("variogram",),
        network_path=paths["network"], sites_path=paths["sites"],
        readings_path=paths["readings"], variogram=VariogramSettings(fixed_model=model),
    )).cells
    assert cell.status == "failed"
    assert cell.message == f"bin 1 (flow): {reference.value}"
    assert cell.failed_bins == [1, 3]
    assert [(e.bin_index, e.variable, _bits([e.value])) for e in cell.estimates] == [
        (b, v, value) for b, v, value, _ in per_bin if (b, v) not in failed
    ]


def _per_row_refit_outcomes(grid, network, sites, bins, settings):
    """``estimate_bins`` refits as one ``impute_observed`` call per (bin,
    variable): ``(bin, variable, value bits or failure text, field bytes)``
    tuples, a failure for each row whose fit, solve or mean raises."""
    distances = ImputationDistances.build(network, sites)
    for b in bins:
        row = grid.row(b)
        for variable in ("flow", "density"):
            field = None
            try:
                field = impute_observed(
                    b, grid.values(variable)[row], grid.observed[row], distances,
                    variable=variable, lag_bins=settings.lag_bins,
                    min_pairs=settings.min_pairs,
                )
                value, _ = network_mean_from_field(field, network, settings.min_length_coverage)
            except (NotEstimableError, NumericError) as exc:
                yield (b, variable, f"bin {b} ({variable}): {exc}",
                       None if field is None else field.values.tobytes())
                continue
            yield b, variable, _bits([value]), field.values.tobytes()


def _refit_outcomes(outcomes):
    """``estimate_bins`` outcomes in the form of ``_per_row_refit_outcomes``."""
    for o in outcomes:
        yield (o.bin_index, o.variable,
               _bits([o.estimate.value]) if o.failure is None else str(o.failure),
               None if o.field is None else o.field.values.tobytes())


def test_a_refit_row_whose_fit_raises_fails_alone():
    # bin 2 keeps four detectors: too few pairs for three usable lag bins,
    # so both its fits raise; the other bins share one set of observed links
    net, sites, grid = _shared_weights_scenario(1)
    reporting = set(grid.observed[grid.row(2)].nonzero()[0][:4].tolist())
    grid.observed[grid.row(2)] = [j in reporting for j in range(len(net.links))]
    settings = VariogramSettings(lag_bins=8, min_length_coverage=0.5)
    outcomes = list(_refit_outcomes(estimate_bins(
        "variogram", grid, SHARED_BINS, ("flow", "density"), net, sites=sites,
        settings=settings,
    )))
    assert outcomes == list(_per_row_refit_outcomes(grid, net, sites, SHARED_BINS, settings))
    failed = [(b, v, text) for b, v, text, _ in outcomes if isinstance(text, str)]
    assert failed == [
        (2, v, f"bin 2 ({v}): variogram fitting needs at least 3 bins with 5+ pairs, got 0")
        for v in ("flow", "density")
    ]


def test_refit_group_errors_surface_at_their_own_rows(monkeypatch):
    # the singular corridors, every bin observed on the same links: the fit
    # of (0, density) raises and (1, flow) gets the subnormal-sill model,
    # the rest a model that solves the corridors; then once more without
    # the subnormal-sill model
    links = [Link(f"a{i}", f"a{i}", f"a{i + 1}", 2e-12, 1) for i in range(12)]
    links += [Link(f"b{i}", f"b{i}", f"b{i + 1}", 2e-12, 1) for i in range(8)]
    net = Network(links)
    sites = midpoint_sites(net)
    readings = make_readings(
        ("@" + l.id, b, float(i * (1 + b)), float(i * (10 + b)))
        for b in (0, 1, 2)
        for i, l in enumerate(net.links)
        if i % 2 == 0
    )
    grid = reading_columns(readings, sites, net.link_ids).observe()
    settings = VariogramSettings(lag_bins=4, min_pairs=1)
    distances = ImputationDistances.build(net, sites)
    row = grid.row(0)
    known, _ = known_sites(grid.flow[row], grid.observed[row], distances.site_links)
    pairs = distances.between_sites[np.ix_(known, known)]
    edges = distance_bin_edges(pairs, n_bins=settings.lag_bins)

    def key(b, variable):
        values = grid.values(variable)[grid.row(b)][distances.site_links[known]]
        return empirical_variogram(values, pairs, edges).gamma_hat.tobytes()

    starved, singular = key(0, "density"), {key(1, "flow")}
    fit = kriging.fit_variogram
    fits = []

    def scripted_fit(empirical, **kwargs):
        fits.append(empirical.gamma_hat.tobytes())
        if fits[-1] == starved:
            return fit(empirical, **{**kwargs, "min_pairs": 10**6})
        if fits[-1] in singular:
            return VariogramModel(kind="exponential", nugget=0.0, sill=1e-315, range_km=1.0)
        return VariogramModel(kind="exponential", nugget=0.0, sill=1.0, range_km=1e-10)

    monkeypatch.setattr(kriging, "fit_variogram", scripted_fit)
    outcomes = estimate_bins(
        "variogram", grid, (0, 1, 2), ("flow", "density"), net, sites=sites,
        settings=settings,
    )
    stacked = list(_refit_outcomes(outcomes))
    # the one call fits every row of the three bins
    assert len(fits) == 6
    fits.clear()
    per_row = list(_per_row_refit_outcomes(grid, net, sites, (0, 1, 2), settings))
    assert len(fits) == 6
    assert stacked == per_row
    # (0, density) is not estimable and (1, flow) fails numerically, alone
    assert [(b, v) for b, v, text, _ in stacked if isinstance(text, str)] == [
        (0, "density"), (1, "flow")
    ]
    assert _numeric_failures(outcomes) == [(1, "flow")]
    assert stacked[1][2] == (
        "bin 0 (density): variogram fitting needs at least 3 bins with 1000000+ pairs, got 0"
    )
    assert re.fullmatch(
        r"bin 1 \(flow\): kriging system is singular \(condition number \S+\)", stacked[2][2]
    )

    # no singular model: the fit that raises sits mid-stack, and the five
    # rows around it, before and after, complete
    singular.clear()
    fits.clear()
    stacked = list(_refit_outcomes(estimate_bins(
        "variogram", grid, (0, 1, 2), ("flow", "density"), net, sites=sites,
        settings=settings,
    )))
    assert len(fits) == 6
    per_row = list(_per_row_refit_outcomes(grid, net, sites, (0, 1, 2), settings))
    assert len(fits) == 12
    assert stacked == per_row
    assert [(b, v) for b, v, text, _ in stacked if isinstance(text, str)] == [(0, "density")]
    assert sum(field is not None for *_, field in stacked) == 5


def test_stacked_bins_reject_an_unknown_variable_before_any_estimate(monkeypatch):
    net, sites, grid = _shared_weights_scenario(0)
    passes = _count_set_passes(monkeypatch)
    with pytest.raises(ValueError, match="speed"):
        estimate_bins(
            "variogram", grid, SHARED_BINS, ("flow", "speed"), net, sites=sites,
            settings=VariogramSettings(fixed_model=SHARED_MODEL),
        )
    assert passes == []


# bins 0 and 2 observe one set of links, bins 1 and 3 another, and bin 9
# observes none
INTERLEAVED_BINS = (0, 1, 9, 2, 3)


def _interleaved_scenario(seed):
    """The shared-weights grid with no hierarchy-1 link observed in bins 1 and 3."""
    net, sites, grid = _shared_weights_scenario(seed)
    for b in (1, 3):
        grid.observed[grid.row(b), net.hierarchies == 1] = False
    return net, sites, grid


def _row_by_row(estimator, grid, network, sites, settings):
    """``estimate_bins`` over ``INTERLEAVED_BINS`` one row at a time, each
    with a partition or an ``impute_observed`` call of its own, in the form
    of ``_refit_outcomes``."""
    distances = ImputationDistances.build(network, sites)
    for b in INTERLEAVED_BINS:
        row = grid.row(b)
        for variable in ("flow", "density"):
            if row is None:
                yield b, variable, f"bin {b} ({variable}): no equipped observation", None
                continue
            values, observed = grid.values(variable)[row], grid.observed[row]
            field = None
            try:
                if estimator == "uniform":
                    partition = UniformPartition.from_mask(network, observed)
                    value = uniform_estimate(b, values, partition, variable).value
                elif estimator == "hierarchical":
                    partition = HierarchyPartition.from_network(
                        network, [network.link_ids[j] for j in np.flatnonzero(observed)]
                    )
                    value = hierarchical_estimate(b, values, partition, variable).value
                else:
                    field = impute_observed(
                        b, values, observed, distances, model=settings.fixed_model,
                        variable=variable, lag_bins=settings.lag_bins,
                    )
                    value, _ = network_mean_from_field(
                        field, network, settings.min_length_coverage
                    )
            except NotEstimableError as exc:
                yield (b, variable, f"bin {b} ({variable}): {exc}",
                       None if field is None else field.values.tobytes())
                continue
            yield b, variable, _bits([value]), None if field is None else field.values.tobytes()


def _count_set_passes(monkeypatch):
    """Record each partition build and each ``experiment.impute_rows`` call."""
    passes = []
    from_mask = UniformPartition.from_mask
    from_network = HierarchyPartition.from_network
    impute = experiment.impute_rows

    def counting(name, build):
        return lambda *args, **kwargs: passes.append(name) or build(*args, **kwargs)

    monkeypatch.setattr(UniformPartition, "from_mask", counting("partition", from_mask))
    monkeypatch.setattr(HierarchyPartition, "from_network", counting("partition", from_network))
    monkeypatch.setattr(experiment, "impute_rows", counting("impute_rows", impute))
    return passes


@pytest.mark.parametrize(
    "estimator, settings",
    [
        ("uniform", VariogramSettings()),
        ("hierarchical", VariogramSettings()),
        ("variogram", VariogramSettings(fixed_model=SHARED_MODEL, min_length_coverage=0.9)),
        ("variogram", VariogramSettings(lag_bins=8, min_length_coverage=0.9)),
    ],
    ids=["uniform", "hierarchical", "variogram-fixed", "variogram-refit"],
)
def test_interleaved_link_sets_match_one_estimate_per_row(estimator, settings, monkeypatch):
    failed = set()
    for seed in (0, 2):
        net, sites, grid = _interleaved_scenario(seed)
        passes = _count_set_passes(monkeypatch)
        outcomes = list(_refit_outcomes(estimate_bins(
            estimator, grid, INTERLEAVED_BINS, ("flow", "density"), net, sites=sites,
            settings=settings,
        )))
        monkeypatch.undo()
        # one pass for each of the two observed-link sets
        assert passes == ["impute_rows" if estimator == "variogram" else "partition"] * 2
        assert outcomes == list(_row_by_row(estimator, grid, net, sites, settings))
        failed |= {(b, v) for b, v, text, _ in outcomes if isinstance(text, str) and b != 9}
    assert [(b, v) for b, v, *_ in outcomes] == [
        (b, v) for b in INTERLEAVED_BINS for v in ("flow", "density")
    ]
    # set B leaves hierarchy 1 uncovered and, refitted, too much length unkriged
    assert bool(failed) == (
        estimator == "hierarchical" or estimator == "variogram" and settings.fixed_model is None
    )


def _singular_corridors():
    """The subnormal-sill corridors of
    ``test_shared_weights_report_the_same_singular_link``, equipped on every
    other link in bins 0 and 1, and their model, whose systems are singular."""
    model = VariogramModel(kind="exponential", nugget=0.0, sill=1e-315, range_km=1.0)
    links = [Link(f"a{i}", f"a{i}", f"a{i + 1}", 2e-12, 1) for i in range(12)]
    links += [Link(f"b{i}", f"b{i}", f"b{i + 1}", 2e-12, 1) for i in range(8)]
    net = Network(links)
    sites = midpoint_sites(net)
    equipped = [l for i, l in enumerate(net.links) if i % 2 == 0]
    readings = make_readings(
        ("@" + l.id, b, float(i), 1.0)
        for b in (0, 1)
        for i, l in enumerate(equipped)
    )
    return net, sites, reading_columns(readings, sites, net.link_ids).observe(), model


@pytest.mark.parametrize(
    "settings, starved",
    [
        (VariogramSettings(fixed_model=VariogramModel(
            kind="spherical", nugget=0.0, sill=100.0, range_km=0.4), min_length_coverage=1.0),
         False),
        (VariogramSettings(lag_bins=8, min_length_coverage=1.0), True),
        (None, False),
    ],
    ids=["fixed", "refit", "singular"],
)
def test_failed_rows_keep_no_reference_cycle_to_the_distances(settings, starved):
    # reference counting alone must free the distances once the caller lets
    # go of them, as run_experiment does before it writes its outputs
    singular = settings is None
    if singular:
        # a fixed model's singular systems fail every row numerically
        net, sites, grid, model = _singular_corridors()
        settings, bins = VariogramSettings(fixed_model=model), (0, 1)
    else:
        net, sites, grid = _shared_weights_scenario(1)
        bins = SHARED_BINS
    if starved:
        # bin 2 keeps four detectors, too few for a fit, so its fits raise
        row = grid.row(2)
        grid.observed[row, np.flatnonzero(grid.observed[row])[4:]] = False
    distances = ImputationDistances.build(net, sites)
    alive = weakref.ref(distances)
    gc.disable()
    try:
        outcomes = estimate_bins(
            "variogram", grid, bins, ("flow", "density"), net,
            distances=distances, settings=settings,
        )
        del distances
        assert alive() is None
    finally:
        gc.enable()
    if singular:
        assert _numeric_failures(outcomes) == [(b, v) for b in bins for v in ("flow", "density")]
        assert [str(o.failure) for o in outcomes] == [
            f"bin {b} ({v}): kriging system is singular (condition number inf)"
            for b in bins for v in ("flow", "density")
        ]
        return
    # with every field short of full length, every row fails
    assert len(outcomes) == 2 * len(SHARED_BINS)
    assert all(o.failure is not None and o.estimate is None for o in outcomes)
    assert sum(o.field is None for o in outcomes) == (2 if starved else 0)


def test_a_singular_fitted_model_applies_none_of_its_weights():
    # flows of 0 or 6e-162: the flow fits' kriging systems can be singular,
    # and their non-finite weights must not be applied to any value
    rng = np.random.default_rng(10)
    net = Network([Link(f"a{i}", f"a{i}", f"a{i + 1}", 0.5, 1) for i in range(20)])
    sites = midpoint_sites(net)
    readings = make_readings(
        ("@" + l.id, b, float(rng.integers(0, 2) * 6e-162), float(10 + rng.random()))
        for b in (0, 1)
        for i, l in enumerate(net.links)
        if i % 2 == 0
    )
    grid = reading_columns(readings, sites, net.link_ids).observe()
    settings = VariogramSettings(lag_bins=4, min_pairs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = estimate_bins(
            "variogram", grid, (0, 1), ("flow", "density"), net, sites=sites,
            settings=settings,
        )
        per_row = list(_per_row_refit_outcomes(grid, net, sites, (0, 1), settings))
    assert list(_refit_outcomes(outcomes)) == per_row
    # bin 0's flow system is singular; it fails alone
    assert _numeric_failures(outcomes) == [(0, "flow")]
    assert str(outcomes[0].failure) == (
        "bin 0 (flow): kriging system is singular (condition number inf)"
    )
    assert outcomes[0].field is None


def test_flows_whose_semivariances_overflow_fail_numerically_without_a_warning():
    # flows of 0 or 1e200: their squared differences overflow, a numeric
    # failure of each flow row, not an input error; the densities are estimated
    rng = np.random.default_rng(0)
    net = Network([Link(f"a{i}", f"a{i}", f"a{i + 1}", 0.5, 1) for i in range(20)])
    sites = midpoint_sites(net)
    readings = make_readings(
        ("@" + l.id, b, float(rng.integers(0, 2) * 1e200), float(10 + rng.random()))
        for b in (0, 1)
        for i, l in enumerate(net.links)
        if i % 2 == 0
    )
    grid = reading_columns(readings, sites, net.link_ids).observe()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = estimate_bins(
            "variogram", grid, (0, 1), ("flow", "density"), net, sites=sites,
            settings=VariogramSettings(lag_bins=4, min_pairs=1),
        )
    assert _numeric_failures(outcomes) == [(0, "flow"), (1, "flow")]
    assert [str(o.failure) for o in outcomes[::2]] == [
        f"bin {b} (flow): the squared value differences overflow" for b in (0, 1)
    ]
    assert all(o.failure is None for o in outcomes[1::2])


def test_a_fit_whose_sill_underflows_fails_its_experiment_cell(tmp_path):
    # flows of 0 or 3.2e-162 give subnormal semivariances: the first fit's
    # sill underflows to zero, a numeric failure of the cell, not a
    # validation error of the whole grid; the densities are still estimated
    rng = np.random.default_rng(0)
    net = Network([Link(f"a{i}", f"a{i}", f"a{i + 1}", 0.5, 1) for i in range(20)])
    sites = midpoint_sites(net)
    readings = make_readings(
        ("@" + l.id, b, float(rng.integers(0, 2) * 3.2e-162), float(10 + rng.random()))
        for b in (0, 1)
        for i, l in enumerate(net.links)
        if i % 2 == 0
    )
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("network", "sites", "readings")}
    write_table(paths["network"], NETWORK_COLUMNS,
                [(l.id, l.from_node, l.to_node, l.length_km, l.hierarchy) for l in net.links])
    write_table(paths["sites"], ("detector_id", "link_id", "offset_fraction"),
                [(s.detector_id, s.link_id, s.offset_fraction) for s in sites])
    write_readings(paths["readings"], readings)
    settings = VariogramSettings(lag_bins=4, min_pairs=1)
    (cell,) = run_experiment(ExperimentConfig(
        coverages=(1.0,), seeds=(0,), estimators=("variogram",),
        network_path=paths["network"], sites_path=paths["sites"],
        readings_path=paths["readings"], variogram=settings,
    )).cells
    assert cell.status == "failed"
    assert re.match(
        r"bin 0 \(flow\): the \w+ fit's sill underflows to 0\.0 at a semivariance scale of ",
        cell.message,
    )
    assert cell.failed_bins == [0, 1]
    # the cell's readings, as the table keeps them
    grid = reading_columns(load_readings(paths["readings"]), sites, net.link_ids).observe()
    per_row = list(_per_row_refit_outcomes(grid, net, sites, (0, 1), settings))
    assert [(e.bin_index, e.variable, _bits([e.value])) for e in cell.estimates] == [
        (b, v, value) for b, v, value, _ in per_row if not isinstance(value, str)
    ]
    assert [e.variable for e in cell.estimates] == ["density", "density"]


# --- weights applied to stacks of value rows ----------------------------------


def reference_apply(batches, known_values, targets, field_values):
    """Fill one row of ``field_values`` target by target from the batches.

    The application before weights were applied to stacks: a
    ``weights @ values`` per kriged link, ``known_values`` holding the
    values of the merged known sites.
    """
    for _, columns, kept, solutions, _ in batches:
        m = kept.shape[1]
        for row in range(columns.size):
            field_values[targets[columns[row]]] = solutions[row, :m] @ known_values[kept[row]]


STACK_SIZES = (1, 2, 48)


@pytest.fixture(scope="module")
def grid16_plan():
    """The 16x16 city of seed 3 under its coverage-0.7 plan: every bin has
    the same observed links, and its 24 bins give 48 (bin, variable) rows."""
    data = generate_scenario(SyntheticScenario(rows=16, cols=16, seed=3))
    sites = list(data.sites)
    plan, _ = sample_coverage(sites, data.network, 0.7, 3)
    grid = reading_columns(data.readings, sites, data.network.link_ids).observe(
        plan.retained_detectors
    )
    distances = ImputationDistances.build(data.network, sites)
    observed = grid.observed[0]
    assert all(np.array_equal(row, observed) for row in grid.observed)
    rows = np.concatenate([grid.flow, grid.density])
    return (distances, observed, distances.site_mask(plan.retained_detectors),
            DEFAULT_VARIOGRAM, 16, 3, rows)


def _stack_cases(grid16_plan):
    """``(name, distances, observed, retained, model, max, min, rows)`` cases.

    Between them they krige with every neighbour count from 1 to 16 and
    merge coincident sites. Cases without recorded rows get lognormal
    rows of many magnitudes (values off the observed links are ignored).
    """
    rng = np.random.default_rng(20)
    yield ("grid16-seed3-cov0.7", *grid16_plan)
    net, sites, grid = _shared_weights_scenario(0, silent_bin=2)
    distances = ImputationDistances.build(net, sites)
    for b in (0, 2):
        # bin 2 is silent at one detector and has a mask of its own
        rows = rng.lognormal(6.0, 2.0, (max(STACK_SIZES), len(net.links)))
        yield (f"shared-bin{b}", distances, grid.observed[grid.row(b)], None,
               SHARED_MODEL, 16, 3, rows)
    # a sparse corridor: targets with one or two neighbours in range
    net = corridor_network(40, edge_km=0.5)
    observed = rng.random(len(net.links)) < 0.3
    rows = rng.lognormal(6.0, 2.0, (max(STACK_SIZES), len(net.links)))
    model = VariogramModel(kind="spherical", nugget=5.0, sill=900.0, range_km=1.2)
    yield ("corridor", ImputationDistances.build(net, midpoint_sites(net)), observed, None,
           model, 16, 1, rows)


def test_stacked_application_matches_one_row_calls_and_the_per_target_dots(
    grid16_plan, monkeypatch
):
    gathered = []
    gather = kriging._neighbour_values

    def recording(*args):
        neighbours = gather(*args)
        gathered.append(neighbours)
        return neighbours

    monkeypatch.setattr(kriging, "_neighbour_values", recording)
    counts = set()
    merged_cases = 0
    for name, distances, observed, retained, model, most, least, rows in _stack_cases(
        grid16_plan
    ):
        limits = dict(max_neighbors=most, min_neighbors=least, retained=retained)
        known, _ = known_sites(rows[0], observed, distances.site_links, retained)
        pairs = distances.between_sites[np.ix_(known, known)]
        firsts, _, sizes = reference_merge(pairs, np.zeros(known.size))
        merged_cases += bool((sizes > 1).any())
        unobserved = np.flatnonzero(~observed)
        batches = []
        kriging._kriging_weights(
            (model,),
            distances.site_to_target[np.ix_(known[firsts], unobserved)],
            pairs[np.ix_(firsts, firsts)],
            most, least, batches.append,
        )
        counts |= {kept.shape[1] for _, _, kept, *_ in batches}
        for size in STACK_SIZES:
            stack = rows[:size]
            labels = [(r, "flow") for r in range(size)]
            gathered.clear()
            fields = impute_rows(labels, stack, observed, distances, model=model, **limits)
            assert gathered and all(
                neighbours.flags.c_contiguous and neighbours.shape[1] == size
                for neighbours in gathered
            ), name
            _, known_values = known_sites(stack, observed, distances.site_links, retained)
            assert known_values.flags.c_contiguous
            assert [(f.bin_index, f.variable) for f in fields] == labels
            for r, field in enumerate(fields):
                single = impute_observed(r, stack[r], observed, distances, model=model, **limits)
                expected = np.where(observed, stack[r], np.nan)
                _, means, _ = reference_merge(pairs, stack[r, distances.site_links[known]])
                reference_apply(batches, means, unobserved, expected)
                assert _bits(field.values.tolist()) == _bits(expected.tolist()), (name, size, r)
                assert field.values.tobytes() == single.values.tobytes(), (name, size, r)
                assert field.provenance.tolist() == single.provenance.tolist()
    assert set(range(1, 17)) <= counts
    assert merged_cases


def test_stacked_rows_need_their_labels():
    net, sites, truth, obs = _corridor_setup()
    distances = ImputationDistances.build(net, sites)
    observed = np.array([l.id in {o.link_id for o in obs} for l in net.links])
    values = np.ones((2, len(net.links)))
    with pytest.raises(ValidationError, match="labels"):
        impute_rows([(0, "flow")], values, observed, distances, model=SHARED_MODEL)
    with pytest.raises(ValidationError, match="labels"):
        impute_rows([(0, "flow")], values, observed, distances)


def test_stacked_refits_match_one_row_calls(grid16_plan):
    # the 48 rows of the grid16 plan, each fitted and kriged with its own
    # model in one call, against one call per row
    distances, observed, retained, _, most, least, rows = grid16_plan
    labels = [(r, "flow") for r in range(len(rows))]
    fields = impute_rows(labels, rows, observed, distances, max_neighbors=most,
                         min_neighbors=least, retained=retained)
    assert len({field.model for field in fields}) == len(rows)
    for r, field in enumerate(fields):
        single = impute_observed(r, rows[r], observed, distances, max_neighbors=most,
                                 min_neighbors=least, retained=retained)
        assert field.model == single.model
        assert field.values.tobytes() == single.values.tobytes(), r
        assert field.provenance.tolist() == single.provenance.tolist()


# --- one neighbour sort for many models ---------------------------------------


def reference_weights(model, target, pairs, max_neighbors, min_neighbors):
    """The batches of one model from its own masked sort of the distances.

    The selection before many models shared one sort: a column's sites in
    range of this model, by a stable sort of the distances with every other
    site at infinity. Returns ``(found, batches)`` with the full in-range
    counts and ``(columns, kept, solutions, rhs)`` batches; raises
    ``SingularSystemError`` for the first singular column.
    """
    in_range = np.isfinite(target) & (target <= model.range_km)
    found = np.count_nonzero(in_range, axis=0)
    order = np.argsort(np.where(in_range, target, np.inf), axis=0, kind="stable")
    counts = np.where(found >= min_neighbors, np.minimum(found, max_neighbors), 0)
    solved = []
    failure = None
    for m in np.unique(counts[counts > 0]):
        columns = np.flatnonzero(counts == m)
        kept = order[:m, columns].T
        systems, rhs, solutions, bad = kriging._solve_batch(
            (model,), np.zeros(len(columns), dtype=np.intp),
            pairs[kept[:, :, None], kept[:, None, :]], target[kept, columns[:, None]],
        )
        if bad.any():
            row = int(np.argmax(bad))
            if failure is None or columns[row] < failure[0]:
                failure = (columns[row], systems[row])
        solved.append((columns, kept, solutions, rhs))
    if failure is not None:
        raise SingularSystemError(condition=float(np.linalg.cond(failure[1])))
    return found, solved


def _by_column(batches):
    """``{(model, column): (kept, solution bits, rhs bits)}`` of
    ``(models, columns, kept, solutions, rhs)`` batches."""
    out = {}
    for models, columns, kept, solutions, rhs in batches:
        for row, column in enumerate(columns.tolist()):
            key = (int(models[row]), column)
            assert key not in out
            out[key] = (kept[row].tobytes(), solutions[row].tobytes(), rhs[row].tobytes())
    return out


def _selection_cases():
    """``(target, pairs, max_neighbors, min_neighbors, merged)`` distance blocks.

    Sites sit on a line at multiples of 0.25 km, so distances tie and some
    sites coincide; these are merged first, as the kernel expects, and
    ``merged`` tells whether any were. Some target distances are infinite,
    NaN or negative infinity, and the limits leave some columns with too
    few sites in range and others with fewer than ``max_neighbors``. In one
    case the sites are distinct, but their pair distances are not
    symmetric: some pairs read zero one way only, which merges none of them.
    """
    rng = np.random.default_rng(9)
    cases = []
    for n, k, most, least in ((12, 30, 5, 3), (30, 40, 16, 1), (9, 25, 24, 2), (40, 60, 8, 4)):
        sites = rng.integers(0, 24, n) * 0.25
        targets = rng.integers(0, 24, k) * 0.25 + rng.choice([0.0, 0.125], k)
        target = np.abs(sites[:, None] - targets[None, :])
        target[rng.random((n, k)) < 0.1] = np.inf
        target[rng.random((n, k)) < 0.05] = np.nan
        target[rng.random((n, k)) < 0.03] = -np.inf
        cases.append((target, np.abs(sites[:, None] - sites[None, :]), most, least))
    # distinct sites, where only the one-way zeros coincide
    sites = rng.choice(48, 20, replace=False) * 0.25
    pairs = np.abs(sites[:, None] - sites[None, :])
    first, second = np.triu_indices(sites.size, 1)
    picked = rng.choice(first.size, 40, replace=False)
    pairs[first[picked], second[picked]] = 0.0
    cases.append((np.abs(sites[:, None] - rng.integers(0, 48, 30)[None, :] * 0.25), pairs, 10, 2))
    net, sites, obs = _two_component_layout(np.random.default_rng(1))
    distances = ImputationDistances.build(net, sites)
    observed = {o.link_id for o in obs}
    known = [i for i, s in enumerate(sites) if s.link_id in observed]
    unobserved = [j for j, l in enumerate(net.links) if l.id not in observed]
    cases.append((distances.site_to_target[np.ix_(known, unobserved)],
                  distances.between_sites[np.ix_(known, known)], 16, 3))
    for target, pairs, most, least in cases:
        firsts, _, sizes = reference_merge(pairs, np.zeros(len(pairs)))
        yield target[firsts], pairs[np.ix_(firsts, firsts)], most, least, (sizes > 1).any()


SELECTION_MODELS = (
    VariogramModel(kind="exponential", nugget=5.0, sill=900.0, range_km=1.1),
    VariogramModel(kind="spherical", nugget=0.0, sill=400.0, range_km=2.6),
    VariogramModel(kind="spherical", nugget=30.0, sill=2500.0, range_km=0.8),
    VariogramModel(kind="exponential", nugget=0.0, sill=50.0, range_km=4.0),
    VariogramModel(kind="spherical", nugget=2.0, sill=100.0, range_km=0.3),
)


def test_one_neighbour_sort_gives_every_model_its_own_batches_bit_for_bit():
    seen = set()
    for target, pairs, most, least, merged in _selection_cases():
        stacked = []
        found, failures = kriging._kriging_weights(
            SELECTION_MODELS, target, pairs, most, least, stacked.append
        )
        assert failures == {}
        stacked = _by_column(stacked)
        for r, model in enumerate(SELECTION_MODELS):
            ref_found, ref_batches = reference_weights(model, target, pairs, most, least)
            assert found[r].tolist() == np.minimum(ref_found, most).tolist()
            ref = _by_column((np.full(len(b[0]), r), *b) for b in ref_batches)
            mine = {key: value for key, value in stacked.items() if key[0] == r}
            assert mine == ref, (r, model)
            # one model alone gives the same batches, every one of model 0
            alone = []
            kriging._kriging_weights((model,), target, pairs, most, least, alone.append)
            assert all((rows == 0).all() for rows, *_ in alone)
            assert _by_column((np.full(len(b[1]), r), *b[1:]) for b in alone) == ref
            kept = ref_found[ref_found >= least]
            cases = {
                "short": ((ref_found > 0) & (ref_found < least)).any(),
                "below cap": (kept < most).any(),
                "at cap": (kept >= most).any(),
            }
            seen |= {case for case, present in cases.items() if present}
        finite = np.isfinite(target)
        cases = {
            "merged": merged,
            "nan": np.isnan(target).any(),
            "inf": np.isinf(target).any(),
            # a column with two equal finite distances
            "tie": any(
                np.unique(column[ok]).size < ok.sum() for column, ok in zip(target.T, finite.T)
            ),
        }
        seen |= {case for case, present in cases.items() if present}
    assert seen == {"merged", "short", "below cap", "at cap", "nan", "inf", "tie"}


def test_one_neighbour_sort_reports_the_first_singular_column_of_each_model():
    # the subnormal-sill model of the singular corridors beside a model that
    # solves them: only the first fails, with the condition of its own
    # first singular column
    links = [Link(f"a{i}", f"a{i}", f"a{i + 1}", 2e-12, 1) for i in range(12)]
    links += [Link(f"b{i}", f"b{i}", f"b{i + 1}", 2e-12, 1) for i in range(8)]
    net = Network(links)
    distances = ImputationDistances.build(net, midpoint_sites(net))
    known = np.arange(0, len(links), 2)
    unobserved = np.arange(1, len(links), 2)
    target = distances.site_to_target[np.ix_(known, unobserved)]
    pairs = distances.between_sites[np.ix_(known, known)]
    singular = VariogramModel(kind="exponential", nugget=0.0, sill=1e-315, range_km=1.0)
    regular = VariogramModel(kind="exponential", nugget=0.0, sill=1.0, range_km=1e-10)
    with pytest.raises(SingularSystemError) as reference:
        reference_weights(singular, target, pairs, 16, 3)
    _, regular_batches = reference_weights(regular, target, pairs, 16, 3)
    batches = []
    _, failures = kriging._kriging_weights(
        (regular, singular), target, pairs, 16, 3, batches.append
    )
    assert list(failures) == [1]
    assert failures[1].condition == reference.value.condition
    assert str(failures[1]) == str(reference.value)
    regular_rows = [tuple(part[batch[0] == 0] for part in batch) for batch in batches]
    assert _by_column(regular_rows) == _by_column(
        (np.zeros(len(b[0]), dtype=int), *b) for b in regular_batches
    )


# --- field reduction ----------------------------------------------------------


def _field(values, provenance):
    """A field from link-order lists of values and provenance labels."""
    return ImputedField(
        bin_index=0, variable="flow", values=np.array(values, dtype=float),
        provenance=np.array(provenance), model=None,
    )


def test_network_mean_is_length_weighted():
    net = corridor_network(2, edge_km=1.0)
    # unequal lengths via a handmade network would repeat other tests; here
    # equal lengths make the mean a plain average
    field = _field([10.0, 30.0], [PROVENANCE_OBSERVED, PROVENANCE_IMPUTED])
    value, coverage = network_mean_from_field(field, net)
    assert value == 20.0
    assert coverage == 1.0


def test_network_mean_constant_field():
    net = grid_network(3, 3)
    n = len(net.links)
    field = _field([7.0] * n, [PROVENANCE_OBSERVED] * n)
    value, coverage = network_mean_from_field(field, net)
    assert value == pytest.approx(7.0, rel=1e-14)
    assert coverage == pytest.approx(1.0, rel=1e-14)


def test_network_mean_respects_the_coverage_threshold():
    net = corridor_network(5, edge_km=1.0)
    field = _field(
        [10.0] * 3 + [float("nan")] * 2,
        [PROVENANCE_OBSERVED] * 3 + [PROVENANCE_FAILED] * 2,
    )
    with pytest.raises(IncompleteFieldError) as err:
        network_mean_from_field(field, net)
    assert err.value.coverage == pytest.approx(0.6, rel=1e-12)
    assert err.value.threshold == 0.95
    # a forgiving threshold accepts the same field
    value, coverage = network_mean_from_field(field, net, min_length_coverage=0.5)
    assert value == 10.0
    assert coverage == pytest.approx(0.6, rel=1e-12)
    with pytest.raises(ValueError):
        network_mean_from_field(field, net, min_length_coverage=0.0)


def test_failed_length_fraction():
    net = corridor_network(4, edge_km=1.0)
    provenance = [
        PROVENANCE_OBSERVED, PROVENANCE_IMPUTED, PROVENANCE_FAILED, PROVENANCE_FAILED,
    ]
    field = _field([1.0] * 4, provenance)
    assert failed_length_fraction(field, net) == pytest.approx(0.5, rel=1e-12)


# the per-link dict loops the array reductions replaced, kept as references


def reference_network_mean(values, provenance, network, min_length_coverage):
    covered_length = 0.0
    weighted_sum = 0.0
    for link in network.links:
        if provenance[link.id] in (PROVENANCE_OBSERVED, PROVENANCE_IMPUTED):
            covered_length += link.length_km
            weighted_sum += values[link.id] * link.length_km
    coverage = covered_length / network.total_length_km
    if coverage < min_length_coverage:
        raise IncompleteFieldError(coverage=coverage, threshold=min_length_coverage)
    return weighted_sum / covered_length, coverage


def reference_failed_fraction(provenance, network):
    failed = sum(
        link.length_km for link in network.links if provenance[link.id] == PROVENANCE_FAILED
    )
    return failed / network.total_length_km


def reference_field_rows(bin_index, variable, values, provenance, network):
    return [
        (link.id, bin_index, variable, values[link.id], provenance[link.id])
        for link in network.links
    ]


def _outcome_bits(reduce):
    """The bits of a reduction's floats, or of the coverage it raised with."""
    try:
        return [struct.pack("<d", v) for v in reduce()]
    except IncompleteFieldError as exc:
        return ["raised", struct.pack("<d", exc.coverage)]


def test_field_reductions_match_the_per_link_loops_bit_for_bit():
    rng = np.random.default_rng(8)
    # a corridor of 300 links with lengths over two decades, in shuffled id order
    names = [f"l{i}" for i in rng.permutation(300)]
    net = Network([
        Link(name, f"n{i}", f"n{i + 1}", float(rng.uniform(0.02, 3.0)), int(rng.integers(1, 4)))
        for i, name in enumerate(names)
    ])
    labels = np.array([PROVENANCE_OBSERVED, PROVENANCE_IMPUTED, PROVENANCE_FAILED])
    raised = 0
    for seed in range(40):
        draw = np.random.default_rng(seed)
        failed_share = draw.uniform(0.0, 0.4)
        shares = [(1.0 - failed_share) / 2] * 2 + [failed_share]
        provenance = labels[draw.choice(3, size=300, p=shares)]
        values = draw.lognormal(5.0, 1.5, size=300) * draw.choice([-1.0, 1.0], size=300)
        values[provenance == PROVENANCE_FAILED] = np.nan
        field = ImputedField(
            bin_index=seed, variable="density", values=values, provenance=provenance, model=None,
        )
        by_id = dict(zip(net.link_ids, values.tolist()))
        source = dict(zip(net.link_ids, provenance.tolist()))
        for threshold in (1.0, 0.75, 0.01):
            got = _outcome_bits(lambda: network_mean_from_field(field, net, threshold))
            want = _outcome_bits(lambda: reference_network_mean(by_id, source, net, threshold))
            assert got == want
            raised += got[0] == "raised"
        assert struct.pack("<d", failed_length_fraction(field, net)) == struct.pack(
            "<d", reference_failed_fraction(source, net)
        )
        assert field.failed_count == sum(p == PROVENANCE_FAILED for p in source.values())
        # the field's cells, as the per-cell writer formats each row
        assert list(zip(*field_columns(field, format_column(net.link_ids)))) == [
            tuple(map(format_value, row))
            for row in reference_field_rows(seed, "density", by_id, source, net)
        ]
    # both branches of the coverage threshold are compared
    assert 0 < raised < 120
