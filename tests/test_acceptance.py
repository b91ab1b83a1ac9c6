"""Suite-level guarantees, one verdict line per check.

Every test here exercises a documented behaviour of the package end to end
and prints a single pass/fail line, so a full run reads as a checklist.
Tolerances are part of the contract and must not be loosened.
"""

import math

import numpy as np
import pytest

from conftest import make_tiered_sites
from sparsemfd.errors import IncompleteFieldError
from sparsemfd.kriging import (
    ImputationDistances,
    failed_length_fraction,
    impute_network,
    network_mean_from_field,
    solve_kriging,
)
from sparsemfd.mfd import fit_quadratic_with_ci
from sparsemfd.metrics import paired_t_test, t_critical_value
from sparsemfd.network import Link, Network, site_distance_matrix
from sparsemfd.scaling import (
    HierarchyPartition,
    hierarchical_scaled_mean,
    uniform_scaled_mean,
)
from sparsemfd.sensing import (
    LinkObservation,
    aggregate_to_links,
    edie_network_truth,
    sample_coverage,
    sample_coverage_counts,
)
from sparsemfd.variogram import (
    EmpiricalVariogram,
    VariogramModel,
    empirical_variogram,
    fit_variogram,
    gamma,
)


def verdict(capsys, label, ok, detail=""):
    note = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{'pass' if ok else 'FAIL'}] {label}{note}")
    assert ok, f"{label}{note}"


def _line_pair_distances(positions):
    positions = np.asarray(positions, dtype=float)
    return np.abs(positions[:, None] - positions[None, :])


# --- kriging ------------------------------------------------------------------


def test_kriging_weights_always_sum_to_one(capsys):
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 17))
        positions = rng.uniform(0.0, 20.0, size=m)
        target = float(rng.uniform(0.0, 20.0))
        model = VariogramModel(
            kind="spherical",
            nugget=float(rng.uniform(0.0, 2.0)),
            sill=float(rng.uniform(0.5, 5.0)),
            range_km=float(rng.uniform(25.0, 40.0)),
        )
        solution = solve_kriging(
            model,
            rng.normal(50.0, 10.0, size=m),
            np.abs(positions - target),
            _line_pair_distances(positions),
        )
        worst = max(worst, abs(math.fsum(solution.weights) - 1.0))
    verdict(
        capsys, "kriging weights sum to one over 100 random systems",
        worst <= 1e-10, f"worst |sum-1| {worst:.2e}",
    )


def test_zero_nugget_kriging_reproduces_known_values(capsys):
    rng = np.random.default_rng(2021)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(5, 11))
        positions = rng.uniform(0.0, 10.0, size=m)
        values = rng.normal(100.0, 25.0, size=m)
        model = VariogramModel(
            kind="spherical", nugget=0.0,
            sill=float(rng.uniform(0.5, 4.0)),
            range_km=float(rng.uniform(30.0, 50.0)),
        )
        pick = int(rng.integers(0, m))
        pair = _line_pair_distances(positions)
        solution = solve_kriging(model, values, pair[pick], pair)
        worst = max(worst, abs(solution.prediction - values[pick]))
    verdict(
        capsys, "zero-nugget kriging is exact at known sites",
        worst <= 1e-8, f"worst error {worst:.2e}",
    )


def _oracle_gamma(model, h):
    # independent closed form, written separately from the library curve
    if h <= 0.0:
        return 0.0
    r = h / model.range_km
    if model.kind == "spherical":
        shape = 1.0 if r >= 1.0 else 1.5 * r - 0.5 * r**3
    elif model.kind == "exponential":
        shape = 1.0 - math.exp(-3.0 * r)
    else:
        shape = 1.0 - math.exp(-3.0 * r * r)
    return model.nugget + model.sill * shape


def _oracle_weights(model, target_dists, pair_dists):
    m = len(target_dists)
    system = np.zeros((m + 1, m + 1))
    for i in range(m):
        for j in range(m):
            if i != j:
                system[i, j] = _oracle_gamma(model, pair_dists[i][j])
        system[i, m] = 1.0
        system[m, i] = 1.0
    rhs = np.append([_oracle_gamma(model, d) for d in target_dists], 1.0)
    solved, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return solved[:m], solved[m]


def test_kriging_agrees_with_dense_oracle(capsys):
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 6))
        positions = rng.uniform(0.0, 8.0, size=m)
        target = float(rng.uniform(0.0, 8.0))
        model = VariogramModel(
            kind="spherical",
            nugget=float(rng.uniform(0.0, 1.0)),
            sill=float(rng.uniform(0.5, 3.0)),
            range_km=float(rng.uniform(10.0, 20.0)),
        )
        pair = _line_pair_distances(positions)
        target_dists = np.abs(positions - target)
        solution = solve_kriging(
            model, rng.normal(size=m), target_dists, pair,
            ids=tuple(range(m)), min_neighbors=2,
        )
        expected, _ = _oracle_weights(model, target_dists, pair)
        # the solver orders neighbors by distance; map back to input order
        aligned = expected[list(solution.neighbor_ids)]
        worst = max(worst, float(np.max(np.abs(solution.weights - aligned))))
    verdict(
        capsys, "kriging weights match an independent dense solve",
        worst <= 1e-9, f"worst entry gap {worst:.2e}",
    )


# --- variography --------------------------------------------------------------


def _pair_enumeration(values, distances, edges):
    n_bins = len(edges) - 1
    sums = [0.0] * n_bins
    counts = [0] * n_bins
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            d = distances[i][j]
            if not math.isfinite(d) or d <= 0.0:
                continue
            if d < edges[0] or d > edges[-1]:
                continue
            b = n_bins - 1
            for k in range(n_bins):
                if edges[k] <= d < edges[k + 1]:
                    b = k
                    break
            sums[b] += (values[i] - values[j]) ** 2
            counts[b] += 1
    gammas = [
        sums[b] / (2.0 * counts[b]) if counts[b] else float("nan")
        for b in range(n_bins)
    ]
    return np.array(gammas), np.array(counts)


def test_empirical_variogram_matches_pair_enumeration(capsys):
    rng = np.random.default_rng(4242)
    positions = rng.uniform(0.0, 12.0, size=50)
    values = rng.normal(40.0, 8.0, size=50)
    distances = _line_pair_distances(positions)
    edges = np.linspace(0.4, 10.0, 13)
    result = empirical_variogram(values, distances, edges)
    expected_gamma, expected_counts = _pair_enumeration(values, distances, edges)
    same_counts = np.array_equal(result.pair_counts, expected_counts)
    same_gamma = all(
        (math.isnan(a) and math.isnan(b)) or a == b
        for a, b in zip(result.gamma_hat, expected_gamma)
    )
    verdict(
        capsys, "binned semivariances equal brute-force pair sums bit for bit",
        same_counts and same_gamma,
    )


def _curve_table(model, noise_rng=None):
    edges = np.linspace(0.25, 6.0, 13)
    centers = 0.5 * (edges[:-1] + edges[1:])
    values = gamma(model, centers)
    if noise_rng is not None:
        values = values * (1.0 + 0.05 * noise_rng.standard_normal(values.size))
    return EmpiricalVariogram(
        bin_edges=edges,
        gamma_hat=values,
        pair_counts=np.full(centers.size, 40, dtype=int),
    )


def test_variogram_fit_recovers_known_parameters(capsys):
    truth = VariogramModel(kind="spherical", nugget=0.5, sill=2.0, range_km=3.0)

    clean = fit_variogram(_curve_table(truth))
    clean_ok = (
        clean.kind == "spherical"
        and abs(clean.nugget - truth.nugget) <= 1e-6
        and abs(clean.sill - truth.sill) <= 1e-6
        and abs(clean.range_km - truth.range_km) <= 1e-6
    )

    errors = {"nugget": [], "sill": [], "range_km": []}
    for seed in range(100, 120):
        fitted = fit_variogram(_curve_table(truth, np.random.default_rng(seed)))
        errors["nugget"].append(abs(fitted.nugget - truth.nugget) / truth.nugget)
        errors["sill"].append(abs(fitted.sill - truth.sill) / truth.sill)
        errors["range_km"].append(abs(fitted.range_km - truth.range_km) / truth.range_km)
    medians = {k: float(np.median(v)) for k, v in errors.items()}
    noisy_ok = all(v < 0.15 for v in medians.values())

    verdict(
        capsys, "variogram fits recover known parameters",
        clean_ok and noisy_ok,
        "clean within 1e-6; noisy medians "
        + ", ".join(f"{k} {v:.3f}" for k, v in medians.items()),
    )


# --- scaling ------------------------------------------------------------------


def _random_class_network(rng):
    links = []
    class_values = {}
    n_classes = int(rng.integers(2, 5))
    node = 0
    for h in range(1, n_classes + 1):
        class_values[h] = float(rng.uniform(10.0, 100.0))
        for i in range(int(rng.integers(2, 6))):
            links.append(
                Link(
                    id=f"h{h}_{i}",
                    from_node=f"n{node}",
                    to_node=f"n{node + 1}",
                    length_km=float(rng.uniform(0.2, 3.0)),
                    hierarchy=h,
                )
            )
            node += 1
        node += 1  # break the chain between classes
    return Network(links), class_values


def test_hierarchical_scaling_is_exact_for_class_constant_fields(capsys):
    rng = np.random.default_rng(9090)
    worst = 0.0
    for _ in range(50):
        network, class_values = _random_class_network(rng)
        equipped = []
        for h in sorted(class_values):
            members = list(network.links_of_hierarchy(h))
            take = int(rng.integers(1, len(members) + 1))
            picked = rng.choice(len(members), size=take, replace=False)
            equipped.extend(members[i].id for i in picked)
        observations = [
            LinkObservation(
                link_id=link_id,
                bin_index=0,
                flow_veh_per_h=class_values[network.link(link_id).hierarchy],
                density_veh_per_km=1.0,
            )
            for link_id in equipped
        ]
        partition = HierarchyPartition.from_network(network, equipped)
        estimate = hierarchical_scaled_mean(observations, partition)
        truth = math.fsum(
            class_values[l.hierarchy] * l.length_km for l in network.links
        ) / network.total_length_km
        worst = max(worst, abs(estimate.value - truth) / truth)
    verdict(
        capsys, "class-constant fields scale back to the exact network mean",
        worst <= 1e-9, f"worst relative error {worst:.2e}",
    )


def _truth_by_bin(data):
    by_bin = {}
    for obs in aggregate_to_links(data.readings, data.sites):
        by_bin.setdefault(obs.bin_index, []).append(obs)
    truth = {
        b: edie_network_truth(by_bin[b], data.network, b)[0] for b in sorted(by_bin)
    }
    return by_bin, truth


def test_hierarchical_beats_uniform_at_sparse_coverage(capsys, default_truth):
    _, data = default_truth
    by_bin, truth = _truth_by_bin(data)
    wins = 0
    reductions = []
    for seed in range(50):
        _, retained = sample_coverage(data.sites, data.network, 0.10, seed)
        equipped = {site.link_id for site in retained}
        partition = HierarchyPartition.from_network(data.network, equipped)
        errors = {"uniform": [], "hierarchical": []}
        for b, full_obs in by_bin.items():
            obs = [o for o in full_obs if o.link_id in equipped]
            u = uniform_scaled_mean(obs, data.network)
            h = hierarchical_scaled_mean(obs, partition)
            errors["uniform"].append(u.value - truth[b])
            errors["hierarchical"].append(h.value - truth[b])
        rmse_u = float(np.sqrt(np.mean(np.square(errors["uniform"]))))
        rmse_h = float(np.sqrt(np.mean(np.square(errors["hierarchical"]))))
        if rmse_h < rmse_u:
            wins += 1
        reductions.append(1.0 - rmse_h / rmse_u)
    median_reduction = float(np.median(reductions))
    verdict(
        capsys, "hierarchical scaling beats uniform at 10% coverage",
        wins >= 45 and median_reduction >= 0.5,
        f"wins {wins}/50, median RMSE reduction {median_reduction:.1%}",
    )


# --- imputation breakdown -----------------------------------------------------


def _equipped_observations(data, retained, bin_index):
    equipped = {site.link_id for site in retained}
    return (
        [
            o for o in aggregate_to_links(data.readings, data.sites)
            if o.bin_index == bin_index and o.link_id in equipped
        ],
        {site.detector_id for site in retained},
    )


def test_short_range_model_breaks_down_only_at_sparsest_coverage(capsys, default_truth):
    _, data = default_truth
    model = VariogramModel(kind="exponential", nugget=25.0, sill=1600.0, range_km=2.0)
    geometry = ImputationDistances.build(data.network, data.sites)

    _, sparse = sample_coverage(data.sites, data.network, 0.05, 2)
    spacing = site_distance_matrix(data.network, sparse)
    upper = spacing[np.triu_indices(len(sparse), k=1)]
    median_spacing = float(np.median(upper[np.isfinite(upper)]))
    premise = model.range_km < median_spacing

    obs, ids = _equipped_observations(data, sparse, 0)
    field = impute_network(
        data.network, obs, data.sites, distances=geometry, model=model,
        known_site_ids=ids,
    )
    sparse_fraction = failed_length_fraction(field, data.network)
    sparse_breaks = sparse_fraction > 0.05
    raised = False
    try:
        network_mean_from_field(field, data.network)
    except IncompleteFieldError:
        raised = True

    _, denser = sample_coverage(data.sites, data.network, 0.10, 2)
    obs, ids = _equipped_observations(data, denser, 0)
    field = impute_network(
        data.network, obs, data.sites, distances=geometry, model=model,
        known_site_ids=ids,
    )
    value, covered = network_mean_from_field(field, data.network)
    recovers = math.isfinite(value) and covered >= 0.95

    verdict(
        capsys, "short-range kriging fails at 5% coverage and completes at 10%",
        premise and sparse_breaks and raised and recovers,
        f"median spacing {median_spacing:.2f} km, failed length at 5% "
        f"{sparse_fraction:.1%}, covered at 10% {covered:.1%}",
    )


# --- curve fitting and testing ------------------------------------------------


def test_quadratic_fit_and_band_behave(capsys):
    x = np.linspace(0.0, 15.0, 20)
    truth = lambda t: 5.0 + 2.0 * t - 0.1 * t * t

    clean = fit_quadratic_with_ci(x, truth(x))
    _, low, high = clean.band(x)
    coefficient_gap = np.abs(np.asarray(clean.coefficients) - np.array([5.0, 2.0, -0.1]))
    clean_ok = (
        float(np.max(coefficient_gap)) <= 1e-8
        and float(np.max(high - low)) <= 1e-8
    )

    rng = np.random.default_rng(2024)
    probe = np.array([7.3])
    target = truth(probe[0])
    hits = 0
    replications = 1000
    for _ in range(replications):
        noisy = truth(x) + rng.normal(0.0, 2.0, size=x.size)
        fit = fit_quadratic_with_ci(x, noisy)
        _, low, high = fit.band(probe)
        if low[0] <= target <= high[0]:
            hits += 1
    coverage = hits / replications
    band_ok = 0.90 <= coverage <= 0.99

    verdict(
        capsys, "quadratic fit is exact on clean data and its band covers the mean",
        clean_ok and band_ok, f"band coverage {coverage:.1%}",
    )


def test_paired_t_statistic_matches_hand_computation(capsys):
    result = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    hand_t = 2.0 * math.sqrt(3.0)
    stat_ok = abs(result.t_statistic - hand_t) <= 1e-6 and result.degrees_of_freedom == 2
    critical = t_critical_value(123)
    critical_ok = abs(critical - 1.9794) <= 5e-4
    verdict(
        capsys, "paired t statistic and critical value match hand computations",
        stat_ok and critical_ok,
        f"t {result.t_statistic:.4f}, critical(123) {critical:.4f}",
    )


# --- sampling and end-to-end identity -----------------------------------------


def test_stratified_sampler_reproduces_published_counts(capsys):
    network, sites = make_tiered_sites()
    expected_rows = (
        {1: 12, 2: 22, 3: 8},
        {1: 8, 2: 15, 3: 6},
        {1: 4, 2: 8, 3: 3},
        {1: 2, 2: 4, 3: 1},
    )
    fractions = (0.30, 0.20, 0.10, 0.05)
    ok = True
    for fraction, counts in zip(fractions, expected_rows):
        plan, retained = sample_coverage_counts(sites, network, counts, seed=0)
        ok = ok and plan.per_hierarchy_counts == counts
        ok = ok and len(retained) == sum(counts.values())
        derived, _ = sample_coverage(sites, network, fraction, seed=0)
        ok = ok and derived.per_hierarchy_counts == counts
    verdict(
        capsys,
        "stratified sampler reproduces the reference per-class detector counts",
        ok,
    )


def _random_small_scenario(rng, seed):
    from sparsemfd.synth import SyntheticScenario

    flows = np.sort(rng.uniform(100.0, 1200.0, size=3))[::-1]
    densities = np.sort(rng.uniform(10.0, 60.0, size=3))[::-1]
    return SyntheticScenario(
        rows=int(rng.integers(4, 7)),
        cols=int(rng.integers(4, 7)),
        mean_flows=tuple(float(v) for v in flows),
        mean_densities=tuple(float(v) for v in densities),
        diurnal=tuple(float(v) for v in rng.uniform(0.3, 1.0, size=4)),
        seed=seed,
    )


def test_all_estimators_match_the_reference_at_full_coverage(capsys):
    from sparsemfd.synth import generate_scenario

    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(20):
        scenario = _random_small_scenario(rng, seed=trial)
        data = generate_scenario(scenario)
        observations = aggregate_to_links(data.readings, data.sites)
        obs = [o for o in observations if o.bin_index == 0]
        truth_q, _ = edie_network_truth(observations, data.network, 0)

        estimates = []
        estimates.append(uniform_scaled_mean(obs, data.network).value)
        partition = HierarchyPartition.from_network(
            data.network, [o.link_id for o in obs]
        )
        estimates.append(hierarchical_scaled_mean(obs, partition).value)
        field = impute_network(
            data.network, obs, data.sites, model=scenario.variogram
        )
        value, _ = network_mean_from_field(field, data.network)
        estimates.append(value)

        for value in estimates:
            worst = max(worst, abs(value - truth_q) / abs(truth_q))
    verdict(
        capsys, "all three estimators reproduce the reference at full coverage",
        worst <= 1e-12, f"worst relative gap {worst:.2e}",
    )
