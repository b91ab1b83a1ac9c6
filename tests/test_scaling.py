"""Uniform and hierarchical scaling estimators."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemfd.errors import (
    AlignmentError,
    InsufficientDataError,
    NotEstimableError,
    UncoverableHierarchyError,
    ValidationError,
)
from sparsemfd.experiment import ESTIMATOR_NAMES, estimate_bins
from sparsemfd.network import Link, Network
from sparsemfd.scaling import (
    UNIFORM_MODES,
    VARIABLES,
    HierarchyPartition,
    UniformPartition,
    hierarchical_estimate,
    hierarchical_scaled_mean,
    uniform_estimate,
    uniform_scaled_mean,
)
from sparsemfd.sensing import (
    VALUE_FIELDS,
    LinkObservation,
    edie_network_truth,
    reading_columns,
    sample_coverage,
)
from conftest import (
    CLASS_GAP_BIN,
    READING_BINS,
    make_reading_scenario,
    make_readings,
    reading_rows,
    reference_aggregate,
)


def _obs(link_id, q, k=10.0, b=0):
    return LinkObservation(
        link_id=link_id, bin_index=b, flow_veh_per_h=q, density_veh_per_km=k
    )


# --- uniform scaling ----------------------------------------------------------


def test_uniform_exact_fills_only_the_unequipped_length(quad_network):
    # lengths 1..4 km, equipped L0 (q=100) and L1 (q=200)
    obs = [_obs("L0", 100.0), _obs("L1", 200.0)]
    est = uniform_scaled_mean(obs, quad_network, mode="exact")
    # measured 100*1 + 200*2 plus the 7 km remainder at the mean of 150
    assert est.value == 155.0
    assert est.ttd_or_ttt == 1550.0
    assert est.method == "uniform"
    assert est.hierarchy_count == 1


def test_uniform_mean_only_applies_the_mean_everywhere(quad_network):
    obs = [_obs("L0", 100.0), _obs("L1", 200.0)]
    est = uniform_scaled_mean(obs, quad_network, mode="mean-only")
    assert est.value == 150.0
    assert est.ttd_or_ttt == 1500.0


def test_uniform_homogeneous_traffic_is_reproduced(quad_network):
    obs = [_obs("L0", 100.0), _obs("L3", 100.0)]
    for mode in ("exact", "mean-only"):
        est = uniform_scaled_mean(obs, quad_network, mode=mode)
        assert est.value == 100.0


def test_uniform_density_variable(quad_network):
    obs = [_obs("L0", 0.0, k=12.0), _obs("L1", 0.0, k=24.0)]
    est = uniform_scaled_mean(obs, quad_network, variable="density", mode="mean-only")
    assert est.value == 18.0
    assert est.variable == "density"


def test_uniform_full_coverage_equals_reference_truth():
    net = Network((Link("A", "a", "b", 1.0, 1), Link("B", "b", "c", 3.0, 1)))
    obs = [_obs("A", 100.0, k=10.0), _obs("B", 300.0, k=30.0)]
    truth_q, truth_k = edie_network_truth(obs, net, 0)
    est = uniform_scaled_mean(obs, net, mode="exact")
    assert est.value == pytest.approx(truth_q, rel=1e-14)
    assert truth_q == 250.0


def test_every_uniform_path_rejects_an_unknown_mode():
    # a misspelt mode must not fall through to the mean-only estimate
    network, sites, readings = make_reading_scenario(0)
    grid = reading_columns(readings, sites, network.link_ids).observe()
    message = f"mode must be one of {UNIFORM_MODES}, got 'exat'"
    with pytest.raises(ValueError, match=re.escape(message)):
        list(estimate_bins("uniform", grid, READING_BINS, VARIABLES, network, uniform_mode="exat"))
    partition = UniformPartition.from_mask(network, grid.observed[0])
    with pytest.raises(ValueError, match=re.escape(message)):
        uniform_estimate(0, grid.flow[0], partition, mode="exat")


def test_uniform_duration_scales_the_travelled_total(quad_network):
    obs = [_obs("L0", 100.0), _obs("L1", 200.0)]
    est = uniform_scaled_mean(obs, quad_network, duration_h=2.0)
    assert est.ttd_or_ttt == pytest.approx(est.value * 10.0 * 2.0, rel=1e-12)
    assert est.duration_h == 2.0


def test_uniform_input_validation(quad_network):
    with pytest.raises(InsufficientDataError):
        uniform_scaled_mean([], quad_network)
    with pytest.raises(ValueError):
        uniform_scaled_mean([_obs("L0", 1.0)], quad_network, mode="strict")
    with pytest.raises(ValueError):
        uniform_scaled_mean([_obs("L0", 1.0)], quad_network, variable="speed")
    with pytest.raises(ValidationError):
        uniform_scaled_mean([_obs("L0", 1.0), _obs("L0", 2.0)], quad_network)
    with pytest.raises(AlignmentError):
        uniform_scaled_mean([_obs("L0", 1.0, b=0), _obs("L1", 1.0, b=1)], quad_network)


@pytest.mark.parametrize("duration_h", [0.0, -2.0, math.nan, math.inf])
def test_estimators_reject_a_duration_that_is_not_positive_and_finite(duration_h):
    message = f"duration_h must be positive and finite, got {duration_h}"
    net = Network((Link("A", "a", "b", 1.0, 1), Link("B", "b", "c", 1.0, 1)))
    values, equipped = np.array([100.0, 0.0]), np.array([True, False])
    with pytest.raises(ValidationError) as err:
        uniform_estimate(
            0, values, UniformPartition.from_mask(net, equipped), "flow", duration_h=duration_h
        )
    assert str(err.value) == message
    partition = HierarchyPartition.from_network(net, ["A"])
    with pytest.raises(ValidationError) as err:
        hierarchical_estimate(0, values, partition, "flow", duration_h=duration_h)
    assert str(err.value) == message
    # every estimator estimates the first bin of this scenario at a valid
    # duration, so the error is the duration's
    network, sites, readings = make_reading_scenario(0)
    grid = reading_columns(readings, sites, network.link_ids).observe()
    for estimator in ESTIMATOR_NAMES:
        with pytest.raises(ValidationError) as err:
            estimate_bins(estimator, grid, grid.observed_bins, VARIABLES, network,
                          sites=sites, duration_h=duration_h)
        assert str(err.value) == message
        first = estimate_bins(estimator, grid, grid.observed_bins, VARIABLES, network,
                              sites=sites)[0]
        assert first.failure is None


# --- hierarchical scaling -----------------------------------------------------


def _two_class_network():
    # class 1: two 1 km links, class 2: two 2 km links
    return Network((
        Link("A1", "a", "b", 1.0, 1),
        Link("A2", "b", "c", 1.0, 1),
        Link("B1", "c", "d", 2.0, 2),
        Link("B2", "d", "e", 2.0, 2),
    ))


def test_hierarchical_keeps_class_traffic_levels():
    net = _two_class_network()
    partition = HierarchyPartition.from_network(net, {"A1", "B1"})
    obs = [_obs("A1", 100.0), _obs("B1", 10.0)]
    est = hierarchical_scaled_mean(obs, partition)
    # class totals 100*1*2 and 10*2*2 over 6 km
    assert est.value == 40.0
    assert est.hierarchy_count == 2

    # the single-class estimator smears the busy class over the quiet one
    uniform = uniform_scaled_mean(obs, net, mode="exact")
    assert uniform.value == 47.5


def test_hierarchical_exact_for_class_constant_traffic():
    net = _two_class_network()
    partition = HierarchyPartition.from_network(net, {"A2", "B2"})
    obs = [_obs("A2", 80.0), _obs("B2", 30.0)]
    est = hierarchical_scaled_mean(obs, partition)
    truth = (80.0 * 2.0 + 30.0 * 4.0) / 6.0
    assert est.value == pytest.approx(truth, rel=1e-14)


def test_hierarchical_reduces_to_uniform_for_one_class(quad_network):
    partition = HierarchyPartition.from_network(quad_network, {"L1", "L2"})
    obs = [_obs("L1", 120.0), _obs("L2", 90.0)]
    hier = hierarchical_scaled_mean(obs, partition)
    # with one class the expansion uses the length-weighted equipped rate,
    # so compare against the exact-mode uniform value on the same data
    rate = 120.0 * 2.0 + 90.0 * 3.0
    expected = (rate + rate * 5.0 / 5.0) / 10.0
    assert hier.value == pytest.approx(expected, rel=1e-14)


def test_hierarchical_full_coverage_equals_reference_truth():
    net = _two_class_network()
    partition = HierarchyPartition.from_network(net, {"A1", "A2", "B1", "B2"})
    obs = [_obs("A1", 10.0), _obs("A2", 20.0), _obs("B1", 30.0), _obs("B2", 40.0)]
    truth_q, _ = edie_network_truth(obs, net, 0)
    est = hierarchical_scaled_mean(obs, partition)
    assert est.value == pytest.approx(truth_q, rel=1e-12)


def test_hierarchical_uncovered_class_raises():
    net = _two_class_network()
    partition = HierarchyPartition.from_network(net, {"A1"})
    with pytest.raises(UncoverableHierarchyError) as err:
        hierarchical_scaled_mean([_obs("A1", 100.0)], partition)
    assert err.value.hierarchy == 2


def test_hierarchical_observations_must_match_partition():
    net = _two_class_network()
    partition = HierarchyPartition.from_network(net, {"A1", "B1"})
    with pytest.raises(ValidationError):
        hierarchical_scaled_mean([_obs("A1", 100.0)], partition)
    with pytest.raises(ValidationError):
        hierarchical_scaled_mean(
            [_obs("A1", 1.0), _obs("B1", 1.0), _obs("B2", 1.0)], partition
        )


def test_partition_mismatch_names_the_links():
    net = _two_class_network()
    partition = HierarchyPartition.from_network(net, {"A1", "B1"})
    with pytest.raises(ValidationError) as err:
        hierarchical_scaled_mean([_obs("A1", 1.0), _obs("B2", 1.0)], partition)
    assert str(err.value) == (
        "observations do not match the partition's equipped links "
        "(missing ['B1'], unexpected ['B2'])"
    )
    # a link outside the network is unexpected too
    with pytest.raises(ValidationError) as err:
        hierarchical_scaled_mean([_obs("A1", 1.0), _obs("B1", 1.0), _obs("Z9", 1.0)], partition)
    assert str(err.value) == (
        "observations do not match the partition's equipped links "
        "(missing [], unexpected ['Z9'])"
    )


def test_partition_rejects_unknown_equipped_link():
    net = _two_class_network()
    with pytest.raises(ValidationError):
        HierarchyPartition.from_network(net, {"Z9"})


@settings(max_examples=40, deadline=None)
@given(
    values=st.tuples(
        st.floats(min_value=1.0, max_value=2000.0),
        st.floats(min_value=1.0, max_value=2000.0),
    ),
    alpha=st.sampled_from([0.5, 2.0, 4.0, 1.7]),
)
def test_scaling_estimators_are_value_equivariant(values, alpha):
    """Scaling every observed value by a constant scales both estimates by it."""
    net = _two_class_network()
    partition = HierarchyPartition.from_network(net, {"A1", "B1"})
    base = [_obs("A1", values[0]), _obs("B1", values[1])]
    scaled = [_obs("A1", alpha * values[0]), _obs("B1", alpha * values[1])]
    for estimator in (
        lambda o: uniform_scaled_mean(o, net, mode="exact"),
        lambda o: uniform_scaled_mean(o, net, mode="mean-only"),
        lambda o: hierarchical_scaled_mean(o, partition),
    ):
        assert estimator(scaled).value == pytest.approx(
            alpha * estimator(base).value, rel=1e-12
        )


def test_estimate_value_consistent_with_travelled_total(quad_network):
    obs = [_obs("L0", 123.4), _obs("L2", 56.7)]
    for est in (
        uniform_scaled_mean(obs, quad_network, duration_h=3.0),
        hierarchical_scaled_mean(
            obs, HierarchyPartition.from_network(quad_network, {"L0", "L2"}),
            duration_h=3.0,
        ),
    ):
        assert est.value == pytest.approx(
            est.ttd_or_ttt / (10.0 * est.duration_h), rel=1e-9
        )


# --- array estimators against the object-list estimators they replaced -------


def reference_uniform(observations, network, variable, mode, duration_h):
    """The object-list uniform estimator: ``(value, ttd_or_ttt)``, reducing
    in the order of ``observations``."""
    field = VALUE_FIELDS[variable]
    values = np.array([getattr(o, field) for o in observations])
    lengths = np.array([network.link(o.link_id).length_km for o in observations])
    equipped_mean = float(values.mean())
    total = network.total_length_km
    non_equipped_length = max(total - math.fsum(lengths), 0.0)
    if mode == "exact":
        rate = float(values @ lengths) + equipped_mean * non_equipped_length
    else:
        rate = equipped_mean * total
    return rate / total, rate * duration_h


def reference_hierarchical(observations, network, variable, duration_h):
    """The object-list hierarchical estimator over (link id, length) pairs."""
    field = VALUE_FIELDS[variable]
    by_link = {o.link_id: getattr(o, field) for o in observations}
    rate = 0.0
    for hierarchy in sorted(network.hierarchy_set):
        members = sorted(network.links_of_hierarchy(hierarchy), key=lambda l: l.id)
        equipped = [(l.id, l.length_km) for l in members if l.id in by_link]
        non_equipped = [l.length_km for l in members if l.id not in by_link]
        if not equipped:
            if non_equipped:
                raise UncoverableHierarchyError(hierarchy)
            continue
        equipped_rate = math.fsum(by_link[link_id] * length for link_id, length in equipped)
        rate += equipped_rate
        if non_equipped:
            rate += equipped_rate * (
                math.fsum(non_equipped) / math.fsum(length for _, length in equipped)
            )
    total = network.total_length_km
    return rate / total, rate * duration_h


def _bits(*values):
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize("seed", range(3))
def test_array_estimators_match_the_object_references(seed):
    """Bit for bit, on plans whose bins miss readings, whole classes or
    every detector, with several detectors on some links."""
    network, sites, readings = make_reading_scenario(seed)
    columns = reading_columns(readings, sites, network.link_ids)
    bins = range(max(READING_BINS) + 1)
    failures = set()
    for fraction in (1.0, 0.3, 0.05):
        plan, retained = sample_coverage(sites, network, fraction, seed)
        kept = set(plan.retained_detectors)
        by_bin = {}
        kept_readings = make_readings(r for r in reading_rows(readings) if r[0] in kept)
        for obs in reference_aggregate(kept_readings, retained):
            by_bin.setdefault(obs.bin_index, []).append(obs)
        grid = columns.observe(plan.retained_detectors)
        for estimator, mode in (
            ("uniform", "exact"), ("uniform", "mean-only"), ("hierarchical", "exact"),
        ):
            for outcome in estimate_bins(
                estimator, grid, bins, VARIABLES, network, uniform_mode=mode, duration_h=0.25,
            ):
                b, variable = outcome.bin_index, outcome.variable
                obs = by_bin.get(b, [])
                try:
                    if not obs:
                        raise InsufficientDataError("no equipped observation")
                    if estimator == "uniform":
                        expected = reference_uniform(obs, network, variable, mode, 0.25)
                        adapted = uniform_scaled_mean(obs, network, variable, mode, 0.25)
                    else:
                        expected = reference_hierarchical(obs, network, variable, 0.25)
                        partition = HierarchyPartition.from_network(
                            network, [o.link_id for o in obs]
                        )
                        adapted = hierarchical_scaled_mean(obs, partition, variable, 0.25)
                except NotEstimableError as exc:
                    assert str(outcome.failure) == f"bin {b} ({variable}): {exc}"
                    failures.add((type(exc), b))
                    continue
                assert outcome.failure is None
                estimate = outcome.estimate
                assert _bits(estimate.value, estimate.ttd_or_ttt) == _bits(*expected)
                assert _bits(adapted.value, adapted.ttd_or_ttt) == _bits(*expected)
    assert (UncoverableHierarchyError, CLASS_GAP_BIN) in failures
    assert (InsufficientDataError, 1) in failures


def test_uncovered_class_keeps_the_partition_and_coverage_texts():
    network, sites, readings = make_reading_scenario(0)
    observations = [o for o in reference_aggregate(readings, sites) if o.bin_index == CLASS_GAP_BIN]
    missing = sorted(set(network.link_ids) - {o.link_id for o in observations})
    assert any(link_id.startswith("h3_") for link_id in missing)
    whole = HierarchyPartition.from_network(network, network.link_ids)
    with pytest.raises(ValidationError) as err:
        hierarchical_scaled_mean(observations, whole)
    assert str(err.value) == (
        "observations do not match the partition's equipped links "
        f"(missing {missing[:5]}, unexpected [])"
    )
    partition = HierarchyPartition.from_network(network, [o.link_id for o in observations])
    with pytest.raises(UncoverableHierarchyError) as err:
        hierarchical_scaled_mean(observations, partition)
    assert str(err.value) == "hierarchy 3 has non-equipped links but no equipped observation"
