"""Uniform and hierarchical scaling estimators and the covariance diagnostic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemfd.errors import (
    AlignmentError,
    InsufficientDataError,
    UncoverableHierarchyError,
    ValidationError,
)
from sparsemfd.network import Link, Network
from sparsemfd.scaling import (
    HierarchyPartition,
    flow_length_covariance,
    hierarchical_scaled_mean,
    uniform_scaled_mean,
)
from sparsemfd.sensing import LinkObservation, edie_network_truth


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
    assert partition.equipped_ids == {"A1", "B1"}
    assert partition.equipped_ids is partition.equipped_ids
    with pytest.raises(ValidationError) as err:
        hierarchical_scaled_mean([_obs("A1", 1.0), _obs("B2", 1.0)], partition)
    assert str(err.value) == (
        "observations do not match the partition's equipped links "
        "(missing ['B1'], unexpected ['B2'])"
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


# --- covariance diagnostic ----------------------------------------------------


def test_covariance_worked_example():
    net = Network((Link("A", "a", "b", 1.0, 1), Link("B", "b", "c", 2.0, 1)))
    diag = flow_length_covariance([_obs("A", 100.0), _obs("B", 200.0)], net)
    assert diag.covariance == 25.0
    assert diag.mean_flow == 150.0
    assert diag.mean_length_km == 1.5
    assert diag.ratio == pytest.approx(25.0 / 225.0, rel=1e-14)


def test_covariance_vanishes_for_constant_flow():
    net = Network((
        Link("A", "a", "b", 1.0, 1),
        Link("B", "b", "c", 2.0, 1),
        Link("C", "c", "d", 3.0, 1),
    ))
    obs = [_obs("A", 100.0), _obs("B", 100.0), _obs("C", 100.0)]
    assert flow_length_covariance(obs, net).covariance == 0.0


def test_covariance_small_for_independent_draws():
    """Independent flows and lengths keep the ratio close to zero."""
    rng = np.random.default_rng(321)
    n = 2000
    lengths = rng.uniform(0.5, 2.0, size=n)
    flows = rng.uniform(50.0, 150.0, size=n)
    links = tuple(
        Link(f"L{i}", f"n{i}", f"n{i + 1}", float(lengths[i]), 1) for i in range(n)
    )
    net = Network(links)
    obs = [_obs(f"L{i}", float(flows[i])) for i in range(n)]
    diag = flow_length_covariance(obs, net)
    assert abs(diag.ratio) < 0.05


def test_covariance_needs_two_observations(quad_network):
    with pytest.raises(InsufficientDataError):
        flow_length_covariance([_obs("L0", 1.0)], quad_network)
