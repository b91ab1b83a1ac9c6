"""Reading aggregation, stratified coverage sampling and reference truth."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemfd.errors import InsufficientDataError, ValidationError
from sparsemfd.network import DetectorSite, Link, Network
from sparsemfd.sensing import (
    DetectorReading,
    LinkObservation,
    aggregate_to_links,
    edie_network_truth,
    edie_truth_series,
    load_coverage_plan,
    load_readings,
    reading_columns,
    sample_coverage,
    sample_coverage_counts,
    save_coverage_plan,
    write_readings,
)
from conftest import (
    READING_BINS,
    make_reading_scenario,
    make_tiered_sites,
    reference_aggregate,
)


def _reading(det, b, q, k):
    return DetectorReading(
        detector_id=det, bin_index=b, flow_veh_per_h=q, density_veh_per_km=k
    )


# --- reading I/O --------------------------------------------------------------


def test_readings_round_trip(tmp_path):
    readings = [
        DetectorReading("d1", 0, 100.0, 10.0, 10.0),
        DetectorReading("d2", 0, 50.0, 0.0, None),
    ]
    path = tmp_path / "readings.csv"
    write_readings(path, readings)
    assert load_readings(path) == readings


def test_load_readings_rejects_negative_flow():
    doc = "detector_id,bin_index,flow_veh_per_h,density_veh_per_km\nd1,0,-5,1\n"
    with pytest.raises(ValidationError):
        load_readings(io.StringIO(doc))


# --- aggregation --------------------------------------------------------------


def test_single_reading_passes_through():
    sites = (DetectorSite("d1", "A"),)
    obs = aggregate_to_links([_reading("d1", 0, 100.0, 10.0)], sites)
    assert obs == [LinkObservation("A", 0, 100.0, 10.0)]


def test_two_detectors_on_one_link_average():
    sites = (DetectorSite("d1", "A", 0.2), DetectorSite("d2", "A", 0.8))
    obs = aggregate_to_links(
        [_reading("d1", 0, 100.0, 10.0), _reading("d2", 0, 200.0, 30.0)], sites
    )
    assert obs == [LinkObservation("A", 0, 150.0, 20.0)]


def test_detector_silent_in_a_bin_averages_the_present_ones():
    sites = (DetectorSite("d1", "A", 0.2), DetectorSite("d2", "A", 0.8))
    readings = [
        _reading("d1", 0, 100.0, 10.0),
        _reading("d2", 0, 200.0, 30.0),
        _reading("d1", 1, 60.0, 6.0),
    ]
    obs = aggregate_to_links(readings, sites)
    assert obs == [
        LinkObservation("A", 0, 150.0, 20.0),
        LinkObservation("A", 1, 60.0, 6.0),
    ]


def test_unknown_detector_rejected():
    with pytest.raises(ValidationError):
        aggregate_to_links([_reading("ghost", 0, 1.0, 1.0)], (DetectorSite("d1", "A"),))


def test_double_report_rejected():
    sites = (DetectorSite("d1", "A"),)
    readings = [_reading("d1", 0, 1.0, 1.0), _reading("d1", 0, 2.0, 2.0)]
    with pytest.raises(ValidationError):
        aggregate_to_links(readings, sites)


def test_aggregation_ignores_reading_order():
    sites = (DetectorSite("d1", "A", 0.2), DetectorSite("d2", "A", 0.8))
    readings = [_reading("d1", 0, 101.7, 11.3), _reading("d2", 0, 207.9, 31.9)]
    a = aggregate_to_links(readings, sites)
    b = aggregate_to_links(list(reversed(readings)), sites)
    assert a[0].flow_veh_per_h == pytest.approx(b[0].flow_veh_per_h, rel=1e-12)
    assert a[0].density_veh_per_km == pytest.approx(b[0].density_veh_per_km, rel=1e-12)


def _bits(value):
    return struct.pack("<d", value)


def _observation_bits(observations):
    return [
        (o.link_id, o.bin_index, _bits(o.flow_veh_per_h), _bits(o.density_veh_per_km))
        for o in observations
    ]


@pytest.mark.parametrize("seed", range(4))
def test_columnar_aggregation_matches_the_reference_loop(seed):
    network, sites, readings = make_reading_scenario(seed)
    assert _observation_bits(aggregate_to_links(readings, sites)) == _observation_bits(
        reference_aggregate(readings, sites)
    )

    columns = reading_columns(readings, sites, network.link_ids)
    plan, retained = sample_coverage(sites, network, 0.3, seed)
    for retained_ids, subset in ((None, sites), (plan.retained_detectors, retained)):
        kept = {s.detector_id for s in subset}
        expected = {
            (o.bin_index, o.link_id): o
            for o in reference_aggregate([r for r in readings if r.detector_id in kept], subset)
        }
        grid = columns.observe(retained_ids)
        assert grid.bins.tolist() == list(READING_BINS)
        for r, b in enumerate(READING_BINS):
            for j, link_id in enumerate(network.link_ids):
                obs = expected.get((b, link_id))
                assert grid.observed[r, j] == (obs is not None)
                if obs is not None:
                    assert _bits(grid.flow[r, j]) == _bits(obs.flow_veh_per_h)
                    assert _bits(grid.density[r, j]) == _bits(obs.density_veh_per_km)


@pytest.mark.parametrize(
    "readings, message",
    [
        (
            [_reading("d1", 0, 1.0, 1.0), _reading("d1", 0, 2.0, 2.0),
             _reading("ghost", 1, 1.0, 1.0)],
            "detector 'd1' reports twice in bin 0",
        ),
        (
            [_reading("d1", 0, 1.0, 1.0), _reading("ghost", 1, 1.0, 1.0),
             _reading("d1", 0, 2.0, 2.0)],
            "reading references unknown detector 'ghost'",
        ),
    ],
)
def test_first_offending_reading_is_reported(readings, message):
    sites = (DetectorSite("d1", "A"),)
    for aggregate in (reference_aggregate, aggregate_to_links):
        with pytest.raises(ValidationError) as err:
            aggregate(readings, sites)
        assert str(err.value) == message


# --- stratified sampling ------------------------------------------------------


def test_sample_full_fraction_keeps_everything(tiered_sites):
    net, sites = tiered_sites
    plan, retained = sample_coverage(sites, net, 1.0, seed=0)
    assert len(retained) == len(sites)
    assert plan.per_hierarchy_counts == {1: 39, 2: 75, 3: 28}


@pytest.mark.parametrize(
    "fraction,expected",
    [
        (0.30, {1: 12, 2: 22, 3: 8}),
        (0.20, {1: 8, 2: 15, 3: 6}),
        (0.10, {1: 4, 2: 8, 3: 3}),
        (0.05, {1: 2, 2: 4, 3: 1}),
    ],
)
def test_sample_fractions_of_tiered_census(tiered_sites, fraction, expected):
    net, sites = tiered_sites
    plan, retained = sample_coverage(sites, net, fraction, seed=5)
    assert plan.per_hierarchy_counts == expected
    assert len(retained) == sum(expected.values())


def test_sample_is_deterministic(tiered_sites):
    net, sites = tiered_sites
    _, first = sample_coverage(sites, net, 0.3, seed=42)
    _, second = sample_coverage(sites, net, 0.3, seed=42)
    assert [s.detector_id for s in first] == [s.detector_id for s in second]
    _, other = sample_coverage(sites, net, 0.3, seed=43)
    assert [s.detector_id for s in other] != [s.detector_id for s in first]


def test_sample_keeps_one_site_per_class_at_tiny_fractions(tiered_sites):
    net, sites = tiered_sites
    plan, retained = sample_coverage(sites, net, 0.001, seed=0)
    assert plan.per_hierarchy_counts == {1: 1, 2: 1, 3: 1}
    hierarchies = {net.link(s.link_id).hierarchy for s in retained}
    assert hierarchies == {1, 2, 3}


def test_sample_fraction_bounds(tiered_sites):
    net, sites = tiered_sites
    with pytest.raises(ValueError):
        sample_coverage(sites, net, 0.0, seed=0)
    with pytest.raises(ValueError):
        sample_coverage(sites, net, 1.2, seed=0)


def test_explicit_counts_are_honoured(tiered_sites):
    net, sites = tiered_sites
    plan, retained = sample_coverage_counts(sites, net, {1: 5, 2: 9, 3: 2}, seed=1)
    got = {}
    for s in retained:
        h = net.link(s.link_id).hierarchy
        got[h] = got.get(h, 0) + 1
    assert got == {1: 5, 2: 9, 3: 2}
    assert plan.per_hierarchy_counts == {1: 5, 2: 9, 3: 2}


def test_explicit_counts_validation(tiered_sites):
    net, sites = tiered_sites
    with pytest.raises(ValidationError):
        sample_coverage_counts(sites, net, {1: 5, 2: 9}, seed=1)
    with pytest.raises(ValidationError):
        sample_coverage_counts(sites, net, {1: 0, 2: 9, 3: 2}, seed=1)
    with pytest.raises(ValidationError):
        sample_coverage_counts(sites, net, {1: 40, 2: 9, 3: 2}, seed=1)


@settings(max_examples=40, deadline=None)
@given(
    f1=st.floats(min_value=0.01, max_value=1.0),
    f2=st.floats(min_value=0.01, max_value=1.0),
)
def test_per_class_counts_grow_with_the_fraction(f1, f2):
    lo, hi = sorted((f1, f2))
    net, sites = make_tiered_sites((9, 17, 5))
    plan_lo, _ = sample_coverage(sites, net, lo, seed=0)
    plan_hi, _ = sample_coverage(sites, net, hi, seed=0)
    for h in (1, 2, 3):
        assert plan_lo.per_hierarchy_counts[h] <= plan_hi.per_hierarchy_counts[h]


def test_plan_round_trip(tmp_path, tiered_sites):
    net, sites = tiered_sites
    plan, _ = sample_coverage(sites, net, 0.3, seed=9)
    path = tmp_path / "plan.json"
    save_coverage_plan(plan, path)
    loaded = load_coverage_plan(path)
    assert loaded == plan


# --- reference network truth --------------------------------------------------


def test_truth_weights_by_length():
    net = Network((Link("A", "a", "b", 1.0, 1), Link("B", "b", "c", 3.0, 1)))
    obs = [LinkObservation("A", 0, 100.0, 10.0), LinkObservation("B", 0, 300.0, 30.0)]
    q, k = edie_network_truth(obs, net, 0)
    assert q == pytest.approx(250.0, abs=1e-12)
    assert k == pytest.approx(25.0, abs=1e-12)


def test_truth_homogeneous_network():
    net = Network((Link("A", "a", "b", 0.7, 1), Link("B", "b", "c", 2.1, 2)))
    obs = [LinkObservation("A", 0, 500.0, 12.0), LinkObservation("B", 0, 500.0, 12.0)]
    q, k = edie_network_truth(obs, net, 0)
    assert q == pytest.approx(500.0, rel=1e-14)
    assert k == pytest.approx(12.0, rel=1e-14)


def test_truth_zero_state():
    net = Network((Link("A", "a", "b", 1.0, 1),))
    q, k = edie_network_truth([LinkObservation("A", 0, 0.0, 0.0)], net, 0)
    assert (q, k) == (0.0, 0.0)


def test_truth_requires_full_coverage():
    net = Network((Link("A", "a", "b", 1.0, 1), Link("B", "b", "c", 3.0, 1)))
    with pytest.raises(InsufficientDataError) as err:
        edie_network_truth([LinkObservation("A", 0, 1.0, 1.0)], net, 0)
    assert "B" in str(err.value)


def test_truth_rejects_duplicate_observation():
    net = Network((Link("A", "a", "b", 1.0, 1),))
    obs = [LinkObservation("A", 0, 1.0, 1.0), LinkObservation("A", 0, 2.0, 2.0)]
    with pytest.raises(ValidationError):
        edie_network_truth(obs, net, 0)


def reference_truth(observations, network, bin_index):
    """The per-bin Edie truth that ``edie_network_truth`` computed before the
    link-indexed arrays: fresh arrays and one dot per bin, in link order."""
    by_link = {}
    for obs in observations:
        if obs.bin_index != bin_index:
            continue
        if obs.link_id in by_link:
            raise ValidationError(f"link '{obs.link_id}' observed twice in bin {bin_index}")
        by_link[obs.link_id] = obs
    missing = [link.id for link in network.links if link.id not in by_link]
    if missing:
        shown = ", ".join(missing[:10])
        more = "" if len(missing) <= 10 else f" and {len(missing) - 10} more"
        raise InsufficientDataError(f"bin {bin_index}: no observation for links {shown}{more}")
    lengths = np.array([link.length_km for link in network.links])
    flows = np.array([by_link[link.id].flow_veh_per_h for link in network.links])
    densities = np.array([by_link[link.id].density_veh_per_km for link in network.links])
    total = network.total_length_km
    return float(flows @ lengths / total), float(densities @ lengths / total)


@pytest.mark.parametrize("seed", range(4))
def test_truth_series_matches_the_reference_bit_for_bit(seed):
    network, sites, readings = make_reading_scenario(seed, silent=0.0, class_gap=False)
    observations = reference_aggregate(readings, sites)
    flow, density = edie_truth_series(
        reading_columns(readings, sites, network.link_ids).observe(), network
    )
    assert list(flow) == list(READING_BINS)
    for b in READING_BINS:
        expected = tuple(map(_bits, reference_truth(observations, network, b)))
        assert (_bits(flow[b]), _bits(density[b])) == expected
        assert tuple(map(_bits, edie_network_truth(observations, network, b))) == expected


def test_truth_series_names_the_missing_links_of_the_first_short_bin():
    network, sites, readings = make_reading_scenario(0)
    observations = reference_aggregate(readings, sites)
    short = next(
        b for b in READING_BINS
        if len({o.link_id for o in observations if o.bin_index == b}) < len(network.links)
    )
    with pytest.raises(InsufficientDataError) as expected:
        reference_truth(observations, network, short)
    with pytest.raises(InsufficientDataError) as err:
        edie_truth_series(reading_columns(readings, sites, network.link_ids).observe(), network)
    assert str(err.value) == str(expected.value)


def test_truth_invariant_under_link_split():
    """Splitting a link into equal halves carrying the same state leaves the
    network truth unchanged."""
    whole = Network((Link("A", "a", "b", 2.0, 1), Link("B", "b", "c", 1.0, 1)))
    split = Network((
        Link("A1", "a", "m", 1.0, 1),
        Link("A2", "m", "b", 1.0, 1),
        Link("B", "b", "c", 1.0, 1),
    ))
    obs_whole = [
        LinkObservation("A", 0, 120.0, 14.0),
        LinkObservation("B", 0, 60.0, 8.0),
    ]
    obs_split = [
        LinkObservation("A1", 0, 120.0, 14.0),
        LinkObservation("A2", 0, 120.0, 14.0),
        LinkObservation("B", 0, 60.0, 8.0),
    ]
    assert edie_network_truth(obs_whole, whole, 0) == pytest.approx(
        edie_network_truth(obs_split, split, 0), rel=1e-12
    )
