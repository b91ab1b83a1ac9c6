"""Reading aggregation, stratified coverage sampling and reference truth."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemfd.errors import AlignmentError, InsufficientDataError, SchemaError, ValidationError
from sparsemfd.kriging import impute_network
from sparsemfd.network import DetectorSite, Link, Network, midpoint_sites
from sparsemfd.scaling import uniform_scaled_mean
from sparsemfd.sensing import (
    LinkObservation,
    aggregate_to_links,
    bin_arrays,
    edie_network_truth,
    edie_truth_series,
    load_coverage_plan,
    load_readings,
    reading_columns,
    sample_coverage,
    sample_coverage_counts,
    write_readings,
)
from sparsemfd.tableio import BLOCK_ROWS, TEXT, read_table, write_json
from conftest import (
    READING_BINS,
    make_reading_scenario,
    make_readings,
    make_tiered_sites,
    reading_rows,
    reference_aggregate,
    reference_load_readings,
)


# --- reading I/O --------------------------------------------------------------


def _column_bits(readings):
    return (
        readings.detector_ids, readings.bin_index.dtype, readings.bin_index.tolist(),
        readings.flow.tobytes(), readings.density.tobytes(), readings.speed.tobytes(),
    )


def test_readings_round_trip(tmp_path):
    readings = make_readings([("d1", 0, 100.0, 10.0, 10.0), ("d2", 0, 50.0, 0.0, None)])
    path = tmp_path / "readings.csv"
    write_readings(path, readings)
    assert _column_bits(load_readings(path)) == _column_bits(readings)


def _reference_bits(readings):
    """``_column_bits`` of the oracle's reading objects."""
    return _column_bits(make_readings([
        (r.detector_id, r.bin_index, r.flow_veh_per_h, r.density_veh_per_km, r.speed_km_per_h)
        for r in readings
    ]))


HEADER = "detector_id,bin_index,flow_veh_per_h,density_veh_per_km"


def _long_doc(fault_row, fault, rows=BLOCK_ROWS + 40, quoted_every=0):
    """A readings table of ``rows`` rows whose row ``fault_row`` (0-based)
    is ``fault``; with ``quoted_every`` every such row has a two-line id."""
    lines = [HEADER]
    for i in range(rows):
        if i == fault_row:
            lines.append(fault)
        elif quoted_every and i % quoted_every == 0:
            lines.append(f'"d\n{i}",{i % 7},{i * 0.5},{i % 13}')
        else:
            lines.append(f"d{i},{i % 7},{i * 0.5},{i % 13}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        HEADER + ",speed_km_per_h\nd1,0,100,10,10\nd2,3,50.5,0,\nd1,1,1e3,2.5,400\n",
        HEADER + "\nd1,0,100,10\nd2,3,50.5,0\n",
        HEADER + ",speed_km_per_h\n\nd1 , 2 ,  7.25,0.5 ,\n,,,,\n d2,0,0,0,  \n",
        HEADER + "\n",
        # value faults: inf, negative, a negative bin; the first row in order wins
        HEADER + "\nd1,0,1,1\nd2,1,inf,1\nd3,-1,1,1\n",
        HEADER + "\nd1,0,1,-inf\n",
        HEADER + "\nd1,-2,-1,-1\n",
        HEADER + "\nd1,0,-0.5,1\nd2,0,1,-3\n",
        HEADER + "\nd1,4,2,-3\n",
        # parse faults: NaN, non-numeric cells, a missing id or column
        HEADER + "\nd1,0,nan,1\n",
        HEADER + ",speed_km_per_h\nd1,0,1,1,fast\n",
        HEADER + "\nd1,x,1,1\n",
        HEADER + "\nd1,1.5,1,1\n",
        HEADER + "\n,0,1,1\n",
        "detector_id,bin_index,flow_veh_per_h\nd1,0,1\n",
        "",
        # both fault orders
        HEADER + "\nd1,0,1,1\nd2,0,-1,1\nd3,0,one,1\n",
        HEADER + "\nd1,0,1,1\nd3,0,one,1\nd2,0,-1,1\n",
        HEADER + "\nd1,0,1,1\nd2,-1,1,1\nd3,0,1,\n",
        HEADER + "\nd1,0,-1,x\n",
        # rows past the first block: a parse fault, a value fault, a value
        # fault in the first block before a parse fault in the second, and a
        # fault after two-line ids in both blocks
        _long_doc(BLOCK_ROWS + 5, "d,0,1,x"),
        _long_doc(BLOCK_ROWS + 5, "d,0,-1,1"),
        _long_doc(3, "d,0,-1,1").replace(f"\nd{BLOCK_ROWS + 9},", "\nd,x,"),
        _long_doc(3, "d,0,-1,1").replace(f"\nd{BLOCK_ROWS + 9},", "\nd\r3,"),
        _long_doc(BLOCK_ROWS + 30, "d,0,1,", quoted_every=97),
        _long_doc(-1, "", quoted_every=97),
        # a fault after a multi-line quoted id
        HEADER + '\n"d\n1",0,1,1\n"d\n\n2",1,1,1\nd3,1,?,1\n',
        # empty and blank cells beyond the header, a short row, a
        # whitespace-only row, a blank row
        HEADER + "\nd1,0,1,1,,\n   \n\nd2,0,1,1, \n",
        HEADER + ",speed_km_per_h\nd1,0,1,1\nd2,0,1,1,5\n",
        HEADER + "\nd1,0,1,1\nd2,0,1\n",
        # a NaN speed among blank ones; a repeated column reads its last cell
        HEADER + ",speed_km_per_h\nd1,0,1,1,\nd2,0,1,1,nan\n",
        HEADER + ",flow_veh_per_h\nd1,0,1,1,5\nd2,0,2,1,6\n",
        # bins with a sign and with underscores
        HEADER + "\nd1,+3,1,1\nd2,1_000,1_0.5,1\n",
        # a bare CR inside a row that a stream reads as one line stops the
        # csv reader; a fault in an earlier row of its block still wins
        HEADER + "\nd1,0,x,1\nd2,0,1,1\nd\r3,0,1,1\n",
        HEADER + "\nd1,0,1,1\nd\r3,0,1,1\n",
        # a quoted id holding the delimiter and a quote
        HEADER + ',speed_km_per_h\n"d,1",0,1,1,\n"say ""d2""",0,1,1,2\n',
    ],
)
@pytest.mark.parametrize("delimiter", [",", "\t"])
@pytest.mark.parametrize("from_path", [False, True])
def test_load_readings_matches_the_per_row_reference(doc, delimiter, from_path, tmp_path):
    doc = doc.replace(",", delimiter)
    if from_path:
        path = tmp_path / "readings.txt"
        path.write_text(doc, newline="")
        source = lambda: path  # noqa: E731
    else:
        source = lambda: io.StringIO(doc)  # noqa: E731
    try:
        expected = _reference_bits(reference_load_readings(source(), delimiter))
    except Exception as exc:
        with pytest.raises(type(exc)) as err:
            load_readings(source(), delimiter)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
    else:
        assert _column_bits(load_readings(source(), delimiter)) == expected


@pytest.mark.parametrize(
    "bin_text", ["99999999999999999999", "-99999999999999999999", "9223372036854775808"]
)
def test_load_readings_rejects_a_bin_beyond_64_bits(bin_text):
    # the per-row reference takes any Python int, so this case is not in its corpus
    doc = HEADER + f"\nd1,9223372036854775807,1,1\nd2,{bin_text},1,1\n"
    with pytest.raises(SchemaError) as err:
        load_readings(io.StringIO(doc))
    assert (err.value.line, err.value.field) == (3, "bin_index")
    assert str(err.value) == (
        f"integer beyond 64 bits: '{bin_text}' [field 'bin_index'] [line 3]"
    )


@pytest.mark.parametrize(
    "doc, line",
    [
        (HEADER + "\nd1,0,1,1,9,9\n   \n\nd2,0,1,1\n", 2),
        (HEADER + "\nd1,0,1,1\n,,,,x\n", 3),
        # past the first block: the header, 1029 rows and 11 two-line ids
        (_long_doc(BLOCK_ROWS + 5, "d,0,1,1,,x", quoted_every=97), BLOCK_ROWS + 18),
    ],
)
@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_tables_reject_text_beyond_the_header(doc, line, delimiter):
    doc = doc.replace(",", delimiter)
    for read in (
        lambda: load_readings(io.StringIO(doc), delimiter),
        lambda: read_table(io.StringIO(doc), {"detector_id": TEXT}, delimiter).check(),
    ):
        with pytest.raises(SchemaError) as err:
            read()
        assert err.value.line == line
        assert str(err.value) == f"text beyond the 4 columns of the header [line {line}]"


@pytest.mark.parametrize(
    "doc, error, text",
    [
        (HEADER + "\nd1,0,x,1\nd2,0,1,1,9\n", SchemaError,
         "not a number: 'x' [field 'flow_veh_per_h'] [line 2]"),
        (_long_doc(3, "d,0,-1,1") + "d,0,1,1,9\n", ValidationError,
         "detector 'd' bin 0: flow_veh_per_h must be nonnegative, got -1.0"),
    ],
)
def test_an_earlier_fault_wins_over_text_beyond_the_header(doc, error, text):
    with pytest.raises(error) as err:
        load_readings(io.StringIO(doc))
    assert str(err.value) == text


def test_load_readings_rejects_negative_flow():
    doc = "detector_id,bin_index,flow_veh_per_h,density_veh_per_km\nd1,0,-5,1\n"
    with pytest.raises(ValidationError):
        load_readings(io.StringIO(doc))


# --- aggregation --------------------------------------------------------------


def test_single_reading_passes_through():
    sites = (DetectorSite("d1", "A"),)
    obs = aggregate_to_links(make_readings([("d1", 0, 100.0, 10.0)]), sites)
    assert obs == [LinkObservation("A", 0, 100.0, 10.0)]


def test_two_detectors_on_one_link_average():
    sites = (DetectorSite("d1", "A", 0.2), DetectorSite("d2", "A", 0.8))
    obs = aggregate_to_links(
        make_readings([("d1", 0, 100.0, 10.0), ("d2", 0, 200.0, 30.0)]), sites
    )
    assert obs == [LinkObservation("A", 0, 150.0, 20.0)]


def test_detector_silent_in_a_bin_averages_the_present_ones():
    sites = (DetectorSite("d1", "A", 0.2), DetectorSite("d2", "A", 0.8))
    readings = make_readings([
        ("d1", 0, 100.0, 10.0),
        ("d2", 0, 200.0, 30.0),
        ("d1", 1, 60.0, 6.0),
    ])
    obs = aggregate_to_links(readings, sites)
    assert obs == [
        LinkObservation("A", 0, 150.0, 20.0),
        LinkObservation("A", 1, 60.0, 6.0),
    ]


def test_bin_arrays_follow_network_link_order():
    net = Network([
        Link("b", "n0", "n1", 1.0, 1), Link("a", "n1", "n2", 2.0, 1), Link("c", "n2", "n3", 1.0, 2),
    ])
    obs = [LinkObservation("c", 4, 5.0, 0.5), LinkObservation("b", 4, 7.0, 0.7)]
    bin_index, values, observed = bin_arrays(obs, net.link_ids, "density")
    assert bin_index == 4
    assert observed.tolist() == [True, False, True]
    assert values[observed].tolist() == [0.7, 0.5]
    assert np.isnan(values[1])
    with pytest.raises(ValidationError):
        bin_arrays(obs + [LinkObservation("b", 4, 1.0, 0.1)], net.link_ids)
    with pytest.raises(ValidationError):
        bin_arrays([LinkObservation("z", 4, 1.0, 0.1)], net.link_ids)
    # both one-bin adapters read their observations through bin_arrays
    mixed = obs + [LinkObservation("a", 5, 1.0, 0.1)]
    with pytest.raises(AlignmentError):
        bin_arrays(mixed, net.link_ids)
    with pytest.raises(AlignmentError):
        bin_arrays([], net.link_ids)
    with pytest.raises(AlignmentError):
        uniform_scaled_mean(mixed, net)
    with pytest.raises(AlignmentError):
        impute_network(net, mixed, midpoint_sites(net))


def test_unknown_detector_rejected():
    with pytest.raises(ValidationError):
        aggregate_to_links(make_readings([("ghost", 0, 1.0, 1.0)]), (DetectorSite("d1", "A"),))


def test_double_report_rejected():
    sites = (DetectorSite("d1", "A"),)
    readings = make_readings([("d1", 0, 1.0, 1.0), ("d1", 0, 2.0, 2.0)])
    with pytest.raises(ValidationError):
        aggregate_to_links(readings, sites)


def test_aggregation_ignores_reading_order():
    sites = (DetectorSite("d1", "A", 0.2), DetectorSite("d2", "A", 0.8))
    rows = [("d1", 0, 101.7, 11.3), ("d2", 0, 207.9, 31.9)]
    a = aggregate_to_links(make_readings(rows), sites)
    b = aggregate_to_links(make_readings(reversed(rows)), sites)
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
            for o in reference_aggregate(
                make_readings(r for r in reading_rows(readings) if r[0] in kept), subset
            )
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


def test_observe_names_retained_ids_that_name_no_site():
    network, sites, readings = make_reading_scenario(0)
    columns = reading_columns(readings, sites, network.link_ids)
    with pytest.raises(ValidationError) as err:
        columns.observe(["d_h1_0", "typo"])
    assert str(err.value) == "unknown detector ids in retained_ids: 'typo'"
    with pytest.raises(ValidationError) as err:
        columns.observe(["d_h1_0"] + [f"x{i:02d}" for i in range(12)])
    assert str(err.value) == (
        "unknown detector ids in retained_ids: 'x00', 'x01', 'x02', 'x03', 'x04', "
        "'x05', 'x06', 'x07', 'x08', 'x09' and 2 more"
    )


@pytest.mark.parametrize(
    "readings, message",
    [
        (
            make_readings([("d1", 0, 1.0, 1.0), ("d1", 0, 2.0, 2.0), ("ghost", 1, 1.0, 1.0)]),
            "detector 'd1' reports twice in bin 0",
        ),
        (
            make_readings([("d1", 0, 1.0, 1.0), ("ghost", 1, 1.0, 1.0), ("d1", 0, 2.0, 2.0)]),
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
    write_json(path, plan)
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
    with pytest.raises(ValidationError) as err:
        edie_network_truth(obs, net, 0)
    assert str(err.value) == "link 'A' observed twice in bin 0"


def test_truth_reads_only_its_bin_and_rejects_unknown_links():
    net = Network((Link("A", "a", "b", 1.0, 1), Link("B", "b", "c", 3.0, 1)))
    obs = [LinkObservation("A", 0, 100.0, 10.0), LinkObservation("B", 1, 300.0, 30.0)]
    with pytest.raises(InsufficientDataError) as err:
        edie_network_truth(obs, net, 2)
    assert str(err.value) == "bin 2: no observation for links A, B"
    assert edie_network_truth(obs + [LinkObservation("B", 0, 300.0, 30.0)], net, 0) == (250.0, 25.0)
    with pytest.raises(ValidationError) as err:
        edie_network_truth(obs + [LinkObservation("Z", 0, 1.0, 1.0)], net, 0)
    assert str(err.value) == "unknown link id 'Z'"


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
