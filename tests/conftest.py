"""Shared fixtures: small handwritten networks and one reusable synthetic run."""

import csv
import math
import os
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from sparsemfd.errors import EstimationError, SchemaError, ValidationError
from sparsemfd.network import (
    DEFAULT_OFFSET,
    NETWORK_COLUMNS,
    DetectorSite,
    Link,
    Network,
    _anchors,
    _node_graph,
    _shortest_paths,
    midpoint_sites,
)
from sparsemfd.sensing import READING_COLUMNS, LinkObservation, Readings
from sparsemfd.synth import SyntheticScenario, generate_scenario
from sparsemfd.tableio import FLOAT, INT, INT64, OPTIONAL_FLOAT, TEXT, format_value
from sparsemfd.variogram import VariogramModel


def make_readings(rows):
    """``Readings`` from ``(detector_id, bin_index, flow, density[, speed])``
    tuples; a missing or None speed reads as NaN."""
    rows = [tuple(row) + (None,) * (5 - len(row)) for row in rows]
    return Readings(
        detector_ids=tuple(row[0] for row in rows),
        bin_index=np.array([row[1] for row in rows], dtype=np.int64),
        flow=np.array([row[2] for row in rows], dtype=float),
        density=np.array([row[3] for row in rows], dtype=float),
        speed=np.array([math.nan if row[4] is None else row[4] for row in rows], dtype=float),
    )


def reading_rows(readings):
    """The ``(detector_id, bin_index, flow, density)`` tuples of ``Readings``."""
    return list(zip(
        readings.detector_ids, readings.bin_index.tolist(),
        readings.flow.tolist(), readings.density.tolist(),
    ))


@dataclass(frozen=True)
class ReferenceReading:
    """One reading as an object checked on construction: the per-row form
    that readings took before they were held as columns."""

    detector_id: str
    bin_index: int
    flow_veh_per_h: float
    density_veh_per_km: float
    speed_km_per_h: float | None = None

    def __post_init__(self):
        if self.bin_index < 0:
            raise ValidationError(
                f"detector '{self.detector_id}': bin index must be nonnegative"
            )
        for name in ("flow_veh_per_h", "density_veh_per_km"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(
                    f"detector '{self.detector_id}' bin {self.bin_index}: "
                    f"{name} must be nonnegative, got {value}"
                )


def reference_iter_rows(source, required, delimiter=","):
    """The ``csv.DictReader`` loop that read tables before they were read in
    row blocks: the oracle for the rows and line numbers of ``read_table``."""
    if hasattr(source, "read"):
        yield from _reference_rows(source, required, delimiter)
    else:
        with open(os.fspath(source), newline="") as handle:
            yield from _reference_rows(handle, required, delimiter)


def _reference_rows(handle, required, delimiter):
    reader = csv.DictReader(handle, delimiter=delimiter)
    header = reader.fieldnames
    if header is None:
        raise SchemaError("document is empty, expected a header row")
    for name in required:
        if name not in header:
            raise SchemaError("missing required column", field=name)
    for row in reader:
        if not any(isinstance(v, str) and v.strip() for v in row.values()):
            continue
        yield reader.line_num, row


# The per-cell parsers that converted table cells before tables were read
# as typed columns: the oracle for the values and error texts of
# ``read_table``. They share no code with it.


def cell(row, field):
    value = row.get(field)
    return value.strip() if isinstance(value, str) else None


def parse_str(row, field, lineno):
    value = cell(row, field)
    if not value:
        raise SchemaError("empty value", line=lineno, field=field)
    return value


def parse_float(row, field, lineno):
    raw = parse_str(row, field, lineno)
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"not a number: '{raw}'", line=lineno, field=field)
    if math.isnan(value):
        raise SchemaError("NaN is not a valid value", line=lineno, field=field)
    return value


def parse_int(row, field, lineno):
    raw = parse_str(row, field, lineno)
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(f"not an integer: '{raw}'", line=lineno, field=field)


def parse_int64(row, field, lineno):
    """``parse_int`` limited to the int64 range."""
    value = parse_int(row, field, lineno)
    int64 = np.iinfo(np.int64)
    if not int64.min <= value <= int64.max:
        raise SchemaError(
            f"integer beyond 64 bits: '{cell(row, field)}'", line=lineno, field=field
        )
    return value


def parse_optional_float(row, field, lineno, default=None):
    value = cell(row, field)
    if not value:
        return default
    return parse_float(row, field, lineno)


REFERENCE_PARSERS = {
    TEXT: parse_str,
    INT: parse_int,
    INT64: parse_int64,
    FLOAT: parse_float,
    OPTIONAL_FLOAT: lambda row, field, lineno: parse_optional_float(row, field, lineno, math.nan),
}


def reference_read_table(source, schema, delimiter=","):
    """``(lines, {field: values}, fault)`` of a table read row by row: the
    lines and values of the rows before the first faulty row, and the text
    of its fault, or None."""
    required = [name for name, kind in schema.items() if kind != OPTIONAL_FLOAT]
    lines, columns = [], {field: [] for field in schema}
    try:
        for lineno, row in reference_iter_rows(source, required, delimiter):
            values = [REFERENCE_PARSERS[kind](row, f, lineno) for f, kind in schema.items()]
            lines.append(lineno)
            for field, value in zip(schema, values):
                columns[field].append(value)
    except SchemaError as exc:
        return lines, columns, str(exc)
    return lines, columns, None


def reference_load_readings(source, delimiter=","):
    """The row-by-row reader that built one ``ReferenceReading`` per row:
    the oracle for ``load_readings``' values, error types and texts."""
    readings = []
    for lineno, row in reference_iter_rows(source, READING_COLUMNS, delimiter):
        readings.append(
            ReferenceReading(
                detector_id=parse_str(row, "detector_id", lineno),
                bin_index=parse_int(row, "bin_index", lineno),
                flow_veh_per_h=parse_float(row, "flow_veh_per_h", lineno),
                density_veh_per_km=parse_float(row, "density_veh_per_km", lineno),
                speed_km_per_h=parse_optional_float(row, "speed_km_per_h", lineno),
            )
        )
    return readings


def reference_load_network(source, delimiter=","):
    """The row-by-row network reader: the oracle for ``load_network``."""
    links = []
    for lineno, row in reference_iter_rows(source, NETWORK_COLUMNS, delimiter):
        links.append(
            Link(
                id=parse_str(row, "link_id", lineno),
                from_node=parse_str(row, "from_node", lineno),
                to_node=parse_str(row, "to_node", lineno),
                length_km=parse_float(row, "length_km", lineno),
                hierarchy=parse_int(row, "hierarchy", lineno),
            )
        )
    return Network(links)


def reference_load_detector_sites(source, network=None, delimiter=","):
    """The row-by-row sites reader: the oracle for ``load_detector_sites``."""
    sites = []
    seen = set()
    for lineno, row in reference_iter_rows(source, ("detector_id", "link_id"), delimiter):
        site = DetectorSite(
            detector_id=parse_str(row, "detector_id", lineno),
            link_id=parse_str(row, "link_id", lineno),
            offset_fraction=parse_optional_float(row, "offset_fraction", lineno, DEFAULT_OFFSET),
        )
        if site.detector_id in seen:
            raise ValidationError(f"duplicate detector id '{site.detector_id}'")
        seen.add(site.detector_id)
        if network is not None:
            network.link(site.link_id)
        sites.append(site)
    return sites


def reference_read_model_table(path, delimiter=","):
    """The row-by-row model table reader: the oracle for the CLI's."""
    rows = list(reference_iter_rows(path, ("kind", "nugget", "sill", "range_km"), delimiter))
    if not rows:
        raise EstimationError(f"model table '{path}' has no rows")
    if len(rows) > 1:
        raise ValidationError(f"model table '{path}' has {len(rows)} rows, expected one")
    lineno, row = rows[0]
    return VariogramModel(
        kind=parse_str(row, "kind", lineno),
        nugget=parse_float(row, "nugget", lineno),
        sill=parse_float(row, "sill", lineno),
        range_km=parse_float(row, "range_km", lineno),
    )


def reference_read_estimates(path, delimiter=",", method=None):
    """The two-pass estimates reader, which parsed only the rows of the
    chosen method: the oracle for the CLI's."""
    kept = []
    methods = set()
    required = ("bin_index", "method", "variable", "value")
    for lineno, row in reference_iter_rows(path, required, delimiter):
        row_method = parse_str(row, "method", lineno)
        if method is not None and row_method != method:
            continue
        methods.add(row_method)
        kept.append((lineno, row))
    if method is None and len(methods) > 1:
        raise EstimationError(
            f"table '{path}' mixes methods {sorted(methods)}; pick one with --method"
        )
    series = {}
    for lineno, row in kept:
        variable = parse_str(row, "variable", lineno)
        b = parse_int(row, "bin_index", lineno)
        key = (variable, b)
        if key in series:
            raise EstimationError(
                f"duplicate entry for variable '{variable}' bin {b} in '{path}'"
            )
        series[key] = parse_float(row, "value", lineno)
    flow = {b: v for (variable, b), v in series.items() if variable == "flow"}
    density = {b: v for (variable, b), v in series.items() if variable == "density"}
    return flow, density


def reference_write_table(path, header, rows, delimiter=","):
    """The writer that formatted and wrote one cell at a time before tables
    were written in row blocks: the oracle for ``write_table``'s bytes."""
    with open(os.fspath(path), "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
    return path


def traced_peak(fn, *args):
    """``(fn(*args), peak bytes)``: the most that ``tracemalloc`` saw
    allocated during the call beyond what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


# The dense distance kernel that built every sites x targets temporary at
# once before the result was filled tile by tile: the oracle for the values
# of ``_distances``, ``_symmetric`` and everything built on them, bit for
# bit. It shares the node graph and shortest-path kernel, which are checked
# against Dijkstra on their own.


def reference_distances(network, sites, targets):
    index, neighbors, lengths = _node_graph(network)
    s_link, s_from, s_to, s_from_off, s_to_off = _anchors(network, sites, index)
    t_link, t_from, t_to, t_from_off, t_to_off = _anchors(network, targets, index)
    sources = np.unique(np.concatenate([s_from, s_to]))
    node_dist = _shortest_paths(neighbors, lengths, sources).T.copy()

    same_link = s_link[:, None] == t_link[None, :]
    best = np.where(same_link, np.abs(s_from_off[:, None] - t_from_off[None, :]), np.inf)
    for s_node, s_off in ((s_from, s_from_off), (s_to, s_to_off)):
        rows = np.searchsorted(sources, s_node)[:, None]
        for t_node, t_off in ((t_from, t_from_off), (t_to, t_to_off)):
            through = node_dist[rows, t_node[None, :]]
            through += s_off[:, None]
            through += t_off
            np.minimum(best, through, out=best)
    return best


def reference_symmetric(square):
    upper = np.triu(square, k=1)
    return upper + upper.T


def reference_site_distance_matrix(network, sites):
    return reference_symmetric(reference_distances(network, sites, sites))


def reference_imputation_distances(network, sites):
    """``(between_sites, site_to_target)`` of the dense kernel."""
    sites = tuple(sites)
    distances = reference_distances(network, sites, sites + midpoint_sites(network))
    return reference_symmetric(distances[:, :len(sites)]), distances[:, len(sites):]


def corridor_network(n_links, edge_km=0.5, hierarchy=1):
    """A simple chain of links, handy for controlled interpolation checks."""
    if n_links < 1:
        raise ValidationError(f"corridor needs at least one link, got {n_links}")
    links = [
        Link(f"c{i}", f"n{i}", f"n{i + 1}", edge_km, hierarchy)
        for i in range(n_links)
    ]
    return Network(links)


@pytest.fixture
def chain_network():
    # a --1.0km-- b --2.0km-- c
    return Network((
        Link("A", "a", "b", 1.0, 1),
        Link("B", "b", "c", 2.0, 2),
    ))


@pytest.fixture
def quad_network():
    """Four links of 1..4 km in a single hierarchy."""
    return Network(tuple(
        Link(f"L{i}", f"n{i}", f"n{i + 1}", float(i + 1), 1) for i in range(4)
    ))


def make_tiered_sites(counts=(39, 75, 28)):
    """A chain network with ``counts[h-1]`` links per hierarchy h and one
    detector per link. Mirrors the detector census used by the bundled
    synthetic study."""
    links = []
    sites = []
    node = 0
    for hierarchy, count in enumerate(counts, start=1):
        for i in range(count):
            link_id = f"h{hierarchy}_{i}"
            links.append(Link(link_id, f"n{node}", f"n{node + 1}", 0.4, hierarchy))
            sites.append(DetectorSite(f"d_{link_id}", link_id))
            node += 1
    return Network(tuple(links)), tuple(sites)


# bins with readings; the gaps between them are bins without any reading
READING_BINS = (0, 2, 3, 7, 11)
# in this bin no detector of hierarchy 3 reports
CLASS_GAP_BIN = 7


def make_reading_scenario(seed, silent=0.1, class_gap=True):
    """Detector readings with the awkward cases of real data.

    Three hierarchies of links ``h{class}_{i}``, so network order is not
    link-id order (``h1_10`` sorts before ``h1_2``), lengths and values
    drawn at random. About a third of the links carry a second detector.
    Each detector is silent in a ``silent`` share of the bins, the bins are
    not contiguous, and the readings come shuffled. With ``class_gap`` no
    detector of hierarchy 3 reports in ``CLASS_GAP_BIN``.

    Returns (network, sites, readings), the readings as ``Readings``.
    """
    rng = np.random.default_rng(seed)
    links = []
    for hierarchy, count in ((1, 45), (2, 70), (3, 12)):
        for i in range(count):
            n = len(links)
            length = float(rng.uniform(0.1, 2.0))
            links.append(Link(f"h{hierarchy}_{i}", f"n{n}", f"n{n + 1}", length, hierarchy))
    sites = []
    for link in links:
        sites.append(DetectorSite(f"d_{link.id}", link.id))
        if rng.random() < 0.3:
            sites.append(DetectorSite(f"e_{link.id}", link.id, 0.2))
    hierarchy = {link.id: link.hierarchy for link in links}
    readings = []
    for b in READING_BINS:
        for site in sites:
            if rng.random() < silent:
                continue
            if class_gap and b == CLASS_GAP_BIN and hierarchy[site.link_id] == 3:
                continue
            readings.append((
                site.detector_id, b, float(rng.uniform(0.0, 2000.0)),
                float(rng.uniform(0.0, 80.0)),
            ))
    readings = [readings[i] for i in rng.permutation(len(readings))]
    return Network(links), tuple(sites), make_readings(readings)


def reference_aggregate(readings, sites):
    """The dict-accumulating loop that aggregated readings before the
    columnar aggregation: the oracle for its values and error texts."""
    site_link = {}
    for site in sites:
        if site.detector_id in site_link:
            raise ValidationError(f"duplicate detector id '{site.detector_id}'")
        site_link[site.detector_id] = site.link_id

    seen = set()
    sums = {}
    for detector_id, bin_index, flow, density in reading_rows(readings):
        link_id = site_link.get(detector_id)
        if link_id is None:
            raise ValidationError(
                f"reading references unknown detector '{detector_id}'"
            )
        key = (detector_id, bin_index)
        if key in seen:
            raise ValidationError(
                f"detector '{detector_id}' reports twice in bin {bin_index}"
            )
        seen.add(key)
        acc = sums.setdefault((bin_index, link_id), [0.0, 0.0, 0])
        acc[0] += flow
        acc[1] += density
        acc[2] += 1

    return [
        LinkObservation(
            link_id=link_id,
            bin_index=bin_index,
            flow_veh_per_h=q_sum / count,
            density_veh_per_km=k_sum / count,
        )
        for (bin_index, link_id), (q_sum, k_sum, count) in sorted(sums.items())
    ]


@pytest.fixture
def tiered_sites():
    return make_tiered_sites()


@pytest.fixture(scope="session")
def default_truth():
    """Generated data for the default scenario, shared across slow tests."""
    scenario = SyntheticScenario()
    return scenario, generate_scenario(scenario)
