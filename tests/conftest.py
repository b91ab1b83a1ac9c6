"""Shared fixtures: small handwritten networks and one reusable synthetic run."""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np
import pytest

from sparsemfd.errors import SchemaError, ValidationError
from sparsemfd.network import DetectorSite, Link, Network
from sparsemfd.sensing import READING_COLUMNS, LinkObservation, Readings
from sparsemfd.synth import SyntheticScenario, generate_scenario
from sparsemfd.tableio import (
    format_value,
    parse_float,
    parse_int,
    parse_optional_float,
    parse_str,
)


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
    row blocks: the oracle for ``iter_rows``' rows and line numbers."""
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


def reference_write_table(path, header, rows, delimiter=","):
    """The writer that formatted and wrote one cell at a time before tables
    were written in row blocks: the oracle for ``write_table``'s bytes."""
    with open(os.fspath(path), "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
    return path


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
