"""Shared fixtures: small handwritten networks and one reusable synthetic run."""

import numpy as np
import pytest

from sparsemfd.errors import ValidationError
from sparsemfd.network import DetectorSite, Link, Network
from sparsemfd.sensing import DetectorReading, LinkObservation
from sparsemfd.synth import SyntheticScenario, generate_scenario


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

    Returns (network, sites, readings).
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
            readings.append(DetectorReading(
                site.detector_id, b, float(rng.uniform(0.0, 2000.0)),
                float(rng.uniform(0.0, 80.0)),
            ))
    readings = [readings[i] for i in rng.permutation(len(readings))]
    return Network(links), tuple(sites), readings


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
    for reading in readings:
        link_id = site_link.get(reading.detector_id)
        if link_id is None:
            raise ValidationError(
                f"reading references unknown detector '{reading.detector_id}'"
            )
        key = (reading.detector_id, reading.bin_index)
        if key in seen:
            raise ValidationError(
                f"detector '{reading.detector_id}' reports twice in bin {reading.bin_index}"
            )
        seen.add(key)
        acc = sums.setdefault((reading.bin_index, link_id), [0.0, 0.0, 0])
        acc[0] += reading.flow_veh_per_h
        acc[1] += reading.density_veh_per_km
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
