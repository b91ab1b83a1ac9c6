"""Detector time series: ingestion, link aggregation, coverage subsampling,
and the full-coverage network reference.

A reading belongs to a detector and a time bin. Aggregation averages the
detectors of a link into one observation per (link, bin); missing bins stay
missing, there is no temporal interpolation. Coverage subsampling removes
detectors hierarchy by hierarchy so that every class keeps at least one.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .tableio import (
    iter_rows,
    parse_float,
    parse_int,
    parse_optional_float,
    parse_str,
    write_table,
)

READING_COLUMNS = ("detector_id", "bin_index", "flow_veh_per_h", "density_veh_per_km")
READINGS_HEADER = READING_COLUMNS + ("speed_km_per_h",)


@dataclass(frozen=True)
class DetectorReading:
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


@dataclass(frozen=True)
class LinkObservation:
    """Aggregated traffic state of one link in one bin."""

    link_id: str
    bin_index: int
    flow_veh_per_h: float
    density_veh_per_km: float


# LinkObservation attribute holding each estimated variable
VALUE_FIELDS = {"flow": "flow_veh_per_h", "density": "density_veh_per_km"}


@dataclass(frozen=True)
class CoveragePlan:
    """A reproducible detector subsample.

    ``per_hierarchy_counts`` records how many detectors each hierarchy keeps;
    nonempty hierarchies always keep at least one.
    """

    fraction: float
    seed: int
    per_hierarchy_counts: dict
    retained_detectors: tuple


def load_readings(source, delimiter=","):
    readings = []
    for lineno, row in iter_rows(source, READING_COLUMNS, delimiter):
        readings.append(
            DetectorReading(
                detector_id=parse_str(row, "detector_id", lineno),
                bin_index=parse_int(row, "bin_index", lineno),
                flow_veh_per_h=parse_float(row, "flow_veh_per_h", lineno),
                density_veh_per_km=parse_float(row, "density_veh_per_km", lineno),
                speed_km_per_h=parse_optional_float(row, "speed_km_per_h", lineno),
            )
        )
    return readings


def write_readings(path, readings, delimiter=","):
    rows = [
        (r.detector_id, r.bin_index, r.flow_veh_per_h, r.density_veh_per_km, r.speed_km_per_h)
        for r in readings
    ]
    return write_table(path, READINGS_HEADER, rows, delimiter)


def aggregate_to_links(readings, sites):
    """Average detector readings into one observation per (link, bin).

    Every reading's detector must appear in ``sites``; a detector may report
    at most once per bin. Links whose detectors are silent in a bin simply
    have no observation for that bin.
    """
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


def _sites_by_hierarchy(sites, network):
    groups = {}
    seen = set()
    for site in sites:
        if site.detector_id in seen:
            raise ValidationError(f"duplicate detector id '{site.detector_id}'")
        seen.add(site.detector_id)
        hierarchy = network.link(site.link_id).hierarchy
        groups.setdefault(hierarchy, []).append(site)
    for members in groups.values():
        members.sort(key=lambda s: s.detector_id)
    return groups


def sample_coverage(sites, network, fraction, seed):
    """Retain a stratified random share of the detectors.

    The per-hierarchy count is round-half-to-even of fraction times the class
    size, clamped to at least one detector per nonempty class. Identical
    inputs and seed always select the identical detector set.

    Returns (CoveragePlan, retained sites).
    """
    if not (isinstance(fraction, (int, float)) and 0.0 < fraction <= 1.0):
        raise ValueError(f"coverage fraction must lie in (0, 1], got {fraction}")
    groups = _sites_by_hierarchy(sites, network)
    counts = {}
    for hierarchy, members in sorted(groups.items()):
        counts[hierarchy] = min(len(members), max(1, round(fraction * len(members))))
    return sample_coverage_counts(sites, network, counts, seed, fraction=float(fraction))


def sample_coverage_counts(sites, network, counts, seed, fraction=None):
    """Retain an explicit number of detectors per hierarchy.

    Use this instead of sample_coverage when exact per-class counts matter.
    Counts must cover exactly the hierarchies present in ``sites`` and keep
    between 1 and the class size.
    """
    groups = _sites_by_hierarchy(sites, network)
    if set(counts) != set(groups):
        raise ValidationError(
            f"counts cover hierarchies {sorted(counts)} but sites cover {sorted(groups)}"
        )
    for hierarchy, count in counts.items():
        size = len(groups[hierarchy])
        if not (isinstance(count, int) and 1 <= count <= size):
            raise ValidationError(
                f"hierarchy {hierarchy}: count must lie in [1, {size}], got {count}"
            )

    rng = np.random.default_rng(seed)
    retained = []
    for hierarchy, members in sorted(groups.items()):
        chosen = rng.choice(len(members), size=counts[hierarchy], replace=False)
        retained.extend(members[i] for i in sorted(chosen))

    total = sum(len(m) for m in groups.values())
    plan = CoveragePlan(
        fraction=float(fraction) if fraction is not None else sum(counts.values()) / total,
        seed=seed,
        per_hierarchy_counts={h: counts[h] for h in sorted(counts)},
        retained_detectors=tuple(s.detector_id for s in retained),
    )
    return plan, retained


def save_coverage_plan(plan, path):
    payload = {
        "fraction": plan.fraction,
        "seed": plan.seed,
        "per_hierarchy_counts": {str(h): c for h, c in plan.per_hierarchy_counts.items()},
        "retained_detectors": list(plan.retained_detectors),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_coverage_plan(path):
    with open(path) as handle:
        payload = json.load(handle)
    try:
        return CoveragePlan(
            fraction=float(payload["fraction"]),
            seed=int(payload["seed"]),
            per_hierarchy_counts={
                int(h): int(c) for h, c in payload["per_hierarchy_counts"].items()
            },
            retained_detectors=tuple(payload["retained_detectors"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed coverage plan: {exc}")


def edie_network_truth(observations, network, bin_index):
    """Length-weighted network mean flow and density for one fully covered bin.

    This is the reference aggregation: with every link observed, the network
    flow is sum(q_i * l_i) / sum(l_i) and likewise for density. Returns the
    tuple (flow_veh_per_h, density_veh_per_km).
    """
    by_link = {}
    for obs in observations:
        if obs.bin_index != bin_index:
            continue
        if obs.link_id in by_link:
            raise ValidationError(
                f"link '{obs.link_id}' observed twice in bin {bin_index}"
            )
        by_link[obs.link_id] = obs

    missing = [link.id for link in network.links if link.id not in by_link]
    if missing:
        shown = ", ".join(missing[:10])
        more = "" if len(missing) <= 10 else f" and {len(missing) - 10} more"
        raise InsufficientDataError(
            f"bin {bin_index}: no observation for links {shown}{more}"
        )

    lengths = np.array([link.length_km for link in network.links])
    flows = np.array([by_link[link.id].flow_veh_per_h for link in network.links])
    densities = np.array([by_link[link.id].density_veh_per_km for link in network.links])
    total = network.total_length_km
    return float(flows @ lengths / total), float(densities @ lengths / total)
