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
from functools import cached_property

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


def value_field(variable):
    """The ``LinkObservation`` attribute of a variable."""
    try:
        return VALUE_FIELDS[variable]
    except KeyError:
        raise ValueError(f"variable must be one of {tuple(VALUE_FIELDS)}, got '{variable}'")


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


@dataclass(frozen=True, eq=False)
class ReadingColumns:
    """Validated detector readings as arrays, in reading order.

    ``site`` indexes ``site_ids`` and ``link`` indexes ``link_ids``, the
    link axis of every grid built from these readings. ``bins`` lists the
    distinct bin indices in order and ``row`` gives each reading's position
    in it.
    """

    site_ids: tuple
    link_ids: tuple
    site: np.ndarray
    link: np.ndarray
    bins: np.ndarray
    row: np.ndarray
    flow: np.ndarray
    density: np.ndarray

    def observe(self, retained_ids=None):
        """Average the readings per (bin, link) into an ``ObservationGrid``.

        ``retained_ids`` narrows the detectors to a coverage plan's subset;
        the readings of the other detectors are left out. A bin keeps its
        row even when no retained detector reports in it.
        """
        if retained_ids is None:
            keep = np.ones(self.site.size, dtype=bool)
        else:
            position = {d: i for i, d in enumerate(self.site_ids)}
            retained = np.zeros(len(self.site_ids), dtype=bool)
            retained[[position[d] for d in retained_ids]] = True
            keep = retained[self.site]
        shape = (self.bins.size, len(self.link_ids))
        key = self.row[keep] * shape[1] + self.link[keep]
        size = shape[0] * shape[1]
        # bincount adds in reading order, like a running sum per (bin, link)
        counts = np.bincount(key, minlength=size).reshape(shape)
        sums = [
            np.bincount(key, weights=values[keep], minlength=size).reshape(shape)
            for values in (self.flow, self.density)
        ]
        with np.errstate(invalid="ignore"):
            flow, density = (total / counts for total in sums)
        return ObservationGrid(
            bins=self.bins, link_ids=self.link_ids, flow=flow, density=density,
            observed=counts > 0,
        )


def reading_columns(readings, sites, link_ids):
    """Validate every reading once and hold the readings as ``ReadingColumns``.

    Every reading's detector must appear in ``sites``, every site's link in
    ``link_ids``, and a detector may report at most once per bin. The first
    offending reading, in reading order, is reported.
    """
    link_position = {link_id: i for i, link_id in enumerate(link_ids)}
    site_position = {}
    site_link = []
    for site in sites:
        if site.detector_id in site_position:
            raise ValidationError(f"duplicate detector id '{site.detector_id}'")
        if site.link_id not in link_position:
            raise ValidationError(f"unknown link id '{site.link_id}'")
        site_position[site.detector_id] = len(site_link)
        site_link.append(link_position[site.link_id])

    seen = set()
    site_column = []
    for reading in readings:
        position = site_position.get(reading.detector_id)
        if position is None:
            raise ValidationError(
                f"reading references unknown detector '{reading.detector_id}'"
            )
        key = (position, reading.bin_index)
        if key in seen:
            raise ValidationError(
                f"detector '{reading.detector_id}' reports twice in bin {reading.bin_index}"
            )
        seen.add(key)
        site_column.append(position)

    site_column = np.array(site_column, dtype=np.intp)
    bins, row = np.unique(
        np.array([r.bin_index for r in readings], dtype=np.int64), return_inverse=True
    )
    return ReadingColumns(
        site_ids=tuple(site_position),
        link_ids=tuple(link_ids),
        site=site_column,
        link=np.array(site_link, dtype=np.intp)[site_column],
        bins=bins,
        row=row,
        flow=np.array([r.flow_veh_per_h for r in readings], dtype=float),
        density=np.array([r.density_veh_per_km for r in readings], dtype=float),
    )


@dataclass(frozen=True, eq=False)
class ObservationGrid:
    """Per-link means of every bin, as (bins x links) arrays.

    Row ``r`` belongs to bin ``bins[r]`` and column ``j`` to link
    ``link_ids[j]``. ``observed`` marks the cells with at least one
    reading; the other cells of ``flow`` and ``density`` hold NaN.
    """

    bins: np.ndarray
    link_ids: tuple
    flow: np.ndarray
    density: np.ndarray
    observed: np.ndarray

    @cached_property
    def _rows(self):
        observed = self.observed.any(axis=1)
        return {b: r for r, b in enumerate(self.bins.tolist()) if observed[r]}

    @property
    def observed_bins(self):
        """The bins with at least one observed link, in order."""
        return list(self._rows)

    def row(self, bin_index):
        """The row of a bin, or None when no link is observed in it."""
        return self._rows.get(bin_index)

    def values(self, variable):
        value_field(variable)
        return self.flow if variable == "flow" else self.density

    def observed_values(self, bin_index, variable):
        """One bin's observed value per link, as ``{link_id: value}``."""
        values = self.values(variable)
        row = self.row(bin_index)
        if row is None:
            raise InsufficientDataError("no equipped observation")
        return {
            self.link_ids[j]: float(values[row, j])
            for j in np.flatnonzero(self.observed[row]).tolist()
        }


def aggregate_to_links(readings, sites):
    """Average detector readings into one observation per (link, bin).

    Every reading's detector must appear in ``sites``; a detector may report
    at most once per bin. Links whose detectors are silent in a bin simply
    have no observation for that bin. Observations come sorted by bin and
    link id.
    """
    link_ids = sorted({site.link_id for site in sites})
    grid = reading_columns(readings, sites, link_ids).observe()
    rows, links = np.nonzero(grid.observed)
    return [
        LinkObservation(
            link_id=link_ids[j],
            bin_index=int(grid.bins[r]),
            flow_veh_per_h=float(grid.flow[r, j]),
            density_veh_per_km=float(grid.density[r, j]),
        )
        for r, j in zip(rows.tolist(), links.tolist())
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
    counts = {
        hierarchy: min(len(members), max(1, round(fraction * len(members))))
        for hierarchy, members in groups.items()
    }
    return _sample_groups(groups, counts, seed, float(fraction))


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
    return _sample_groups(groups, counts, seed, fraction)


def _sample_groups(groups, counts, seed, fraction):
    """Draw ``counts[h]`` sites of every hierarchy group, classes in order."""
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


def _edie_means(flows, densities, network):
    """Length-weighted means of one bin's link values, given in link order.

    A 1-D dot per bin fixes the reduction order of a bin, however many bins
    are evaluated.
    """
    lengths = network.lengths_km
    total = network.total_length_km
    return float(flows @ lengths / total), float(densities @ lengths / total)


def _missing_links_error(bin_index, missing):
    shown = ", ".join(missing[:10])
    more = "" if len(missing) <= 10 else f" and {len(missing) - 10} more"
    return InsufficientDataError(f"bin {bin_index}: no observation for links {shown}{more}")


def edie_truth_series(grid, network):
    """Edie truth of every bin of a fully covered grid over ``network``'s links.

    Returns two ``{bin_index: value}`` dicts, flow and density. A bin that
    misses a link raises ``InsufficientDataError`` naming the links.
    """
    flow = {}
    density = {}
    for r, b in enumerate(grid.bins.tolist()):
        if not grid.observed[r].all():
            missing = np.flatnonzero(~grid.observed[r])
            raise _missing_links_error(b, [grid.link_ids[j] for j in missing.tolist()])
        flow[b], density[b] = _edie_means(grid.flow[r], grid.density[r], network)
    return flow, density


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

    missing = [link_id for link_id in network.link_ids if link_id not in by_link]
    if missing:
        raise _missing_links_error(bin_index, missing)
    observed = [by_link[link_id] for link_id in network.link_ids]
    return _edie_means(
        np.array([obs.flow_veh_per_h for obs in observed]),
        np.array([obs.density_veh_per_km for obs in observed]),
        network,
    )
