"""Detector time series: ingestion, link aggregation, coverage subsampling,
and the full-coverage network reference.

A reading belongs to a detector and a time bin. Aggregation averages the
detectors of a link into one observation per (link, bin); missing bins stay
missing, there is no temporal interpolation. Coverage subsampling removes
detectors hierarchy by hierarchy so that every class keeps at least one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlignmentError, InsufficientDataError, ValidationError
from .tableio import FLOAT, INT64, OPTIONAL_FLOAT, TEXT, read_table, record, write_table

READING_COLUMNS = ("detector_id", "bin_index", "flow_veh_per_h", "density_veh_per_km")
READINGS_HEADER = READING_COLUMNS + ("speed_km_per_h",)


@dataclass(frozen=True, eq=False)
class Readings:
    """Detector readings as columns in row order; ``speed`` is NaN where blank.

    A negative bin, or a flow or density that is negative or not finite,
    raises ``ValidationError`` for the first offending reading.
    """

    detector_ids: tuple
    bin_index: np.ndarray
    flow: np.ndarray
    density: np.ndarray
    speed: np.ndarray

    def __post_init__(self):
        bad_flow, bad_density = (
            ~(np.isfinite(values) & (values >= 0)) for values in (self.flow, self.density)
        )
        bad = np.flatnonzero((self.bin_index < 0) | bad_flow | bad_density)
        if bad.size:
            i, detector = bad[0], self.detector_ids[bad[0]]
            if self.bin_index[i] < 0:
                raise ValidationError(f"detector '{detector}': bin index must be nonnegative")
            name, values = "flow_veh_per_h", self.flow
            if not bad_flow[i]:
                name, values = "density_veh_per_km", self.density
            raise ValidationError(
                f"detector '{detector}' bin {int(self.bin_index[i])}: "
                f"{name} must be nonnegative, got {float(values[i])}"
            )

    def __len__(self):
        return len(self.detector_ids)


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


def bin_arrays(observations, link_ids, variable="flow"):
    """One bin's observations as ``(bin_index, values, observed)``.

    ``values`` and ``observed`` follow ``link_ids``: each observed link's
    value, NaN elsewhere, and the mask of observed links. A mix of bins is
    an ``AlignmentError``; a link may be observed once.
    """
    field = value_field(variable)
    bins = {obs.bin_index for obs in observations}
    if len(bins) != 1:
        raise AlignmentError(f"observations must belong to one bin, got bins {sorted(bins)}")
    bin_index = bins.pop()
    position = {link_id: j for j, link_id in enumerate(link_ids)}
    values = np.full(len(link_ids), np.nan)
    observed = np.zeros(len(link_ids), dtype=bool)
    for obs in observations:
        j = position.get(obs.link_id)
        if j is None:
            raise ValidationError(f"unknown link id '{obs.link_id}'")
        if observed[j]:
            raise ValidationError(f"link '{obs.link_id}' observed twice in bin {bin_index}")
        values[j] = getattr(obs, field)
        observed[j] = True
    return bin_index, values, observed


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
    """Read a readings table into ``Readings``; a blank or absent speed is NaN.

    The first faulty row is reported: a malformed cell, or a bin beyond 64
    bits, as ``SchemaError``, a value that ``Readings`` rejects as
    ``ValidationError``, and a record that the table reader rejects (text
    beyond the header, an unreadable line) with the reader's error.
    """
    schema = dict(zip(READINGS_HEADER, (TEXT, INT64, FLOAT, FLOAT, OPTIONAL_FLOAT)))
    table = read_table(source, schema, delimiter)
    readings = Readings(
        detector_ids=tuple(table["detector_id"]),
        bin_index=table["bin_index"],
        flow=table["flow_veh_per_h"],
        density=table["density_veh_per_km"],
        speed=table["speed_km_per_h"],
    )
    table.check()
    return readings


def write_readings(path, readings, delimiter=","):
    rows = zip(
        readings.detector_ids, readings.bin_index.tolist(), readings.flow.tolist(),
        readings.density.tolist(), readings.speed.tolist(),
    )
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
        row even when no retained detector reports in it. An id that names
        no site raises ``ValidationError``.
        """
        if retained_ids is None:
            keep = np.ones(self.site.size, dtype=bool)
        else:
            keep = detector_mask(self.site_ids, retained_ids, "retained_ids")[self.site]
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


def detector_mask(site_ids, ids, argument):
    """Mask over ``site_ids`` of the detectors listed in ``ids``.

    An id not in ``site_ids`` raises ``ValidationError`` naming up to 10
    such ids and ``argument``, the name of the argument that listed them.
    """
    wanted = set(ids)
    unknown = sorted(wanted.difference(site_ids))
    if unknown:
        shown = ", ".join(repr(d) for d in unknown[:10])
        more = "" if len(unknown) <= 10 else f" and {len(unknown) - 10} more"
        raise ValidationError(f"unknown detector ids in {argument}: {shown}{more}")
    return np.array([d in wanted for d in site_ids], dtype=bool)


def reading_columns(readings, sites, link_ids):
    """Validate ``Readings`` against the sites and hold them as ``ReadingColumns``.

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

    site = np.array([site_position.get(d, -1) for d in readings.detector_ids], dtype=np.intp)
    bins, row = np.unique(readings.bin_index, return_inverse=True)
    # a reading of an unknown detector gets a key of its own, so a repeated
    # key is a known detector's second reading in a bin
    key = np.where(site < 0, -1 - np.arange(site.size), site * bins.size + row)
    first = np.unique(key, return_index=True)[1]
    fault = np.ones(site.size, dtype=bool)
    fault[first] = site[first] < 0
    if fault.any():
        i = int(np.argmax(fault))
        detector = readings.detector_ids[i]
        if site[i] < 0:
            raise ValidationError(f"reading references unknown detector '{detector}'")
        raise ValidationError(
            f"detector '{detector}' reports twice in bin {int(readings.bin_index[i])}"
        )
    return ReadingColumns(
        site_ids=tuple(site_position),
        link_ids=tuple(link_ids),
        site=site,
        link=np.array(site_link, dtype=np.intp)[site],
        bins=bins,
        row=row,
        flow=readings.flow,
        density=readings.density,
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


def sites_by_hierarchy(sites, network):
    """The sites of each hierarchy class of ``network``, by detector id.

    Raises ``ValidationError`` on a duplicate detector id. A grid of plans
    groups its sites once and draws each plan with ``sample_grouped``.
    """
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
    return sample_grouped(sites_by_hierarchy(sites, network), fraction, seed)


def sample_grouped(groups, fraction, seed):
    """``sample_coverage`` of the sites that ``sites_by_hierarchy`` grouped."""
    if not (isinstance(fraction, (int, float)) and 0.0 < fraction <= 1.0):
        raise ValueError(f"coverage fraction must lie in (0, 1], got {fraction}")
    counts = {
        hierarchy: min(len(members), max(1, round(fraction * len(members))))
        for hierarchy, members in groups.items()
    }
    return _sample_groups(groups, counts, seed, fraction)


def sample_coverage_counts(sites, network, counts, seed):
    """Retain an explicit number of detectors per hierarchy.

    Use this instead of sample_coverage when exact per-class counts matter.
    Counts must cover exactly the hierarchies present in ``sites`` and keep
    between 1 and the class size.
    """
    groups = sites_by_hierarchy(sites, network)
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
    total = sum(len(members) for members in groups.values())
    return _sample_groups(groups, counts, seed, sum(counts.values()) / total)


def _sample_groups(groups, counts, seed, fraction):
    """Draw ``counts[h]`` sites of every hierarchy group into a plan of ``fraction``."""
    rng = np.random.default_rng(seed)
    retained = []
    for hierarchy, members in sorted(groups.items()):
        chosen = rng.choice(len(members), size=counts[hierarchy], replace=False)
        retained.extend(members[i] for i in sorted(chosen))

    plan = CoveragePlan(
        fraction=float(fraction),
        seed=seed,
        per_hierarchy_counts={h: counts[h] for h in sorted(counts)},
        retained_detectors=tuple(s.detector_id for s in retained),
    )
    return plan, retained


def load_coverage_plan(path):
    with open(path) as handle:
        return record(
            CoveragePlan, json.load(handle), "coverage plan",
            fraction=float, seed=int, per_hierarchy_counts=_int_counts,
        )


def _int_counts(counts):
    return {int(h): int(c) for h, c in counts.items()}


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
    flow is sum(q_i * l_i) / sum(l_i) and likewise for density. Observations
    of other bins are ignored. Returns the tuple (flow_veh_per_h,
    density_veh_per_km).
    """
    observations = [obs for obs in observations if obs.bin_index == bin_index]
    observed = np.zeros(len(network.links), dtype=bool)
    if observations:
        _, flows, observed = bin_arrays(observations, network.link_ids, "flow")
    if not observed.all():
        missing = np.flatnonzero(~observed).tolist()
        raise _missing_links_error(bin_index, [network.link_ids[j] for j in missing])
    _, densities, _ = bin_arrays(observations, network.link_ids, "density")
    return _edie_means(flows, densities, network)
