"""Scaling estimators: expand equipped-link observations to the whole network.

Both estimators reconstruct the total travelled distance (or time) of a bin
and divide by network length, so the estimate is always a length-weighted
network mean. The uniform estimator treats the network as one class; the
hierarchical estimator scales each hierarchy with its own equipped share,
which removes the bias caused by unequal traffic load across classes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InsufficientDataError, UncoverableHierarchyError, ValidationError
from .sensing import bin_arrays, single_bin, value_field

VARIABLES = ("flow", "density")
UNIFORM_MODES = ("exact", "mean-only")


@dataclass(frozen=True, eq=False)
class HierarchyClassSplit:
    """Equipped / non-equipped split of one hierarchy class.

    ``equipped`` and ``non_equipped`` hold link positions in network link
    order.
    """

    hierarchy: int
    equipped: np.ndarray
    non_equipped: np.ndarray
    equipped_length_km: float
    non_equipped_length_km: float

    @property
    def equipped_count(self):
        return len(self.equipped)

    @property
    def non_equipped_count(self):
        return len(self.non_equipped)


@dataclass(frozen=True, eq=False)
class HierarchyPartition:
    """Per-hierarchy equipped / non-equipped split of a whole network.

    ``link_ids`` and ``lengths_km`` list the network's links in order;
    ``equipped`` masks the equipped ones.
    """

    classes: tuple
    total_length_km: float
    link_ids: tuple
    lengths_km: np.ndarray
    equipped: np.ndarray

    @cached_property
    def equipped_ids(self):
        """Every equipped link id, as a frozenset built on first use."""
        return frozenset(self.link_ids[j] for j in np.flatnonzero(self.equipped).tolist())

    @classmethod
    def from_network(cls, network, equipped_link_ids):
        equipped = np.zeros(len(network.links), dtype=bool)
        for link_id in set(equipped_link_ids):
            equipped[network.position(link_id)] = True
        lengths = network.lengths_km
        classes = []
        for hierarchy in sorted(network.hierarchy_set):
            members = network.hierarchies == hierarchy
            on = np.flatnonzero(members & equipped)
            off = np.flatnonzero(members & ~equipped)
            classes.append(
                HierarchyClassSplit(
                    hierarchy=hierarchy,
                    equipped=on,
                    non_equipped=off,
                    equipped_length_km=math.fsum(lengths[on].tolist()),
                    non_equipped_length_km=math.fsum(lengths[off].tolist()),
                )
            )
        return cls(
            classes=tuple(classes),
            total_length_km=network.total_length_km,
            link_ids=network.link_ids,
            lengths_km=lengths,
            equipped=equipped,
        )


@dataclass(frozen=True)
class ScaledEstimate:
    """A network mean for one bin plus the travelled total it came from.

    ``ttd_or_ttt`` is total travelled distance (veh km) for flow, or total
    travelled time (veh h) for density, over the bin duration. The value is
    always ttd_or_ttt / (network length * duration).
    """

    bin_index: int
    variable: str
    value: float
    ttd_or_ttt: float
    method: str
    hierarchy_count: int
    duration_h: float = 1.0


def _scaled(bin_index, variable, travelled_rate, total, method, hierarchy_count, duration_h):
    return ScaledEstimate(
        bin_index=bin_index,
        variable=variable,
        value=travelled_rate / total,
        ttd_or_ttt=travelled_rate * duration_h,
        method=method,
        hierarchy_count=hierarchy_count,
        duration_h=duration_h,
    )


def uniform_estimate(bin_index, values, equipped, network, variable="flow",
                     mode="exact", duration_h=1.0):
    """The uniform estimate of one bin from its link values in network order.

    ``equipped`` masks the links observed in the bin; ``values`` elsewhere
    is ignored. The equipped mean and the measured travelled total reduce
    over the equipped links in link-id order, the order in which
    ``aggregate_to_links`` lists them, so a bin gives the same bits from
    the arrays as from its observation list.
    """
    links = network.id_order[equipped[network.id_order]]
    values = values[links]
    lengths = network.lengths_km[links]
    equipped_mean = float(values.mean())
    total = network.total_length_km
    non_equipped_length = max(total - math.fsum(lengths.tolist()), 0.0)
    if mode == "exact":
        travelled_rate = float(values @ lengths) + equipped_mean * non_equipped_length
    else:
        travelled_rate = equipped_mean * total
    return _scaled(bin_index, variable, travelled_rate, total, "uniform", 1, duration_h)


def hierarchical_estimate(bin_index, values, partition, variable="flow", duration_h=1.0):
    """The hierarchical estimate of one bin from its link values in network order.

    ``partition`` splits the network by the links observed in the bin;
    ``values`` off its equipped links is ignored.
    """
    travelled_rate = 0.0
    for split in partition.classes:
        if split.equipped_count == 0:
            if split.non_equipped_count > 0:
                raise UncoverableHierarchyError(split.hierarchy)
            continue
        equipped = split.equipped
        # fsum is exact, so the order of the links does not matter
        equipped_rate = math.fsum(
            (values[equipped] * partition.lengths_km[equipped]).tolist()
        )
        travelled_rate += equipped_rate
        if split.non_equipped_count > 0:
            travelled_rate += equipped_rate * (
                split.non_equipped_length_km / split.equipped_length_km
            )
    return _scaled(
        bin_index, variable, travelled_rate, partition.total_length_km,
        "hierarchical", len(partition.classes), duration_h,
    )


def _observed_by_link(observations, variable):
    """One bin's ``(bin_index, {link_id: value})``; a link may appear once."""
    field = value_field(variable)
    bin_index = single_bin(observations)
    by_link = {}
    for obs in observations:
        if obs.link_id in by_link:
            raise ValidationError(f"link '{obs.link_id}' observed twice in bin {bin_index}")
        by_link[obs.link_id] = getattr(obs, field)
    return bin_index, by_link


def uniform_scaled_mean(observations, network, variable="flow", mode="exact", duration_h=1.0):
    """Estimate the network mean from equipped links with a single-class scale.

    The equipped mean is the unweighted average over equipped links. In the
    default "exact" mode the equipped links contribute their measured
    travelled total and only the unequipped length is filled with the mean;
    "mean-only" applies the equipped mean to the entire network length.
    """
    if mode not in UNIFORM_MODES:
        raise ValueError(f"mode must be one of {UNIFORM_MODES}, got '{mode}'")
    value_field(variable)
    if not observations:
        raise InsufficientDataError("uniform scaling needs at least one equipped observation")
    bin_index, values, equipped = bin_arrays(observations, network, variable)
    return uniform_estimate(bin_index, values, equipped, network, variable, mode, duration_h)


def hierarchical_scaled_mean(observations, partition, variable="flow", duration_h=1.0):
    """Estimate the network mean with one scale factor per hierarchy class.

    Each class expands its equipped travelled total by the ratio of its
    unequipped to equipped length, so the class keeps its own traffic level.
    Requires an equipped observation in every class that has unequipped
    links; the partition's equipped set must match the observations.
    """
    value_field(variable)
    if not observations:
        raise InsufficientDataError(
            "hierarchical scaling needs at least one equipped observation"
        )
    bin_index, by_link = _observed_by_link(observations, variable)
    expected = partition.equipped_ids
    if by_link.keys() != expected:
        observed = set(by_link)
        raise ValidationError(
            f"observations do not match the partition's equipped links "
            f"(missing {sorted(expected - observed)[:5]}, "
            f"unexpected {sorted(observed - expected)[:5]})"
        )
    values = np.zeros(len(partition.link_ids))
    for j in np.flatnonzero(partition.equipped).tolist():
        values[j] = by_link[partition.link_ids[j]]
    return hierarchical_estimate(bin_index, values, partition, variable, duration_h)


@dataclass(frozen=True)
class CovarianceDiagnostic:
    """Population covariance between equipped flows and link lengths.

    The uniform estimator is unbiased exactly when this covariance vanishes;
    ``ratio`` relates it to the product of the means, so magnitudes well
    below one indicate the single-class shortcut is safe.
    """

    covariance: float
    mean_flow: float
    mean_length_km: float
    ratio: float | None


def flow_length_covariance(observations, network):
    """Diagnose how strongly equipped flows co-vary with link lengths."""
    if len(observations) < 2:
        raise InsufficientDataError(
            "covariance needs at least two equipped observations"
        )
    single_bin(observations)
    flows = np.array([obs.flow_veh_per_h for obs in observations])
    lengths = np.array([network.link(obs.link_id).length_km for obs in observations])
    covariance = float((flows * lengths).mean() - flows.mean() * lengths.mean())
    mean_flow = float(flows.mean())
    mean_length = float(lengths.mean())
    product = mean_flow * mean_length
    return CovarianceDiagnostic(
        covariance=covariance,
        mean_flow=mean_flow,
        mean_length_km=mean_length,
        ratio=covariance / product if product != 0 else None,
    )
