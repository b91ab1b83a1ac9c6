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
from itertools import chain

import numpy as np

from .errors import InsufficientDataError, UncoverableHierarchyError, ValidationError
from .sensing import bin_arrays, value_field

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
    always ttd_or_ttt / (network length * duration); the duration must be
    positive and finite.
    """

    bin_index: int
    variable: str
    value: float
    ttd_or_ttt: float
    method: str
    hierarchy_count: int
    duration_h: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.duration_h < math.inf:
            raise ValidationError(
                f"duration_h must be positive and finite, got {self.duration_h}"
            )


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


@dataclass(frozen=True, eq=False)
class UniformPartition:
    """The equipped links of a bin as the uniform estimator reduces over them.

    ``links`` holds their positions in link-id order, the order in which
    ``aggregate_to_links`` lists them, and ``lengths_km`` their lengths;
    ``non_equipped_length_km`` is the rest of the network's length.
    """

    links: np.ndarray
    lengths_km: np.ndarray
    total_length_km: float
    non_equipped_length_km: float

    @classmethod
    def from_mask(cls, network, equipped):
        """The partition of ``network`` by ``equipped``, a mask of its links."""
        links = network.id_order[equipped[network.id_order]]
        lengths = network.lengths_km[links]
        total = network.total_length_km
        return cls(
            links=links,
            lengths_km=lengths,
            total_length_km=total,
            non_equipped_length_km=max(total - math.fsum(lengths.tolist()), 0.0),
        )


def uniform_estimate(bin_index, values, partition, variable="flow", mode="exact",
                     duration_h=1.0):
    """The uniform estimate of one bin from its link values in network order.

    ``partition`` is the ``UniformPartition`` of the links observed in the
    bin; ``values`` elsewhere is ignored. The equipped mean and the measured
    travelled total reduce over the equipped links in link-id order, so a
    bin gives the same bits from the arrays as from its observation list.
    """
    if mode not in UNIFORM_MODES:
        raise ValueError(f"mode must be one of {UNIFORM_MODES}, got '{mode}'")
    values = values[partition.links]
    equipped_mean = float(values.mean())
    total = partition.total_length_km
    if mode == "exact":
        travelled_rate = (
            float(values @ partition.lengths_km)
            + equipped_mean * partition.non_equipped_length_km
        )
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


def uniform_scaled_mean(observations, network, variable="flow", mode="exact", duration_h=1.0):
    """Estimate the network mean from equipped links with a single-class scale.

    The equipped mean is the unweighted average over equipped links. In the
    default "exact" mode the equipped links contribute their measured
    travelled total and only the unequipped length is filled with the mean;
    "mean-only" applies the equipped mean to the entire network length.
    """
    value_field(variable)
    if not observations:
        raise InsufficientDataError("uniform scaling needs at least one equipped observation")
    bin_index, values, equipped = bin_arrays(observations, network.link_ids, variable)
    return uniform_estimate(
        bin_index, values, UniformPartition.from_mask(network, equipped), variable, mode,
        duration_h,
    )


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
    # a link outside the partition is placed after its links, so that it
    # shows as unexpected
    link_ids = tuple(dict.fromkeys(chain(partition.link_ids, (o.link_id for o in observations))))
    bin_index, values, observed = bin_arrays(observations, link_ids, variable)
    expected = np.zeros(len(link_ids), dtype=bool)
    expected[:len(partition.link_ids)] = partition.equipped
    if (observed != expected).any():
        missing = sorted(link_ids[j] for j in np.flatnonzero(expected & ~observed).tolist())
        unexpected = sorted(link_ids[j] for j in np.flatnonzero(observed & ~expected).tolist())
        raise ValidationError(
            f"observations do not match the partition's equipped links "
            f"(missing {missing[:5]}, unexpected {unexpected[:5]})"
        )
    return hierarchical_estimate(bin_index, values, partition, variable, duration_h)
