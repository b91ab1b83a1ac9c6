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

from .errors import (
    AlignmentError,
    InsufficientDataError,
    UncoverableHierarchyError,
    ValidationError,
)
from .sensing import VALUE_FIELDS

VARIABLES = ("flow", "density")
UNIFORM_MODES = ("exact", "mean-only")


def _value_field(variable):
    try:
        return VALUE_FIELDS[variable]
    except KeyError:
        raise ValueError(f"variable must be one of {VARIABLES}, got '{variable}'")


def _single_bin(observations):
    bins = {obs.bin_index for obs in observations}
    if len(bins) != 1:
        raise AlignmentError(
            f"observations must belong to one bin, got bins {sorted(bins)}"
        )
    return bins.pop()


@dataclass(frozen=True)
class HierarchyClassSplit:
    """Equipped / non-equipped split of one hierarchy class.

    Link entries are (link_id, length_km) pairs sorted by id.
    """

    hierarchy: int
    equipped: tuple
    non_equipped: tuple
    equipped_length_km: float
    non_equipped_length_km: float

    @property
    def equipped_count(self):
        return len(self.equipped)

    @property
    def non_equipped_count(self):
        return len(self.non_equipped)


@dataclass(frozen=True)
class HierarchyPartition:
    """Per-hierarchy equipped / non-equipped split of a whole network."""

    classes: tuple
    total_length_km: float

    @cached_property
    def equipped_ids(self):
        """Every equipped link id, as a frozenset built on first use."""
        return frozenset(
            link_id for split in self.classes for link_id, _ in split.equipped
        )

    @classmethod
    def from_network(cls, network, equipped_link_ids):
        equipped_ids = set(equipped_link_ids)
        for link_id in equipped_ids:
            network.link(link_id)
        classes = []
        for hierarchy in sorted(network.hierarchy_set):
            members = network.links_of_hierarchy(hierarchy)
            equipped = tuple(
                (l.id, l.length_km) for l in sorted(members, key=lambda l: l.id)
                if l.id in equipped_ids
            )
            non_equipped = tuple(
                (l.id, l.length_km) for l in sorted(members, key=lambda l: l.id)
                if l.id not in equipped_ids
            )
            classes.append(
                HierarchyClassSplit(
                    hierarchy=hierarchy,
                    equipped=equipped,
                    non_equipped=non_equipped,
                    equipped_length_km=math.fsum(l for _, l in equipped),
                    non_equipped_length_km=math.fsum(l for _, l in non_equipped),
                )
            )
        return cls(classes=tuple(classes), total_length_km=network.total_length_km)


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


def uniform_scaled_mean(observations, network, variable="flow", mode="exact", duration_h=1.0):
    """Estimate the network mean from equipped links with a single-class scale.

    The equipped mean is the unweighted average over equipped links. In the
    default "exact" mode the equipped links contribute their measured
    travelled total and only the unequipped length is filled with the mean;
    "mean-only" applies the equipped mean to the entire network length.
    """
    if mode not in UNIFORM_MODES:
        raise ValueError(f"mode must be one of {UNIFORM_MODES}, got '{mode}'")
    field = _value_field(variable)
    if not observations:
        raise InsufficientDataError("uniform scaling needs at least one equipped observation")
    bin_index = _single_bin(observations)

    seen = set()
    values = []
    lengths = []
    for obs in observations:
        if obs.link_id in seen:
            raise ValidationError(f"link '{obs.link_id}' observed twice in bin {bin_index}")
        seen.add(obs.link_id)
        values.append(getattr(obs, field))
        lengths.append(network.link(obs.link_id).length_km)
    values = np.array(values)
    lengths = np.array(lengths)

    equipped_mean = float(values.mean())
    total = network.total_length_km
    equipped_length = math.fsum(lengths)
    non_equipped_length = max(total - equipped_length, 0.0)
    if mode == "exact":
        travelled_rate = float(values @ lengths) + equipped_mean * non_equipped_length
    else:
        travelled_rate = equipped_mean * total

    return ScaledEstimate(
        bin_index=bin_index,
        variable=variable,
        value=travelled_rate / total,
        ttd_or_ttt=travelled_rate * duration_h,
        method="uniform",
        hierarchy_count=1,
        duration_h=duration_h,
    )


def hierarchical_scaled_mean(observations, partition, variable="flow", duration_h=1.0):
    """Estimate the network mean with one scale factor per hierarchy class.

    Each class expands its equipped travelled total by the ratio of its
    unequipped to equipped length, so the class keeps its own traffic level.
    Requires an equipped observation in every class that has unequipped
    links; the partition's equipped set must match the observations.
    """
    field = _value_field(variable)
    if not observations:
        raise InsufficientDataError(
            "hierarchical scaling needs at least one equipped observation"
        )
    bin_index = _single_bin(observations)

    by_link = {}
    for obs in observations:
        if obs.link_id in by_link:
            raise ValidationError(f"link '{obs.link_id}' observed twice in bin {bin_index}")
        by_link[obs.link_id] = getattr(obs, field)

    expected = partition.equipped_ids
    if by_link.keys() != expected:
        observed = set(by_link)
        raise ValidationError(
            f"observations do not match the partition's equipped links "
            f"(missing {sorted(expected - observed)[:5]}, "
            f"unexpected {sorted(observed - expected)[:5]})"
        )

    travelled_rate = 0.0
    for split in partition.classes:
        if split.equipped_count == 0:
            if split.non_equipped_count > 0:
                raise UncoverableHierarchyError(split.hierarchy)
            continue
        equipped_rate = math.fsum(
            by_link[link_id] * length for link_id, length in split.equipped
        )
        travelled_rate += equipped_rate
        if split.non_equipped_count > 0:
            travelled_rate += equipped_rate * (
                split.non_equipped_length_km / split.equipped_length_km
            )

    total = partition.total_length_km
    return ScaledEstimate(
        bin_index=bin_index,
        variable=variable,
        value=travelled_rate / total,
        ttd_or_ttt=travelled_rate * duration_h,
        method="hierarchical",
        hierarchy_count=len(partition.classes),
        duration_h=duration_h,
    )


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
    _single_bin(observations)
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
