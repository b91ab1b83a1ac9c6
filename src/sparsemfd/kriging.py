"""Ordinary kriging over network distances and whole-network imputation.

Weights come from the standard unbiased system: model semivariances between
neighbors on the left, semivariances to the target on the right, one extra
row forcing the weights to sum to one via a Lagrange multiplier. At zero
separation the assembled semivariance is zero (not the nugget), which keeps
a prediction at a known site exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IncompleteFieldError,
    InsufficientDataError,
    InsufficientNeighborsError,
    SingularSystemError,
    ValidationError,
)
from .network import cross_distance_matrix, midpoint_sites, site_distance_matrix
from .sensing import VALUE_FIELDS
from .variogram import MODEL_KINDS, distance_bin_edges, empirical_variogram, fit_variogram, gamma

PROVENANCE_OBSERVED = "observed"
PROVENANCE_IMPUTED = "imputed"
PROVENANCE_FAILED = "failed"

_ZERO_DISTANCE = 1e-12


@dataclass(frozen=True)
class KrigingSolution:
    """Solved weights for one target location.

    ``weights`` aligns with ``neighbor_ids``; they sum to one. ``variance``
    is the kriging variance (weights times target semivariances plus the
    Lagrange multiplier), clamped at zero against round-off.
    """

    weights: np.ndarray
    lagrange: float
    prediction: float
    neighbor_ids: tuple
    variance: float


def solve_kriging(
    model,
    values,
    target_dists,
    pair_dists,
    ids=None,
    max_neighbors=16,
    min_neighbors=3,
):
    """Predict a value at one target from known sites by ordinary kriging.

    Parameters
    ----------
    model : VariogramModel
        Semivariance model evaluated on along-network distances.
    values : array, shape (n,)
        Known values.
    target_dists : array, shape (n,)
        Distance from each known site to the target.
    pair_dists : array, shape (n, n)
        Distances among the known sites.
    ids : sequence, optional
        Identifiers reported for the selected neighbors; defaults to indices.
    max_neighbors, min_neighbors : int
        At most ``max_neighbors`` nearest sites within the model range are
        used; fewer than ``min_neighbors`` in range is an error. Coincident
        neighbors are merged (value-averaged) before assembly so duplicate
        sites cannot make the system singular.
    """
    values = np.asarray(values, dtype=float)
    target = np.asarray(target_dists, dtype=float)
    pairs = np.asarray(pair_dists, dtype=float)
    n = values.size
    if target.shape != (n,) or pairs.shape != (n, n):
        raise ValidationError(
            f"shape mismatch: {n} values, target {target.shape}, pairs {pairs.shape}"
        )
    if ids is None:
        ids = tuple(range(n))
    else:
        ids = tuple(ids)
        if len(ids) != n:
            raise ValidationError(f"{len(ids)} ids for {n} values")
    if min_neighbors < 1:
        raise ValueError(f"min_neighbors must be at least 1, got {min_neighbors}")
    if max_neighbors < min_neighbors:
        raise ValueError("max_neighbors must be at least min_neighbors")

    in_range = np.flatnonzero(np.isfinite(target) & (target <= model.range_km))
    if in_range.size < min_neighbors:
        raise InsufficientNeighborsError(found=int(in_range.size), required=min_neighbors)
    selected = in_range[np.argsort(target[in_range], kind="stable")][:max_neighbors]

    # merge neighbors at (numerically) zero mutual distance
    kept = []
    merged_values = []
    merged_counts = []
    for index in selected:
        for pos, other in enumerate(kept):
            if pairs[index, other] <= _ZERO_DISTANCE:
                merged_counts[pos] += 1
                merged_values[pos] += (values[index] - merged_values[pos]) / merged_counts[pos]
                break
        else:
            kept.append(int(index))
            merged_values.append(float(values[index]))
            merged_counts.append(1)

    m = len(kept)
    system = np.zeros((m + 1, m + 1))
    block = gamma(model, pairs[np.ix_(kept, kept)])
    np.fill_diagonal(block, 0.0)
    system[:m, :m] = block
    system[:m, m] = 1.0
    system[m, :m] = 1.0

    rhs = np.ones(m + 1)
    target_kept = target[kept]
    rhs[:m] = np.where(target_kept <= _ZERO_DISTANCE, 0.0, gamma(model, target_kept))

    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError(condition=float(np.linalg.cond(system)))
    if not np.all(np.isfinite(solution)):
        raise SingularSystemError(condition=float(np.linalg.cond(system)))

    weights = solution[:m]
    lagrange = float(solution[m])
    merged = np.array(merged_values)
    return KrigingSolution(
        weights=weights,
        lagrange=lagrange,
        prediction=float(weights @ merged),
        neighbor_ids=tuple(ids[i] for i in kept),
        variance=max(float(weights @ rhs[:m] + lagrange), 0.0),
    )


@dataclass(frozen=True)
class ImputationDistances:
    """Precomputed along-network distances for repeated imputation.

    Built once per network and detector layout, then shared across bins and
    variables; nothing here depends on observed values.
    """

    site_ids: tuple
    site_link_ids: tuple
    target_link_ids: tuple
    between_sites: np.ndarray
    site_to_target: np.ndarray

    @classmethod
    def build(cls, network, sites):
        targets = midpoint_sites(network)
        return cls(
            site_ids=tuple(s.detector_id for s in sites),
            site_link_ids=tuple(s.link_id for s in sites),
            target_link_ids=tuple(l.id for l in network.links),
            between_sites=site_distance_matrix(network, sites),
            site_to_target=cross_distance_matrix(network, sites, targets),
        )


@dataclass(frozen=True)
class ImputedField:
    """Per-link values for one bin with their provenance.

    Equipped links keep their observation ("observed"), the rest receive a
    kriged midpoint value ("imputed") or NaN where too few neighbors were in
    range ("failed"). A field with failures is still a valid result; whether
    it supports a network mean is decided later.
    """

    bin_index: int
    variable: str
    values: dict
    provenance: dict
    model: object
    failed_count: int


def observed_values(network, observations, variable="flow"):
    """One bin's observed value per link: ``(bin_index, {link_id: value})``."""
    if variable not in VALUE_FIELDS:
        raise ValueError(f"variable must be one of {tuple(VALUE_FIELDS)}, got '{variable}'")
    field = VALUE_FIELDS[variable]
    if not observations:
        raise InsufficientDataError("no equipped observation")
    bins = {obs.bin_index for obs in observations}
    if len(bins) != 1:
        raise ValidationError(f"observations must belong to one bin, got {sorted(bins)}")
    bin_index = bins.pop()

    observed = {}
    for obs in observations:
        network.link(obs.link_id)
        if obs.link_id in observed:
            raise ValidationError(f"link '{obs.link_id}' observed twice in bin {bin_index}")
        observed[obs.link_id] = float(getattr(obs, field))
    return bin_index, observed


def known_sites(observed, site_ids, site_link_ids, known_site_ids=None):
    """Positions of the sites whose link is observed, and their values.

    ``observed`` maps link ids to values as returned by ``observed_values``;
    ``known_site_ids`` optionally narrows the sites further.
    """
    known = [
        i
        for i, link_id in enumerate(site_link_ids)
        if link_id in observed
        and (known_site_ids is None or site_ids[i] in known_site_ids)
    ]
    if not known:
        raise InsufficientDataError("no detector site sits on an observed link")
    return known, np.array([observed[site_link_ids[i]] for i in known])


def impute_network(
    network,
    observations,
    sites,
    distances=None,
    model=None,
    variable="flow",
    kinds=MODEL_KINDS,
    lag_bins=15,
    min_pairs=5,
    max_neighbors=16,
    min_neighbors=3,
    known_site_ids=None,
):
    """Fill every unobserved link of one bin by kriging at its midpoint.

    ``observations`` are the equipped link values of a single bin. Known
    locations are the detector sites whose link is observed, optionally
    narrowed to ``known_site_ids`` (useful when a precomputed distance set
    covers more detectors than the current coverage realisation). With
    ``model=None`` a variogram is estimated and fitted from this bin's own
    values first. Per-link failures are recorded, not raised.
    """
    bin_index, observed = observed_values(network, observations, variable)
    if distances is None:
        distances = ImputationDistances.build(network, sites)
    known, known_values = known_sites(
        observed, distances.site_ids, distances.site_link_ids, known_site_ids
    )
    known_ids = tuple(distances.site_ids[i] for i in known)
    known_pairs = distances.between_sites[np.ix_(known, known)]

    if model is None:
        edges = distance_bin_edges(known_pairs, n_bins=lag_bins)
        empirical = empirical_variogram(known_values, known_pairs, edges)
        model = fit_variogram(empirical, kinds=kinds, min_pairs=min_pairs)

    values = {}
    provenance = {}
    failed = 0
    for column, link_id in enumerate(distances.target_link_ids):
        if link_id in observed:
            values[link_id] = observed[link_id]
            provenance[link_id] = PROVENANCE_OBSERVED
            continue
        try:
            solution = solve_kriging(
                model,
                known_values,
                distances.site_to_target[known, column],
                known_pairs,
                ids=known_ids,
                max_neighbors=max_neighbors,
                min_neighbors=min_neighbors,
            )
        except InsufficientNeighborsError:
            values[link_id] = float("nan")
            provenance[link_id] = PROVENANCE_FAILED
            failed += 1
            continue
        values[link_id] = solution.prediction
        provenance[link_id] = PROVENANCE_IMPUTED

    return ImputedField(
        bin_index=bin_index,
        variable=variable,
        values=values,
        provenance=provenance,
        model=model,
        failed_count=failed,
    )


def failed_length_fraction(field, network):
    """Share of network length whose links could not be imputed."""
    failed = sum(
        link.length_km
        for link in network.links
        if field.provenance.get(link.id) == PROVENANCE_FAILED
    )
    return failed / network.total_length_km


def network_mean_from_field(field, network, min_length_coverage=0.95):
    """Length-weighted network mean over observed and imputed links.

    Returns (value, coverage) where coverage is the length share that
    carries a value. Below ``min_length_coverage`` the field is considered
    too holey for a network figure and an error is raised instead.
    """
    if not 0.0 < min_length_coverage <= 1.0:
        raise ValueError(
            f"coverage threshold must lie in (0, 1], got {min_length_coverage}"
        )
    covered_length = 0.0
    weighted_sum = 0.0
    for link in network.links:
        source = field.provenance.get(link.id)
        if source in (PROVENANCE_OBSERVED, PROVENANCE_IMPUTED):
            covered_length += link.length_km
            weighted_sum += field.values[link.id] * link.length_km
    coverage = covered_length / network.total_length_km
    if coverage < min_length_coverage:
        raise IncompleteFieldError(coverage=coverage, threshold=min_length_coverage)
    return weighted_sum / covered_length, coverage
