"""Ordinary kriging over network distances and whole-network imputation.

Weights come from the standard unbiased system: model semivariances between
neighbors on the left, semivariances to the target on the right, one extra
row forcing the weights to sum to one via a Lagrange multiplier. At zero
separation the assembled semivariance is zero (not the nugget), which keeps
a prediction at a known site exact.
"""
from __future__ import annotations

import contextlib
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
from .sensing import value_field
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
    found, groups = _krige(model, values, target[:, None], pairs, max_neighbors, min_neighbors)
    if not groups:
        raise InsufficientNeighborsError(found=int(found[0]), required=min_neighbors)
    _, kept, merged, solutions, rhs = groups[0]
    m = kept.shape[1]
    weights = solutions[0, :m]
    lagrange = float(solutions[0, m])
    return KrigingSolution(
        weights=weights,
        lagrange=lagrange,
        prediction=float(weights @ merged[0]),
        neighbor_ids=tuple(ids[i] for i in kept[0]),
        variance=max(float(weights @ rhs[0, :m] + lagrange), 0.0),
    )


def _krige(model, values, target, pairs, max_neighbors, min_neighbors):
    """Solve the kriging systems of many targets in stacked batches.

    ``target`` holds the distances from the ``n`` known sites to ``k``
    targets, one column each. Every column keeps its nearest in-range sites
    (ties by site order, at most ``max_neighbors``); columns with fewer than
    ``min_neighbors`` in range are left out. Columns whose neighbours are
    pairwise apart share one ``np.linalg.solve`` call per neighbour count;
    a column with coincident neighbours merges them first and is solved
    alone.

    Returns ``(found, groups)``: the in-range site count of every column,
    and one ``(columns, kept, merged, solutions, rhs)`` tuple per batch, where
    row ``r`` belongs to column ``columns[r]``, ``kept`` holds its neighbour
    site indices, ``merged`` their values, ``solutions`` the weights followed
    by the Lagrange multiplier and ``rhs`` the right-hand side. A singular
    or non-finite system raises ``SingularSystemError`` for the first such
    column.
    """
    if min_neighbors < 1:
        raise ValueError(f"min_neighbors must be at least 1, got {min_neighbors}")
    if max_neighbors < min_neighbors:
        raise ValueError("max_neighbors must be at least min_neighbors")

    in_range = np.isfinite(target) & (target <= model.range_km)
    found = np.count_nonzero(in_range, axis=0)
    # a stable sort keeps equal distances in site order, out-of-range last
    order = np.argsort(np.where(in_range, target, np.inf), axis=0, kind="stable")
    counts = np.where(found >= min_neighbors, np.minimum(found, max_neighbors), 0)

    batches = []
    for m in np.unique(counts[counts > 0]):
        columns = np.flatnonzero(counts == m)
        kept = order[:m, columns].T
        block = pairs[kept[:, :, None], kept[:, None, :]]
        close = block <= _ZERO_DISTANCE
        close[:, np.arange(m), np.arange(m)] = False
        coincident = close.any(axis=(1, 2))
        apart = ~coincident
        if apart.any():
            batches.append((
                columns[apart], kept[apart], values[kept[apart]],
                block[apart], target[kept[apart], columns[apart, None]],
            ))
        for column, selected in zip(columns[coincident], kept[coincident]):
            merged_kept, merged = _merge_coincident(values, pairs, selected)
            batches.append((
                column[None], merged_kept[None], merged[None],
                pairs[np.ix_(merged_kept, merged_kept)][None],
                target[merged_kept, column][None],
            ))

    groups = []
    failure = None
    for columns, kept, merged, block, dists in batches:
        systems, rhs, solutions, bad = _solve_batch(model, block, dists)
        if bad.any():
            row = int(np.argmax(bad))
            if failure is None or columns[row] < failure[0]:
                failure = (columns[row], systems[row])
        groups.append((columns, kept, merged, solutions, rhs))
    if failure is not None:
        raise SingularSystemError(condition=float(np.linalg.cond(failure[1])))
    return found, groups


def _solve_batch(model, block_dists, target_dists):
    """Assemble and solve the kriging systems of one batch in one call.

    ``block_dists`` (g, m, m) and ``target_dists`` (g, m) give each row's
    neighbour and target distances. Returns the (g, m+1, m+1) systems,
    the right-hand sides, the solutions and a mask of the rows whose system
    is singular or whose solution is not finite.
    """
    g, m = target_dists.shape
    diagonal = np.arange(m)
    systems = np.zeros((g, m + 1, m + 1))
    systems[:, :m, :m] = gamma(model, block_dists)
    systems[:, diagonal, diagonal] = 0.0
    systems[:, :m, m] = 1.0
    systems[:, m, :m] = 1.0
    rhs = np.ones((g, m + 1))
    rhs[:, :m] = np.where(target_dists <= _ZERO_DISTANCE, 0.0, gamma(model, target_dists))
    try:
        solutions = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # one singular system fails the whole stack: solve row by row to
        # find which
        solutions = np.full((g, m + 1), np.nan)
        for row in range(g):
            with contextlib.suppress(np.linalg.LinAlgError):
                solutions[row] = np.linalg.solve(systems[row], rhs[row])
    bad = ~np.all(np.isfinite(solutions), axis=1)
    return systems, rhs, solutions, bad


def _merge_coincident(values, pairs, selected):
    """Merge neighbours at (numerically) zero mutual distance into running means."""
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
    return np.array(kept), np.array(merged_values)


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
    field = value_field(variable)
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
    return impute_observed(
        network, bin_index, observed, sites, distances=distances, model=model,
        variable=variable, kinds=kinds, lag_bins=lag_bins, min_pairs=min_pairs,
        max_neighbors=max_neighbors, min_neighbors=min_neighbors,
        known_site_ids=known_site_ids,
    )


def impute_observed(network, bin_index, observed, sites, distances=None, model=None,
                    variable="flow", kinds=MODEL_KINDS, lag_bins=15, min_pairs=5,
                    max_neighbors=16, min_neighbors=3, known_site_ids=None):
    """``impute_network`` on one bin's observed ``{link_id: value}``.

    The keys are not checked against ``network``; ``observed_values``
    checks them for ``impute_network``.
    """
    if distances is None:
        distances = ImputationDistances.build(network, sites)
    known, known_values = known_sites(
        observed, distances.site_ids, distances.site_link_ids, known_site_ids
    )
    known_pairs = distances.between_sites[np.ix_(known, known)]

    if model is None:
        edges = distance_bin_edges(known_pairs, n_bins=lag_bins)
        empirical = empirical_variogram(known_values, known_pairs, edges)
        model = fit_variogram(empirical, kinds=kinds, min_pairs=min_pairs)

    links = distances.target_link_ids
    unobserved = [column for column, link_id in enumerate(links) if link_id not in observed]
    predictions = {}
    if unobserved:
        _, groups = _krige(
            model,
            known_values,
            distances.site_to_target[np.ix_(known, unobserved)],
            known_pairs,
            max_neighbors,
            min_neighbors,
        )
        for columns, kept, merged, solutions, _ in groups:
            m = kept.shape[1]
            for row, column in enumerate(columns):
                predictions[links[unobserved[column]]] = float(solutions[row, :m] @ merged[row])

    values = {}
    provenance = {}
    failed = 0
    for link_id in links:
        if link_id in observed:
            values[link_id] = observed[link_id]
            provenance[link_id] = PROVENANCE_OBSERVED
        elif link_id in predictions:
            values[link_id] = predictions[link_id]
            provenance[link_id] = PROVENANCE_IMPUTED
        else:
            values[link_id] = float("nan")
            provenance[link_id] = PROVENANCE_FAILED
            failed += 1

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
