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
from .network import _distances, midpoint_sites
from .sensing import bin_arrays, detector_mask, value_field
from .variogram import MODEL_KINDS, distance_bin_edges, fit_variogram, gamma, lag_pairs

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
    found, batches = _kriging_weights(model, target[:, None], pairs, max_neighbors, min_neighbors)
    if not batches:
        raise InsufficientNeighborsError(found=int(found[0]), required=min_neighbors)
    _, kept, groups, solutions, rhs = batches[0]
    m = kept.shape[1]
    weights = solutions[0, :m]
    lagrange = float(solutions[0, m])
    return KrigingSolution(
        weights=weights,
        lagrange=lagrange,
        prediction=float(weights @ _merged_values(values[None], kept, groups)[0, 0]),
        neighbor_ids=tuple(ids[i] for i in kept[0]),
        variance=max(float(weights @ rhs[0, :m] + lagrange), 0.0),
    )


def _kriging_weights(model, target, pairs, max_neighbors, min_neighbors):
    """Solve the kriging systems of many targets in stacked batches.

    ``target`` holds the distances from the ``n`` known sites to ``k``
    targets, one column each. Every column keeps its nearest in-range sites
    (ties by site order, at most ``max_neighbors``); columns with fewer than
    ``min_neighbors`` in range are left out. Columns whose neighbours are
    pairwise apart share one ``np.linalg.solve`` call per neighbour count;
    a column with coincident neighbours merges them first and is solved
    alone. No site value enters, so the weights serve every bin and
    variable observed at the same sites; ``_merged_values`` supplies the
    values they apply to.

    Returns ``(found, batches)``: the in-range site count of every column,
    and one ``(columns, kept, groups, solutions, rhs)`` tuple per batch,
    where row ``r`` belongs to column ``columns[r]``, ``kept`` holds its
    neighbour site indices, ``groups`` is None or, for a merged column, the
    site indices averaged into each kept site, ``solutions`` the weights
    followed by the Lagrange multiplier and ``rhs`` the right-hand side. A
    singular or non-finite system raises ``SingularSystemError`` for the
    first such column.
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
                columns[apart], kept[apart], None,
                block[apart], target[kept[apart], columns[apart, None]],
            ))
        for column, selected in zip(columns[coincident], kept[coincident]):
            groups = _coincident_groups(pairs, selected)
            merged_kept = np.array([group[0] for group in groups])
            batches.append((
                column[None], merged_kept[None], groups,
                pairs[np.ix_(merged_kept, merged_kept)][None],
                target[merged_kept, column][None],
            ))

    solved = []
    failure = None
    for columns, kept, groups, block, dists in batches:
        systems, rhs, solutions, bad = _solve_batch(model, block, dists)
        if bad.any():
            row = int(np.argmax(bad))
            if failure is None or columns[row] < failure[0]:
                failure = (columns[row], systems[row])
        solved.append((columns, kept, groups, solutions, rhs))
    if failure is not None:
        raise SingularSystemError(condition=float(np.linalg.cond(failure[1])))
    return found, solved


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


def _coincident_groups(pairs, selected):
    """Group neighbours at (numerically) zero distance from a group's first site.

    Sites are taken in ``selected`` order; each joins the first group whose
    first site coincides with it, or starts a new group.
    """
    groups = []
    for index in selected:
        for group in groups:
            if pairs[index, group[0]] <= _ZERO_DISTANCE:
                group.append(int(index))
                break
        else:
            groups.append([int(index)])
    return groups


def _merged_values(values, kept, groups):
    """One batch's neighbour values for a stack of value rows.

    ``values`` is (R, n_known); the result is a C-contiguous (R, rows, m)
    array, row ``r`` of it shaped like ``kept``. Without ``groups`` these
    are the kept sites' values; a merged column takes the running mean of
    each group, in group order.
    """
    if groups is None:
        # a strided gather would make the dot below add in another order
        return np.ascontiguousarray(values[:, kept])
    means = np.empty((values.shape[0], 1, len(groups)))
    for k, (first, *rest) in enumerate(groups):
        mean = values[:, first].copy()
        for count, index in enumerate(rest, start=2):
            mean += (values[:, index] - mean) / count
        means[:, 0, k] = mean
    return means


def _apply_weights(batches, known_values, targets, field_values):
    """Krige a stack of value rows with one set of solved weights.

    ``known_values`` (R, n_known) holds each row's known-site values and
    ``field_values`` (R, links) receives the prediction of every batch
    column at link ``targets[column]``. Each prediction is the dot of its
    weights with its neighbour values, both contiguous, so it keeps the
    bits of a one-target ``weights @ values``. Returns the mask of the
    links that received a prediction.
    """
    imputed = np.zeros(field_values.shape[1], dtype=bool)
    for columns, kept, groups, solutions, _ in batches:
        m = kept.shape[1]
        merged = _merged_values(known_values, kept, groups)
        cells = targets[columns]
        field_values[:, cells] = np.matmul(merged[..., None, :], solutions[:, :m, None])[..., 0, 0]
        imputed[cells] = True
    return imputed


@dataclass(frozen=True)
class ImputationDistances:
    """Precomputed along-network distances for repeated imputation.

    Built once per network and detector layout, then shared across bins and
    variables; nothing here depends on observed values. ``site_links``
    holds each site's link position, and the columns of ``site_to_target``
    are the link midpoints in network link order. ``between_sites`` and
    ``site_to_target`` are two views of one sites x (sites + links) array.
    """

    site_ids: tuple
    site_links: np.ndarray
    between_sites: np.ndarray
    site_to_target: np.ndarray

    @classmethod
    def build(cls, network, sites):
        sites = tuple(sites)
        # one shortest-path run for both blocks: the columns are the sites,
        # then the link midpoints
        distances = _distances(network, sites, sites + midpoint_sites(network), mirror=True)
        return cls(
            site_ids=tuple(s.detector_id for s in sites),
            site_links=np.array([network.position(s.link_id) for s in sites], dtype=np.intp),
            between_sites=distances[:, :len(sites)],
            site_to_target=distances[:, len(sites):],
        )

    def site_mask(self, site_ids):
        """Mask of the sites listed in ``site_ids``; None stays None (every site).

        An id that names no site raises ``ValidationError``.
        """
        if site_ids is None:
            return None
        return detector_mask(self.site_ids, site_ids, "known_site_ids")


@dataclass(frozen=True, eq=False)
class ImputedField:
    """Link values of one bin with their provenance, in network link order.

    Equipped links keep their observation ("observed"), the rest receive a
    kriged midpoint value ("imputed") or NaN where too few neighbors were in
    range ("failed"); ``provenance`` holds these labels. A field with
    failures is still a valid result; whether it supports a network mean is
    decided later.
    """

    bin_index: int
    variable: str
    values: np.ndarray
    provenance: np.ndarray
    model: object

    @property
    def failed_count(self):
        return int(np.count_nonzero(self.provenance == PROVENANCE_FAILED))


def known_sites(values, observed, site_links, retained=None):
    """Positions of the sites whose link is observed, and their values.

    ``values`` holds link-order values, one bin's or a (R, links) stack of
    rows, ``observed`` the bin's link mask and ``site_links`` each site's
    link position; the mask ``retained`` optionally narrows the sites
    further. The values come C-contiguous, one row of sites per value row.
    """
    usable = observed[site_links]
    if retained is not None:
        usable &= retained
    known = np.flatnonzero(usable)
    if known.size == 0:
        raise InsufficientDataError("no detector site sits on an observed link")
    return known, np.ascontiguousarray(values[..., site_links[known]])


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
    value_field(variable)
    if not observations:
        raise InsufficientDataError("no equipped observation")
    bin_index, values, observed = bin_arrays(observations, network.link_ids, variable)
    if distances is None:
        distances = ImputationDistances.build(network, sites)
    return impute_observed(
        bin_index, values, observed, distances, model=model, variable=variable,
        kinds=kinds, lag_bins=lag_bins, min_pairs=min_pairs,
        max_neighbors=max_neighbors, min_neighbors=min_neighbors,
        retained=distances.site_mask(known_site_ids),
    )


def impute_observed(bin_index, values, observed, distances, model=None, variable="flow",
                    kinds=MODEL_KINDS, lag_bins=15, min_pairs=5, max_neighbors=16,
                    min_neighbors=3, retained=None, shared_weights=None):
    """``impute_network`` on one bin's link-order ``values`` and ``observed`` mask.

    The one-row call of ``impute_rows``, whose arguments these are.
    """
    (field,) = impute_rows(
        ((bin_index, variable),), values[None], observed, distances, model=model,
        kinds=kinds, lag_bins=lag_bins, min_pairs=min_pairs,
        max_neighbors=max_neighbors, min_neighbors=min_neighbors,
        retained=retained, shared_weights=shared_weights,
    )
    return field


def impute_rows(labels, values, observed, distances, model=None, kinds=MODEL_KINDS,
                lag_bins=15, min_pairs=5, max_neighbors=16, min_neighbors=3,
                retained=None, shared_weights=None):
    """Krige a stack of value rows observed on the same links; one field each.

    ``values`` is a (R, links) array of link-order rows, all observed on the
    links of the mask ``observed`` (values off them are ignored), and
    ``labels`` gives each row's ``(bin_index, variable)``. One weight set,
    solved for the model and the known sites, is applied to every row in
    one stacked product (``_apply_weights``). With ``model=None`` a
    variogram is fitted first from the values of the one row (R must be
    1). ``retained`` is the ``distances.site_mask`` of ``known_site_ids``.

    ``shared_weights`` is an optional dict kept across calls with the same
    ``distances``, ``retained`` and neighbour limits, since neither entry
    depends on the values: the kriging weights of every model, given or
    fitted here, are stored there under ``(model, observed mask)``, and the
    lag bins and pairs of a fit (``variogram.lag_pairs``) under ``("lags",
    lag_bins, observed mask)``, and reused by a later call with the same
    key.
    """
    labels = tuple(labels)
    if len(labels) != values.shape[0]:
        raise ValidationError(f"{len(labels)} labels for {values.shape[0]} value rows")
    if model is None and len(labels) != 1:
        raise ValidationError(f"a model is fitted from one value row, got {len(labels)}")
    known, known_values = known_sites(values, observed, distances.site_links, retained)
    unobserved = np.flatnonzero(~observed)
    mask = observed.tobytes()
    batches = None
    if model is not None and shared_weights is not None:
        batches = shared_weights.get((model, mask))
    if batches is None:
        known_pairs = distances.between_sites[np.ix_(known, known)]
        if model is None:
            lags_key = ("lags", lag_bins, mask)
            lags = None if shared_weights is None else shared_weights.get(lags_key)
            if lags is None:
                lags = lag_pairs(known_pairs, distance_bin_edges(known_pairs, n_bins=lag_bins))
                if shared_weights is not None:
                    shared_weights[lags_key] = lags
            model = fit_variogram(lags.variogram(known_values[0]), kinds=kinds, min_pairs=min_pairs)
        batches = []
        if unobserved.size:
            _, batches = _kriging_weights(
                model,
                distances.site_to_target[np.ix_(known, unobserved)],
                known_pairs,
                max_neighbors,
                min_neighbors,
            )
        if shared_weights is not None:
            shared_weights[(model, mask)] = batches

    field_values = np.where(observed, values, np.nan)
    imputed = _apply_weights(batches, known_values, unobserved, field_values)
    # every row has the same provenance; the fields share one read-only array
    provenance = np.where(
        observed,
        PROVENANCE_OBSERVED,
        np.where(imputed, PROVENANCE_IMPUTED, PROVENANCE_FAILED),
    )
    provenance.flags.writeable = False
    return [
        ImputedField(
            bin_index=bin_index, variable=variable, values=row, provenance=provenance,
            model=model,
        )
        for (bin_index, variable), row in zip(labels, field_values)
    ]


def _running_sum(terms):
    """Add ``terms`` one at a time in order, as a Python loop would.

    ``np.sum`` adds pairwise and may change the last bits.
    """
    return float(np.cumsum(terms)[-1])


def failed_length_fraction(field, network):
    """Share of network length whose links could not be imputed."""
    failed = field.provenance == PROVENANCE_FAILED
    return _running_sum(np.where(failed, network.lengths_km, 0.0)) / network.total_length_km


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
    covered = field.provenance != PROVENANCE_FAILED
    lengths = network.lengths_km
    covered_length = _running_sum(np.where(covered, lengths, 0.0))
    coverage = covered_length / network.total_length_km
    if coverage < min_length_coverage:
        raise IncompleteFieldError(coverage=coverage, threshold=min_length_coverage)
    weighted_sum = _running_sum(np.where(covered, field.values * lengths, 0.0))
    return weighted_sum / covered_length, coverage
