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
    EstimationError,
    IncompleteFieldError,
    InsufficientDataError,
    InsufficientNeighborsError,
    SingularSystemError,
    ValidationError,
)
from .network import _distances, midpoint_sites
from .sensing import bin_arrays, detector_mask, value_field
from .variogram import (
    LAG_BINS,
    MIN_PAIRS,
    MODEL_KINDS,
    distance_bin_edges,
    fit_variogram,
    gamma,
    lag_pairs,
    search_ranges,
)

PROVENANCE_OBSERVED = "observed"
PROVENANCE_IMPUTED = "imputed"
PROVENANCE_FAILED = "failed"

# default neighbour counts of a kriging system, and the least share of
# network length a field must cover to give a network mean
MAX_NEIGHBORS = 16
MIN_NEIGHBORS = 3
MIN_LENGTH_COVERAGE = 0.95

_ZERO_DISTANCE = 1e-12
# at most this many bytes of kriging systems go to one np.linalg.solve call
_SOLVE_CHUNK_BYTES = 1 << 18


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
    max_neighbors=MAX_NEIGHBORS,
    min_neighbors=MIN_NEIGHBORS,
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
        used; fewer than ``min_neighbors`` in range is an error. Both count
        distinct locations: coincident sites are merged (value-averaged)
        first, so duplicate sites cannot make the system singular.
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
    firsts, values = _merge_coincident(pairs, values)
    if firsts is not None:
        target, pairs, ids = target[firsts], pairs[np.ix_(firsts, firsts)], [ids[i] for i in firsts]
    batches = []
    found, failures = _kriging_weights(
        (model,), target[:, None], pairs, max_neighbors, min_neighbors, batches.append
    )
    if failures:
        raise failures[0]
    if not batches:
        raise InsufficientNeighborsError(found=int(found[0, 0]), required=min_neighbors)
    _, _, kept, solutions, rhs = batches[0]
    m = kept.shape[1]
    weights = solutions[0, :m]
    lagrange = float(solutions[0, m])
    return KrigingSolution(
        weights=weights,
        lagrange=lagrange,
        prediction=float(weights @ values[kept[0]]),
        neighbor_ids=tuple(ids[i] for i in kept[0]),
        variance=max(float(weights @ rhs[0, :m] + lagrange), 0.0),
    )


def _kriging_weights(models, target, pairs, max_neighbors, min_neighbors, consume):
    """Solve the kriging systems of many targets for one or more models.

    ``target`` holds the distances from the ``n`` known sites to ``k``
    targets, one column each; the sites are distinct locations
    (``_merge_coincident``). For every model, a column keeps its nearest
    in-range sites (ties by site order, at most ``max_neighbors``); a column
    with fewer than ``min_neighbors`` in range is left out for that model.
    The sites are sorted once for all models: a column's in-range sites are
    a prefix of its stable sort by distance, with the sites out of every
    model's range or at a non-finite distance last, so each model only
    counts how long its prefix is. Each column's neighbour block is gathered
    once, too. No site value enters, so the weights serve every bin and
    variable observed at the same sites; ``_neighbour_values`` supplies the
    values they apply to.

    The systems of one neighbour count are solved for every model together,
    in stacked ``np.linalg.solve`` calls of at most ``_SOLVE_CHUNK_BYTES``
    of systems. Each solved batch goes to ``consume`` as soon as it is
    solved, as a ``(rows, columns, kept, solutions, rhs)`` tuple: weight
    vector ``e`` belongs to model ``rows[e]`` (0 for every vector when there
    is one model) and column ``columns[e]``; ``kept`` holds its neighbour
    site indices, ``solutions`` the weights followed by the Lagrange
    multiplier and ``rhs`` the right-hand side. Which value rows a model's
    weights serve is the caller's to say (``_apply_weights``).

    Returns ``(found, failures)``: the in-range site count of every
    (model, column), counted among the ``max_neighbors`` nearest sites, and
    a ``SingularSystemError`` for each model index whose systems include a
    singular or non-finite one, for the first such column. Only the weight
    vectors whose solution is finite are consumed; a failed model's other
    weights are not to be used either.
    """
    if min_neighbors < 1:
        raise ValueError(f"min_neighbors must be at least 1, got {min_neighbors}")
    if max_neighbors < min_neighbors:
        raise ValueError("max_neighbors must be at least min_neighbors")

    # a stable sort keeps equal distances in site order; sites out of every
    # model's range, or at a non-finite distance, come last and tie
    reach = max(model.range_km for model in models)
    keys = np.where(np.isfinite(target) & (target <= reach), target, np.inf)
    order = np.argsort(keys, axis=0, kind="stable")[:max_neighbors].copy()
    nearest = np.take_along_axis(keys, order, axis=0)
    del keys
    found = np.array([np.count_nonzero(nearest <= model.range_km, axis=0) for model in models])
    counts = np.where(found >= min_neighbors, found, 0)
    # every column's neighbour block, gathered once
    blocks = pairs[order.T[:, :, None], order.T[:, None, :]]

    failures = {}
    for m in np.unique(counts[counts > 0]):
        # by model, then column: each model's rows are one run
        all_rows, all_columns = np.nonzero(counts == m)
        chunk = max(1, _SOLVE_CHUNK_BYTES // (8 * (m + 1) ** 2))
        for start in range(0, all_rows.size, chunk):
            rows, columns = all_rows[start:start + chunk], all_columns[start:start + chunk]
            kept = order[:m, columns].T
            systems, rhs, solutions, bad = _solve_batch(
                models, rows, blocks[columns, :m, :m], target[kept, columns[:, None]]
            )
            for row in np.flatnonzero(bad):
                model, column = int(rows[row]), int(columns[row])
                if model not in failures or column < failures[model][0]:
                    failures[model] = (column, systems[row].copy())
            # freed before the batch is applied, which lowers the peak
            del systems
            if bad.any():
                # only finite weights are applied; a failed model's are not used
                rows, columns, kept, solutions, rhs = (
                    a[~bad] for a in (rows, columns, kept, solutions, rhs)
                )
            consume((rows, columns, kept, solutions, rhs))
    return found, {
        model: SingularSystemError(condition=float(np.linalg.cond(system)))
        for model, (_, system) in failures.items()
    }


def _solve_batch(models, rows, block_dists, target_dists):
    """Assemble and solve the kriging systems of one batch in one call.

    ``block_dists`` (g, m, m) and ``target_dists`` (g, m) give each row's
    neighbour and target distances, and row ``r`` takes the model
    ``models[rows[r]]``; ``rows`` is sorted. Returns the (g, m+1, m+1)
    systems, the right-hand sides, the solutions and a mask of the rows
    whose system is singular or whose solution is not finite.
    """
    g, m = target_dists.shape
    diagonal = np.arange(m)
    systems = np.zeros((g, m + 1, m + 1))
    rhs = np.ones((g, m + 1))
    bounds = [0, *(np.flatnonzero(np.diff(rows)) + 1).tolist(), g]
    for start, stop in zip(bounds, bounds[1:]):
        model = models[rows[start]]
        systems[start:stop, :m, :m] = gamma(model, block_dists[start:stop])
        near = target_dists[start:stop]
        rhs[start:stop, :m] = np.where(near <= _ZERO_DISTANCE, 0.0, gamma(model, near))
    systems[:, diagonal, diagonal] = 0.0
    systems[:, :m, m] = 1.0
    systems[:, m, :m] = 1.0
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


def _merge_coincident(pairs, values):
    """Merge the known sites at (numerically) zero distance into one location.

    Sites are taken in order; each joins the first group whose first site
    coincides with it, or starts a new group. A group is represented by its
    first site, whose values (the last axis of ``values``) become the
    running mean of the group's, in site order. Returns the first sites and
    their values, or ``(None, values)`` when no two sites coincide.
    """
    close = np.tril(pairs <= _ZERO_DISTANCE, -1)
    if not close.any():
        return None, values
    groups = {}
    for index in range(len(pairs)):
        first = next((j for j in np.flatnonzero(close[index]) if j in groups), index)
        groups.setdefault(int(first), []).append(index)
    firsts = np.array(list(groups))
    means = values[..., firsts]
    for k, (_, *rest) in enumerate(groups.values()):
        for count, index in enumerate(rest, start=2):
            means[..., k] += (values[..., index] - means[..., k]) / count
    return firsts, means


def _neighbour_values(values, served_rows, kept):
    """One batch's neighbour values for the value rows its weight vectors serve.

    ``values`` is (R, n_known), ``kept`` (g, m) the neighbour sites of the
    batch's g weight vectors and ``served_rows`` (g, s) the value rows each
    of them serves, distinct and ascending. The result is a C-contiguous
    (g, s, m) array: entry ``[e, j]`` holds row ``served_rows[e, j]``'s
    values at ``kept[e]``.
    """
    if served_rows.shape[1] == values.shape[0]:
        # every vector serves every row, in order (a given model): one
        # gather, laid out as (vectors, rows, neighbours)
        return np.ascontiguousarray(values[:, kept].transpose(1, 0, 2))
    # one flat take, faster than indexing with two arrays; its result is
    # C-contiguous, without which the dot below would add in another order
    return np.take(values, served_rows[:, :, None] * values.shape[1] + kept[:, None, :])


def _apply_weights(batch, known_values, served, targets, field_values, imputed):
    """Krige the value rows a batch's models serve with its solved weights.

    ``known_values`` (R, n_known) holds each row's known-site values and
    ``served`` (models, s) the value rows each model serves. Weight vector
    ``e`` of model ``rows[e]`` predicts link ``targets[columns[e]]`` of
    every row in ``served[rows[e]]`` of ``field_values`` (R, links), and
    ``imputed`` (models, links) marks the links each model gave a value.
    Each prediction is the dot of its weights with its neighbour values,
    both contiguous, so it keeps the bits of a one-target
    ``weights @ values``.
    """
    rows, columns, kept, solutions, _ = batch
    m = kept.shape[1]
    cells = targets[columns]
    served_rows = served[rows]
    neighbours = _neighbour_values(known_values, served_rows, kept)
    field_values[served_rows, cells[:, None]] = np.matmul(
        neighbours[..., None, :], solutions[:, None, :m, None]
    )[..., 0, 0]
    imputed[rows, cells] = True


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
    lag_bins=LAG_BINS,
    min_pairs=MIN_PAIRS,
    max_neighbors=MAX_NEIGHBORS,
    min_neighbors=MIN_NEIGHBORS,
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
    (field,) = impute_rows(
        ((bin_index, variable),), values[None], observed, distances, model=model,
        kinds=kinds, lag_bins=lag_bins, min_pairs=min_pairs,
        max_neighbors=max_neighbors, min_neighbors=min_neighbors,
        retained=distances.site_mask(known_site_ids),
    )
    if isinstance(field, EstimationError):
        raise field
    return field


def impute_rows(labels, values, observed, distances, model=None, kinds=MODEL_KINDS,
                lag_bins=LAG_BINS, min_pairs=MIN_PAIRS, max_neighbors=MAX_NEIGHBORS,
                min_neighbors=MIN_NEIGHBORS, retained=None):
    """Krige a stack of value rows observed on the same links; one field each.

    ``values`` is a (R, links) array of link-order rows, all observed on the
    links of the mask ``observed`` (values off them are ignored), and
    ``labels`` gives each row's ``(bin_index, variable)``. ``retained`` is
    the ``distances.site_mask`` of ``known_site_ids``.

    Each model serves a set of rows, written down once in ``served``: a
    given ``model`` serves every row; with ``model=None`` each row gets its
    own variogram, one ``fit_variogram`` call per row in row order, and
    serves that row alone. The fits see every known site, the solve sees
    coincident sites merged (``_merge_coincident``). The weights of all
    models are solved in one ``_kriging_weights`` call, and each batch is
    applied to the rows its models serve as soon as it is solved
    (``_apply_weights``). A row whose fit raises, or whose model meets a
    singular system, fails: its entry in the returned list is that
    ``EstimationError`` instead of a field, the failure of that row alone.
    An error that concerns every row alike (no known site, no lag bins) is
    raised.
    """
    labels = tuple(labels)
    if len(labels) != values.shape[0]:
        raise ValidationError(f"{len(labels)} labels for {values.shape[0]} value rows")
    known, known_values = known_sites(values, observed, distances.site_links, retained)
    unobserved = np.flatnonzero(~observed)
    known_pairs = distances.between_sites[np.ix_(known, known)]
    if model is None:
        fits = _fit_rows(known_values, known_pairs, kinds, lag_bins, min_pairs)
        served = np.flatnonzero([not isinstance(fit, EstimationError) for fit in fits])[:, None]
        models = [fits[r] for r in served[:, 0]]
    else:
        fits = [model] * len(labels)
        served = np.arange(len(labels))[None]
        models = [model]
    firsts, known_values = _merge_coincident(known_pairs, known_values)
    if firsts is not None:
        known, known_pairs = known[firsts], known_pairs[np.ix_(firsts, firsts)]

    field_values = np.where(observed, values, np.nan)
    # a stack built for this call is freed before the solve, which lowers
    # the peak
    del values
    imputed = np.zeros((len(models), observed.size), dtype=bool)

    def apply(batch):
        _apply_weights(batch, known_values, served, unobserved, field_values, imputed)

    failures = {}
    if models and unobserved.size:
        _, failures = _kriging_weights(
            models, distances.site_to_target[np.ix_(known, unobserved)], known_pairs,
            max_neighbors, min_neighbors, apply,
        )
    for k, error in failures.items():
        for r in served[k]:
            fits[r] = error

    # the rows of one model share one read-only provenance row
    provenance = np.where(
        observed,
        PROVENANCE_OBSERVED,
        np.where(imputed, PROVENANCE_IMPUTED, PROVENANCE_FAILED),
    )
    provenance.flags.writeable = False
    model_of = {r: k for k, rows in enumerate(served.tolist()) for r in rows}
    return [
        fit if isinstance(fit, EstimationError) else ImputedField(
            bin_index=bin_index, variable=variable, values=row,
            provenance=provenance[model_of[r]], model=fit,
        )
        for r, ((bin_index, variable), row, fit) in enumerate(zip(labels, field_values, fits))
    ]


def _fit_rows(known_values, known_pairs, kinds, lag_bins, min_pairs):
    """One fitted variogram per row of ``known_values``, or the error of its fit.

    The lag bins and pairs of the known sites are assigned once for all
    rows; an error there concerns every row and is raised. The ranges of
    all rows are searched in one ``search_ranges`` call, and each fit is
    then finished by one call of the module-level ``fit_variogram``, in
    row order, which raises where a fit of that row alone would. An error
    is kept without its traceback, whose frames would hold the caller's
    distances in a reference cycle.
    """
    lags = lag_pairs(known_pairs, distance_bin_edges(known_pairs, n_bins=lag_bins))
    fits = []
    for row in known_values:
        try:
            fits.append(lags.variogram(row))
        except EstimationError as exc:
            fits.append(exc.with_traceback(None))
    rows = [r for r, fit in enumerate(fits) if not isinstance(fit, EstimationError)]
    searched = search_ranges([fits[r] for r in rows], kinds, min_pairs)
    for r, ranges in zip(rows, searched):
        try:
            fits[r] = fit_variogram(fits[r], kinds=kinds, min_pairs=min_pairs, ranges=ranges)
        except EstimationError as exc:
            fits[r] = exc.with_traceback(None)
    return fits


def _running_sum(terms):
    """Add ``terms`` one at a time in order, as a Python loop would.

    ``np.sum`` adds pairwise and may change the last bits.
    """
    return float(np.cumsum(terms)[-1])


def failed_length_fraction(field, network):
    """Share of network length whose links could not be imputed."""
    failed = field.provenance == PROVENANCE_FAILED
    return _running_sum(np.where(failed, network.lengths_km, 0.0)) / network.total_length_km


def network_mean_from_field(field, network, min_length_coverage=MIN_LENGTH_COVERAGE):
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
