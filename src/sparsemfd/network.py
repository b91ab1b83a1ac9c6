"""Road graph model: links, hierarchy classes, detector placement, distances.

All spatial reasoning happens along the graph. The separation between two
detectors is the shortest travelled distance over link lengths, never the
straight-line distance, so coordinates are optional metadata and play no
role here. A network is fully described by its connectivity, per-link
lengths and per-link hierarchy labels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .tableio import FLOAT, INT, OPTIONAL_FLOAT, TEXT, read_table

NETWORK_COLUMNS = ("link_id", "from_node", "to_node", "length_km", "hierarchy")
SITE_COLUMNS = ("detector_id", "link_id", "offset_fraction")
DEFAULT_OFFSET = 0.5


@dataclass(frozen=True)
class Link:
    """One road segment between two nodes.

    ``hierarchy`` is a small integer class label; by convention class 1 is
    the highest level (greatest traffic load).
    """

    id: str
    from_node: str
    to_node: str
    length_km: float
    hierarchy: int

    def __post_init__(self):
        if not (isinstance(self.length_km, (int, float)) and math.isfinite(self.length_km)):
            raise ValidationError(f"link '{self.id}': length must be a finite number")
        if self.length_km <= 0:
            raise ValidationError(
                f"link '{self.id}': length must be positive, got {self.length_km}"
            )
        if isinstance(self.hierarchy, bool) or not isinstance(self.hierarchy, int):
            raise ValidationError(f"link '{self.id}': hierarchy must be an integer")


@dataclass(frozen=True)
class DetectorSite:
    """A stationary detector attached to a link.

    ``offset_fraction`` locates the detector along the link, 0 at the from
    node and 1 at the to node. The default places it at the midpoint.
    """

    detector_id: str
    link_id: str
    offset_fraction: float = DEFAULT_OFFSET

    def __post_init__(self):
        f = self.offset_fraction
        if not (isinstance(f, (int, float)) and math.isfinite(f) and 0.0 <= f <= 1.0):
            raise ValidationError(
                f"detector '{self.detector_id}': offset_fraction must lie in [0, 1], got {f}"
            )


class Network:
    """Immutable undirected road graph.

    Parameters
    ----------
    links : iterable of Link
        Wholesale description of the network. Link ids must be unique.
    nodes : iterable of node ids, optional
        Explicit node set. When given, every link endpoint must be a member;
        otherwise nodes are inferred from the link endpoints.
    """

    def __init__(self, links, nodes=None):
        links = tuple(links)
        if not links:
            raise ValidationError("a network needs at least one link")
        by_id = {}
        for link in links:
            if link.id in by_id:
                raise ValidationError(f"duplicate link id '{link.id}'")
            by_id[link.id] = link
        endpoints = set()
        for link in links:
            endpoints.add(link.from_node)
            endpoints.add(link.to_node)
        if nodes is None:
            node_set = frozenset(endpoints)
        else:
            node_set = frozenset(nodes)
            dangling = sorted(endpoints - node_set)
            if dangling:
                raise ValidationError(
                    f"links reference nodes missing from the node set: {dangling[:10]}"
                )

        self.links = links
        self.nodes = node_set
        self.hierarchy_set = frozenset(link.hierarchy for link in links)
        # fsum keeps the total independent of link order
        self.total_length_km = math.fsum(link.length_km for link in links)
        self._by_id = by_id
        self._position = {link.id: i for i, link in enumerate(links)}

    def link(self, link_id):
        try:
            return self._by_id[link_id]
        except KeyError:
            raise ValidationError(f"unknown link id '{link_id}'")

    def position(self, link_id):
        """Index of a link in ``links``."""
        try:
            return self._position[link_id]
        except KeyError:
            raise ValidationError(f"unknown link id '{link_id}'")

    @cached_property
    def link_ids(self):
        """Link ids in link order."""
        return tuple(link.id for link in self.links)

    @cached_property
    def lengths_km(self):
        """Link lengths in link order, read-only."""
        return _frozen(np.array([link.length_km for link in self.links]))

    @cached_property
    def hierarchies(self):
        """Link hierarchy classes in link order, read-only."""
        return _frozen(np.array([link.hierarchy for link in self.links]))

    @cached_property
    def id_order(self):
        """Link positions sorted by link id, read-only."""
        ids = self.link_ids
        return _frozen(np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp))

    def links_of_hierarchy(self, hierarchy):
        return tuple(link for link in self.links if link.hierarchy == hierarchy)

    def length_by_hierarchy(self):
        out = {}
        for h in sorted(self.hierarchy_set):
            out[h] = math.fsum(l.length_km for l in self.links if l.hierarchy == h)
        return out

    def __repr__(self):
        return (
            f"Network({len(self.links)} links, {len(self.nodes)} nodes, "
            f"{self.total_length_km:.3f} km)"
        )


def _frozen(array):
    array.setflags(write=False)
    return array


def load_network(source, delimiter=","):
    """Read a network table with columns link_id, from_node, to_node, length_km, hierarchy."""
    schema = dict(zip(NETWORK_COLUMNS, (TEXT, TEXT, TEXT, FLOAT, INT)))
    table = read_table(source, schema, delimiter)
    links = [Link(*row) for row in table.rows()]
    table.check()
    return Network(links)


def load_detector_sites(source, network=None, delimiter=","):
    """Read a detector table with columns detector_id, link_id, offset_fraction (optional).

    A blank or absent offset places the detector at ``DEFAULT_OFFSET``.
    When ``network`` is given every referenced link must exist in it.
    """
    table = read_table(source, dict(zip(SITE_COLUMNS, (TEXT, TEXT, OPTIONAL_FLOAT))), delimiter)
    sites = []
    seen = set()
    for detector_id, link_id, offset in table.rows():
        site = DetectorSite(detector_id, link_id, DEFAULT_OFFSET if math.isnan(offset) else offset)
        if site.detector_id in seen:
            raise ValidationError(f"duplicate detector id '{site.detector_id}'")
        seen.add(site.detector_id)
        if network is not None:
            network.link(site.link_id)
        sites.append(site)
    table.check()
    return sites


def midpoint_sites(network):
    """A virtual site ``@<link id>`` at each link's midpoint: the imputation targets."""
    return tuple(DetectorSite("@" + link.id, link.id, 0.5) for link in network.links)


def _anchors(network, sites, index):
    """Per-site arrays: link number, end node indices and distances to both ends."""
    link_number = {link.id: k for k, link in enumerate(network.links)}
    links = [network.link(s.link_id) for s in sites]
    along = np.array([s.offset_fraction * l.length_km for s, l in zip(sites, links)])
    lengths = np.array([l.length_km for l in links])
    return (
        np.array([link_number[l.id] for l in links], dtype=np.intp),
        np.array([index[l.from_node] for l in links], dtype=np.intp),
        np.array([index[l.to_node] for l in links], dtype=np.intp),
        along,
        lengths - along,
    )


def _node_graph(network):
    """Node numbering and neighbour lists of the graph between distinct nodes.

    Nodes are numbered in breadth-first order, each component from its
    smallest unvisited node id, so that numbers close together are close in
    the graph. Parallel links count with the shortest of them and self-loops
    are dropped. Returns the numbering and, per node, its neighbours'
    numbers and the link lengths to them.
    """
    shortest = {}
    for link in network.links:
        a, b = link.from_node, link.to_node
        if a != b:
            pair = (a, b) if a < b else (b, a)
            shortest[pair] = min(link.length_km, shortest.get(pair, math.inf))
    adjacent = {node: {} for node in network.nodes}
    for (a, b), length in shortest.items():
        adjacent[a][b] = length
        adjacent[b][a] = length

    index = {}
    for root in sorted(adjacent):
        if root in index:
            continue
        index[root] = len(index)
        queue = [root]
        for node in queue:
            for near in sorted(adjacent[node]):
                if near not in index:
                    index[near] = len(index)
                    queue.append(near)
    order = sorted(adjacent, key=index.__getitem__)
    neighbors = [np.array([index[m] for m in adjacent[v]], dtype=np.intp) for v in order]
    lengths = [np.array(list(adjacent[v].values()), dtype=float) for v in order]
    return index, neighbors, lengths


# nodes relaxed together in one step of a sweep
SWEEP_BLOCK = 4


def _shortest_paths(neighbors, lengths, sources):
    """Shortest path lengths from each source node to every node.

    ``neighbors`` and ``lengths`` list each node's neighbours and the
    positive link lengths to them, as ``_node_graph`` returns them. The
    result has one row per node, plus a last row of inf, and one column per
    source; unreachable nodes are inf.

    The rows relax to the fixed point of ``d[v] = min_u (d[u] + w_uv)``
    over the links ``u-v``, with 0 at the source (Bellman 1958):
    Gauss-Seidel sweeps over blocks of ``SWEEP_BLOCK`` consecutive nodes,
    alternately forward and backward, until a sweep changes nothing. Each
    block reads the rows its earlier blocks wrote in the same sweep, so in
    breadth-first numbering a few sweeps suffice. With positive lengths the rounded sum ``d[u] + w_uv``
    is never below ``d[u]``, the fixed point is unique, and it is the one
    Dijkstra's algorithm reaches: the distances match it bit for bit.
    """
    n = len(neighbors)
    padding = n  # the inf row that pads short neighbour lists
    dist = np.full((n + 1, len(sources)), np.inf)
    dist[sources, np.arange(len(sources))] = 0.0
    blocks = []
    for start in range(0, n, SWEEP_BLOCK):
        stop = min(start + SWEEP_BLOCK, n)
        degree = max(len(near) for near in neighbors[start:stop])
        if degree == 0:
            continue
        near = np.full((stop - start, degree), padding, dtype=np.intp)
        length = np.full((stop - start, degree, 1), np.inf)
        for row, v in enumerate(range(start, stop)):
            near[row, :len(neighbors[v])] = neighbors[v]
            length[row, :len(lengths[v]), 0] = lengths[v]
        blocks.append((dist[start:stop], near.ravel(), length))

    changed = True
    while changed:
        changed = False
        for rows, near, length in blocks:
            reach = dist[near].reshape(length.shape[0], length.shape[1], -1)
            reach += length
            best = reach.min(axis=1)
            if (best < rows).any():
                np.minimum(rows, best, out=rows)
                changed = True
        blocks.reverse()
    return dist


# site rows and target columns of one tile of the distance kernel
DISTANCE_TILE = 128


def _distances(network, sites, targets, mirror=False):
    """Along-network distances from each site (rows) to each target (columns).

    The path runs from a site to one end node of its link, through the
    graph, then from an end node of the target's link to the target; all
    four endpoint pairings are tried. A site and a target sharing a link may
    also connect directly along it. Node-to-node distances come from
    ``_shortest_paths``, with the end nodes of the sites' links as sources.
    Unreachable pairs are inf.

    The result is filled one tile of ``DISTANCE_TILE`` site rows and target
    columns at a time. For each band of rows, the node distances from both
    ends of the sites' links are gathered once, site offsets added; each
    pairing is then gathered from them into one reused tile buffer, its
    target offset added, and folded into the result by a running minimum.
    The workspace beyond the result and the node distances thus does not
    grow with the number of sites or targets. The direct paths then lower
    the pairs that share a link. Every path is summed as ``(node distance +
    site offset) + target offset`` and a minimum is exact in any order, so
    no value depends on the tile size.

    With ``mirror`` the first ``len(sites)`` targets are the sites
    themselves: the tiles of that square strictly below its diagonal are
    skipped, and ``_symmetric`` fills them from the tiles above.
    """
    index, neighbors, lengths = _node_graph(network)
    s_link, s_from, s_to, s_from_off, s_to_off = _anchors(network, sites, index)
    t_link, t_from, t_to, t_from_off, t_to_off = _anchors(network, targets, index)
    is_source = np.zeros(len(index), dtype=bool)
    is_source[s_from] = True
    is_source[s_to] = True
    sources = np.flatnonzero(is_source)
    # one row per source, for the row gathers below
    node_dist = _shortest_paths(neighbors, lengths, sources).T.copy()
    row = np.zeros(len(index), dtype=np.intp)
    row[sources] = np.arange(sources.size)

    best = np.empty((len(sites), len(targets)))
    tile = DISTANCE_TILE
    band = np.empty((2, tile, node_dist.shape[1]))
    buffer = np.empty(tile * tile)
    for r0 in range(0, len(sites), tile):
        rows = slice(r0, r0 + tile)
        # from the band's sites through either end of their link to every node
        starts = band[:, :min(tile, len(sites) - r0)]
        for start, s_node, s_off in zip(starts, (s_from, s_to), (s_from_off, s_to_off)):
            np.take(node_dist, row[s_node[rows]], axis=0, out=start, mode="clip")
            start += s_off[rows, None]
        pairings = [(start, t_node, t_off) for start in starts
                    for t_node, t_off in ((t_from, t_from_off), (t_to, t_to_off))]
        # rows and columns share the tile grid, so c0 < r0 is a whole tile
        # of the square below its diagonal
        for c0 in range(r0 if mirror else 0, len(targets), tile):
            cols = slice(c0, c0 + tile)
            out = best[rows, cols]
            through = buffer[:out.size].reshape(out.shape)
            for k, (start, t_node, t_off) in enumerate(pairings):
                np.take(start, t_node[cols], axis=1, out=through, mode="clip")
                through += t_off[cols]
                if k:
                    np.minimum(out, through, out=out)
                else:
                    out[...] = through

    # direct paths along a shared link: the k-th pair of site i takes the
    # k-th target on its link, in a stable sort of the targets by link
    by_link = np.argsort(t_link, kind="stable")
    first = np.searchsorted(t_link, s_link, sorter=by_link)
    count = np.searchsorted(t_link, s_link, side="right", sorter=by_link) - first
    i = np.repeat(np.arange(len(sites)), count)
    nth = np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    j = by_link[np.repeat(first, count) + nth]
    if mirror:
        # the pairs below the diagonal are mirrored from those above it
        i, j = i[j >= i], j[j >= i]
    best[i, j] = np.minimum(best[i, j], np.abs(s_from_off[i] - t_from_off[j]))
    if mirror:
        _symmetric(best[:, :len(sites)])
    return best


def site_distance_matrix(network, sites):
    """Symmetric matrix of along-network distances between detector sites.

    Unreachable pairs are marked with inf rather than raised, so a partly
    disconnected network still yields a usable matrix. The diagonal is zero.
    """
    return _distances(network, sites, sites, mirror=True)


def _symmetric(square):
    """Mirror the upper triangle of ``square`` below a zero diagonal, in place.

    Blocks of ``DISTANCE_TILE`` rows and columns are copied one at a time,
    so no temporary exceeds a block. Returns ``square``.
    """
    n = square.shape[0]
    tile = DISTANCE_TILE
    for r0 in range(0, n, tile):
        rows = slice(r0, r0 + tile)
        for c0 in range(0, r0, tile):
            cols = slice(c0, c0 + tile)
            square[rows, cols] = square[cols, rows].T
        upper = np.triu(square[rows, rows], k=1)
        square[rows, rows] = upper + upper.T
    return square


def cross_distance_matrix(network, sites, targets):
    """Along-network distances from each site (rows) to each target (columns)."""
    return _distances(network, sites, targets)
