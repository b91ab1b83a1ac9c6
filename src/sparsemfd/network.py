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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import UnreachableSiteError, ValidationError
from .tableio import iter_rows, parse_float, parse_int, parse_optional_float, parse_str

NETWORK_COLUMNS = ("link_id", "from_node", "to_node", "length_km", "hierarchy")
SITE_COLUMNS = ("detector_id", "link_id")
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

    def has_link(self, link_id):
        return link_id in self._by_id

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
    links = []
    for lineno, row in iter_rows(source, NETWORK_COLUMNS, delimiter):
        links.append(
            Link(
                id=parse_str(row, "link_id", lineno),
                from_node=parse_str(row, "from_node", lineno),
                to_node=parse_str(row, "to_node", lineno),
                length_km=parse_float(row, "length_km", lineno),
                hierarchy=parse_int(row, "hierarchy", lineno),
            )
        )
    return Network(links)


def load_detector_sites(source, network=None, delimiter=","):
    """Read a detector table with columns detector_id, link_id, offset_fraction (optional).

    When ``network`` is given every referenced link must exist in it.
    """
    sites = []
    seen = set()
    for lineno, row in iter_rows(source, SITE_COLUMNS, delimiter):
        site = DetectorSite(
            detector_id=parse_str(row, "detector_id", lineno),
            link_id=parse_str(row, "link_id", lineno),
            offset_fraction=parse_optional_float(row, "offset_fraction", lineno, DEFAULT_OFFSET),
        )
        if site.detector_id in seen:
            raise ValidationError(f"duplicate detector id '{site.detector_id}'")
        seen.add(site.detector_id)
        if network is not None:
            network.link(site.link_id)
        sites.append(site)
    return sites


def midpoint_sites(network, prefix="@"):
    """One virtual site per link at its midpoint, used as imputation targets."""
    return tuple(
        DetectorSite(prefix + link.id, link.id, 0.5) for link in network.links
    )


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


def _distances(network, sites, targets):
    """Along-network distances from each site (rows) to each target (columns).

    The path runs from a site to one end node of its link, through the
    graph, then from an end node of the target's link to the target; all
    four endpoint pairings are tried. A site and a target sharing a link may
    also connect directly along it. Parallel links count with the shortest
    of them and self-loop links never shorten a path between nodes.
    Unreachable pairs are inf.
    """
    index = {node: i for i, node in enumerate(sorted(network.nodes))}
    n = len(index)
    # coo_matrix would sum parallel links, so keep the shortest per node pair
    shortest = {}
    for link in network.links:
        pair = tuple(sorted((index[link.from_node], index[link.to_node])))
        if pair[0] != pair[1] and link.length_km < shortest.get(pair, math.inf):
            shortest[pair] = link.length_km
    ends = np.array(list(shortest), dtype=np.intp).reshape(-1, 2)
    graph = csr_matrix((list(shortest.values()), (ends[:, 0], ends[:, 1])), shape=(n, n))

    s_link, s_from, s_to, s_from_off, s_to_off = _anchors(network, sites, index)
    t_link, t_from, t_to, t_from_off, t_to_off = _anchors(network, targets, index)
    sources = np.unique(np.concatenate([s_from, s_to]))
    node_dist = dijkstra(graph, directed=False, indices=sources)

    same_link = s_link[:, None] == t_link[None, :]
    best = np.where(same_link, np.abs(s_from_off[:, None] - t_from_off[None, :]), np.inf)
    for s_node, s_off in ((s_from, s_from_off), (s_to, s_to_off)):
        rows = np.searchsorted(sources, s_node)[:, None]
        for t_node, t_off in ((t_from, t_from_off), (t_to, t_to_off)):
            through = s_off[:, None] + node_dist[rows, t_node[None, :]] + t_off[None, :]
            np.minimum(best, through, out=best)
    return best


def detector_path_distance(network, site_a, site_b):
    """Shortest along-network distance between two detector sites, in km.

    Symmetric and zero for coincident sites. Raises UnreachableSiteError when
    the sites sit in disconnected components.
    """
    distance = site_distance_matrix(network, (site_a, site_b))[0, 1]
    if not math.isfinite(distance):
        raise UnreachableSiteError(
            f"no path between detectors '{site_a.detector_id}' and '{site_b.detector_id}'"
        )
    return float(distance)


def site_distance_matrix(network, sites):
    """Symmetric matrix of along-network distances between detector sites.

    Unreachable pairs are marked with inf rather than raised, so a partly
    disconnected network still yields a usable matrix. The diagonal is zero.
    """
    upper = np.triu(_distances(network, sites, sites), k=1)
    return upper + upper.T


def cross_distance_matrix(network, sites, targets):
    """Along-network distances from each site (rows) to each target (columns)."""
    return _distances(network, sites, targets)
