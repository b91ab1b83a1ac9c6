"""Network model and along-graph distances.

The distance checks are backed by independent oracles: node-to-node
shortest paths via Floyd-Warshall plus explicit endpoint pairing, written
from scratch here so the production path never verifies itself, and
scipy's Dijkstra, which the shortest-path kernel must match bit for bit.
"""

import io
import math
import os
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsemfd
from sparsemfd import network as network_module
from sparsemfd.errors import SchemaError, ValidationError
from sparsemfd.kriging import ImputationDistances
from sparsemfd.network import (
    DISTANCE_TILE,
    DetectorSite,
    Link,
    Network,
    _node_graph,
    _shortest_paths,
    cross_distance_matrix,
    load_detector_sites,
    load_network,
    midpoint_sites,
    site_distance_matrix,
)
from sparsemfd.synth import grid_network
from sparsemfd.tableio import BLOCK_ROWS
from conftest import (
    reference_distances,
    reference_imputation_distances,
    reference_load_detector_sites,
    reference_load_network,
    reference_site_distance_matrix,
    traced_peak,
)

NETWORK_DOC = """link_id,from_node,to_node,length_km,hierarchy
A,a,b,1.0,1
B,b,c,2.0,2
"""

SITES_DOC = """detector_id,link_id,offset_fraction
d1,A,0.2
d2,A,0.8
d3,B,
"""


# --- construction and loading -------------------------------------------------


def test_load_network_from_stream():
    net = load_network(io.StringIO(NETWORK_DOC))
    assert [l.id for l in net.links] == ["A", "B"]
    assert net.total_length_km == 3.0
    assert net.hierarchy_set == {1, 2}
    assert net.nodes == {"a", "b", "c"}


def test_load_network_missing_column():
    doc = "link_id,from_node,to_node,length_km\nA,a,b,1.0\n"
    with pytest.raises(SchemaError) as err:
        load_network(io.StringIO(doc))
    assert err.value.field == "hierarchy"


def test_load_network_bad_length():
    doc = "link_id,from_node,to_node,length_km,hierarchy\nA,a,b,-1.0,1\n"
    with pytest.raises(ValidationError):
        load_network(io.StringIO(doc))


def test_duplicate_link_id_rejected():
    with pytest.raises(ValidationError):
        Network((Link("A", "a", "b", 1.0, 1), Link("A", "b", "c", 1.0, 1)))


def test_explicit_nodes_must_cover_endpoints():
    with pytest.raises(ValidationError):
        Network((Link("A", "a", "b", 1.0, 1),), nodes=("a",))


def test_empty_network_rejected():
    with pytest.raises(ValidationError):
        Network(())


def test_load_detector_sites_with_defaults():
    net = load_network(io.StringIO(NETWORK_DOC))
    sites = load_detector_sites(io.StringIO(SITES_DOC), network=net)
    assert [s.detector_id for s in sites] == ["d1", "d2", "d3"]
    assert sites[0].offset_fraction == 0.2
    # blank offset falls back to the midpoint
    assert sites[2].offset_fraction == 0.5


def test_load_detector_sites_unknown_link():
    net = load_network(io.StringIO(NETWORK_DOC))
    doc = "detector_id,link_id\nd1,Z\n"
    with pytest.raises(ValidationError):
        load_detector_sites(io.StringIO(doc), network=net)


def test_load_detector_sites_duplicate_id():
    doc = "detector_id,link_id\nd1,A\nd1,B\n"
    with pytest.raises(ValidationError):
        load_detector_sites(io.StringIO(doc))


NET_HEADER = "link_id,from_node,to_node,length_km,hierarchy"


def _long_network(fault_row, fault, rows=BLOCK_ROWS + 40):
    """A network table of ``rows`` links whose row ``fault_row`` (0-based)
    is ``fault``."""
    lines = [NET_HEADER]
    for i in range(rows):
        lines.append(fault if i == fault_row else f"L{i},n{i},n{i + 1},{0.5 + i % 3},{1 + i % 3}")
    return "\n".join(lines) + "\n"


NETWORK_CORPUS = [
    NETWORK_DOC,
    NET_HEADER + "\n A , a ,b, 1e0 , +2 \n\nB,b,c,2,1_0\n   \n,,,,\n",
    # a hierarchy beyond 64 bits is a Python int
    NET_HEADER + "\nA,a,b,1,99999999999999999999\nB,b,c,1,-99999999999999999999\n",
    # short rows, a long row with blank extra cells
    NET_HEADER + "\nA,a,b,1\n",
    NET_HEADER + "\nA,a,b,1,1,,\nB,b\n",
    # a repeated column reads its last cell
    NET_HEADER + ",length_km\nA,a,b,x,1,2.5\n",
    NET_HEADER + ",length_km\nA,a,b,1,1,\n",
    # parse faults and value faults; the first row in order wins
    NET_HEADER + "\nA,a,b,nan,1\n",
    NET_HEADER + "\nA,a,b,1,1.5\n",
    NET_HEADER + "\nA,a,b,1,x\nB,b,c,-1,1\n",
    NET_HEADER + "\nA,a,b,-1,1\nB,b,c,x,1\n",
    NET_HEADER + "\nA,a,b,inf,1\n",
    NET_HEADER + "\n,a,b,1,1\n",
    NET_HEADER + "\nA,a,b,1,1\nA,b,c,1,1\n",
    NET_HEADER + "\nA,a,b,1,1\nA,b,c,1,1\nB,c,d,?,1\n",
    NET_HEADER + "\n",
    "link_id,from_node,to_node,length_km\nA,a,b,1\n",
    "",
    # past the first block: a parse fault, a value fault, and a value fault
    # in the first block before a parse fault in the second
    _long_network(BLOCK_ROWS + 5, "X,a,b,1,one"),
    _long_network(BLOCK_ROWS + 5, "X,a,b,0,1"),
    _long_network(3, "X,a,b,0,1").replace(f"\nL{BLOCK_ROWS + 9},", "\nL,a,b,x,"),
    _long_network(-1, ""),
]


def _network_values(network):
    return [[(v, type(v)) for v in astuple(link)] for link in network.links]


@pytest.mark.parametrize("doc", NETWORK_CORPUS)
@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_load_network_matches_the_per_row_reference(doc, delimiter):
    doc = doc.replace(",", delimiter)
    try:
        expected = _network_values(reference_load_network(io.StringIO(doc), delimiter))
    except Exception as exc:
        with pytest.raises(type(exc)) as err:
            load_network(io.StringIO(doc), delimiter)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
    else:
        assert _network_values(load_network(io.StringIO(doc), delimiter)) == expected


SITE_HEADER = "detector_id,link_id,offset_fraction"
SITES_CORPUS = [
    SITES_DOC,
    # an absent offset column, blank and short rows
    "detector_id,link_id\nd1,A\n\n d2 , B \n , \n",
    SITE_HEADER + "\nd1,A\nd2,B,\nd3,A, 0.25 \n",
    SITE_HEADER + "\nd1\n",
    # a repeated column reads its last cell
    SITE_HEADER + ",offset_fraction\nd1,A,x,0.3\nd2,A,0.3,\n",
    # parse faults and value faults; the first row in order wins
    SITE_HEADER + "\nd1,A,nan\n",
    SITE_HEADER + "\nd1,A,1.5\nd2,A,x\n",
    SITE_HEADER + "\nd1,A,x\nd2,A,1.5\n",
    SITE_HEADER + "\nd1,A,0.5\nd1,B,0.5\nd3,,0.5\n",
    SITE_HEADER + "\nd1,A,0.5\nd2,Z,0.5\n",
    SITE_HEADER + "\nd1,A,-0.0\nd2,B,1\nd3,B,inf\n",
    "detector_id,offset_fraction\nd1,0.5\n",
    "",
    # past the first block
    SITE_HEADER + "\n" + "".join(f"d{i},A,{i % 5 / 4}\n" for i in range(BLOCK_ROWS + 9))
    + "e,B,one\n",
    SITE_HEADER + "\n" + "".join(f"d{i},B,\n" for i in range(BLOCK_ROWS + 9)) + "d4,A,\n",
]


@pytest.mark.parametrize("doc", SITES_CORPUS)
@pytest.mark.parametrize("delimiter", [",", "\t"])
@pytest.mark.parametrize("with_network", [False, True])
def test_load_detector_sites_matches_the_per_row_reference(doc, delimiter, with_network):
    doc = doc.replace(",", delimiter)
    network = load_network(io.StringIO(NETWORK_DOC)) if with_network else None

    def values(sites):
        return [[(v, type(v)) for v in astuple(site)] for site in sites]

    try:
        expected = values(reference_load_detector_sites(io.StringIO(doc), network, delimiter))
    except Exception as exc:
        with pytest.raises(type(exc)) as err:
            load_detector_sites(io.StringIO(doc), network, delimiter)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
    else:
        assert values(load_detector_sites(io.StringIO(doc), network, delimiter)) == expected


def test_offset_fraction_bounds():
    with pytest.raises(ValidationError):
        DetectorSite("d", "A", 1.2)


def test_length_by_hierarchy(chain_network):
    assert chain_network.length_by_hierarchy() == {1: 1.0, 2: 2.0}


def test_total_length_independent_of_link_order():
    lengths = [0.1, 0.2, 0.3, 0.7, 1.1, 2.3]
    links = [Link(f"L{i}", f"n{i}", f"n{i + 1}", w, 1) for i, w in enumerate(lengths)]
    total = Network(tuple(links)).total_length_km
    assert Network(tuple(reversed(links))).total_length_km == total


def test_midpoint_sites(chain_network):
    sites = midpoint_sites(chain_network)
    assert [s.detector_id for s in sites] == ["@A", "@B"]
    assert all(s.offset_fraction == 0.5 for s in sites)


# --- worked distance examples -------------------------------------------------


def pair_distance(network, a, b):
    return site_distance_matrix(network, (a, b))[0, 1]


def test_distance_same_site_is_zero(chain_network):
    site = DetectorSite("d", "A", 0.3)
    assert pair_distance(chain_network, site, site) == 0.0


def test_distance_same_link(chain_network):
    a = DetectorSite("d1", "A", 0.2)
    b = DetectorSite("d2", "A", 0.8)
    assert pair_distance(chain_network, a, b) == pytest.approx(0.6, abs=1e-12)


def test_distance_adjacent_links_touching(chain_network):
    # end of A coincides with start of B
    a = DetectorSite("d1", "A", 1.0)
    b = DetectorSite("d2", "B", 0.0)
    assert pair_distance(chain_network, a, b) == 0.0


def test_distance_midpoints_across_shared_node(chain_network):
    a = DetectorSite("d1", "A", 0.5)
    b = DetectorSite("d2", "B", 0.5)
    # 0.5 km to the shared node plus 1.0 km into the longer link
    assert pair_distance(chain_network, a, b) == pytest.approx(1.5, abs=1e-12)


def test_distance_is_symmetric(chain_network):
    a = DetectorSite("d1", "A", 0.2)
    b = DetectorSite("d2", "B", 0.9)
    ab = pair_distance(chain_network, a, b)
    ba = pair_distance(chain_network, b, a)
    assert ab == ba


def test_matrix_marks_unreachable_as_inf():
    net = Network((Link("A", "a", "b", 1.0, 1), Link("B", "c", "d", 1.0, 1)))
    sites = (DetectorSite("d1", "A"), DetectorSite("d2", "B"))
    out = site_distance_matrix(net, sites)
    assert out[0, 0] == 0.0
    assert math.isinf(out[0, 1]) and math.isinf(out[1, 0])


def test_single_site_matrix():
    net = Network((Link("A", "a", "b", 1.0, 1),))
    out = site_distance_matrix(net, (DetectorSite("d", "A"),))
    assert out.shape == (1, 1) and out[0, 0] == 0.0


# --- oracle comparisons -------------------------------------------------------


def _random_network(rng, n_nodes=9, n_extra=6):
    links = []
    for i in range(1, n_nodes):
        j = int(rng.integers(0, i))
        links.append(Link(f"t{i}", f"n{j}", f"n{i}", float(rng.uniform(0.2, 2.0)), 1))
    for e in range(n_extra):
        i, j = rng.integers(0, n_nodes, size=2)
        if i == j:
            continue
        links.append(Link(f"x{e}", f"n{i}", f"n{j}", float(rng.uniform(0.2, 2.0)), 2))
    return Network(tuple(links))


def _node_distance_oracle(network):
    """All-pairs node distances by plain Floyd-Warshall."""
    nodes = sorted(network.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for link in network.links:
        i, j = idx[link.from_node], idx[link.to_node]
        if link.length_km < dist[i, j]:
            dist[i, j] = dist[j, i] = link.length_km
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i, k] + dist[k, j]
                if alt < dist[i, j]:
                    dist[i, j] = alt
    return idx, dist


def _site_distance_oracle(network, a, b, idx, node_dist):
    la = network.link(a.link_id)
    lb = network.link(b.link_id)
    off_a = a.offset_fraction * la.length_km
    off_b = b.offset_fraction * lb.length_km
    best = math.inf
    if la.id == lb.id:
        best = abs(off_a - off_b)
    ends_a = ((la.from_node, off_a), (la.to_node, la.length_km - off_a))
    ends_b = ((lb.from_node, off_b), (lb.to_node, lb.length_km - off_b))
    for na, wa in ends_a:
        for nb, wb in ends_b:
            best = min(best, wa + node_dist[idx[na], idx[nb]] + wb)
    return best


def test_matrix_matches_floyd_warshall_oracle():
    rng = np.random.default_rng(7)
    for trial in range(5):
        net = _random_network(rng)
        idx, node_dist = _node_distance_oracle(net)
        link_ids = [l.id for l in net.links]
        picks = rng.choice(len(link_ids), size=5, replace=False)
        sites = tuple(
            DetectorSite(f"s{i}", link_ids[p], float(rng.uniform(0.0, 1.0)))
            for i, p in enumerate(picks)
        )
        got = site_distance_matrix(net, sites)
        for i in range(len(sites)):
            for j in range(len(sites)):
                want = _site_distance_oracle(net, sites[i], sites[j], idx, node_dist)
                assert got[i, j] == pytest.approx(want, abs=1e-9)


_LONG = Link("P", "a", "b", 2.0, 1)
_SHORT = Link("Q", "b", "a", 0.5, 2)
_TAIL = Link("C", "b", "c", 1.0, 1)

EDGE_CASE_NETWORKS = {
    "parallel-long-first": Network((_LONG, _SHORT, _TAIL)),
    "parallel-short-first": Network((_SHORT, _LONG, _TAIL)),
    "self-loop": Network(
        (Link("A", "a", "b", 1.0, 1), Link("L", "b", "b", 0.7, 3), Link("B", "b", "c", 2.0, 2))
    ),
    "isolated-node": Network(
        (Link("A", "a", "b", 1.0, 1), Link("B", "b", "c", 2.0, 2)), nodes=("a", "b", "c", "z")
    ),
    "two-components": Network(
        (
            Link("A", "a", "b", 1.0, 1),
            Link("B", "b", "c", 0.4, 1),
            Link("C", "x", "y", 0.8, 2),
            Link("D", "y", "z", 1.5, 2),
        )
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASE_NETWORKS))
def test_edge_case_networks_match_floyd_warshall_oracle(name):
    net = EDGE_CASE_NETWORKS[name]
    idx, node_dist = _node_distance_oracle(net)
    sites = tuple(
        DetectorSite(f"{link.id}{k}", link.id, f)
        for link in net.links
        for k, f in enumerate((0.0, 0.3, 1.0))
    )
    targets = midpoint_sites(net)
    square = site_distance_matrix(net, sites)
    cross = cross_distance_matrix(net, sites, targets)
    for got, columns in ((square, sites), (cross, targets)):
        want = np.array(
            [[_site_distance_oracle(net, a, b, idx, node_dist) for b in columns] for a in sites]
        )
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.isinf(square).any() == (name == "two-components")


def test_matrix_agrees_with_pairwise_calls():
    rng = np.random.default_rng(11)
    net = _random_network(rng)
    link_ids = [l.id for l in net.links]
    sites = tuple(
        DetectorSite(f"s{i}", link_ids[int(rng.integers(0, len(link_ids)))], 0.4)
        for i in range(5)
    )
    matrix = site_distance_matrix(net, sites)
    for i, a in enumerate(sites):
        for j, b in enumerate(sites):
            if i < j:
                # the matrix fills the upper triangle directly, so these
                # entries repeat the pairwise computation bit for bit
                assert matrix[i, j] == pair_distance(net, a, b)
            else:
                # mirrored entries sum the same terms in another order
                assert matrix[i, j] == pytest.approx(
                    pair_distance(net, a, b), rel=1e-12
                )


def test_cross_matrix_agrees_with_pairwise_calls(chain_network):
    sites = (DetectorSite("d1", "A", 0.2),)
    targets = midpoint_sites(chain_network)
    out = cross_distance_matrix(chain_network, sites, targets)
    assert out.shape == (1, 2)
    for j, t in enumerate(targets):
        assert out[0, j] == pair_distance(chain_network, sites[0], t)


def test_removing_unused_link_keeps_distances():
    # the detour link D is never on a shortest path between the sites
    links = (
        Link("A", "a", "b", 1.0, 1),
        Link("B", "b", "c", 1.0, 1),
        Link("D", "a", "c", 9.0, 3),
    )
    net = Network(links)
    a = DetectorSite("d1", "A", 0.5)
    b = DetectorSite("d2", "B", 0.5)
    with_detour = pair_distance(net, a, b)
    without = pair_distance(Network(links[:2]), a, b)
    assert with_detour == without == 1.0


# --- metric properties --------------------------------------------------------


@st.composite
def network_with_sites(draw):
    n_nodes = draw(st.integers(min_value=3, max_value=7))
    links = []
    for i in range(1, n_nodes):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        w = draw(st.floats(min_value=0.1, max_value=3.0))
        links.append(Link(f"t{i}", f"n{j}", f"n{i}", w, 1))
    for e in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        j = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        if i == j:
            continue
        w = draw(st.floats(min_value=0.1, max_value=3.0))
        links.append(Link(f"x{e}", f"n{i}", f"n{j}", w, 2))
    net = Network(tuple(links))
    sites = tuple(
        DetectorSite(
            f"s{k}",
            links[draw(st.integers(min_value=0, max_value=len(links) - 1))].id,
            draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        for k in range(3)
    )
    return net, sites


@settings(max_examples=60, deadline=None)
@given(network_with_sites())
def test_distance_metric_properties(case):
    net, (a, b, c) = case
    d = site_distance_matrix(net, (a, b, c))
    assert np.all(np.diag(d) == 0.0)
    assert np.allclose(d, d.T)
    assert np.all(d >= 0.0)
    # triangle inequality over every ordering
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


# --- shortest-path kernel against Dijkstra ----------------------------------------


def _dijkstra_oracle(network, index, sources):
    """scipy's Dijkstra over the shortest of parallel links, self-loops dropped."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    shortest = {}
    for link in network.links:
        i, j = sorted((index[link.from_node], index[link.to_node]))
        if i != j and link.length_km < shortest.get((i, j), math.inf):
            shortest[(i, j)] = link.length_km
    ends = np.array(list(shortest), dtype=np.intp).reshape(-1, 2)
    n = len(index)
    graph = csr_matrix((list(shortest.values()), (ends[:, 0], ends[:, 1])), shape=(n, n))
    return dijkstra(graph, directed=False, indices=sources)


def _assert_kernel_matches_dijkstra(network, sources):
    index, neighbors, lengths = _node_graph(network)
    got = _shortest_paths(neighbors, lengths, sources)
    assert got.shape == (len(network.nodes) + 1, len(sources))
    assert np.isinf(got[-1]).all()
    assert np.array_equal(got[:-1].T, _dijkstra_oracle(network, index, sources))


# tied lengths, and a link 1e18 times shorter than its neighbours
_KERNEL_LENGTHS = (0.65, 0.625, 0.235, 1.0, 0.5, 1e-18)


def _random_multigraph(rng, components):
    """Random tree-plus-extras components with parallel links, self-loops
    and isolated nodes."""
    links, nodes = [], []
    for c in range(components):
        names = [f"c{c}n{i}" for i in range(int(rng.integers(2, 31)))]
        nodes += names
        pairs = [(names[int(rng.integers(0, i))], names[i]) for i in range(1, len(names))]
        for _ in range(int(rng.integers(0, len(names) + 1))):
            a, b = rng.integers(0, len(names), size=2)
            pairs.append((names[a], names[b]))
        pairs += [pairs[int(k)][::-1] for k in rng.integers(0, len(pairs), size=3)]
        for a, b in pairs:
            length = (
                float(rng.choice(_KERNEL_LENGTHS)) if rng.random() < 0.7
                else float(rng.uniform(0.01, 2.0))
            )
            links.append(Link(f"L{len(links)}", a, b, length, 1))
    nodes += [f"lone{i}" for i in range(int(rng.integers(0, 3)))]
    return Network(links, nodes=nodes)


@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_dijkstra_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    network = _random_multigraph(rng, components=1 + seed % 2)
    n = len(network.nodes)
    _assert_kernel_matches_dijkstra(network, np.arange(n))
    subset = np.unique(rng.integers(0, n, size=int(rng.integers(1, n + 1))))
    _assert_kernel_matches_dijkstra(network, subset)


def test_kernel_matches_dijkstra_next_to_vanishing_links():
    # a 1e-18 km link adds nothing to a 1 km path when rounded, so ties
    # between paths of different hop counts come out of the float sums
    links = [Link(f"r{i}", f"n{i}", f"n{i + 1}", 1.0, 1) for i in range(6)]
    links += [Link(f"s{i}", f"n{i}", f"m{i}", 1e-18, 1) for i in range(6)]
    links += [Link(f"t{i}", f"m{i}", f"n{i + 1}", 1.0, 1) for i in range(6)]
    network = Network(links)
    _assert_kernel_matches_dijkstra(network, np.arange(len(network.nodes)))


def test_kernel_matches_dijkstra_on_the_30x30_default_grid():
    network = grid_network(30, 30)
    _assert_kernel_matches_dijkstra(network, np.arange(len(network.nodes)))


def test_kernel_without_links_between_nodes():
    # a self-loop alone leaves one node and no neighbour
    network = Network((Link("L", "a", "a", 1.0, 1),), nodes=("a", "b"))
    index, neighbors, lengths = _node_graph(network)
    got = _shortest_paths(neighbors, lengths, np.array([index["a"]]))
    assert got[index["a"], 0] == 0.0
    assert np.isinf(got[index["b"], 0]) and np.isinf(got[-1, 0])


# --- tiled kernel against the dense one -----------------------------------------


def _spread_sites(network, links, offsets=(0.0, 0.3, 1.0, 0.5)):
    """One site per listed link with cycling offsets, then two more on the
    first link."""
    sites = [
        DetectorSite(f"s{i}", link.id, offsets[i % len(offsets)])
        for i, link in enumerate(links)
    ]
    if links:
        sites += [DetectorSite(f"extra{k}", links[0].id, f) for k, f in enumerate((1.0, 0.0))]
    return tuple(sites)


def _tiling_case(name):
    """``(network, sites, targets)`` of one named case."""
    if name in EDGE_CASE_NETWORKS:
        net = EDGE_CASE_NETWORKS[name]
        return net, _spread_sites(net, net.links), midpoint_sites(net)
    if name.startswith("random-"):
        seed = int(name.split("-")[1])
        rng = np.random.default_rng(100 + seed)
        # every odd seed draws two components
        net = _random_multigraph(rng, components=1 + seed % 2)
        picks = rng.choice(len(net.links), size=min(9, len(net.links)), replace=False)
        sites = _spread_sites(net, [net.links[int(p)] for p in picks])
        targets = tuple(
            DetectorSite(f"t{k}", link.id, float(rng.uniform(0.0, 1.0)))
            for k, link in enumerate(net.links)
        )
        return net, sites, targets + sites[::2]
    net = grid_network(30, 30)
    if name == "grid30":
        return net, _spread_sites(net, net.links[::173]), midpoint_sites(net)
    if name == "no-sites":
        return net, (), midpoint_sites(net)[:50]
    assert name == "no-targets"
    return net, _spread_sites(net, net.links[:5]), ()


TILING_CASES = (
    *sorted(EDGE_CASE_NETWORKS), *(f"random-{seed}" for seed in range(6)),
    "grid30", "no-sites", "no-targets",
)


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tile", (1, 3, 7, DISTANCE_TILE))
@pytest.mark.parametrize("name", TILING_CASES)
def test_tiled_kernel_matches_the_dense_kernel_bit_for_bit(name, tile, monkeypatch):
    monkeypatch.setattr(network_module, "DISTANCE_TILE", tile)
    net, sites, targets = _tiling_case(name)
    _assert_bitwise(site_distance_matrix(net, sites), reference_site_distance_matrix(net, sites))
    _assert_bitwise(
        cross_distance_matrix(net, sites, targets), reference_distances(net, sites, targets)
    )
    distances = ImputationDistances.build(net, sites)
    between, site_to_target = reference_imputation_distances(net, sites)
    _assert_bitwise(distances.between_sites, between)
    _assert_bitwise(distances.site_to_target, site_to_target)


def test_tiled_kernel_matches_the_dense_kernel_on_the_full_30x30_grid():
    net = grid_network(30, 30)
    sites = tuple(DetectorSite("d" + link.id, link.id, 0.5) for link in net.links)
    distances = ImputationDistances.build(net, sites)
    between, site_to_target = reference_imputation_distances(net, sites)
    _assert_bitwise(distances.between_sites, between)
    _assert_bitwise(distances.site_to_target, site_to_target)


def test_site_distance_matrix_needs_one_band_beyond_its_result_and_node_table():
    # the dense kernel needed three temporaries the size of the result
    net = grid_network(30, 30)
    sites = tuple(DetectorSite("d" + link.id, link.id, 0.5) for link in net.links)
    site_distance_matrix(net, sites[:3])
    matrix, peak = traced_peak(site_distance_matrix, net, sites)
    nodes = len(net.nodes)
    # every node ends a site's link, so every node is a source
    node_table = nodes * (nodes + 1) * 8
    # two rows per band site over every node, and one tile
    band = (2 * DISTANCE_TILE * (nodes + 1) + DISTANCE_TILE ** 2) * 8
    # the node graph and the per-site arrays
    bookkeeping = 2 * 2**20
    assert peak <= matrix.nbytes + node_table + band + bookkeeping


# --- dependencies -------------------------------------------------------------


def test_import_does_not_load_networkx():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sparsemfd.__file__)))
    for module in ("sparsemfd", "sparsemfd.cli"):
        code = f"import sys, {module}; assert 'networkx' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
