"""Expert-graph tests: attachment, rewiring, churn, centrality oracles."""

import itertools
import math
from collections import deque

import numpy as np
import pytest

from driftnet.network import (
    CENTRALITY_METRICS,
    ExpertNetwork,
    NodeStats,
    attach_probabilities,
    degree_attach_probabilities,
    weighted_sample_without_replacement,
)
from driftnet.prng import make_rng


# ---------------------------------------------------------------------------
# Independent oracles, sharing no code with the implementation.
# ---------------------------------------------------------------------------

def _bfs_dist(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in sorted(adj[v]):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def oracle_closeness(adj):
    n = len(adj)
    out = {}
    for v in adj:
        if n == 1:
            out[v] = 1.0
        else:
            out[v] = (n - 1) / sum(_bfs_dist(adj, v).values())
    return out


def _all_simple_paths(adj, s, t):
    paths = []
    stack = [(s, [s])]
    while stack:
        v, path = stack.pop()
        if v == t:
            paths.append(path)
            continue
        for u in sorted(adj[v]):
            if u not in path:
                stack.append((u, path + [u]))
    return paths


def oracle_betweenness(adj):
    """Exhaustive shortest-path enumeration, pair-normalized."""
    n = len(adj)
    raw = {v: 0.0 for v in adj}
    if n < 3:
        return raw
    for s, t in itertools.combinations(sorted(adj), 2):
        paths = _all_simple_paths(adj, s, t)
        shortest = min(len(p) for p in paths)
        sp = [p for p in paths if len(p) == shortest]
        for v in adj:
            if v == s or v == t:
                continue
            raw[v] += sum(1 for p in sp if v in p) / len(sp)
    scale = (n - 1) * (n - 2) / 2.0
    return {v: raw[v] / scale for v in adj}


def oracle_eigenvector(adj):
    ids = sorted(adj)
    n = len(ids)
    if n == 1:
        return {ids[0]: 1.0}
    index = {v: i for i, v in enumerate(ids)}
    a = np.zeros((n, n))
    for v in ids:
        for u in adj[v]:
            a[index[v], index[u]] = 1.0
    _, vecs = np.linalg.eigh(a)
    principal = np.abs(vecs[:, -1])
    principal /= np.linalg.norm(principal)
    return {v: principal[index[v]] for v in ids}


def oracle_pagerank(adj, damping=0.85):
    ids = sorted(adj)
    n = len(ids)
    if n == 1:
        return {ids[0]: 1.0}
    index = {v: i for i, v in enumerate(ids)}
    m = np.zeros((n, n))
    for v in ids:
        share = 1.0 / len(adj[v])
        for u in adj[v]:
            m[index[u], index[v]] = share
    pr = np.full(n, 1.0 / n)
    for _ in range(100_000):
        nxt = (1.0 - damping) / n + damping * (m @ pr)
        if np.max(np.abs(nxt - pr)) < 1e-13:
            pr = nxt
            break
        pr = nxt
    return {v: pr[index[v]] for v in ids}


def random_connected_graph(rng, max_nodes=8):
    """Random tree plus a few chords; returns an adjacency dict."""
    n = int(rng.integers(2, max_nodes + 1))
    adj = {v: set() for v in range(n)}
    for v in range(1, n):
        parent = int(rng.integers(v))
        adj[v].add(parent)
        adj[parent].add(v)
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.integers(n), rng.integers(n)
        if u != v:
            adj[int(u)].add(int(v))
            adj[int(v)].add(int(u))
    return adj


def net_from_adj(adj):
    edges = {(min(u, v), max(u, v)) for u in adj for v in adj[u]}
    return ExpertNetwork.from_edges(sorted(adj), sorted(edges))


# ---------------------------------------------------------------------------
# Attachment probabilities and sampling.
# ---------------------------------------------------------------------------

def test_attach_probabilities_worked_example():
    probs = attach_probabilities([0.1, 0.2, 0.3])
    assert probs == pytest.approx([0.375, 0.25, 0.375], abs=1e-12)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


def test_attach_probabilities_fallbacks():
    # equal errors carry no signal: uniform
    assert attach_probabilities([0.5, 0.5, 0.5, 0.5]) == pytest.approx([0.25] * 4)
    # all-zero errors likewise
    assert attach_probabilities([0.0, 0.0]) == pytest.approx([0.5, 0.5])
    assert attach_probabilities([0.7]) == pytest.approx([1.0])
    with pytest.raises(ValueError):
        attach_probabilities([0.1, -0.2])
    with pytest.raises(ValueError):
        attach_probabilities([])


def test_degree_attach_probabilities():
    assert degree_attach_probabilities([1, 1, 2]) == pytest.approx([0.25, 0.25, 0.5])
    # isolated seed node: uniform fallback
    assert degree_attach_probabilities([0]) == pytest.approx([1.0])


def test_weighted_sampling_distribution():
    rng = make_rng(11)
    probs = attach_probabilities([0.1, 0.2, 0.3])
    counts = np.zeros(3)
    n_draws = 20_000
    for _ in range(n_draws):
        counts[weighted_sample_without_replacement(probs, 1, rng)[0]] += 1
    assert counts / n_draws == pytest.approx([0.375, 0.25, 0.375], abs=0.02)


def test_weighted_sampling_distinct_and_exhaustive():
    rng = make_rng(5)
    probs = np.array([0.2, 0.3, 0.5])
    for _ in range(200):
        picks = weighted_sample_without_replacement(probs, 3, rng)
        assert sorted(picks) == [0, 1, 2]


def test_node_stats_phi_matches_recomputation():
    rng = make_rng(21)
    stats = NodeStats(window_len=100)
    assert stats.phi == 0.0
    errs = deque(maxlen=100)
    # push enough to wrap the window many times and cross a resync
    for _ in range(5000):
        e = float(rng.normal())
        stats.record_error(e)
        errs.append(e)
        expected = math.sqrt(math.fsum(v * v for v in errs) / len(errs))
        assert abs(stats.phi - expected) < 1e-9


# ---------------------------------------------------------------------------
# Growth, removal, rewiring.
# ---------------------------------------------------------------------------

def test_seed_and_second_node_edges():
    rng = make_rng(1)
    net = ExpertNetwork(m_a=2)
    net.add_node(0, rng)
    assert net.edges() == []
    net.add_node(1, rng)  # m_a clamped to the single existing node
    assert net.edges() == [(0, 1)]


def test_duplicate_node_rejected():
    rng = make_rng(1)
    net = ExpertNetwork()
    net.add_node(0, rng)
    with pytest.raises(ValueError):
        net.add_node(0, rng)


def test_remove_leaf_no_rewiring():
    net = ExpertNetwork.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    net.remove_node(2, make_rng(3))
    assert net.edges() == [(0, 1)]


def test_remove_path_center_rewires_ends():
    # removing B from A-B-C leaves two singletons; the only reconnection
    # the rewiring rule can produce is the edge A-C
    net = ExpertNetwork.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    net.remove_node(1, make_rng(3))
    assert net.edges() == [(0, 2)]


def test_remove_star_hub_rewires_each_orphan():
    net = ExpertNetwork.from_edges(
        [0, 1, 2, 3, 4], [(0, 1), (0, 2), (0, 3), (0, 4)])
    net.remove_node(0, make_rng(9))
    # four singleton components; one absorbs the other three
    assert len(net.edges()) == 3
    assert net.is_connected()
    assert sorted(net.nodes) == [1, 2, 3, 4]


def test_remove_last_node_rejected():
    rng = make_rng(1)
    net = ExpertNetwork()
    net.add_node(0, rng)
    with pytest.raises(ValueError):
        net.remove_node(0, rng)
    with pytest.raises(KeyError):
        net.remove_node(99, rng)


def test_worst_node_highest_error_lowest_id_tie():
    net = ExpertNetwork.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    net.nodes[0].record_error(1.0)
    net.nodes[1].record_error(2.0)
    net.nodes[2].record_error(2.0)
    assert net.worst_node() == 1


def test_connectivity_under_random_churn():
    # smaller cousin of the acceptance-scale churn run
    rng = make_rng(77)
    net = ExpertNetwork(m_a=2)
    net.add_node(0, rng)
    next_id = 1
    for step in range(1500):
        if len(net) >= 10 or (len(net) > 1 and rng.random() < 0.4):
            ids = net.node_ids()
            net.remove_node(ids[int(rng.integers(len(ids)))], rng)
        else:
            net.add_node(next_id, rng)
            next_id += 1
        assert len(net) >= 1
        assert net.is_connected()


def test_degree_growth_produces_hubs():
    rng = make_rng(2)
    net = ExpertNetwork(m_a=2)
    for v in range(200):
        net.add_node(v, rng, attach="degree")
    degrees = sorted(net.degree(v) for v in net.node_ids())
    median = degrees[len(degrees) // 2]
    assert degrees[-1] >= 4 * median


# ---------------------------------------------------------------------------
# Centrality metrics.
# ---------------------------------------------------------------------------

def test_centrality_singleton_convention():
    rng = make_rng(1)
    net = ExpertNetwork()
    net.add_node(0, rng)
    for metric in CENTRALITY_METRICS:
        assert net.centrality(metric) == {0: 1.0}


def test_unknown_metric_rejected():
    net = ExpertNetwork.from_edges([0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        net.centrality("katz")


def test_disconnected_graph_rejected():
    net = ExpertNetwork.from_edges([0, 1], [(0, 1)])
    net.adj[0].discard(1)
    net.adj[1].discard(0)
    with pytest.raises(ValueError):
        net.centrality("degree")


def test_path_betweenness_frozen():
    net = ExpertNetwork.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    assert net.centrality("betweenness") == pytest.approx({0: 0.0, 1: 1.0, 2: 0.0})


def test_star_eigenvector_ratio():
    net = ExpertNetwork.from_edges([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    zeta = net.centrality("eigenvector")
    assert zeta[0] / zeta[1] == pytest.approx(math.sqrt(3.0), abs=1e-6)
    assert zeta[1] == pytest.approx(zeta[2], abs=1e-9)
    assert zeta[1] == pytest.approx(zeta[3], abs=1e-9)


def test_degree_centrality_is_raw_degree():
    net = ExpertNetwork.from_edges([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert net.centrality("degree") == {0: 3.0, 1: 2.0, 2: 2.0, 3: 1.0}


def test_closeness_on_path():
    net = ExpertNetwork.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    zeta = net.centrality("closeness")
    assert zeta == pytest.approx({0: 2 / 3, 1: 1.0, 2: 2 / 3})


def test_centralities_match_oracles_on_random_graphs():
    rng = make_rng(123)
    for _ in range(60):
        adj = random_connected_graph(rng)
        net = net_from_adj(adj)
        close = net.centrality("closeness")
        between = net.centrality("betweenness")
        eig = net.centrality("eigenvector")
        page = net.centrality("pagerank")
        for v, expected in oracle_closeness(adj).items():
            assert abs(close[v] - expected) < 1e-9
        for v, expected in oracle_betweenness(adj).items():
            assert abs(between[v] - expected) < 1e-9
        for v, expected in oracle_eigenvector(adj).items():
            assert abs(eig[v] - expected) < 1e-8
        for v, expected in oracle_pagerank(adj).items():
            assert abs(page[v] - expected) < 1e-8


def test_pagerank_sums_to_one():
    rng = make_rng(44)
    for _ in range(20):
        net = net_from_adj(random_connected_graph(rng))
        assert math.fsum(net.centrality("pagerank").values()) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Snapshots.
# ---------------------------------------------------------------------------

def test_edge_list_dump_reload():
    rng = make_rng(8)
    net = ExpertNetwork()
    for v in range(6):
        net.add_node(v, rng)
    reloaded = ExpertNetwork.from_edges(net.node_ids(), net.edges())
    assert reloaded.edges() == net.edges()
