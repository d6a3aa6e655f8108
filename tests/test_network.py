"""Expert-graph tests: attachment, rewiring, churn, centrality oracles."""

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
from test_twins import net_from_adj, random_connected_graph, window_case, worst_oracle_gaps


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


@pytest.mark.parametrize("length", [1, 2, 7, 100])
@pytest.mark.parametrize("kind", ["zero", "tiny", "huge", "mixed"])
def test_error_windows_equal_the_deque_window_byte_for_byte(length, kind):
    # the harness's fixed case ring-<kind>-<length> under its older id; the case is cached
    window_case((kind, length))


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
    with pytest.raises(ValueError, match="from_edges needs a connected graph"):
        ExpertNetwork.from_edges([0, 1, 2], [(0, 1)])


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
    worst = worst_oracle_gaps(make_rng(123), 60, ("closeness", "betweenness", "eigenvector", "pagerank"))
    assert worst["closeness"] < 1e-9
    assert worst["betweenness"] < 1e-9
    assert worst["eigenvector"] < 1e-8
    assert worst["pagerank"] < 1e-8


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
