"""The evolving undirected network of experts.

Nodes carry per-expert error statistics; topology evolves by error-
adapted preferential attachment and by removal with rewiring. New nodes
attach to existing nodes with probability proportional to how much each
node's error deviates from the others':

    raw_k = (1 / sum_j phi_j) * sum_i |phi_i - phi_k|

renormalized into a distribution (uniform when degenerate). Removal may
split the graph; every orphaned component is then reconnected to the
largest surviving component by a single new edge, keeping the network
one component at all times.

Vote weights come from one of five centrality metrics computed on the
current topology: degree, closeness, betweenness, eigenvector, and
pagerank. Graphs here are tiny (the ensemble caps size around ten), so
every metric is recomputed from scratch at each topology change.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

CENTRALITY_METRICS = ("degree", "closeness", "betweenness", "eigenvector", "pagerank")
_PAGERANK_DAMPING = 0.85


def _attachment_law(values, what: str, by_deviation: bool) -> np.ndarray:
    """Validate non-negative per-node ``values`` and normalise them, uniform at a zero sum.

    ``by_deviation`` first maps the values to the error law's raw weights.
    """
    weights = np.asarray(list(values), dtype=float)
    if weights.size == 0:
        raise ValueError("need at least one node")
    if (weights < 0).any():
        raise ValueError(f"{what} must be non-negative")
    total = float(weights.sum())
    if by_deviation and total != 0.0:
        weights = np.abs(weights[:, None] - weights[None, :]).sum(axis=0) / total
        total = float(weights.sum())
    if total == 0.0:
        return np.full(weights.size, 1.0 / weights.size)
    return weights / total


def attach_probabilities(phis) -> np.ndarray:
    """Attachment distribution from node errors.

    Each node's raw weight is the total absolute deviation of its error
    from every node's error, scaled by the error total, then the raw
    vector is normalized to sum to one. All-equal errors (including the
    all-zero fresh start) fall back to the uniform distribution.
    """
    return _attachment_law(phis, "node errors", by_deviation=True)


def degree_attach_probabilities(degrees) -> np.ndarray:
    """Classic degree-proportional attachment distribution.

    All-zero degrees (an edgeless seed) give the uniform distribution.
    """
    return _attachment_law(degrees, "degrees", by_deviation=False)


def weighted_sample_without_replacement(probs, k: int, rng: np.random.Generator) -> list[int]:
    """Draw ``k`` distinct indices, sequentially, weighted by ``probs``.

    After each pick the picked entry is excluded and the rest
    renormalized. If all remaining weight is zero, picks fall back to
    uniform over the remaining indices.
    """
    p = np.asarray(probs, dtype=float)
    if k > p.size:
        raise ValueError(f"cannot draw {k} distinct indices from {p.size}")
    available = np.ones(p.size, dtype=bool)
    picks: list[int] = []
    for _ in range(k):
        weights = np.where(available, p, 0.0)
        cum = np.cumsum(weights)
        if cum[-1] > 0.0:
            r = rng.random() * cum[-1]
            idx = int(np.searchsorted(cum, r, side="right"))
            idx = min(idx, p.size - 1)
        else:
            open_idx = np.flatnonzero(available)
            idx = int(open_idx[rng.integers(open_idx.size)])
        picks.append(idx)
        available[idx] = False
    return picks


class SquaredErrorWindow:
    """Sliding window of squared errors with a running sum.

    A push overwrites one slot of a list ring (0.0 until first written,
    filled from the end), subtracting the old square and adding the new.
    When the position wraps, once per window length of pushes, the sum
    is exactly re-summed with ``fsum``, so float drift never accumulates,
    and from then on ``_full`` holds the window length (0 before).
    """

    __slots__ = ("_ring", "_sum", "_pos", "_full")

    def __init__(self, length: int):
        self._ring = [0.0] * length
        self._sum = 0.0
        self._pos = length - 1  # the slot the next push overwrites
        self._full = 0

    def __len__(self) -> int:
        return self._full or len(self._ring) - 1 - self._pos

    def record_error(self, error: float) -> None:
        error = float(error)
        sq = error * error
        ring = self._ring
        pos = self._pos
        self._sum = self._sum - ring[pos] + sq
        ring[pos] = sq
        if pos:
            self._pos = pos - 1
        else:
            self._sum = math.fsum(ring)
            self._full = len(ring)
            self._pos = len(ring) - 1

    def rmse(self) -> float:
        """RMSE over the window; 0 while it is empty."""
        n = self._full or len(self._ring) - 1 - self._pos  # len(self), without the call
        return math.sqrt(max(self._sum, 0.0) / n) if n else 0.0


class NodeStats(SquaredErrorWindow):
    """Error bookkeeping for one expert node: ``phi`` is its windowed RMSE."""

    __slots__ = ("zeta",)

    def __init__(self, window_len: int = 1000):
        super().__init__(window_len)
        self.zeta = 1.0

    phi = property(SquaredErrorWindow.rmse)


class ExpertNetwork:
    """Undirected, always-connected graph of expert nodes.

    The graph does not cap its size: the ensemble keeps it at ``k_max``
    by removing the worst node before it adds one. Each node's error
    window has the ``NodeStats`` default length.

    Parameters
    ----------
    m_a : int
        Edges a new node brings, clamped to the current size.
    """

    def __init__(self, m_a: int = 2):
        if m_a < 1:
            raise ValueError("m_a must be positive")
        self.m_a = m_a
        self.nodes: dict[int, NodeStats] = {}
        self.adj: dict[int, set[int]] = {}

    @classmethod
    def from_edges(cls, node_ids, edges) -> "ExpertNetwork":
        """Build a network with a fixed, connected topology."""
        net = cls()
        for v in node_ids:
            net._new_node(v)
        for u, v in edges:
            if u == v or u not in net.nodes or v not in net.nodes:
                raise ValueError(f"bad edge ({u}, {v})")
            net._add_edge(u, v)
        if not net.is_connected():
            raise ValueError("from_edges needs a connected graph")
        return net

    def __len__(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def degree(self, node_id: int) -> int:
        return len(self.adj[node_id])

    def edges(self) -> list[tuple[int, int]]:
        return sorted((min(u, v), max(u, v)) for u in self.adj for v in self.adj[u] if u < v)

    def add_node(self, node_id: int, rng: np.random.Generator, attach: str = "error") -> None:
        """Add a node, wiring it to min(m_a, existing) sampled targets.

        ``attach`` selects the sampling weights: "error" uses the
        error-deviation law over current node errors, "degree" uses
        degree-proportional attachment. The very first node is the seed
        and gets no edges.
        """
        if attach not in ("error", "degree"):
            raise ValueError(f"unknown attachment mode {attach!r}")
        existing = sorted(self.nodes)
        self._new_node(node_id)
        if existing:
            if attach == "error":
                probs = attach_probabilities([self.nodes[i].phi for i in existing])
            else:
                probs = degree_attach_probabilities([len(self.adj[i]) for i in existing])
            m = min(self.m_a, len(existing))
            for pick in weighted_sample_without_replacement(probs, m, rng):
                self._add_edge(node_id, existing[pick])

    def remove_node(self, victim_id: int, rng: np.random.Generator) -> None:
        """Remove a node and rewire any components it held together.

        Each non-largest component (largest by size, ties to the one
        holding the smallest node id) contributes one uniformly chosen
        node, which is linked to a node of the largest component drawn
        by the error-deviation attachment law.
        """
        if victim_id not in self.nodes:
            raise KeyError(f"node {victim_id} not in network")
        if len(self.nodes) < 2:
            raise ValueError("cannot remove the last node")
        for u in self.adj.pop(victim_id):
            self.adj[u].discard(victim_id)
        del self.nodes[victim_id]
        comps = self._components()
        if len(comps) > 1:
            comps.sort(key=lambda c: (-len(c), c[0]))
            largest = comps[0]
            probs = attach_probabilities([self.nodes[i].phi for i in largest])
            for comp in comps[1:]:
                orphan = comp[int(rng.integers(len(comp)))]
                pick = weighted_sample_without_replacement(probs, 1, rng)[0]
                self._add_edge(orphan, largest[pick])

    def worst_node(self) -> int:
        """Node id with the highest error, lowest id winning ties."""
        if not self.nodes:
            raise ValueError("empty network")
        best_id = None
        best_phi = -1.0
        for v in sorted(self.nodes):
            p = self.nodes[v].phi
            if p > best_phi:
                best_id, best_phi = v, p
        return best_id

    def is_connected(self) -> bool:
        """True when one breadth-first sweep reaches every node."""
        if len(self.nodes) <= 1:
            return True
        return len(self._shortest_paths(next(iter(self.nodes)))[0]) == len(self.nodes)

    def centrality(self, metric: str) -> dict[int, float]:
        """Per-node centrality under the chosen metric.

        Any metric on a single node is defined as {node: 1.0}.
        """
        if metric not in CENTRALITY_METRICS:
            raise ValueError(f"unknown metric {metric!r}; choose from {CENTRALITY_METRICS}")
        if not self.nodes:
            raise ValueError("empty network")
        if not self.is_connected():
            raise ValueError("centrality requires a connected network")
        ids = sorted(self.nodes)
        if len(ids) == 1:
            return {ids[0]: 1.0}
        if metric == "degree":
            return {v: float(len(self.adj[v])) for v in ids}
        if metric == "closeness":
            return self._closeness(ids)
        if metric == "betweenness":
            return self._betweenness(ids)
        if metric == "eigenvector":
            return self._eigenvector(ids)
        return self._pagerank(ids)

    # -- internals ----------------------------------------------------

    def _new_node(self, node_id: int) -> None:
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already present")
        self.nodes[node_id] = NodeStats()
        self.adj[node_id] = set()

    def _add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        self.adj[u].add(v)
        self.adj[v].add(u)

    def _components(self) -> list[list[int]]:
        remaining = set(self.nodes)
        comps: list[list[int]] = []
        while remaining:
            seen = self._shortest_paths(min(remaining))[0]
            comps.append(sorted(seen))
            remaining -= seen.keys()
        return comps

    def _shortest_paths(self, source: int) -> tuple[dict[int, int], dict[int, float]]:
        """BFS distances and shortest-path counts from ``source``, both in visit order."""
        dist = {source: 0}
        sigma = {source: 1.0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in self.adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    sigma[u] = 0.0
                    queue.append(u)
                if dist[u] == dist[v] + 1:
                    sigma[u] += sigma[v]
        return dist, sigma

    def _closeness(self, ids: list[int]) -> dict[int, float]:
        n = len(ids)
        out = {}
        for v in ids:
            total = sum(self._shortest_paths(v)[0].values())
            out[v] = (n - 1) / total
        return out

    def _betweenness(self, ids: list[int]) -> dict[int, float]:
        n = len(ids)
        if n < 3:
            return {v: 0.0 for v in ids}
        accum = dict.fromkeys(ids, 0.0)
        for s in ids:
            # Brandes: accumulate dependencies in reverse visit order; the
            # predecessors of w are its neighbours one step closer to s
            dist, sigma = self._shortest_paths(s)
            delta = dict.fromkeys(dist, 0.0)
            for w in reversed(dist):
                for v in self.adj[w]:
                    if dist[v] == dist[w] - 1:
                        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
                if w != s:
                    accum[w] += delta[w]
        # accumulation visits each unordered pair from both endpoints;
        # halve, then scale by the pair count (n-1)(n-2)/2
        scale = 1.0 / ((n - 1) * (n - 2))
        return {v: accum[v] * scale for v in ids}

    def _adjacency(self, ids: list[int]) -> np.ndarray:
        pos = {v: i for i, v in enumerate(ids)}
        a = np.zeros((len(ids), len(ids)))
        for v in ids:
            a[pos[v], [pos[u] for u in self.adj[v]]] = 1.0
        return a

    def _eigenvector(self, ids: list[int]) -> dict[int, float]:
        # the Perron vector of a connected graph is simple, so the
        # eigenvector of the largest eigenvalue is it up to sign
        vec = np.abs(np.linalg.eigh(self._adjacency(ids))[1][:, -1])
        return dict(zip(ids, vec.tolist()))

    def _pagerank(self, ids: list[int]) -> dict[int, float]:
        # r = (1-d)/n + d A D^-1 r; a connected graph with n >= 2 has no
        # dangling node, so every column of A has a nonzero degree
        a = self._adjacency(ids)
        n = len(ids)
        ranks = np.linalg.solve(np.eye(n) - _PAGERANK_DAMPING * a / a.sum(axis=0),
                                np.full(n, (1.0 - _PAGERANK_DAMPING) / n))
        return dict(zip(ids, ranks.tolist()))
