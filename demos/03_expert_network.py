"""Growing, scoring, and repairing the expert network.

Nodes join with two edges each. The attachment law prefers nodes whose
recent error sits far from the network average on either side, so both
strong experts and struggling ones attract links. Removal reconnects
any fragments back to the largest surviving component.
"""

import numpy as np

from driftnet.network import CENTRALITY_METRICS, ExpertNetwork
from driftnet.prng import make_rng

rng = make_rng(31)
net = ExpertNetwork(m_a=2)

# Seed the graph, then grow it with degree attachment so early nodes
# snowball into hubs.
for v in range(60):
    net.add_node(v, rng, attach="degree")

degrees = np.array([len(net.adj[v]) for v in net.node_ids()])
print(f"grew to {len(net)} nodes, {len(net.edges())} edges")
print(f"degree spread: min={degrees.min()}, median={int(np.median(degrees))}, "
      f"max={degrees.max()} (hub-dominated)")

hist = np.bincount(degrees)
for k in range(2, len(hist)):
    if hist[k]:
        print(f"  degree {k:2d}: {'*' * hist[k]}")

# Give every node some recorded errors so the error-deviation scores
# are meaningful, then compare all four centrality conventions.
for v in net.node_ids():
    bias = 0.02 * (v % 7)
    for _ in range(50):
        net.nodes[v].record_error(bias + 0.1 * float(rng.random()))

print("\ntop nodes per centrality metric:")
for metric in CENTRALITY_METRICS:
    scores = net.centrality(metric)
    top = sorted(scores, key=lambda v: (-scores[v], v))[:3]
    shown = ", ".join(f"{v}:{scores[v]:.3f}" for v in top)
    print(f"  {metric:12s} {shown}")

hub = max(net.node_ids(), key=lambda v: len(net.adj[v]))
print(f"\nremoving hub {hub} (degree {len(net.adj[hub])})...")
net.remove_node(hub, rng)
print(f"still connected afterwards: {net.is_connected()} "
      f"({len(net)} nodes, {len(net.edges())} edges)")

worst = net.worst_node()
print(f"worst expert by recent error: node {worst} "
      f"(phi={net.nodes[worst].phi:.4f})")
