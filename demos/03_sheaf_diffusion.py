"""The learnable sheaf Laplacian and its classical reduction.

With identity restriction maps and a zero attention vector, the sheaf
Laplacian collapses to half the classical graph Laplacian; with learned
maps it measures disagreement after per-edge alignment.
"""

import numpy as np

from sheafcast import generate_small_world
from sheafcast.sheaf import SheafParameters, message_pass, sheaf_laplacian_apply

rng = np.random.default_rng(0)
graph = generate_small_world(n=8, k=4, beta=0.2, seed=1)
stalks = rng.normal(size=(8, 3))

identity = SheafParameters.init(graph.edges, 8, stalk_dim=3, identity=True)
lap = sheaf_laplacian_apply(stalks, identity).data

classical = np.zeros((8, 8))
for s, d in graph.edges:
    classical[s, s] += 1; classical[d, d] += 1
    classical[s, d] -= 1; classical[d, s] -= 1
print("identity sheaf == 0.5 x graph Laplacian:",
      np.allclose(lap, 0.5 * classical @ stalks))

# constant sections are harmonic: diffusion leaves them untouched
flat = np.tile(rng.normal(size=3), (8, 1))
print("constant stalks are fixed points:",
      np.allclose(message_pass(flat, identity)[0].data, flat))

# learned maps produce edge-specific discrepancies; message passing returns
# the first round's, one row per edge
learned = SheafParameters.init(graph.edges, 8, stalk_dim=3, map_dim=2,
                               rng=rng, rounds=2)
learned.attention.data[:] = rng.normal(size=2)
smoothed, deltas = message_pass(stalks, learned)
print(f"\nedge {graph.edges[0]}: delta = {np.round(deltas.data[0], 3)}")
print(f"two rounds of message passing moved the stalks by "
      f"{np.abs(smoothed.data - stalks).mean():.4f} on average")
