"""
Refined graph propagation without materializing the refinement
==============================================================

The learned refinement of the transition graph is a low-rank product
(A @ L)(A @ R)^T.  Propagating through the refined graph never builds
that dense matrix: the layer update multiplies right-to-left, so the
extra cost is linear in the number of items.  This script checks the
factored path against a dense-materialization reference and times both.
"""

import time

import numpy as np

from graphseqrec import (ItemSequence, Tensor, build_transition_graph,
                         init_factors, propagate)

rng = np.random.default_rng(0)

# Large enough that the quadratic dense path visibly loses.
num_items = 2000
sequences = [ItemSequence(u, list(rng.integers(1, num_items + 1, 12)))
             for u in range(1500)]
graph = build_transition_graph(sequences, window=2, num_items=num_items)
print(f"graph: {num_items} items, {graph.nnz} stored entries")

dim, rank, layers = 32, 8, 2
emb = rng.standard_normal((num_items + 1, dim))
emb[0] = 0.0
factors = init_factors(rng, num_items + 1, rank, strength=0.05)

# Factored fast path.
t0 = time.perf_counter()
fast = propagate(graph, Tensor(emb), layers, factors).data
fast_time = time.perf_counter() - t0

# Dense reference: build the full perturbation, then propagate.
t0 = time.perf_counter()
dense_graph = graph.dense()
perturbation = (dense_graph @ factors.left.data) @ (dense_graph @ factors.right.data).T
refined = dense_graph + 0.05 * perturbation
current, acc = emb.copy(), emb.copy()
for _ in range(layers):
    current = refined @ current
    acc += current
reference = acc / layers
dense_time = time.perf_counter() - t0

print(f"max |factored - dense| = {np.abs(fast - reference).max():.2e}")
print(f"factored: {fast_time * 1e3:.1f} ms, dense: {dense_time * 1e3:.1f} ms "
      f"({dense_time / fast_time:.0f}x)")

# Zero refinement strength collapses to plain propagation, bit for bit.
plain = propagate(graph, Tensor(emb), layers).data
zeroed = init_factors(rng, num_items + 1, rank, strength=0.0)
assert propagate(graph, Tensor(emb), layers, zeroed).data.tobytes() == plain.tobytes()
print("zero-strength refinement reproduces the original propagation exactly")
