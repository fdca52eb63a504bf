"""
Building the global item-transition graph
=========================================

Every user's history contributes fractional co-occurrence weight to a
shared item-item graph: a pair of items at offset k inside the sliding
window adds 1/k to the directed edge between them.  ``build_transition_graph``
then scales each edge by the reciprocal degrees of its endpoints, adds the
transpose, and puts a unit self-loop on every item that appears anywhere.
"""

import os
import tempfile

import numpy as np

from graphseqrec import ItemSequence, build_transition_graph

# Three tiny histories.  Items 1..5; the window is 2, so consecutive
# pairs add 1 and skip-one pairs add 1/2.
sequences = [
    ItemSequence(0, [1, 2, 3]),
    ItemSequence(1, [2, 3, 4]),
    ItemSequence(2, [5]),
]

graph = build_transition_graph(sequences, window=2)
dense = graph.dense()

print("finalized graph (zero row/column 0 is the padding slot):")
with np.printoptions(precision=3, suppress=True):
    print(dense)

# Directed weights: 1 -> 2 once, 2 -> 3 once in each of two sequences, 3 -> 4
# once, and the offset-2 pairs 1 -> 3 and 2 -> 4 at 1/2 each.  Each item's
# weighted degree sums the weights of its edges in both directions.
weights = {(1, 2): 1.0, (2, 3): 2.0, (3, 4): 1.0, (1, 3): 0.5, (2, 4): 0.5}
deg = {1: 1.5, 2: 3.5, 3: 3.5, 4: 1.5}
for (i, j), w in weights.items():
    want = (1 / deg[i] + 1 / deg[j]) * w
    print(f"  {i} -> {j} : weight {w}, normalized {want:.4f}")
    assert np.isclose(dense[i, j], want)

# Symmetry and self-loops are structural guarantees.
assert (dense == dense.T).all()
assert dense[5, 5] == 1.0  # item 5 never co-occurred but still gets a loop
assert dense[1, 4] == 0.0  # offset 3 lies outside the window

# The text dump round-trips through plain tab-separated triples.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "transition_graph.tsv")
    graph.dump(path)
    print("\nfirst dump lines:")
    with open(path) as fh:
        for line in list(fh)[:5]:
            print(" ", line.rstrip())
