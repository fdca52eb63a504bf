"""Global item-transition graph: windowed construction, sparse propagation,
and batched per-sequence subgraph extraction.

The graph lives on an (num_items + 1)-node index space; row/column 0 is the
padding slot and never carries an edge.  ``build_transition_graph`` makes
the whole graph in one pass of array operations: windowed 1/offset pair
weights, degree normalization, the transpose and unit self-loops, giving the
immutable symmetric matrix that the rest of the package propagates over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .autodiff import ShapeMismatch
from .checkpoint import atomic_open
from .data import ItemSequence, SplitDataset


class TransitionGraph:
    """Finalized sparse item-item graph (symmetric, unit self-loops).

    ``matrix`` is kept in canonical CSR form, each row's columns sorted and
    free of duplicates, so an entry reads back exactly as stored and the
    entries walk in sorted (row, column) order.
    """

    def __init__(self, matrix: sp.csr_matrix):
        matrix = matrix.tocsr()
        matrix.sum_duplicates()  # also sorts each row's columns
        self.matrix = matrix
        self.num_nodes = matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix times a dense (num_nodes, k) array."""
        if x.ndim != 2 or x.shape[0] != self.num_nodes:
            raise ShapeMismatch(
                f"spmv: graph is [{self.num_nodes}x{self.num_nodes}], operand is {list(x.shape)}")
        return self.matrix @ x

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def dump(self, path) -> None:
        """Text dump, one 'i<TAB>j<TAB>weight' line per entry in sorted order."""
        entries = self.matrix.tocoo()
        with atomic_open(path) as fh:
            for i, j, w in zip(entries.row.tolist(), entries.col.tolist(),
                               entries.data.tolist()):
                fh.write(f"{i}\t{j}\t{w:.17g}\n")


def build_transition_graph(sequences: Sequence[ItemSequence], window: int = 2,
                           num_items: Optional[int] = None,
                           degree_mode: str = "weighted") -> TransitionGraph:
    """Each pair at offset k <= window adds 1/k to the directed edge (earlier,
    later); entry (i, j) is then scaled by 1/deg(i) + 1/deg(j), the transpose
    is added, and every item that occurs gets a unit self-loop.

    Float sums run in a fixed order, so the bits do not depend on the layout:
    an edge's weight sums its pairs by position, then offset, and the degrees
    sum the edges in order of first occurrence, both endpoints in turn.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if degree_mode not in ("weighted", "count"):
        raise ValueError(f"degree_mode must be 'weighted' or 'count', got {degree_mode!r}")
    items = np.concatenate([np.zeros(0, dtype=np.int64)]
                           + [np.asarray(s.items, dtype=np.int64) for s in sequences])
    if num_items is None:
        num_items = int(items.max(initial=0))
    bad = items[(items < 1) | (items > num_items)]
    if bad.size:
        raise ValueError(f"item id {bad[0]} is outside 1..{num_items}")
    n = num_items + 1
    owner = np.repeat(np.arange(len(sequences)),
                      np.array([len(s.items) for s in sequences], dtype=np.int64))
    same = np.zeros((items.size, window), dtype=bool)
    for k in range(1, window + 1):
        same[:-k, k - 1] = owner[:-k] == owner[k:]
    pos, offset = np.nonzero(same)  # by position, then offset
    offset += 1
    keys, first, inverse = np.unique(items[pos] * n + items[pos + offset],
                                     return_index=True, return_inverse=True)
    weights = np.zeros(keys.size)
    np.add.at(weights, inverse, 1.0 / offset)
    src, dst = np.divmod(keys, n)
    increments = weights if degree_mode == "weighted" else np.ones(keys.size)
    order = np.argsort(first, kind="stable")
    deg = np.zeros(n)
    np.add.at(deg, np.stack([src[order], dst[order]], axis=1).ravel(),
              np.repeat(increments[order], 2))
    directed = sp.csr_matrix(((1.0 / deg[src] + 1.0 / deg[dst]) * weights, (src, dst)),
                             shape=(n, n))
    loops = np.unique(items)
    return TransitionGraph(directed + directed.T
                           + sp.csr_matrix((np.ones(loops.size), (loops, loops)), shape=(n, n)))


def train_graph(dataset: SplitDataset, window: int = 2,
                degree_mode: str = "weighted") -> TransitionGraph:
    """Graph over the training portions only, so held-out targets never leak in."""
    return build_transition_graph([ItemSequence(u.user_id, u.train) for u in dataset.users],
                                  window, dataset.num_items, degree_mode)


@dataclass(frozen=True)
class SubgraphPerturbation:
    """Detached low-rank refinement, one snapshot per train step or evaluation pass.

    ``left``/``right`` are the graph-propagated factor values (plain arrays;
    no gradient flows back through subgraph extraction), so the refined
    weight between items i and j is base + strength * left[i] . right[j].
    """
    left: np.ndarray
    right: np.ndarray
    strength: float


def extract_subgraph_batch(graph: TransitionGraph, seqs: np.ndarray,
                           perturbation: Optional[SubgraphPerturbation] = None) -> np.ndarray:
    """Dense position-aligned weight blocks, one (N, N) block per padded row.

    Entry (b, p, q) is the (possibly refined) graph weight between the items
    at positions p and q of row b; entries at padding positions are zero.
    The base weights of all real pairs are read in one lookup of the
    canonical CSR matrix, so a stored weight is copied bit for bit and a
    missing edge reads 0.0.
    """
    seqs = np.asarray(seqs, dtype=np.int64)
    if seqs.size and seqs.max() >= graph.num_nodes:
        raise IndexError(f"item id {seqs.max()} is out of range for a graph "
                         f"with {graph.num_nodes} nodes")
    real = seqs > 0
    pairs = real[:, :, None] & real[:, None, :]
    out = np.zeros(pairs.shape, dtype=np.float64)
    src = np.broadcast_to(seqs[:, :, None], pairs.shape)[pairs]
    dst = np.broadcast_to(seqs[:, None, :], pairs.shape)[pairs]
    out[pairs] = np.asarray(graph.matrix[src, dst]).ravel()
    if perturbation is not None and perturbation.strength != 0.0:
        # one (k x k) product per real-item count k, the shape of a single
        # sequence's product: BLAS rounding depends on the shape, so a block
        # does not change with the padding width or the rest of the batch
        counts = real.sum(axis=1)
        low_rank = np.zeros(pairs.shape, dtype=np.float64)
        for k in np.unique(counts[counts > 0]):
            rows = np.flatnonzero(counts == k)
            slots = np.nonzero(real[rows])[1].reshape(rows.size, k)
            ids = seqs[rows[:, None], slots]
            low_rank[rows[:, None, None], slots[:, :, None], slots[:, None, :]] = (
                perturbation.left[ids] @ perturbation.right[ids].transpose(0, 2, 1))
        out[pairs] += perturbation.strength * low_rank[pairs]
    return out
