"""Global item-transition graph: windowed accumulation, normalization,
sparse propagation, and batched per-sequence subgraph extraction.

The graph lives on an (num_items + 1)-node index space; row/column 0 is the
padding slot and never carries an edge.  Construction is two-phase: a
directed accumulator collects fractional co-occurrence weights, then
``normalize_finalize`` produces the immutable symmetric matrix with unit
self-loops that the rest of the package propagates over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .autodiff import ShapeMismatch, Tensor, _accumulate, _node
from .checkpoint import atomic_open
from .data import ItemSequence, SplitDataset


@dataclass
class DirectedAccumulator:
    """Intermediate directed graph built by windowed pair accumulation."""
    num_nodes: int
    weights: Dict[Tuple[int, int], float] = field(default_factory=dict)
    seen_items: set = field(default_factory=set)

    def add(self, i: int, j: int, w: float) -> None:
        key = (i, j)
        self.weights[key] = self.weights.get(key, 0.0) + w

    def degrees(self, mode: str = "weighted") -> np.ndarray:
        """Per-node degree in the directed graph, counting out plus in edges.

        ``weighted`` sums edge weights; ``count`` counts incident edges.
        """
        deg = np.zeros(self.num_nodes, dtype=np.float64)
        for (i, j), w in self.weights.items():
            inc = w if mode == "weighted" else 1.0
            deg[i] += inc
            deg[j] += inc
        return deg


def accumulate(sequences: Sequence[ItemSequence], window: int = 2,
               num_items: Optional[int] = None) -> DirectedAccumulator:
    """Windowed transition weights: each pair at offset k within the window
    contributes 1/k to the directed edge (earlier item, later item)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if num_items is None:
        num_items = max((max(s.items) for s in sequences if s.items), default=0)
    acc = DirectedAccumulator(num_items + 1)
    for seq in sequences:
        items = seq.items
        acc.seen_items.update(items)
        for i, src in enumerate(items):
            for k in range(1, window + 1):
                if i + k >= len(items):
                    break
                acc.add(src, items[i + k], 1.0 / k)
    acc.seen_items.discard(0)
    return acc


class TransitionGraph:
    """Finalized sparse item-item graph (symmetric, unit self-loops).

    ``keys`` holds ``row * num_nodes + col`` for every stored entry, strictly
    increasing and aligned with ``matrix.data``, so a batch of (row, col)
    weights is one ``searchsorted``.
    """

    def __init__(self, matrix: sp.csr_matrix, seen_items: Iterable[int]):
        matrix = matrix.tocsr()
        matrix.sum_duplicates()  # sorted and duplicate-free, so the keys are too
        self.matrix = matrix
        self.num_nodes = matrix.shape[0]
        self.seen_items = frozenset(int(i) for i in seen_items)
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(matrix.indptr))
        self.keys = rows * self.num_nodes + matrix.indices
        self._transposed: Optional[sp.csr_matrix] = None

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def _transpose(self) -> sp.csr_matrix:
        if self._transposed is None:
            self._transposed = self.matrix.T.tocsr()
        return self._transposed

    def spmv(self, x: Tensor) -> Tensor:
        """Sparse matrix times dense tensor; differentiable in x only
        (edge weights are fixed buffers, never parameters)."""
        if x.ndim != 2 or x.shape[0] != self.num_nodes:
            raise ShapeMismatch(
                f"spmv: graph is [{self.num_nodes}x{self.num_nodes}], operand is {list(x.shape)}")
        data = self.matrix @ x.data
        mat_t = self._transpose()

        def back(g, x=x, mat_t=mat_t):
            _accumulate(x, mat_t @ g, fresh=True)

        return _node(data, (x,), back, "spmv")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Plain (non-differentiable) product with a dense array."""
        return self.matrix @ np.asarray(x, dtype=np.float64)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def entries(self) -> List[Tuple[int, int, float]]:
        coo = self.matrix.tocoo()
        triples = sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
        return [(int(i), int(j), float(w)) for i, j, w in triples]

    def dump(self, path) -> None:
        """Text dump, one 'i<TAB>j<TAB>weight' line per entry in sorted order."""
        with atomic_open(path) as fh:
            for i, j, w in self.entries():
                fh.write(f"{i}\t{j}\t{w:.17g}\n")


def normalize_finalize(acc: DirectedAccumulator, degree_mode: str = "weighted",
                       self_loop: float = 1.0) -> TransitionGraph:
    """Scale each directed entry by (1/deg(i) + 1/deg(j)), symmetrize by
    adding the transpose, then add a self-loop to every interacted item."""
    if degree_mode not in ("weighted", "count"):
        raise ValueError(f"degree_mode must be 'weighted' or 'count', got {degree_mode!r}")
    deg = acc.degrees(degree_mode)
    n = acc.num_nodes
    rows, cols, vals = [], [], []
    for (i, j), w in acc.weights.items():
        if not (deg[i] > 0.0 and deg[j] > 0.0):
            raise ValueError(f"edge ({i}, {j}) has an endpoint with non-positive "
                             f"{degree_mode} degree")
        vals.append((1.0 / deg[i] + 1.0 / deg[j]) * w)
        rows.append(i)
        cols.append(j)
    directed = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    symmetric = directed + directed.T
    if acc.seen_items:
        loop_ids = np.fromiter(sorted(acc.seen_items), dtype=np.int64)
        loops = sp.csr_matrix(
            (np.full(loop_ids.size, self_loop), (loop_ids, loop_ids)), shape=(n, n))
        symmetric = symmetric + loops
    return TransitionGraph(symmetric, acc.seen_items)


def build_transition_graph(sequences: Sequence[ItemSequence], window: int = 2,
                           num_items: Optional[int] = None,
                           degree_mode: str = "weighted") -> TransitionGraph:
    return normalize_finalize(accumulate(sequences, window, num_items), degree_mode)


def train_graph(dataset: SplitDataset, window: int = 2,
                degree_mode: str = "weighted") -> TransitionGraph:
    """Graph over the training portions only, so held-out targets never leak in."""
    return build_transition_graph([ItemSequence(u.user_id, u.train) for u in dataset.users],
                                  window, dataset.num_items, degree_mode)


@dataclass(frozen=True)
class SubgraphPerturbation:
    """Detached low-rank refinement used when subgraphs read the refined graph.

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
    All B*N*N pairs are read with one search in the graph's sorted keys.
    """
    seqs = np.asarray(seqs, dtype=np.int64)
    if seqs.size and seqs.max() >= graph.num_nodes:
        # an id past the end would alias another row's key
        raise IndexError(f"item id {seqs.max()} is out of range for a graph "
                         f"with {graph.num_nodes} nodes")
    real = seqs > 0
    pairs = real[:, :, None] & real[:, None, :]
    out = np.zeros(pairs.shape, dtype=np.float64)
    if graph.nnz:
        query = seqs[:, :, None] * graph.num_nodes + seqs[:, None, :]
        pos = np.minimum(np.searchsorted(graph.keys, query), graph.nnz - 1)
        hit = pairs & (graph.keys[pos] == query)
        out[hit] = graph.matrix.data[pos[hit]]
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
