"""Graph-side collaborative learning: layer-averaged propagation over the
fixed transition graph and its low-rank-refined counterpart, plus the
in-batch contrastive loss that couples the two representations.

The refinement never materializes the dense perturbation matrix.  With
factor matrices L and R (each num_nodes x rank) the refined layer update is

    E_next = A @ E + strength * (A @ L) ((A @ R)^T E)

evaluated right to left, so the extra cost stays linear in the node count.
Each representation is one tape node, :func:`propagate`, whose backward
repeats the products of the layer-by-layer chain in that chain's order;
``A @ E`` is computed once per train step, ``A @ L`` and ``A @ R`` once per
train step or evaluation pass (:func:`detached_perturbation`).
The graph side hands the contrastive loss rows, not tables:
:func:`graph_representations` returns the batch items' rows of both
representations, and the two (V+1) x d tables are freed when it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import iadd
from typing import Optional, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accumulate, _grad_in_place, _node, _target
from .graph import SubgraphPerturbation, TransitionGraph


@dataclass
class PerturbationFactors:
    """Learnable low-rank factors of the additive graph refinement."""
    left: Tensor
    right: Tensor
    strength: float


def init_factors(rng: np.random.Generator, num_nodes: int, rank: int,
                 strength: float) -> PerturbationFactors:
    """Factors start i.i.d. normal with std 1/sqrt(rank * num_items) so the
    initial perturbation is small next to the base graph; row 0 (padding)
    starts at zero and stays there, as the graph's empty row and column 0
    pass it no gradient."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    std = 1.0 / np.sqrt(rank * max(num_nodes - 1, 1))
    left = rng.normal(0.0, std, size=(num_nodes, rank))
    right = rng.normal(0.0, std, size=(num_nodes, rank))
    left[0] = 0.0
    right[0] = 0.0
    return PerturbationFactors(Tensor(left, requires_grad=True),
                               Tensor(right, requires_grad=True),
                               float(strength))


def propagate(graph: TransitionGraph, emb: Tensor, layers: int,
              factors: Optional[PerturbationFactors] = None,
              first: Optional[np.ndarray] = None,
              perturbation: Optional[SubgraphPerturbation] = None) -> Tensor:
    """Layer-averaged propagation as one tape node: the input plus every
    propagated layer, divided by the layer count L.  Only the scale-invariant
    cosine of :func:`gce_loss` reads it, so any constant divisor trains the same model.

    With ``factors`` of nonzero strength each layer runs over the refined
    graph; zero strength is the original graph, bit for bit.  ``first``
    (``A @ emb.data``) and ``perturbation`` (``A @ L`` and ``A @ R``) spare
    the products a caller has already.  Forward and backward run the float
    operations of the layer-by-layer chain of products and sums in that
    chain's order, so values and gradients keep their bits.  The node keeps
    the layer inputs, ``A @ L``, ``A @ R`` and the (rank x d) ``(A @ R)^T E``,
    not its output.  Its backward adds into ``emb``'s gradient in place, so
    it raises ``autodiff.DeferredRead`` where ``emb``'s additions are deferred.
    """
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    refine = factors is not None and factors.strength != 0.0
    if refine:
        alpha = float(factors.strength)
        if perturbation is None:
            perturbation = detached_perturbation(graph, factors)
        left, right = perturbation.left, perturbation.right
    inputs, mixed = [], []
    current, acc = emb.data, emb.data.copy()
    for k in range(layers):
        nxt = first if k == 0 and first is not None else graph.spmv(current)
        if refine:
            inputs.append(current)
            mixed.append(right.T @ current)
            low_rank = left @ mixed[-1]
            low_rank *= alpha
            low_rank += nxt
            nxt = low_rank
        acc += nxt
        current = nxt
    acc *= 1.0 / layers
    parents = (emb, factors.left, factors.right) if refine else (emb,)

    def back(g, emb=_target(emb), factor_nodes=tuple(map(_target, parents[1:])),
             matrix=graph.matrix):
        scaled = g * (1.0 / layers)
        _accumulate(emb, scaled)  # the layer sum reaches emb first
        grad, left_terms, right_terms = scaled, [], []
        for k in range(layers - 1, -1, -1):
            # the gradient of layer k's input, emb's own at k = 0: the layer
            # sum's share, then the graph product's, then the low-rank product's
            below = scaled.copy() if k else _grad_in_place(emb, "propagate")
            if below is not None:
                below += matrix.T @ grad
            if refine:
                p = grad * alpha
                left_terms.append(p @ mixed[k].T)
                g_mixed = left.T @ p
                right_terms.append(g_mixed @ inputs[k].T)
                if below is not None:
                    below += right @ g_mixed
            grad = below
        if refine:
            _accumulate(factor_nodes[0], matrix.T @ reduce(iadd, left_terms), fresh=True)
            grad_right = np.ascontiguousarray(reduce(iadd, right_terms).T)
            _accumulate(factor_nodes[1], matrix.T @ grad_right, fresh=True)

    return _node(acc, parents, back, "propagate")


def graph_representations(graph: TransitionGraph, emb: Tensor,
                          factors: PerturbationFactors, layers: int, item_ids,
                          perturbation: Optional[SubgraphPerturbation] = None
                          ) -> Tuple[Tensor, Tensor]:
    """The rows of real items ``item_ids`` in the original and in the refined
    representation, two (B, d) gathers.  The representations are one node
    each, from one ``A @ emb``; ``perturbation`` holds ``A @ L`` and
    ``A @ R`` when the caller has them.  The gathers keep only ids, so the
    two propagated tables are freed on return."""
    ids = np.asarray(item_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ad.ShapeMismatch("graph_representations expects a 1D id list, got shape "
                               f"{list(ids.shape)}")
    if (ids <= 0).any():
        bad = int(np.flatnonzero(ids <= 0)[0])
        raise ValueError(f"graph_representations: padding/invalid id at batch position {bad}")
    if (ids >= graph.num_nodes).any():
        bad = int(np.flatnonzero(ids >= graph.num_nodes)[0])
        raise ValueError(f"graph_representations: id {ids[bad]} at batch position {bad} is "
                         f"outside a graph of {graph.num_nodes} nodes")
    first = graph.spmv(emb.data)
    original = propagate(graph, emb, layers, None, first)
    refined = propagate(graph, emb, layers, factors, first, perturbation)
    return ad.gather(original, ids), ad.gather(refined, ids)


def gce_loss(original_batch: Tensor, refined_batch: Tensor, tau: float) -> Tensor:
    """In-batch contrastive alignment of the two graph representations.

    Each anchor's positive is its own refined row; every refined row in the
    batch is a candidate.  The critic is cosine similarity at temperature tau.
    """
    return ad.cosine_info_nce(original_batch, refined_batch, tau)


def detached_perturbation(graph: TransitionGraph,
                          factors: PerturbationFactors) -> SubgraphPerturbation:
    """Snapshot of the propagated factors, taken once per train step or
    evaluation pass.

    Values only; subgraph extraction is a stop-gradient read of the refined
    graph, so the factors learn through gce_loss alone.
    """
    return SubgraphPerturbation(graph.spmv(factors.left.data),
                                graph.spmv(factors.right.data), factors.strength)
