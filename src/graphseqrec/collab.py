"""Graph-side collaborative learning: layer-averaged propagation over the
fixed transition graph and its low-rank-refined counterpart, plus the
in-batch contrastive loss that couples the two representations.

The refinement never materializes the dense perturbation matrix.  With
factor matrices L and R (each num_nodes x rank) the refined layer update is

    E_next = A @ E + strength * (A @ L) ((A @ R)^T E)

evaluated right to left, so the extra cost stays linear in the node count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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
    is held at zero."""
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


def _propagate(graph: TransitionGraph, emb: Tensor, layers: int,
               factors: Optional[PerturbationFactors],
               literal_layer_avg: bool) -> Tensor:
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    use_refinement = factors is not None and factors.strength != 0.0
    if use_refinement:
        prop_left = graph.spmv(factors.left)
        prop_right_t = ad.transpose(graph.spmv(factors.right))
    current = emb
    acc = emb
    for _ in range(layers):
        nxt = graph.spmv(current)
        if use_refinement:
            mixed = ad.matmul(prop_right_t, current)
            nxt = ad.add(nxt, ad.mul(ad.matmul(prop_left, mixed), factors.strength))
        current = nxt
        acc = ad.add(acc, current)
    divisor = layers if literal_layer_avg else layers + 1
    return ad.mul(acc, 1.0 / divisor)


def propagate_original(graph: TransitionGraph, emb: Tensor, layers: int,
                       literal_layer_avg: bool = True) -> Tensor:
    """Layer-averaged propagation over the fixed graph: the sum of the input
    and all propagated layers, divided by the layer count."""
    return _propagate(graph, emb, layers, None, literal_layer_avg)


def propagate_refined(graph: TransitionGraph, emb: Tensor,
                      factors: PerturbationFactors, layers: int,
                      literal_layer_avg: bool = True) -> Tensor:
    """Same propagation over the refined graph via the factored fast path.

    Zero strength takes exactly the original code path, so the outputs are
    bitwise identical to propagate_original."""
    return _propagate(graph, emb, layers, factors, literal_layer_avg)


@dataclass
class GraphRepresentations:
    """Original and refined propagation outputs from one shared input."""
    original: Tensor
    refined: Tensor


def graph_representations(graph: TransitionGraph, emb: Tensor,
                          factors: PerturbationFactors, layers: int,
                          literal_layer_avg: bool = True) -> GraphRepresentations:
    original = propagate_original(graph, emb, layers, literal_layer_avg)
    refined = propagate_refined(graph, emb, factors, layers, literal_layer_avg)
    return GraphRepresentations(original, refined)


def batch_rows(reps: GraphRepresentations, item_ids) -> Tuple[Tensor, Tensor]:
    """Gather matching rows of both representations for a batch of real items."""
    ids = np.asarray(item_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ad.ShapeMismatch(f"batch_rows expects a 1D id list, got shape {list(ids.shape)}")
    if (ids <= 0).any():
        bad = int(np.flatnonzero(ids <= 0)[0])
        raise ValueError(f"batch_rows: padding/invalid id at batch position {bad}")
    return ad.gather(reps.original, ids), ad.gather(reps.refined, ids)


def gce_loss(original_batch: Tensor, refined_batch: Tensor, tau: float) -> Tensor:
    """In-batch contrastive alignment of the two graph representations.

    Each anchor's positive is its own refined row; every refined row in the
    batch is a candidate.  The critic is cosine similarity at temperature tau.
    """
    return ad.cosine_info_nce(original_batch, refined_batch, tau)


def detached_perturbation(graph: TransitionGraph,
                          factors: PerturbationFactors) -> SubgraphPerturbation:
    """Snapshot of the propagated factors for refined subgraph lookups.

    Values only; subgraph extraction is a stop-gradient read of the refined
    graph, so the factors learn through gce_loss alone.
    """
    return SubgraphPerturbation(graph.matrix @ factors.left.data,
                                graph.matrix @ factors.right.data,
                                factors.strength)
