"""Full model state: encoder, per-user gate, and graph-refinement factors
bundled behind one named parameter map, plus the forward paths that the
training loop and the evaluator share.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

import numpy as np

from . import autodiff as ad
from . import collab, encoder
from .autodiff import Tensor
from .checkpoint import CheckpointError, load_archive, save_archive
from .config import ModelConfig
from .graph import SubgraphPerturbation, TransitionGraph, extract_subgraph_batch


class Model:
    def __init__(self, cfg: ModelConfig, graph: TransitionGraph,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.graph = graph
        self.params: Dict[str, Tensor] = {}
        self.params.update(encoder.init_encoder_params(rng, cfg))
        self.params.update(encoder.init_pge_params(rng, cfg))
        factors = collab.init_factors(rng, cfg.num_items + 1, cfg.rank, cfg.alpha)
        self.params["pert_left"] = factors.left
        self.params["pert_right"] = factors.right

    @property
    def factors(self) -> collab.PerturbationFactors:
        return collab.PerturbationFactors(self.params["pert_left"],
                                          self.params["pert_right"], self.cfg.alpha)

    def detached(self) -> "Model":
        """This model over gradient-free views of its parameters: config and
        graph shared, no array copied.  A forward through it computes the
        same values and records no tape.  It shares the arrays held when it
        is made: an in-place optimizer step shows through it, a later
        ``load`` or ``restore`` does not, so take one per evaluation pass."""
        view = copy.copy(self)
        view.params = {name: Tensor(t.data) for name, t in self.params.items()}
        return view

    def deferred(self, log: list) -> "Model":
        """This model over ``autodiff.Deferred`` stand-ins of its parameters,
        no array copied: a backward through it records its gradient additions
        in ``log`` for ``autodiff.replay``."""
        view = copy.copy(self)
        view.params = {name: ad.Deferred(t, log) for name, t in self.params.items()}
        return view

    # ----------------------------------------------------------------- graph
    def graph_representations(self, item_ids,
                              perturbation: Optional[SubgraphPerturbation] = None
                              ) -> Tuple[Tensor, Tensor]:
        """Both representations' rows of ``item_ids``; pass this step's
        ``subgraph_perturbation()`` so its propagated factors are reused."""
        return collab.graph_representations(self.graph, self.params["item_emb"],
                                            self.factors, self.cfg.gcn_layers, item_ids,
                                            perturbation)

    def subgraph_perturbation(self) -> SubgraphPerturbation:
        """Detached snapshot of the propagated refinement factors, read by
        a refined PGE and by the AGCL.  Take one per train step or evaluation
        pass: it is stale once the optimizer moves the factors."""
        return collab.detached_perturbation(self.graph, self.factors)

    # --------------------------------------------------------------- encoder
    def hidden_states(self, seqs: np.ndarray, user_ids: np.ndarray,
                      perturbation: Optional[SubgraphPerturbation],
                      rng: Optional[np.random.Generator] = None,
                      readout: bool = False) -> Tensor:
        """Per-position states used for scoring, or with ``readout`` only
        each sequence's state at its last real item (see
        ``encoder.encode``); the per-user graph encoding
        enters the attention logits when it is enabled.  With ``pge_graph =
        refined`` its subgraphs read ``perturbation``, this pass's detached
        snapshot, so the factors learn through the collaborative loss alone."""
        rel_pe = None
        if self.cfg.enable_pge:
            refined = self.cfg.pge_graph == "refined"
            if refined and perturbation is None:
                raise ValueError("hidden_states: a PGE that reads the refined graph "
                                 "needs this pass's subgraph_perturbation()")
            blocks = extract_subgraph_batch(self.graph, seqs, perturbation if refined else None)
            rel_pe = encoder.pge_encoding(self.params, user_ids, blocks)
        return encoder.encode(self.params, self.cfg, seqs, rel_pe, rng, readout)

    def user_reprs(self, seqs: np.ndarray, user_ids: np.ndarray,
                   perturbation: Optional[SubgraphPerturbation],
                   rng: Optional[np.random.Generator] = None) -> Tensor:
        """Preference representations (B, d): the hidden state at each
        sequence's last real item, with the last layer run at that row only."""
        return self.hidden_states(seqs, user_ids, perturbation, rng, readout=True)

    # ------------------------------------------------------------- training
    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        save_archive(path, {name: t.data for name, t in self.params.items()})

    def load(self, path) -> None:
        """Load parameters in place.  The archive must hold exactly this
        model's parameters, each with its shape and finite values; any
        mismatch raises before a parameter is assigned."""
        arrays = load_archive(path)
        for name in arrays:
            if name not in self.params:
                raise CheckpointError(f"{path}: record '{name}' is not a parameter of this model")
        for name, t in self.params.items():
            if name not in arrays:
                raise CheckpointError(f"{path}: parameter '{name}' of this model has no record")
            if arrays[name].shape != t.data.shape:
                raise ad.ShapeMismatch(
                    f"checkpoint parameter '{name}' has shape {list(arrays[name].shape)}, "
                    f"model expects {list(t.data.shape)}")
            if not np.isfinite(arrays[name]).all():
                raise CheckpointError(f"{path}: parameter '{name}' holds a non-finite value")
        for name, t in self.params.items():
            t.data = arrays[name]

    def snapshot(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def restore(self, snapshot: Dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            t.data = snapshot[name].copy()
