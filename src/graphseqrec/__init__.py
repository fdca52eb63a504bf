"""Graph-enhanced sequential recommendation at desk scale.

A numpy/scipy library that learns a refined global item-transition graph
jointly with a causal Transformer recommender: low-rank graph refinement
with a linear-cost propagation path, an in-batch contrastive loss coupling
the original and refined graph representations, and a per-user gate that
injects the sequence's subgraph into attention as relative positional
encoding.  Training optimizes the sum of the next-item loss and the two
self-supervised terms, with leave-one-out full-ranking evaluation.
"""

from .autodiff import DegenerateRow, ShapeMismatch, Tensor, backward
from .collab import (PerturbationFactors, gce_loss, graph_representations,
                     init_factors, propagate)
from .data import (ItemSequence, SplitDataset, augment, augment_pair,
                   build_sequences, ingest, leave_one_out, pad_sequence,
                   synth_generate)
from .evaluation import (MetricsReport, SpectrumReport, hr_ndcg,
                         popularity_ranks, spectrum)
from .graph import SubgraphPerturbation, TransitionGraph, build_transition_graph
from .config import ModelConfig, TrainConfig
from .model import Model
from .optim import Adam, GradientNaN
from .training import (TrainResult, evaluate_model, next_item_loss, seq_cl_loss,
                       total_loss, train, variant_config)

__version__ = "0.1.0"
