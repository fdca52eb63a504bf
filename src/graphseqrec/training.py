"""Multi-task training: next-item prediction plus the two self-supervised
terms (graph-level contrastive alignment and sequence-level contrastive
learning over augmented views), with early stopping on validation quality.

Every random draw comes from a generator keyed on (seed, purpose, epoch,
batch), so toggling one loss term never shifts the randomness feeding the
others, and a fixed seed reproduces a run bit for bit.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .collab import gce_loss
from .config import ModelConfig, TrainConfig
from .data import SplitDataset, augment_pair, pad_sequence
from .evaluation import MetricsReport, eval_input_sequences, rank_from_scores
from .graph import TransitionGraph, train_graph
from .model import Model
from .optim import Adam

LAMBDA1_GRID = (0.05, 0.1, 0.2, 0.4)
ENCODER_LAYER_GRID = (1, 2, 3)
# Evaluation scores a catalog in blocks of at most this many bytes.  One
# 256-user chunk over 17k items would be a 35 MB block, which glibc maps fresh
# on top of the heap unless the train steps happened to leave 35 MB free
# there, so a run's peak memory would depend on where the block lands.  A
# chunk that needs more than one block is scored on a worker thread beside
# the next chunk's encode (``evaluate_model``); one that fits in one block is
# scored inline, as its job is too short to pay for the hand-off.
SCORE_BLOCK_BYTES = 4 << 20


def variant_config(cfg: TrainConfig, variant: str) -> TrainConfig:
    """Ablation variants: 'full', 'no_agcl' (drop the collaborative learner),
    'no_pge' (drop the personalized encoding)."""
    if variant == "full":
        return cfg
    if variant == "no_agcl":
        return replace(cfg, lambda1=0.0)
    if variant == "no_pge":
        return replace(cfg, enable_pge=False)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

def next_item_loss(hidden: Tensor, item_emb: Tensor, targets: np.ndarray,
                   negatives: np.ndarray, step_mask: np.ndarray) -> Tensor:
    """Binary cross-entropy over (positive, sampled negative) logits at every
    real prediction step, summed over the batch.

    ``targets[b, p]`` is the item that follows position p; ``step_mask`` is 1
    where both the position and its successor are real items.
    """
    return ad.sampled_bce(hidden, ad.gather(item_emb, targets), ad.gather(item_emb, negatives),
                          step_mask)


def seq_cl_loss(view1: Tensor, view2: Tensor, tau: float) -> Tensor:
    """Symmetric in-batch contrastive loss between two view representations.

    Anchors in one view score against all candidates in the other view with
    a cosine critic; the two directions are averaged.
    """
    return ad.cosine_info_nce(view1, view2, tau, symmetric=True)


def total_loss(rec: Tensor, gce: Optional[Tensor] = None, seq: Optional[Tensor] = None,
               lambda1: float = 0.0, lambda2: float = 0.0) -> Tensor:
    """Weighted multi-task objective; disabled terms contribute no graph nodes."""
    out = rec
    if gce is not None and lambda1 != 0.0:
        out = ad.add(out, ad.mul(gce, lambda1))
    if seq is not None and lambda2 != 0.0:
        out = ad.add(out, ad.mul(seq, lambda2))
    return out


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    user_ids: np.ndarray        # (B,)
    seqs: np.ndarray            # (B, N) padded training sequences
    targets: np.ndarray         # (B, N) next item per position (0 where none)
    negatives: np.ndarray       # (B, N) sampled negatives (0 where no step)
    step_mask: np.ndarray       # (B, N) float 1.0 on real prediction steps
    view1: Optional[np.ndarray] = None
    view2: Optional[np.ndarray] = None


def assemble_batch(users: Sequence, cfg: ModelConfig,
                   rng_negatives: np.random.Generator,
                   rng_augment: Optional[np.random.Generator]) -> Batch:
    """One training batch from each user's window, ``user.train[-cfg.max_len:]``.

    Every real prediction step gets a negative drawn uniformly from the
    items its window lacks, all in one ``rng_negatives`` call in row-major
    step order.  With ``rng_augment``, each window also gets two views
    (``augment_pair``), drawn row by row.
    """
    num_items, max_len = cfg.num_items, cfg.max_len
    windows = [user.train[-max_len:] for user in users]
    seqs = np.stack([pad_sequence(w, max_len) for w in windows])
    targets = np.zeros_like(seqs)
    targets[:, :-1] = seqs[:, 1:]
    step_mask = ((seqs > 0) & (targets > 0)).astype(np.float64)
    # draw i of a row is the i-th item (from 0) its window lacks, which is
    # i + 1 + #{j : s_j - j <= i} over the window's distinct items s_1 < ... < s_m:
    # s_j - j items below s_j are missing.  Padding and repeats get the gap
    # num_items, above every draw, so they never count.
    ordered = np.sort(seqs, axis=1)
    distinct = np.diff(ordered, axis=1, prepend=0) > 0
    unseen = num_items - distinct.sum(axis=1)
    empty = np.flatnonzero(unseen < 1)
    if empty.size:
        raise ValueError(f"user {users[empty[0]].user_id}: no eligible negative item")
    gaps = np.where(distinct, ordered - np.cumsum(distinct, axis=1), num_items)
    rows, cols = np.nonzero(step_mask)
    draws = rng_negatives.integers(0, unseen[rows])
    negatives = np.zeros_like(seqs)
    negatives[rows, cols] = draws + 1 + (gaps[rows] <= draws[:, None]).sum(axis=1)
    view1 = view2 = None
    if rng_augment is not None:
        views = [augment_pair(w, cfg, rng_augment) for w in windows]
        view1 = np.stack([pad_sequence(v, max_len) for v, _ in views])
        view2 = np.stack([pad_sequence(v, max_len) for _, v in views])
    user_ids = np.array([user.user_id for user in users], dtype=np.int64)
    return Batch(user_ids, seqs, targets, negatives, step_mask, view1, view2)


# ---------------------------------------------------------------------------
# evaluation with the model
# ---------------------------------------------------------------------------

def evaluate_model(model: Model, dataset: SplitDataset, split: str,
                   batch_size: int = 256, exclude_history: bool = True,
                   keep_ranks: bool = False) -> MetricsReport:
    """Full-ranking metrics for one split; deterministic (no dropout) and
    tape-free: the forward reads ``model.detached()``, whose parameters
    require no gradient, so training may run beside it in another thread.

    A chunk whose scores need more than one block (more than ~2048 items at
    256 rows) is scored and ranked by one worker thread, opened and joined
    within the call, while this thread encodes the next chunk: the products
    and compares release the GIL, so the pass uses a second core.  A smaller
    chunk is scored here, as handing a ~1 ms job to a thread costs more than
    it saves.  Ranks come out in chunk order either way, bit for bit, and an
    error raised on the worker reaches the caller as it was raised.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rows = eval_input_sequences(dataset, split)
    model = model.detached()
    item_emb = model.params["item_emb"].data
    num_items = item_emb.shape[0] - 1
    perturbation = model.subgraph_perturbation()
    n = model.cfg.max_len
    # every chunk is scored into this one block, as many rows at a time as
    # SCORE_BLOCK_BYTES holds; one block serves the worker too, as at most
    # one chunk is scored at a time
    block_rows = max(1, min(batch_size, SCORE_BLOCK_BYTES // (8 * num_items)))
    block = np.empty((min(block_rows, len(rows)), num_items))

    def score(chunk, reprs) -> np.ndarray:
        ranks = []
        for lo in range(0, len(chunk), block_rows):
            part = chunk[lo:lo + block_rows]
            scores = np.matmul(reprs[lo:lo + block_rows], item_emb[1:].T,
                               out=block[:len(part)])
            ranks.append(rank_from_scores(scores, [history for _, _, history in part],
                                          [target for _, target, _ in part], exclude_history))
        return np.concatenate(ranks)

    ranks: List[np.ndarray] = []
    with ThreadPoolExecutor(1) as worker:
        scoring: Optional[Future] = None
        for start in range(0, len(rows), batch_size):
            chunk = rows[start:start + batch_size]
            seqs = np.stack([pad_sequence(inp, n) for inp, _, _ in chunk])
            user_ids = np.asarray(
                [u.user_id for u in dataset.users[start:start + batch_size]], dtype=np.int64)
            reprs = model.user_reprs(seqs, user_ids, perturbation).data
            if scoring is not None:  # the block is free again
                ranks.append(scoring.result())
                scoring = None
            if len(chunk) > block_rows:
                scoring = worker.submit(score, chunk, reprs)
            else:
                ranks.append(score(chunk, reprs))
        if scoring is not None:
            ranks.append(scoring.result())
    return MetricsReport.from_ranks(np.concatenate(ranks), keep_ranks)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    epoch: int = 0
    best_val_ndcg20: float = -1.0
    best_epoch: int = -1
    epochs_since_best: int = 0


@dataclass
class TrainResult:
    state: TrainState
    history: List[str] = field(default_factory=list)
    timing: List[str] = field(default_factory=list)
    model: Optional[Model] = None
    test_report: Optional[MetricsReport] = None


def _epoch_rng(seed: int, purpose: int, epoch: int, batch: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, purpose, epoch, batch])


def train_step(model: Model, batch: Batch,
               rng_dropout: Optional[np.random.Generator],
               rng_dropout_views: Optional[np.random.Generator]) -> Dict[str, float]:
    """Forward the loss terms ``model.cfg`` enables, backprop, report their values."""
    cfg = model.cfg
    perturbation = model.subgraph_perturbation()
    hidden = model.hidden_states(batch.seqs, batch.user_ids, perturbation, rng_dropout)
    rec = next_item_loss(hidden, model.params["item_emb"], batch.targets,
                         batch.negatives, batch.step_mask)
    gce = None
    if cfg.lambda1 != 0.0:
        orig_rows, ref_rows = model.graph_representations(batch.seqs[:, -1], perturbation)
        gce = gce_loss(orig_rows, ref_rows, cfg.tau)
    seq = None
    if cfg.lambda2 != 0.0:
        if batch.view1 is None:
            raise ValueError(f"lambda2 = {cfg.lambda2} needs views: assemble with rng_augment")
        z1 = model.user_reprs(batch.view1, batch.user_ids, perturbation, rng_dropout_views)
        z2 = model.user_reprs(batch.view2, batch.user_ids, perturbation, rng_dropout_views)
        seq = seq_cl_loss(z1, z2, cfg.tau)
    loss = total_loss(rec, gce, seq, cfg.lambda1, cfg.lambda2)
    ad.backward(loss)
    return {
        "total": float(loss.data),
        "rec": float(rec.data),
        "gce": float(gce.data) if gce is not None else 0.0,
        "seq": float(seq.data) if seq is not None else 0.0,
    }


def train(cfg: TrainConfig, dataset: SplitDataset,
          graph: Optional[TransitionGraph] = None) -> TrainResult:
    """Run the full optimization with early stopping on validation NDCG@20.

    The transition graph is built from the training portions only (no
    leakage from held-out targets).  The best-validation parameters are
    restored before the final test evaluation.
    """
    if graph is None:
        graph = train_graph(dataset, cfg.window, cfg.degree_mode)
    rng_init = np.random.default_rng([cfg.seed, 0])
    model = Model(cfg.model_config(dataset.num_items, dataset.num_users), graph, rng_init)
    optimizer = Adam(model.params, cfg.lr, (cfg.beta1, cfg.beta2), cfg.eps)
    state = TrainState()
    result = TrainResult(state, model=model)
    best_snapshot = None  # epoch 1 always sets it: best_val_ndcg20 starts below 0
    num_users = len(dataset.users)
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        state.epoch = epoch
        order = _epoch_rng(cfg.seed, 1, epoch).permutation(num_users)
        sums = {"total": 0.0, "rec": 0.0, "gce": 0.0, "seq": 0.0}
        for b, start in enumerate(range(0, num_users, cfg.batch_size)):
            users = [dataset.users[i] for i in order[start:start + cfg.batch_size]]
            batch = assemble_batch(
                users, model.cfg, _epoch_rng(cfg.seed, 2, epoch, b),
                _epoch_rng(cfg.seed, 3, epoch, b) if cfg.lambda2 != 0.0 else None)
            values = train_step(model, batch, _epoch_rng(cfg.seed, 4, epoch, b),
                                _epoch_rng(cfg.seed, 5, epoch, b))
            if not np.isfinite(values["total"]):
                raise RuntimeError(f"non-finite loss {values['total']} at epoch {epoch}, batch {b}")
            optimizer.step()
            # the gradients die with their step: kept into the next step or
            # the validation pass, they would pin blocks in the middle of the
            # heap those reuse, and the peak footprint would drift by run
            model.zero_grads()
            for key in sums:
                sums[key] += values[key]
        val = evaluate_model(model, dataset, "valid", cfg.batch_size, cfg.exclude_history)
        line = (f"epoch={epoch} loss_total={sums['total']:.10f} loss_rec={sums['rec']:.10f} "
                f"loss_gce={sums['gce']:.10f} loss_seq={sums['seq']:.10f} "
                + " ".join("val_" + piece for piece in val.lines()))
        result.history.append(line)
        result.timing.append(f"epoch={epoch} seconds={time.perf_counter() - t0:.3f}")
        if val.ndcg[20] > state.best_val_ndcg20:
            state.best_val_ndcg20 = val.ndcg[20]
            state.best_epoch = epoch
            state.epochs_since_best = 0
            best_snapshot = model.snapshot()
        else:
            state.epochs_since_best += 1
            if state.epochs_since_best >= cfg.patience:
                break
    model.restore(best_snapshot)
    result.test_report = evaluate_model(model, dataset, "test",
                                        cfg.batch_size, cfg.exclude_history)
    result.history.append(
        f"best_epoch={state.best_epoch} best_val_ndcg@20={state.best_val_ndcg20:.6f}")
    result.history.append(
        "test " + " ".join(result.test_report.lines()))
    return result
