"""Causal Transformer encoder over padded item sequences, with an optional
per-user relative positional encoding added to the attention logits.

Sequences are left-padded with item id 0, so the most recent item always
sits at the last position.  The per-user encoding is a single learned
scalar gate (an MLP projection of the user embedding) times the sequence's
item-item subgraph; the same matrix is added at every layer and head.

Each layer is layer norm, the query/key/value projections (one
``autodiff.linear`` node each), all heads' attention as one
``autodiff.attention`` node, the output projection, and a ReLU feed-forward
block, with dropout and a residual add around both halves.

A user representation is the final hidden state at the last real item, so
the encodes that produce one (evaluation and the two contrastive views) ask
for a readout: ``encode`` finds each row's last real position itself, and
its last layer computes keys and values at every position but everything
else at those rows only.  Training's next-item loss reads every position
and runs the full last layer.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    return np.clip(rng.normal(0.0, std, size=shape), -2.0 * std, 2.0 * std)


def init_encoder_params(rng: np.random.Generator, cfg: ModelConfig) -> Dict[str, Tensor]:
    """Embeddings plus per-layer attention/FFN/layer-norm weights.

    The padding row of the item table starts at zero and stays there: the
    key mask, the step mask and the graph's empty row and column 0 keep
    every gradient into it at exactly zero.
    """
    d = cfg.dim
    params: Dict[str, Tensor] = {}
    item = trunc_normal(rng, (cfg.num_items + 1, d))
    item[0] = 0.0
    params["item_emb"] = Tensor(item, requires_grad=True)
    params["pos_emb"] = Tensor(trunc_normal(rng, (cfg.max_len, d)), requires_grad=True)
    for layer in range(cfg.encoder_layers):
        p = f"layer{layer}."
        for name in ("query", "key", "value", "out"):
            params[p + f"attn_{name}_w"] = Tensor(trunc_normal(rng, (d, d)), requires_grad=True)
            params[p + f"attn_{name}_b"] = Tensor(np.zeros(d), requires_grad=True)
        params[p + "ffn_w1"] = Tensor(trunc_normal(rng, (d, d)), requires_grad=True)
        params[p + "ffn_b1"] = Tensor(np.zeros(d), requires_grad=True)
        params[p + "ffn_w2"] = Tensor(trunc_normal(rng, (d, d)), requires_grad=True)
        params[p + "ffn_b2"] = Tensor(np.zeros(d), requires_grad=True)
        for sub in ("ln1", "ln2"):
            params[p + sub + "_g"] = Tensor(np.ones(d), requires_grad=True)
            params[p + sub + "_b"] = Tensor(np.zeros(d), requires_grad=True)
    params["ln_final_g"] = Tensor(np.ones(d), requires_grad=True)
    params["ln_final_b"] = Tensor(np.zeros(d), requires_grad=True)
    return params


def init_pge_params(rng: np.random.Generator, cfg: ModelConfig) -> Dict[str, Tensor]:
    """User embeddings and the two-layer scalar projection."""
    d = cfg.dim
    return {
        "user_emb": Tensor(trunc_normal(rng, (cfg.num_users, d)), requires_grad=True),
        "pge_w1": Tensor(trunc_normal(rng, (d, d)), requires_grad=True),
        "pge_b1": Tensor(np.zeros(d), requires_grad=True),
        "pge_w2": Tensor(trunc_normal(rng, (d, 1)), requires_grad=True),
        "pge_b2": Tensor(np.zeros(1), requires_grad=True),
    }


def pge_gate(params: Dict[str, Tensor], user_ids) -> Tensor:
    """Per-user scalar weight on global information: MLP(user embedding)."""
    s = ad.gather(params["user_emb"], np.asarray(user_ids, dtype=np.int64))
    hidden = ad.tanh(ad.linear(s, params["pge_w1"], params["pge_b1"]))
    return ad.linear(hidden, params["pge_w2"], params["pge_b2"])


def pge_encoding(params: Dict[str, Tensor], user_ids, subgraphs: np.ndarray) -> Tensor:
    """Relative positional encoding stack: gate(user) times the subgraph."""
    return ad.per_sample_scale(pge_gate(params, user_ids), subgraphs)


def attention_mask(seqs: np.ndarray) -> np.ndarray:
    """Boolean (B, N, N) visibility: causal, keys must be real items, and the
    diagonal stays visible so padding rows never hit a fully masked softmax."""
    seqs = np.asarray(seqs)
    b, n = seqs.shape
    causal = np.tril(np.ones((n, n), dtype=bool))
    key_real = (seqs > 0)[:, None, :]
    mask = causal[None, :, :] & key_real
    eye = np.eye(n, dtype=bool)
    return mask | eye[None, :, :]


def encode(params: Dict[str, Tensor], cfg: ModelConfig, seqs: np.ndarray,
           rel_pe: Optional[Tensor] = None,
           rng: Optional[np.random.Generator] = None,
           readout: bool = False) -> Tensor:
    """Hidden states (B, N, d) for a batch of padded id sequences.

    ``rel_pe`` is an optional (B, N, N) tensor added to every layer's and
    head's attention logits before masking.  Passing an rng enables
    dropout; evaluation omits it.

    With ``readout`` the call returns one row per sequence, (B, d): the
    state at its last real (non-padding) position.  The last layer still
    takes keys and values at every position, but runs its queries,
    attention, output projection and feed-forward block on the readout rows
    alone: the (B, d) queries go into ``autodiff.attention`` as they are,
    with the readout rows of the mask and of ``rel_pe``.  Its dropout draws
    at the full shape, so the rng stream is the same as without a readout.
    """
    seqs = np.asarray(seqs, dtype=np.int64)
    if seqs.ndim != 2 or seqs.shape[1] != cfg.max_len:
        raise ad.ShapeMismatch(f"encode: sequences must be [B, {cfg.max_len}], got {list(seqs.shape)}")
    real = seqs > 0
    if not real.any(axis=1).all():
        bad = int(np.flatnonzero(~real.any(axis=1))[0])
        raise ValueError(f"encode: all-padding sequence at batch position {bad}")
    b, n = seqs.shape
    scale = 1.0 / np.sqrt(cfg.dim // cfg.heads)
    mask = attention_mask(seqs)
    rows = None

    h = ad.add(ad.gather(params["item_emb"], seqs), params["pos_emb"])
    h = ad.dropout(h, cfg.dropout, rng)
    for layer in range(cfg.encoder_layers):
        p = f"layer{layer}."
        a = ad.layer_norm(h, params[p + "ln1_g"], params[p + "ln1_b"])
        k = ad.linear(a, params[p + "attn_key_w"], params[p + "attn_key_b"])
        v = ad.linear(a, params[p + "attn_value_w"], params[p + "attn_value_b"])
        if readout and layer == cfg.encoder_layers - 1:
            # one query row per sequence from here on, its last real
            # position, kept (B, d) so every projection stays one flat
            # matrix product
            last = n - 1 - np.argmax(real[:, ::-1], axis=1)
            h, a = ad.select_positions(h, last), ad.select_positions(a, last)
            mask = mask[np.arange(b), last]
            if rel_pe is not None:
                rel_pe = ad.select_positions(rel_pe, last)
            rows = (n, last)
        q = ad.linear(a, params[p + "attn_query_w"], params[p + "attn_query_b"])
        # each activation is dropped once consumed: the tape keeps what
        # backward reads, so the forward holds about one layer's arrays
        del a
        merged = ad.attention(q, k, v, mask, cfg.heads, scale, rel_pe)
        del q, k, v
        attended = ad.linear(merged, params[p + "attn_out_w"], params[p + "attn_out_b"])
        del merged
        h = ad.add(h, ad.dropout(attended, cfg.dropout, rng, rows))
        del attended
        f = ad.layer_norm(h, params[p + "ln2_g"], params[p + "ln2_b"])
        f = ad.relu(ad.linear(f, params[p + "ffn_w1"], params[p + "ffn_b1"]))
        f = ad.linear(f, params[p + "ffn_w2"], params[p + "ffn_b2"])
        h = ad.add(h, ad.dropout(f, cfg.dropout, rng, rows))
        del f
    return ad.layer_norm(h, params["ln_final_g"], params["ln_final_b"])
