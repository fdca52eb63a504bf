from dataclasses import replace

import numpy as np
import pytest

from graphseqrec import autodiff as ad
from graphseqrec import encoder as enc
from graphseqrec.autodiff import Tensor
from graphseqrec.config import ModelConfig

from conftest import check_grads, weighted_sum


def make_params(rng, num_items=9, num_users=4, dim=4, max_len=5, heads=2, layers=2):
    cfg = ModelConfig(num_items=num_items, num_users=num_users, dim=dim,
                      max_len=max_len, heads=heads, encoder_layers=layers, dropout=0.0)
    params = enc.init_encoder_params(rng, cfg)
    params.update(enc.init_pge_params(rng, cfg))
    return cfg, params


class TestAttentionMask:
    def test_causal_and_padding(self):
        seqs = np.array([[0, 0, 3, 4]])
        mask = enc.attention_mask(seqs)[0]
        # last row sees only the real prefix up to itself
        np.testing.assert_array_equal(mask[3], [False, False, True, True])
        # real rows never attend to padding keys
        np.testing.assert_array_equal(mask[2], [False, False, True, False])
        # padding rows keep the diagonal so softmax stays defined
        np.testing.assert_array_equal(mask[0], [True, False, False, False])

    def test_single_real_item_attends_only_to_itself(self, rng):
        seqs = np.array([[0, 0, 0, 7]])
        mask = enc.attention_mask(seqs)[0]
        np.testing.assert_array_equal(mask[3], [False, False, False, True])
        # with identity values the attention output is its weights
        q, k = (Tensor(rng.standard_normal((1, 4, 4))) for _ in range(2))
        weights = ad.attention(q, k, Tensor(np.eye(4)[None]), mask[None], 1, 1.0).data
        assert weights[0, 3].tolist() == [0.0, 0.0, 0.0, 1.0]


class TestEncode:
    def test_hand_evaluated_single_layer_single_head(self, rng):
        cfg, params = make_params(rng, dim=2, max_len=3, heads=1, layers=1)
        seq = np.array([[0, 2, 5]])
        out = enc.encode(params, cfg, seq).data[0]

        # independent straight-line evaluation of the same forward pass
        def ln(x, g, b, eps=1e-8):
            mu = x.mean(axis=-1, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
            return (x - mu) / np.sqrt(var + eps) * g + b

        p = {k: t.data for k, t in params.items()}
        h0 = p["item_emb"][seq[0]] + p["pos_emb"]
        a = ln(h0, p["layer0.ln1_g"], p["layer0.ln1_b"])
        q = a @ p["layer0.attn_query_w"] + p["layer0.attn_query_b"]
        k = a @ p["layer0.attn_key_w"] + p["layer0.attn_key_b"]
        v = a @ p["layer0.attn_value_w"] + p["layer0.attn_value_b"]
        logits = q @ k.T / np.sqrt(2.0)
        mask = enc.attention_mask(seq)[0]
        logits = np.where(mask, logits, -np.inf)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        e[~mask] = 0.0
        att = e / e.sum(axis=-1, keepdims=True)
        h = h0 + (att @ v) @ p["layer0.attn_out_w"] + p["layer0.attn_out_b"]
        f = ln(h, p["layer0.ln2_g"], p["layer0.ln2_b"])
        f = np.maximum(f @ p["layer0.ffn_w1"] + p["layer0.ffn_b1"], 0.0)
        h = h + f @ p["layer0.ffn_w2"] + p["layer0.ffn_b2"]
        expected = ln(h, p["ln_final_g"], p["ln_final_b"])

        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zeroed_projection_equals_disabled_pge(self, rng):
        cfg, params = make_params(rng)
        params.update(enc.init_pge_params(rng, cfg))
        params["pge_w2"].data[:] = 0.0
        seqs = np.array([[0, 1, 2, 3, 4], [0, 0, 5, 6, 7]])
        subgraphs = rng.standard_normal((2, 5, 5))
        rel_pe = enc.pge_encoding(params, np.array([0, 1]), subgraphs)
        with_pge = enc.encode(params, cfg, seqs, rel_pe)
        without = enc.encode(params, cfg, seqs, None)
        assert with_pge.data.tobytes() == without.data.tobytes()

    def test_causality_probe(self, rng):
        cfg, params = make_params(rng, dim=6, heads=2, layers=2, max_len=5)
        seqs = np.array([[1, 2, 3, 4, 5]])
        base = enc.encode(params, cfg, seqs).data[0].copy()
        for position, item in enumerate([1, 2, 3, 4, 5]):
            bumped = params["item_emb"].data.copy()
            bumped[item] += 1e-3 * rng.standard_normal(cfg.dim)
            original = params["item_emb"].data
            params["item_emb"].data = bumped
            moved = enc.encode(params, cfg, seqs).data[0]
            params["item_emb"].data = original
            delta = np.abs(moved - base).max(axis=-1)
            assert (delta[:position] < 1e-12).all()
            assert delta[position] > 1e-9

    def test_all_padding_sequence_rejected(self, rng):
        cfg, params = make_params(rng)
        with pytest.raises(ValueError, match="position 1"):
            enc.encode(params, cfg, np.array([[0, 1, 2, 3, 4], [0, 0, 0, 0, 0]]))

    def test_output_finite_for_random_inputs(self, rng):
        cfg, params = make_params(rng, num_items=30, dim=8, max_len=12)
        for _ in range(5):
            length = int(rng.integers(1, 13))
            seq = np.zeros((1, 12), dtype=np.int64)
            seq[0, 12 - length:] = rng.integers(1, 31, length)
            out = enc.encode(params, cfg, seq).data
            assert np.isfinite(out).all()

    def test_dropout_only_with_generator(self, rng):
        cfg, params = make_params(rng)
        cfg = replace(cfg, dropout=0.3)
        seqs = np.array([[0, 1, 2, 3, 4]])
        silent = enc.encode(params, cfg, seqs, rng=None)
        noisy = enc.encode(params, cfg, seqs, rng=np.random.default_rng(0))
        repeat = enc.encode(params, cfg, seqs, rng=np.random.default_rng(0))
        assert not np.array_equal(silent.data, noisy.data)
        np.testing.assert_array_equal(noisy.data, repeat.data)


class TestPgeEncoding:
    def test_zero_subgraph_gives_zero_encoding(self, rng):
        cfg, params = make_params(rng)
        out = enc.pge_encoding(params, np.array([1, 2]), np.zeros((2, 5, 5)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 5, 5)))

    def test_encoding_is_gate_times_subgraph(self, rng):
        cfg, params = make_params(rng)
        users = np.array([0, 3])
        subgraphs = rng.standard_normal((2, 5, 5))
        gate = enc.pge_gate(params, users).data
        out = enc.pge_encoding(params, users, subgraphs).data
        for b in range(2):
            np.testing.assert_allclose(out[b], gate[b, 0] * subgraphs[b], atol=1e-15)

    def test_user_embedding_gradient_through_encoder(self, rng):
        cfg, params = make_params(rng, dim=4, heads=1, layers=1, max_len=4)
        seqs = np.array([[0, 3, 1, 2]])
        users = np.array([2])
        subgraphs = rng.standard_normal((1, 4, 4))
        w = rng.standard_normal((1, 4, 4))

        def loss():
            rel = enc.pge_encoding(params, users, subgraphs)
            return weighted_sum(enc.encode(params, cfg, seqs, rel), w)

        check_grads(loss, {"user_emb": params["user_emb"],
                           "pge_w1": params["pge_w1"],
                           "pge_w2": params["pge_w2"]})


class TestUserRepr:
    def test_full_sequence_takes_last_row(self, rng):
        cfg, params = make_params(rng)
        seqs = np.array([[1, 2, 3, 4, 5]])
        hidden = enc.encode(params, cfg, seqs)
        got = enc.encode(params, cfg, seqs, readout=enc.last_real_position(seqs))
        assert got.shape == (1, 4)
        np.testing.assert_array_equal(got.data[0], hidden.data[0, 4])

    def test_left_padded_single_item(self):
        assert enc.last_real_position(np.array([[0, 0, 0, 9, 0]]))[0] == 3

    def test_scan_oracle_on_random_masks(self, rng):
        for _ in range(50):
            seq = (rng.random(8) < 0.5) * rng.integers(1, 9, 8)
            if not (seq > 0).any():
                seq[0] = 1
            got = enc.last_real_position(seq[None].astype(np.int64))[0]
            want = max(i for i, v in enumerate(seq) if v > 0)
            assert got == want

    def test_all_padding_is_error(self):
        with pytest.raises(ValueError):
            enc.last_real_position(np.zeros((1, 4), dtype=np.int64))


def readout_case(rng, layers, heads, dropout=0.2):
    """Twelve sequences of length 10: left padding, rows whose last items
    were masked to 0 (so the last real position is before N - 1), and a
    one-item row; PGE on, so rel_pe reaches every layer."""
    cfg, params = make_params(rng, num_items=30, num_users=6, dim=16, max_len=10,
                              heads=heads, layers=layers)
    cfg = replace(cfg, dropout=dropout)
    seqs = rng.integers(1, 31, (12, 10))
    seqs[:4, :3] = 0
    seqs[4:7, -1] = 0
    seqs[7, -4:] = 0
    seqs[8, :-1] = 0
    users = rng.integers(0, 6, 12)
    subgraphs = rng.random((12, 10, 10))
    return cfg, params, seqs, users, subgraphs


class TestReadout:
    """``encode(..., readout=...)`` runs the last layer at one row per
    sequence; it must give the matching rows of the full encode."""

    @pytest.mark.parametrize("layers, heads", [(2, 2), (3, 4)])
    @pytest.mark.parametrize("with_dropout", [False, True])
    def test_matches_rows_of_full_encode(self, rng, layers, heads, with_dropout):
        cfg, params, seqs, users, subgraphs = readout_case(rng, layers, heads)
        pos = enc.last_real_position(seqs)
        assert (pos < 9).sum() == 4
        runs = []
        for readout in (None, pos):
            gen = np.random.default_rng(11) if with_dropout else None
            rel = enc.pge_encoding(params, users, subgraphs)
            runs.append((enc.encode(params, cfg, seqs, rel, gen, readout).data, gen))
        (full, gen_full), (rows, gen_rows) = runs
        assert rows.shape == (12, 16)
        np.testing.assert_allclose(rows, full[np.arange(12), pos], rtol=0.0, atol=4e-15)
        if with_dropout:
            # the readout draws as much as the full encode: the stream is preserved
            assert gen_rows.bit_generator.state == gen_full.bit_generator.state

    def test_any_positions_not_only_the_last(self, rng):
        cfg, params, seqs, users, subgraphs = readout_case(rng, 2, 2, dropout=0.0)
        pos = np.arange(12) % 10  # padding rows included
        full = enc.encode(params, cfg, seqs).data
        rows = enc.encode(params, cfg, seqs, readout=pos).data
        np.testing.assert_allclose(rows, full[np.arange(12), pos], rtol=0.0, atol=4e-15)

    def test_gradients_with_pge_and_dropout(self, rng):
        cfg, params = make_params(rng, dim=4, heads=2, layers=2, max_len=4)
        cfg = replace(cfg, dropout=0.3)
        seqs = np.array([[0, 3, 1, 2], [4, 1, 2, 0]])
        users = np.array([2, 0])
        subgraphs = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((2, 4))
        params["pge_w2"].data += 0.5  # a live gate, so rel_pe carries gradient

        def loss():
            rel = enc.pge_encoding(params, users, subgraphs)
            out = enc.encode(params, cfg, seqs, rel, np.random.default_rng(3),
                             enc.last_real_position(seqs))
            return weighted_sum(out, w)

        check_grads(loss, {name: params[name] for name in
                           ("item_emb", "layer0.attn_key_w", "layer1.attn_query_w",
                            "layer1.attn_value_w", "layer1.ffn_w1", "layer1.ln1_g",
                            "ln_final_g", "user_emb", "pge_w2")})

    def test_bad_readout_is_rejected(self, rng):
        cfg, params = make_params(rng)
        seqs = np.array([[1, 2, 3, 4, 5], [0, 0, 1, 2, 3]])
        with pytest.raises(ad.ShapeMismatch, match=r"readout must be \[2\], got \[1\]"):
            enc.encode(params, cfg, seqs, readout=np.array([4]))
        with pytest.raises(ValueError, match=r"outside \[0, 5\)"):
            enc.encode(params, cfg, seqs, readout=np.array([4, 5]))
