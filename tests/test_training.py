import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from graphseqrec import autodiff as ad
from graphseqrec import collab, encoder
from graphseqrec import model as model_module
from graphseqrec import training as tr
from graphseqrec.autodiff import DegenerateRow, Tensor
from graphseqrec.data import build_sequences, leave_one_out, synth_generate
from graphseqrec.graph import extract_subgraph_batch
from graphseqrec.model import Model
from graphseqrec.training import (TrainConfig, assemble_batch, evaluate_model,
                                  next_item_loss, seq_cl_loss, total_loss, train,
                                  train_step)

from conftest import check_grads, saved_bytes, total_sum, weighted_sum

# the parameters whose row 0 belongs to the padding id
PADDED_ROWS = ("item_emb", "pert_left", "pert_right")


def tiny_dataset(users=40, items=25, seq_len=8, seed=0, noise=0.3):
    log = synth_generate(users, items, noise=noise, seed=seed, seq_len=seq_len)
    return leave_one_out(build_sequences(log, min_count=1))


def tiny_config(**overrides):
    base = dict(dim=8, max_len=8, batch_size=32, rank=2, encoder_layers=1,
                heads=2, gcn_layers=2, alpha=0.05, lambda1=0.1, lambda2=0.1,
                max_epochs=3, patience=2, seed=0, dropout=0.0)
    base.update(overrides)
    return TrainConfig(**base)


class TestNextItemLoss:
    def test_zero_logits_give_two_ln_two_per_step(self):
        item_emb = Tensor(np.zeros((4, 3)), requires_grad=True)
        hidden = Tensor(np.ones((1, 2, 3)))
        targets = np.array([[1, 0]])
        negatives = np.array([[2, 0]])
        mask = np.array([[1.0, 0.0]])
        loss = next_item_loss(hidden, item_emb, targets, negatives, mask)
        np.testing.assert_allclose(float(loss.data), 2.0 * np.log(2.0), atol=1e-15)

    def test_saturated_logits_drive_loss_to_zero(self):
        emb = np.zeros((3, 1))
        emb[1] = 50.0   # positive item aligned with hidden
        emb[2] = -50.0  # negative item anti-aligned
        item_emb = Tensor(emb)
        hidden = Tensor(np.ones((1, 1, 1)))
        loss = next_item_loss(hidden, item_emb, np.array([[1]]), np.array([[2]]),
                              np.array([[1.0]]))
        assert float(loss.data) < 1e-20

    def test_matches_scripted_formula(self, rng):
        b, n, d, v = 3, 5, 4, 9
        item_emb = rng.standard_normal((v + 1, d))
        item_emb[0] = 0.0
        hidden = rng.standard_normal((b, n, d))
        targets = rng.integers(0, v + 1, (b, n))
        negatives = rng.integers(1, v + 1, (b, n))
        mask = (rng.random((b, n)) < 0.7).astype(np.float64)
        loss = next_item_loss(Tensor(hidden), Tensor(item_emb), targets, negatives, mask)

        def sigma(x):
            return 1.0 / (1.0 + np.exp(-x))

        expected = 0.0
        for i in range(b):
            for p in range(n):
                if mask[i, p]:
                    pos = hidden[i, p] @ item_emb[targets[i, p]]
                    neg = hidden[i, p] @ item_emb[negatives[i, p]]
                    expected += -np.log(sigma(pos)) - np.log(1.0 - sigma(neg))
        assert abs(float(loss.data) - expected) < 1e-12

    def test_gradient(self, rng):
        item_emb = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        hidden = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
        targets = np.array([[2, 3, 0], [1, 4, 5]])
        negatives = np.array([[5, 1, 0], [3, 2, 1]])
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        check_grads(lambda: next_item_loss(hidden, item_emb, targets, negatives, mask),
                    {"item_emb": item_emb, "hidden": hidden})


class TestSeqClLoss:
    def test_batch_of_one_is_zero(self, rng):
        z = Tensor(rng.standard_normal((1, 6)))
        assert float(seq_cl_loss(z, Tensor(rng.standard_normal((1, 6))), 0.2).data) == 0.0

    def test_identical_orthonormal_views_closed_form(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = seq_cl_loss(Tensor(z), Tensor(z.copy()), tau=0.2)
        np.testing.assert_allclose(float(loss.data), 2.0 * np.log1p(np.exp(-5.0)),
                                   atol=1e-12)

    def test_consistent_permutation_invariance(self, rng):
        z1 = rng.standard_normal((5, 4))
        z2 = rng.standard_normal((5, 4))
        base = float(seq_cl_loss(Tensor(z1), Tensor(z2), 0.2).data)
        perm = rng.permutation(5)
        permuted = float(seq_cl_loss(Tensor(z1[perm]), Tensor(z2[perm]), 0.2).data)
        np.testing.assert_allclose(base, permuted, rtol=1e-12)

    def test_zero_norm_view_rejected(self, rng):
        z1 = rng.standard_normal((3, 4))
        z1[1] = 0.0
        with pytest.raises(DegenerateRow):
            seq_cl_loss(Tensor(z1), Tensor(rng.standard_normal((3, 4))), 0.2)

    def test_gradient(self, rng):
        z1 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        z2 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        check_grads(lambda: seq_cl_loss(z1, z2, 0.2), {"z1": z1, "z2": z2})


class TestTotalLoss:
    def test_zero_weights_return_rec_object(self, rng):
        rec = Tensor(np.asarray(rng.random()), requires_grad=True)
        gce = Tensor(np.asarray(rng.random()))
        assert total_loss(rec, gce, None, 0.0, 0.0) is rec

    def test_unit_gce_weight_with_zero_rec(self, rng):
        rec = Tensor(np.asarray(0.0))
        gce = Tensor(np.asarray(rng.random()))
        out = total_loss(rec, gce, None, lambda1=1.0)
        np.testing.assert_allclose(float(out.data), float(gce.data), atol=0)

    def test_weighted_sum_gradient(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        w = rng.standard_normal(4)

        def loss():
            rec = weighted_sum(x, w)
            gce = weighted_sum(ad.tanh(x), w[::-1])
            seq = total_sum(ad.tanh(x))
            return total_loss(rec, gce, seq, lambda1=0.3, lambda2=0.7)

        check_grads(loss, {"x": x})


class TestToggleIsolation:
    """At a fixed parameter state and batch, toggling one module changes only
    its own loss term."""

    def compute_losses(self, model, dataset):
        cfg = model.cfg
        batch = assemble_batch(dataset.users[:cfg.batch_size], cfg, np.random.default_rng(11),
                               np.random.default_rng(12) if cfg.lambda2 else None)
        model.zero_grads()
        return train_step(model, batch, None, None)

    def test_agcl_toggle_leaves_other_terms_bitwise(self):
        dataset = tiny_dataset()
        cfg_on = tiny_config()
        rng = np.random.default_rng(5)
        model = Model(cfg_on.model_config(dataset.num_items, dataset.num_users),
                      tr.train_graph(dataset, cfg_on.window), rng)
        on = self.compute_losses(model, dataset)
        model.cfg = replace(model.cfg, lambda1=0.0)  # same parameter state
        off = self.compute_losses(model, dataset)
        assert on["rec"] == off["rec"]
        assert on["seq"] == off["seq"]
        assert off["gce"] == 0.0 and on["gce"] > 0.0
        np.testing.assert_allclose(off["total"], off["rec"] + cfg_on.lambda2 * off["seq"],
                                   rtol=1e-15)

    def test_a_sequence_term_without_views_is_an_error(self):
        dataset = tiny_dataset()
        cfg = tiny_config(lambda2=0.5)
        model = Model(cfg.model_config(dataset.num_items, dataset.num_users),
                      tr.train_graph(dataset, cfg.window), np.random.default_rng(5))
        batch = assemble_batch(dataset.users[:cfg.batch_size], model.cfg,
                               np.random.default_rng(11), None)
        with pytest.raises(ValueError, match=r"^lambda2 = 0\.5 needs views: "
                                             r"assemble with rng_augment$"):
            train_step(model, batch, None, None)
        model.cfg = replace(model.cfg, lambda2=0.0)
        assert self.compute_losses(model, dataset)["seq"] == 0.0

    def test_pge_toggle_leaves_gce_bitwise(self):
        dataset = tiny_dataset()
        cfg = tiny_config()
        rng = np.random.default_rng(5)
        model = Model(cfg.model_config(dataset.num_items, dataset.num_users),
                      tr.train_graph(dataset, cfg.window), rng)
        on = self.compute_losses(model, dataset)
        model.cfg = replace(model.cfg, enable_pge=False)
        off = self.compute_losses(model, dataset)
        assert on["gce"] == off["gce"]
        assert on["rec"] != off["rec"]  # the encoding really was active

    def test_factors_receive_gradient_only_from_gce(self):
        dataset = tiny_dataset()
        cfg = tiny_config(lambda1=0.0)  # rec + seq only
        rng = np.random.default_rng(5)
        model = Model(cfg.model_config(dataset.num_items, dataset.num_users),
                      tr.train_graph(dataset, cfg.window), rng)
        self.compute_losses(model, dataset)
        assert model.params["pert_left"].grad is None
        assert model.params["pert_right"].grad is None
        model.cfg = replace(model.cfg, lambda1=0.1)
        self.compute_losses(model, dataset)
        assert np.abs(model.params["pert_left"].grad).max() > 0.0


class TestPerturbationSnapshot:
    """Every train step and every evaluation pass takes exactly one detached
    refinement snapshot, whatever the subgraphs of the PGE read."""

    @pytest.mark.parametrize("pge", [dict(pge_graph="refined"), dict(pge_graph="original"),
                                     dict(enable_pge=False)], ids=["refined", "original", "off"])
    @pytest.mark.parametrize("lambda1", [0.1, 0.0], ids=["agcl", "no-agcl"])
    def test_one_snapshot_per_train_step_and_per_evaluation(self, monkeypatch, pge, lambda1):
        dataset = tiny_dataset()
        cfg = tiny_config(batch_size=8, lambda1=lambda1, **pge)
        graph = tr.train_graph(dataset, cfg.window)
        model = Model(cfg.model_config(dataset.num_items, dataset.num_users), graph,
                      np.random.default_rng(5))
        calls = []
        original = collab.detached_perturbation

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(collab, "detached_perturbation", counted)
        batch = assemble_batch(dataset.users[:cfg.batch_size], model.cfg,
                               np.random.default_rng(11), np.random.default_rng(12))
        train_step(model, batch, None, None)
        assert len(calls) == 1  # main sequence, both augmented views and the AGCL
        evaluate_model(model, dataset, "valid", batch_size=cfg.batch_size)
        assert len(calls) == 2  # five evaluation chunks


class TestTapeFreeEvaluation:
    def test_evaluation_records_no_node(self, monkeypatch):
        dataset = tiny_dataset()
        cfg = tiny_config(batch_size=8, pge_graph="refined")
        model = Model(cfg.model_config(dataset.num_items, dataset.num_users),
                      tr.train_graph(dataset, cfg.window), np.random.default_rng(5))
        recorded = []

        class Spy(ad.Node):
            __slots__ = ()

            def __init__(self, op, *rest):
                recorded.append(op)
                super().__init__(op, *rest)

        monkeypatch.setattr(ad, "Node", Spy)
        evaluate_model(model, dataset, "valid", batch_size=cfg.batch_size)
        assert recorded == []
        # the spy sees the ops: the same forward outside evaluation records
        seqs = np.zeros((2, cfg.max_len), dtype=np.int64)
        seqs[:, -1] = 1
        model.user_reprs(seqs, np.arange(2), model.subgraph_perturbation())
        assert recorded

    def test_a_train_step_beside_a_paused_evaluation_keeps_its_gradients(self, monkeypatch):
        dataset = tiny_dataset()
        cfg = tiny_config(batch_size=8, pge_graph="refined")
        model = Model(cfg.model_config(dataset.num_items, dataset.num_users),
                      tr.train_graph(dataset, cfg.window), np.random.default_rng(5))
        batch = assemble_batch(dataset.users[:cfg.batch_size], model.cfg,
                               np.random.default_rng(11), np.random.default_rng(12))

        def step_grads():
            model.zero_grads()
            train_step(model, batch, None, None)
            return {name: t.grad.tobytes() for name, t in model.params.items()
                    if t.grad is not None}

        alone = step_grads()
        # the evaluating thread stops inside its first forward until the
        # main thread's step is done
        paused, resume, failures = threading.Event(), threading.Event(), []
        encode = encoder.encode

        def pausing_encode(*args):
            if threading.current_thread() is evaluator:
                paused.set()
                resume.wait(60)
            return encode(*args)

        def evaluate():
            try:
                evaluate_model(model, dataset, "valid", batch_size=cfg.batch_size)
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        monkeypatch.setattr(encoder, "encode", pausing_encode)
        evaluator = threading.Thread(target=evaluate)
        evaluator.start()
        try:
            assert paused.wait(60)
            beside = step_grads()
        finally:
            resume.set()
            evaluator.join()
        assert failures == []
        assert beside.keys() == alone.keys() and beside == alone


class TestTrainStepTape:
    def tape_ops(self, heads, monkeypatch):
        """Op counts of one train step's loss graph, walked before backward."""
        dataset = tiny_dataset()
        cfg = tiny_config(batch_size=8, heads=heads, encoder_layers=2)
        model = Model(cfg.model_config(dataset.num_items, dataset.num_users),
                      tr.train_graph(dataset, cfg.window), np.random.default_rng(5))
        batch = assemble_batch(dataset.users[:cfg.batch_size], model.cfg,
                               np.random.default_rng(11), np.random.default_rng(12))
        walks = []  # one Counter per backward, whichever thread runs it
        original = ad.backward

        def spy(loss):
            ops, seen, stack = Counter(), set(), [loss]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    ops[node.op] += 1
                    stack.extend(node._parents)
            walks.append(ops)
            original(loss)

        with monkeypatch.context() as patch:
            patch.setattr(ad, "backward", spy)
            train_step(model, batch, None, None)
        return sum(walks, Counter())

    def test_one_attention_node_per_layer_and_encode(self, monkeypatch):
        one_head = self.tape_ops(1, monkeypatch)
        two_heads = self.tape_ops(2, monkeypatch)
        # 2 layers x 3 encodes: the sequence and its two augmented views
        assert two_heads["attention"] == 2 * 3
        # no op is recorded per head
        assert two_heads == one_head

    def test_readout_rows_go_into_attention_as_they_are(self, monkeypatch):
        ops = self.tape_ops(2, monkeypatch)
        # the views' last layers take (B, d) query rows: no shape-only node
        assert "reshape" not in ops
        # each view's last layer selects h, a and rel_pe at its readout rows
        assert ops["select_positions"] == 2 * 3

    def test_one_node_per_loss_term(self, monkeypatch):
        ops = self.tape_ops(2, monkeypatch)
        # rec is sampled_bce; the graph and the sequence contrastive terms
        # are cosine_info_nce, one-directional and symmetric
        assert ops["sampled_bce"] == 1
        assert ops["cosine_info_nce"] == 2
        deleted = {"neg", "softplus", "sum_axis", "logsumexp_rows", "unit_rows", "diagonal"}
        assert not deleted & set(ops)


class TestTrainStepMemory:
    """One step at the acceptance config: the planted ring of 500 users over
    200 items, dim 32, max_len 20, rank 8, batch 256, every loss term and
    dropout on.  Both bounds are computed byte counts, not timings."""

    @staticmethod
    def step():
        log = synth_generate(500, 200, noise=0.2, seed=101, seq_len=20)
        dataset = leave_one_out(build_sequences(log, min_count=1))
        cfg = TrainConfig(dim=32, max_len=20, batch_size=256, rank=8, encoder_layers=2,
                          heads=2, gcn_layers=2, alpha=0.05, lambda1=0.1, lambda2=0.1,
                          dropout=0.2, lr=1e-3, max_epochs=12, patience=11, seed=0)
        model = Model(cfg.model_config(dataset.num_items, dataset.num_users),
                      tr.train_graph(dataset, cfg.window), np.random.default_rng(5))
        batch = assemble_batch(dataset.users[:cfg.batch_size], model.cfg,
                               np.random.default_rng(1), np.random.default_rng(2))
        return lambda: train_step(model, batch, np.random.default_rng(3),
                                  np.random.default_rng(4))

    def test_traced_peak_of_one_step_at_the_acceptance_config(self):
        # tracemalloc counts the bytes of the arrays one step allocates, in
        # both of its threads: 40.5-40.8 MB at its peak when ReLU and
        # attention outputs are rebuilt too and the sequence term runs on the
        # worker, 51.1 MB when one thread ran every term and layer-norm
        # outputs and q/k/v were the rebuilt ones, 78.4 MB when the closures
        # saved them and 130.7 MB when every op output stayed on the tape
        # until backward; bounded at the third figure plus 15%
        step = self.step()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 90 * 2**20, f"one train step peaked at {peak / 2**20:.1f} MB"

    def test_saved_arrays_of_one_step_at_the_acceptance_config(self, monkeypatch):
        # a step walks three tapes: the next-item and graph terms', then, on
        # the worker, view 1's with the seq-CL loss and view 2's.  Their
        # closures keep 31.0 MB of arrays at backward, summed, 15.0 + 8.4 +
        # 7.4 MB, when ReLU and attention outputs are rebuilt too; 40.4 MB
        # when one tape kept them, and 74.4 MB when layer-norm outputs and
        # q/k/v were saved as well; bounded at the first plus 15%
        step, measured, run = self.step(), [], ad.backward
        monkeypatch.setattr(ad, "backward", lambda loss: (measured.append(saved_bytes(loss)),
                                                          run(loss)))
        step()
        assert len(measured) == 3
        assert sum(measured) <= 36 * 2**20, f"one train step saved {sum(measured) / 2**20:.1f} MB"


class TestTrainStepDirectionalDerivative:
    """The gradient of one whole train step's loss, every term on, against a
    central difference along one direction, at the shapes training runs.

    f(theta) is the total loss ``train_step`` reports for a fixed batch, with
    fresh dropout generators of seeds 3 and 4 at every call, so every
    evaluation draws the same masks.  The parameters are first moved off
    their initial values by 0.05 * N(0, 1) from ``default_rng(6)``, so the
    per-user gate and the low-rank refinement contribute; the direction v is
    one N(0, 1) draw from ``default_rng(7)`` over every parameter, zero on the
    padding rows, scaled to unit norm.  A refined PGE reads its subgraphs
    from a snapshot of the factors that backward treats as a constant, so f
    holds that snapshot at its theta value too.

    Step and tolerance: f is 6e2 to 6e3 here, so each float64 evaluation
    carries about f * 1e-16 of round-off and the quotient about f * 1e-16 / h,
    1e-7 to 1e-6 relative to these derivatives at h = 1e-6, which the 1e-5
    tolerance covers several times over.  A larger h lets a ReLU kink fall
    between the two points: at the first shape the relative error was 2.6e-3
    and 1.8e-3 at h = 1e-3 and 1e-4, and 6e-7 at h = 1e-6."""

    H, TOLERANCE = 1e-6, 1e-5

    @staticmethod
    def case(users, items, seq_len, seed, rows, first=0, **overrides):
        log = synth_generate(users, items, noise=0.2, seed=seed, seq_len=seq_len)
        dataset = leave_one_out(build_sequences(log, min_count=1))
        cfg = replace(TrainConfig(dim=32, max_len=20, rank=8, encoder_layers=2, heads=2,
                                  alpha=0.05, lambda1=0.1, lambda2=0.1, dropout=0.2,
                                  pge_graph="refined"), **overrides)
        model = Model(cfg.model_config(dataset.num_items, dataset.num_users),
                      tr.train_graph(dataset, cfg.window), np.random.default_rng(5))
        batch = assemble_batch(dataset.users[first:first + rows], model.cfg,
                               np.random.default_rng(1), np.random.default_rng(2))
        return model, batch

    def check(self, monkeypatch, model, batch):
        moved, direction = np.random.default_rng(6), np.random.default_rng(7)
        theta, v = {}, {}
        for name, t in model.params.items():
            theta[name] = t.data + 0.05 * moved.standard_normal(t.shape)
            v[name] = direction.standard_normal(t.shape)
        for name in PADDED_ROWS:
            theta[name][0] = v[name][0] = 0.0
        norm = np.sqrt(sum(float((d * d).sum()) for d in v.values()))

        def f(step):
            for name, t in model.params.items():
                t.data = theta[name] + (step / norm) * v[name]
            model.zero_grads()
            return train_step(model, batch, np.random.default_rng(3),
                              np.random.default_rng(4))["total"]

        f(0.0)
        analytic = sum(float((t.grad * v[name]).sum()) / norm
                       for name, t in model.params.items() if t.grad is not None)
        snapshot = model.subgraph_perturbation()
        monkeypatch.setattr(model_module, "extract_subgraph_batch", lambda graph, seqs, p:
                            extract_subgraph_batch(graph, seqs, None if p is None else snapshot))
        numeric = (f(self.H) - f(-self.H)) / (2 * self.H)
        assert abs(numeric - analytic) <= self.TOLERANCE * abs(analytic), (numeric, analytic)

    def test_acceptance_ring_last_batch(self, monkeypatch):
        # the planted ring of 500 users over 200 items; batches of 256 leave 244
        model, batch = self.case(500, 200, 20, 101, rows=244, first=256)
        assert batch.seqs.shape == (244, 20)
        self.check(monkeypatch, model, batch)

    def test_padded_batch_of_short_histories(self, monkeypatch):
        model, batch = self.case(300, 100, 6, 3, rows=128, max_len=50)
        assert (batch.seqs > 0).sum(axis=1).max() <= 4
        self.check(monkeypatch, model, batch)

    @pytest.mark.parametrize("gcn_layers", [1, 2])
    def test_catalog_of_thousands_of_items(self, monkeypatch, gcn_layers):
        model, batch = self.case(600, 3000, 10, 4, rows=128, gcn_layers=gcn_layers)
        assert model.cfg.num_items > 2000
        self.check(monkeypatch, model, batch)


class TestPaddingRowsGetNoGradient:
    """Row 0 of the item table and of both refinement factors belongs to the
    padding id.  The key mask, the step mask and the graph's empty row and
    column 0 keep every gradient into it at exactly zero, so nothing has to
    zero it and Adam never moves it; a leak shows here."""

    @staticmethod
    def check_step(model, batch):
        train_step(model, batch, np.random.default_rng(3), np.random.default_rng(4))
        assert model.params["item_emb"].grad is not None
        for name in PADDED_ROWS:
            grad = model.params[name].grad
            if grad is not None:
                assert not grad[0].any(), (name, np.abs(grad[0]).max())

    @pytest.mark.parametrize("overrides", [
        {}, {"enable_pge": False}, {"pge_graph": "original"}, {"lambda1": 0.0},
        {"gcn_layers": 3}], ids=["full", "no-pge", "original-pge", "lambda1-0", "gcn-3"])
    def test_acceptance_ring_last_batch(self, overrides):
        model, batch = TestTrainStepDirectionalDerivative.case(500, 200, 20, 101, rows=244,
                                                               first=256, **overrides)
        self.check_step(model, batch)

    def test_masked_views_of_short_histories(self):
        model, batch = TestTrainStepDirectionalDerivative.case(300, 100, 6, 3, rows=128,
                                                               max_len=50, mask_ratio=0.6)
        real = np.concatenate([batch.view1, batch.view2]) > 0
        # a zero after a row's first real item is a masked item, not padding
        assert (np.maximum.accumulate(real, axis=1) & ~real).any()
        self.check_step(model, batch)

    def test_rows_stay_zero_through_training(self):
        result = train(tiny_config(max_epochs=3, dropout=0.2, mask_ratio=0.6), tiny_dataset())
        for name in PADDED_ROWS:
            row = result.model.params[name].data[0]
            assert row.tobytes() == bytes(row.nbytes), (name, row)


def serial_train_step(model, batch, rng_dropout, rng_dropout_views):
    """The oracle: every loss term on one tape and one backward on the
    calling thread, as ``train_step`` ran before its sequence term moved to a
    worker.  ``train_step`` must match it bit for bit."""
    cfg = model.cfg
    perturbation = model.subgraph_perturbation()
    hidden = model.hidden_states(batch.seqs, batch.user_ids, perturbation, rng_dropout)
    rec = next_item_loss(hidden, model.params["item_emb"], batch.targets,
                         batch.negatives, batch.step_mask)
    gce = None
    if cfg.lambda1 != 0.0:
        orig_rows, ref_rows = model.graph_representations(batch.seqs[:, -1], perturbation)
        gce = collab.gce_loss(orig_rows, ref_rows, cfg.tau)
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


def step_bytes(step, model, batch):
    """One step's reported values and parameter gradients, as bytes."""
    model.zero_grads()
    values = step(model, batch, np.random.default_rng(3), np.random.default_rng(4))
    grads = {name: t.grad.tobytes() for name, t in model.params.items() if t.grad is not None}
    model.zero_grads()
    return {key: np.float64(value).tobytes() for key, value in values.items()}, grads


class TestSplitStep:
    """``train_step`` runs the sequence-contrastive term on a worker thread
    and adds its gradients after its own backward; values and gradients are
    the single walk's, bit for bit, and every thread it starts is joined."""

    @pytest.fixture(autouse=True)
    def no_thread_outlives_a_case(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @staticmethod
    def check(model, batch):
        values, grads = step_bytes(train_step, model, batch)
        oracle_values, oracle_grads = step_bytes(serial_train_step, model, batch)
        assert values == oracle_values
        assert grads.keys() == oracle_grads.keys()
        for name in grads:
            assert grads[name] == oracle_grads[name], name

    @pytest.mark.parametrize("overrides", [
        {}, {"lambda1": 0.0}, {"enable_pge": False}, {"pge_graph": "original"},
        {"gcn_layers": 3}], ids=["full", "lambda1-0", "no-pge", "original-pge", "gcn-3"])
    def test_acceptance_ring_last_batch(self, overrides):
        model, batch = TestTrainStepDirectionalDerivative.case(500, 200, 20, 101, rows=244,
                                                               first=256, **overrides)
        assert batch.seqs.shape == (244, 20)
        self.check(model, batch)

    def test_masked_views_of_short_histories(self):
        model, batch = TestTrainStepDirectionalDerivative.case(300, 100, 6, 3, rows=128,
                                                               max_len=50, mask_ratio=0.6)
        self.check(model, batch)

    def test_no_thread_without_a_sequence_term(self, monkeypatch):
        model, batch = TestTrainStepDirectionalDerivative.case(500, 200, 20, 101, rows=244,
                                                               first=256, lambda2=0.0)
        threads, run = [], ad.backward
        monkeypatch.setattr(ad, "backward", lambda loss: (
            threads.append((threading.current_thread(), threading.active_count())), run(loss)))
        before = threading.active_count()
        self.check(model, batch)
        assert threads == [(threading.main_thread(), before)] * 2

    def test_view_two_is_encoded_again_bit_for_bit(self, monkeypatch):
        model, batch = TestTrainStepDirectionalDerivative.case(500, 200, 20, 101, rows=244,
                                                               first=256)
        encodes, user_reprs = [], Model.user_reprs

        def spied(self, seqs, *args):
            out = user_reprs(self, seqs, *args)
            if seqs is batch.view2:
                encodes.append((out.node is not None, out.data.tobytes()))
            return out

        monkeypatch.setattr(Model, "user_reprs", spied)
        train_step(model, batch, np.random.default_rng(3), np.random.default_rng(4))
        # the first encode records no tape; the second does, for backward
        assert [taped for taped, _ in encodes] == [False, True]
        assert encodes[0][1] == encodes[1][1]

    def test_a_second_encode_that_differs_is_an_error(self, monkeypatch):
        model, batch = TestTrainStepDirectionalDerivative.case(500, 200, 20, 101, rows=244,
                                                               first=256)
        user_reprs = Model.user_reprs

        def drifting(self, seqs, *args):
            out = user_reprs(self, seqs, *args)
            if seqs is batch.view2 and out.node is not None:
                out.data[7, 3] = np.nextafter(out.data[7, 3], np.inf)
            return out

        monkeypatch.setattr(Model, "user_reprs", drifting)
        with pytest.raises(tr.ViewMismatch, match=r"^view 2's second encode differs from "
                                                  r"its first at batch position 7$"):
            train_step(model, batch, np.random.default_rng(3), np.random.default_rng(4))

    def test_an_error_on_the_worker_reaches_the_caller_as_raised(self, monkeypatch):
        model, batch = TestTrainStepDirectionalDerivative.case(500, 200, 20, 101, rows=244,
                                                               first=256)
        # a zero final norm gain makes every view row zero; the next-item
        # and graph terms do not normalize those rows
        model.params["ln_final_g"].data = np.zeros_like(model.params["ln_final_g"].data)
        raised, info_nce = [], ad.cosine_info_nce

        def spied(*args, **kwargs):
            try:
                return info_nce(*args, **kwargs)
            except DegenerateRow as exc:
                raised.append((threading.current_thread(), exc))
                raise

        monkeypatch.setattr(ad, "cosine_info_nce", spied)
        with pytest.raises(DegenerateRow, match="zero-norm anchor row") as info:
            train_step(model, batch, np.random.default_rng(3), np.random.default_rng(4))
        [(thread, exc)] = raised
        assert thread is not threading.main_thread() and info.value is exc

    def test_an_error_on_the_calling_thread_joins_the_worker(self, monkeypatch):
        model, batch = TestTrainStepDirectionalDerivative.case(500, 200, 20, 101, rows=244,
                                                               first=256)
        before, seen = threading.active_count(), []

        def failing(*args):
            seen.append(threading.active_count())
            raise RuntimeError("next-item loss failed")

        monkeypatch.setattr(tr, "next_item_loss", failing)
        with pytest.raises(RuntimeError, match="^next-item loss failed$"):
            train_step(model, batch, np.random.default_rng(3), np.random.default_rng(4))
        assert seen == [before + 1] and threading.active_count() == before

    def test_trainings_in_three_threads_each_match_a_lone_one(self):
        # each training's steps defer and replay in their own threads; with
        # more threads than cores and a short switch interval, a scope that
        # leaked across threads would add a gradient out of order
        dataset = tiny_dataset(users=60)
        cfg = tiny_config(max_epochs=2, patience=1, dropout=0.2, mask_ratio=0.6)
        alone = train(cfg, dataset)
        start, results = threading.Barrier(3), [None] * 3

        def run(i):
            start.wait(60)
            results[i] = train(cfg, dataset)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in results:
            assert result is not None and result.history == alone.history
            for name, t in result.model.params.items():
                assert t.data.tobytes() == alone.model.params[name].data.tobytes(), name


class TestTrainLoop:
    def test_patience_zero_stops_at_first_non_improvement(self):
        dataset = tiny_dataset()
        result = train(tiny_config(max_epochs=30, patience=0), dataset)
        history_epochs = [line for line in result.history if line.startswith("epoch=")]
        assert len(history_epochs) == result.state.epoch
        # stopped: every epoch up to the last improved, the last did not
        assert result.state.epoch < 30
        assert result.state.epochs_since_best == 1
        assert result.state.best_epoch == result.state.epoch - 1
        # the counter is checked only after it grows, so 0 stops where 1 does
        one = train(tiny_config(max_epochs=30, patience=1), dataset)
        assert one.history == result.history and one.state == result.state

    def test_fixed_seed_reproduces_history(self):
        dataset = tiny_dataset()
        cfg = tiny_config(max_epochs=2, patience=1, dropout=0.2)
        first = train(cfg, dataset)
        second = train(cfg, dataset)
        assert first.history == second.history

    def test_training_loss_decreases_on_planted_data(self):
        drops = []
        for seed in range(3):
            dataset = tiny_dataset(users=60, seed=seed)
            cfg = tiny_config(max_epochs=5, patience=4, seed=seed)
            result = train(cfg, dataset)
            losses = [float(line.split("loss_total=")[1].split()[0])
                      for line in result.history if line.startswith("epoch=")]
            drops.append(losses[4] < losses[0])
        assert np.median(drops) == 1.0

    def test_nan_loss_aborts_with_coordinates(self, monkeypatch):
        dataset = tiny_dataset()

        def poisoned(*args, **kwargs):
            return {"total": float("nan"), "rec": 0.0, "gce": 0.0, "seq": 0.0}

        monkeypatch.setattr(tr, "train_step", poisoned)
        with pytest.raises(RuntimeError, match="epoch 1, batch 0"):
            train(tiny_config(), dataset)

    def test_best_checkpoint_restored_at_exit(self):
        dataset = tiny_dataset()
        cfg = tiny_config(max_epochs=4, patience=3)
        result = train(cfg, dataset)
        report = evaluate_model(result.model, dataset, "valid", cfg.batch_size)
        np.testing.assert_allclose(report.ndcg[20], result.state.best_val_ndcg20,
                                   atol=1e-12)

    def test_every_gradient_is_dropped_after_its_step(self, monkeypatch):
        dataset = tiny_dataset()
        held = []

        def spy(fn):
            def wrapped(model, *args, **kwargs):
                held.append([name for name, t in model.params.items() if t.grad is not None])
                return fn(model, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(tr, "train_step", spy(tr.train_step))
        monkeypatch.setattr(tr, "evaluate_model", spy(tr.evaluate_model))
        result = train(tiny_config(max_epochs=2, patience=1), dataset)
        # every step and every validation pass starts with no gradient held
        assert len(held) == 2 * 2 + 2 + 1 and held == [[]] * len(held)
        assert all(t.grad is None for t in result.model.params.values())

    def test_padding_rows_stay_zero(self):
        dataset = tiny_dataset()
        result = train(tiny_config(max_epochs=2, patience=1), dataset)
        assert (result.model.params["item_emb"].data[0] == 0.0).all()
        assert (result.model.params["pert_left"].data[0] == 0.0).all()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="patience"):
            tiny_config(patience=10, max_epochs=5)
        with pytest.raises(ValueError):
            tiny_config(lr=0.0)

    def test_metrics_invariant_to_batch_size_and_user_order(self):
        dataset = tiny_dataset()
        result = train(tiny_config(max_epochs=1, patience=0), dataset)
        small = evaluate_model(result.model, dataset, "test", batch_size=7)
        large = evaluate_model(result.model, dataset, "test", batch_size=64)
        assert small.hr == large.hr and small.ndcg == large.ndcg
        shuffled = tr.SplitDataset(list(reversed(dataset.users)), dataset.num_items)
        reordered = evaluate_model(result.model, shuffled, "test", batch_size=16)
        assert reordered.hr == small.hr and reordered.ndcg == small.ndcg
