import numpy as np
import pytest

from graphseqrec import autodiff as ad
from graphseqrec import collab
from graphseqrec.autodiff import DegenerateRow, Tensor
from graphseqrec.data import ItemSequence
from graphseqrec.graph import build_transition_graph

from conftest import check_grads, total_sum


def self_loop_graph(num_items):
    seqs = [ItemSequence(u, [u + 1]) for u in range(num_items)]
    return build_transition_graph(seqs, window=2, num_items=num_items)


def random_graph(rng, num_items, num_seqs=20, max_len=10):
    seqs = []
    for u in range(num_seqs):
        length = int(rng.integers(2, max_len + 1))
        seqs.append(ItemSequence(u, [int(v) for v in rng.integers(1, num_items + 1, length)]))
    return build_transition_graph(seqs, window=2, num_items=num_items)


def dense_refined_reference(graph_dense, emb, left, right, alpha, layers,
                            literal_avg=True):
    """Oracle that materializes the full dense perturbation matrix."""
    perturbation = (graph_dense @ left) @ (graph_dense @ right).T
    refined = graph_dense + alpha * perturbation
    current = emb.copy()
    acc = emb.copy()
    for _ in range(layers):
        current = refined @ current
        acc = acc + current
    return acc / (layers if literal_avg else layers + 1)


def zero_pad_rows(rng, shape):
    out = rng.standard_normal(shape)
    out[0] = 0.0
    return out


class TestPropagateOriginal:
    def test_identity_graph_two_layers_gives_three_halves(self, rng):
        graph = self_loop_graph(5)
        emb = Tensor(zero_pad_rows(rng, (6, 3)))
        out = collab.propagate_original(graph, emb, layers=2)
        np.testing.assert_allclose(out.data, 1.5 * emb.data, atol=1e-14)

    def test_identity_graph_one_layer_doubles(self, rng):
        graph = self_loop_graph(4)
        emb = Tensor(zero_pad_rows(rng, (5, 2)))
        out = collab.propagate_original(graph, emb, layers=1)
        np.testing.assert_allclose(out.data, 2.0 * emb.data, atol=1e-14)

    def test_conventional_average_flag(self, rng):
        graph = self_loop_graph(5)
        emb = Tensor(zero_pad_rows(rng, (6, 3)))
        out = collab.propagate_original(graph, emb, layers=2, literal_layer_avg=False)
        np.testing.assert_allclose(out.data, emb.data, atol=1e-14)

    def test_matches_dense_reference_loop(self, rng):
        graph = random_graph(rng, 10)
        emb = zero_pad_rows(rng, (11, 4))
        out = collab.propagate_original(graph, Tensor(emb), layers=3)
        dense = graph.dense()
        current, acc = emb.copy(), emb.copy()
        for _ in range(3):
            current = dense @ current
            acc += current
        np.testing.assert_allclose(out.data, acc / 3.0, atol=1e-10)

    def test_layer_validation(self, rng):
        with pytest.raises(ValueError):
            collab.propagate_original(self_loop_graph(3), Tensor(np.zeros((4, 2))), layers=0)


class TestPropagateRefined:
    def test_zero_strength_is_bitwise_original(self, rng):
        graph = random_graph(rng, 8)
        emb = Tensor(zero_pad_rows(rng, (9, 3)))
        factors = collab.init_factors(rng, 9, rank=2, strength=0.0)
        refined = collab.propagate_refined(graph, emb, factors, layers=2)
        original = collab.propagate_original(graph, emb, layers=2)
        assert refined.data.tobytes() == original.data.tobytes()

    def test_factored_path_matches_dense_materialization(self, rng):
        graph = random_graph(rng, 6, num_seqs=12, max_len=6)
        emb = zero_pad_rows(rng, (7, 3))
        factors = collab.init_factors(rng, 7, rank=2, strength=0.3)
        out = collab.propagate_refined(graph, Tensor(emb), factors, layers=2)
        oracle = dense_refined_reference(graph.dense(), emb, factors.left.data,
                                         factors.right.data, 0.3, layers=2)
        assert np.abs(out.data - oracle).max() < 1e-10

    def test_gradients_match_finite_differences(self, rng):
        graph = random_graph(rng, 5, num_seqs=10, max_len=5)
        emb = Tensor(zero_pad_rows(rng, (6, 3)), requires_grad=True)
        factors = collab.init_factors(rng, 6, rank=2, strength=0.4)
        w = rng.standard_normal((6, 3))

        def loss():
            out = collab.propagate_refined(graph, emb, factors, layers=2)
            return total_sum(ad.mul(out, Tensor(w)))

        check_grads(loss, {"emb": emb, "left": factors.left, "right": factors.right})

    def test_factor_scaling_is_quadratic(self, rng):
        graph = random_graph(rng, 6)
        emb = Tensor(zero_pad_rows(rng, (7, 3)))
        factors = collab.init_factors(rng, 7, rank=2, strength=1.0)
        base = collab.propagate_original(graph, emb, layers=1).data
        one = collab.propagate_refined(graph, emb, factors, layers=1).data - base
        scaled = collab.PerturbationFactors(
            Tensor(3.0 * factors.left.data), Tensor(3.0 * factors.right.data), 1.0)
        nine = collab.propagate_refined(graph, emb, scaled, layers=1).data - base
        np.testing.assert_allclose(nine, 9.0 * one, rtol=1e-9)

    def test_init_statistics_and_padding_row(self, rng):
        factors = collab.init_factors(rng, 201, rank=4, strength=0.05)
        assert (factors.left.data[0] == 0.0).all()
        assert (factors.right.data[0] == 0.0).all()
        expected_std = 1.0 / np.sqrt(4 * 200)
        assert abs(factors.left.data[1:].std() - expected_std) < 0.2 * expected_std
        with pytest.raises(ValueError):
            collab.init_factors(rng, 10, rank=0, strength=0.1)


class TestGceLoss:
    def test_single_row_batch_is_exactly_zero(self, rng):
        row = Tensor(rng.standard_normal((1, 4)))
        loss = collab.gce_loss(row, Tensor(rng.standard_normal((1, 4))), tau=0.2)
        assert float(loss.data) == 0.0

    def test_identical_orthonormal_pair_closed_form(self):
        rows = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = collab.gce_loss(rows, Tensor(rows.data.copy()), tau=0.2)
        expected = 2.0 * np.log1p(np.exp(-5.0))
        np.testing.assert_allclose(float(loss.data), expected, atol=1e-12)

    def test_nonnegative_on_random_batches(self, rng):
        for _ in range(25):
            b, d = int(rng.integers(1, 9)), int(rng.integers(2, 6))
            a = Tensor(rng.standard_normal((b, d)))
            c = Tensor(rng.standard_normal((b, d)))
            assert float(collab.gce_loss(a, c, tau=0.2).data) >= 0.0

    def test_per_sample_terms_bounded(self, rng):
        tau = 0.2
        for _ in range(10):
            b = int(rng.integers(2, 7))
            a = rng.standard_normal((b, 5))
            c = rng.standard_normal((b, 5))
            ua = a / np.linalg.norm(a, axis=1, keepdims=True)
            uc = c / np.linalg.norm(c, axis=1, keepdims=True)
            sims = ua @ uc.T / tau
            terms = np.log(np.exp(sims).sum(axis=1)) - np.diag(sims)
            bound = np.log((b - 1) * np.exp(2.0 / tau) + 1.0)
            assert (terms >= -1e-12).all() and (terms <= bound + 1e-9).all()

    def test_zero_norm_row_error_names_row(self, rng):
        a = rng.standard_normal((3, 4))
        a[2] = 0.0
        with pytest.raises(DegenerateRow, match=r"\(2,\)"):
            collab.gce_loss(Tensor(a), Tensor(rng.standard_normal((3, 4))), tau=0.2)

    def test_temperature_validation(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            collab.gce_loss(a, a, tau=0.0)

    def test_gradient(self, rng):
        a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        c = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        check_grads(lambda: collab.gce_loss(a, c, tau=0.2), {"a": a, "c": c})


class TestBatchRows:
    def reps(self, rng, nodes=8, dim=3):
        graph = random_graph(rng, nodes - 1)
        emb = Tensor(zero_pad_rows(rng, (nodes, dim)), requires_grad=True)
        factors = collab.init_factors(rng, nodes, rank=2, strength=0.1)
        return emb, collab.graph_representations(graph, emb, factors, layers=2)

    def test_gather_matches_direct_indexing(self, rng):
        _, reps = self.reps(rng)
        ids = np.array([3, 1, 7])
        orig, refined = collab.batch_rows(reps, ids)
        np.testing.assert_array_equal(orig.data, reps.original.data[ids])
        np.testing.assert_array_equal(refined.data, reps.refined.data[ids])

    def test_duplicate_ids_repeat_rows(self, rng):
        _, reps = self.reps(rng)
        orig, _ = collab.batch_rows(reps, np.array([2, 2]))
        np.testing.assert_array_equal(orig.data[0], orig.data[1])

    def test_padding_id_rejected(self, rng):
        _, reps = self.reps(rng)
        with pytest.raises(ValueError, match="position 1"):
            collab.batch_rows(reps, np.array([3, 0, 1]))

    def test_gradient_reaches_only_gathered_rows(self, rng):
        emb, reps = self.reps(rng)
        ids = np.array([1, 4])
        orig, refined = collab.batch_rows(reps, ids)
        ad.backward(collab.gce_loss(orig, refined, tau=0.2))
        grad = emb.grad
        assert grad is not None and np.abs(grad).max() > 0

    def test_non_gathered_row_has_zero_numeric_gradient(self, rng):
        # finite differences on an item that no propagation path touches:
        # pure self-loop graph keeps rows independent
        graph = self_loop_graph(6)
        emb = Tensor(zero_pad_rows(rng, (7, 3)), requires_grad=True)
        factors = collab.init_factors(rng, 7, rank=2, strength=0.0)

        def loss():
            reps = collab.graph_representations(graph, emb, factors, layers=2)
            orig, refined = collab.batch_rows(reps, np.array([1, 2, 3]))
            return collab.gce_loss(orig, ad.mul(refined, 0.5), tau=0.2)

        value = loss()
        ad.backward(value)
        assert (emb.grad[5] == 0.0).all()
        h = 1e-5
        emb.data[5, 0] += h
        up = float(loss().data)
        emb.data[5, 0] -= 2 * h
        down = float(loss().data)
        emb.data[5, 0] += h
        assert abs(up - down) / (2 * h) < 1e-10
