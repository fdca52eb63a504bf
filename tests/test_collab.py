import numpy as np
import pytest
import scipy.sparse as sp

from graphseqrec import autodiff as ad
from graphseqrec import collab

from graphseqrec.autodiff import DegenerateRow, Tensor
from graphseqrec.data import ItemSequence
from graphseqrec.graph import TransitionGraph, build_transition_graph

from conftest import check_grads, tape_nodes, weighted_sum


def self_loop_graph(num_items):
    seqs = [ItemSequence(u, [u + 1]) for u in range(num_items)]
    return build_transition_graph(seqs, window=2, num_items=num_items)


def random_graph(rng, num_items, num_seqs=20, max_len=10):
    seqs = []
    for u in range(num_seqs):
        length = int(rng.integers(2, max_len + 1))
        seqs.append(ItemSequence(u, [int(v) for v in rng.integers(1, num_items + 1, length)]))
    return build_transition_graph(seqs, window=2, num_items=num_items)


def dense_refined_reference(graph_dense, emb, left, right, alpha, layers):
    """Oracle that materializes the full dense perturbation matrix."""
    perturbation = (graph_dense @ left) @ (graph_dense @ right).T
    refined = graph_dense + alpha * perturbation
    current = emb.copy()
    acc = emb.copy()
    for _ in range(layers):
        current = refined @ current
        acc = acc + current
    return acc / layers


def zero_pad_rows(rng, shape):
    out = rng.standard_normal(shape)
    out[0] = 0.0
    return out


class TestPropagateOriginal:
    def test_identity_graph_two_layers_gives_three_halves(self, rng):
        graph = self_loop_graph(5)
        emb = Tensor(zero_pad_rows(rng, (6, 3)))
        out = collab.propagate(graph, emb, layers=2)
        np.testing.assert_allclose(out.data, 1.5 * emb.data, atol=1e-14)

    def test_identity_graph_one_layer_doubles(self, rng):
        graph = self_loop_graph(4)
        emb = Tensor(zero_pad_rows(rng, (5, 2)))
        out = collab.propagate(graph, emb, layers=1)
        np.testing.assert_allclose(out.data, 2.0 * emb.data, atol=1e-14)

    def test_matches_dense_reference_loop(self, rng):
        graph = random_graph(rng, 10)
        emb = zero_pad_rows(rng, (11, 4))
        out = collab.propagate(graph, Tensor(emb), layers=3)
        dense = graph.dense()
        current, acc = emb.copy(), emb.copy()
        for _ in range(3):
            current = dense @ current
            acc += current
        np.testing.assert_allclose(out.data, acc / 3.0, atol=1e-10)

    def test_layer_validation(self, rng):
        with pytest.raises(ValueError):
            collab.propagate(self_loop_graph(3), Tensor(np.zeros((4, 2))), layers=0)

    @pytest.mark.parametrize("refined", [False, True])
    def test_backward_under_a_deferred_scope_replays_bit_for_bit(self, refined):
        # emb already holds a gradient, and reaches the loss through a gather
        # too, so the replay adds propagate's terms between other additions
        def emb_grad(defer):
            rng = np.random.default_rng(8)
            graph = random_graph(rng, 10)
            emb = Tensor(zero_pad_rows(rng, (11, 4)), requires_grad=True)
            emb.grad = rng.standard_normal((11, 4))
            factors = collab.init_factors(rng, 11, 2, 0.5) if refined else None
            loss = ad.add(weighted_sum(ad.gather(emb, [3, 1, 3]), rng.standard_normal((3, 4))),
                          weighted_sum(collab.propagate(graph, emb, 2, factors),
                                       rng.standard_normal((11, 4))))
            if defer:
                before = emb.grad.tobytes()
                with ad.deferred([emb]) as log:
                    ad.backward(loss)
                assert emb.grad.tobytes() == before and len(log) == (4 if refined else 3)
                ad.replay(log)
            else:
                ad.backward(loss)
            return emb.grad.tobytes()

        assert emb_grad(defer=True) == emb_grad(defer=False)


class TestPropagateRefined:
    def test_zero_strength_is_bitwise_original(self, rng):
        graph = random_graph(rng, 8)
        emb = Tensor(zero_pad_rows(rng, (9, 3)))
        factors = collab.init_factors(rng, 9, rank=2, strength=0.0)
        refined = collab.propagate(graph, emb, 2, factors)
        original = collab.propagate(graph, emb, layers=2)
        assert refined.data.tobytes() == original.data.tobytes()

    def test_factored_path_matches_dense_materialization(self, rng):
        graph = random_graph(rng, 6, num_seqs=12, max_len=6)
        emb = zero_pad_rows(rng, (7, 3))
        factors = collab.init_factors(rng, 7, rank=2, strength=0.3)
        out = collab.propagate(graph, Tensor(emb), 2, factors)
        oracle = dense_refined_reference(graph.dense(), emb, factors.left.data,
                                         factors.right.data, 0.3, layers=2)
        assert np.abs(out.data - oracle).max() < 1e-10

    def test_gradients_match_finite_differences(self, rng):
        graph = random_graph(rng, 5, num_seqs=10, max_len=5)
        emb = Tensor(zero_pad_rows(rng, (6, 3)), requires_grad=True)
        factors = collab.init_factors(rng, 6, rank=2, strength=0.4)
        w = rng.standard_normal((6, 3))

        def loss():
            return weighted_sum(collab.propagate(graph, emb, 2, factors), w)

        check_grads(loss, {"emb": emb, "left": factors.left, "right": factors.right})

    def test_asymmetric_graph_gradients_match_finite_differences(self, rng):
        # a symmetric graph hides a backward that forgets the transpose
        matrix = sp.random(7, 7, density=0.4, random_state=5, format="csr")
        assert (matrix != matrix.T).nnz
        graph = TransitionGraph(matrix)
        emb = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        factors = collab.init_factors(rng, 7, rank=2, strength=0.4)
        w = rng.standard_normal((7, 3))
        check_grads(lambda: weighted_sum(collab.propagate(graph, emb, 2, factors), w),
                    {"emb": emb, "left": factors.left, "right": factors.right})

    def test_factor_scaling_is_quadratic(self, rng):
        graph = random_graph(rng, 6)
        emb = Tensor(zero_pad_rows(rng, (7, 3)))
        factors = collab.init_factors(rng, 7, rank=2, strength=1.0)
        base = collab.propagate(graph, emb, layers=1).data
        one = collab.propagate(graph, emb, 1, factors).data - base
        scaled = collab.PerturbationFactors(
            Tensor(3.0 * factors.left.data), Tensor(3.0 * factors.right.data), 1.0)
        nine = collab.propagate(graph, emb, 1, scaled).data - base
        np.testing.assert_allclose(nine, 9.0 * one, rtol=1e-9)

    def test_init_statistics_and_padding_row(self, rng):
        factors = collab.init_factors(rng, 201, rank=4, strength=0.05)
        assert (factors.left.data[0] == 0.0).all()
        assert (factors.right.data[0] == 0.0).all()
        expected_std = 1.0 / np.sqrt(4 * 200)
        assert abs(factors.left.data[1:].std() - expected_std) < 0.2 * expected_std
        with pytest.raises(ValueError):
            collab.init_factors(rng, 10, rank=0, strength=0.1)


def chain_reference(matrix, emb, left, right, alpha, layers, g, emb_grad=None):
    """The deleted chain of spmv, transpose, matmul, mul and add nodes in
    plain numpy: its forward, then each node's backward in the order the tape
    ran them, with the copies the nodes made.  ``emb_grad`` is a gradient
    that ``emb`` held before.  Returns the output and the gradients of
    ``emb``, ``left`` and ``right`` (None for the factors at zero strength)."""
    refine = alpha != 0.0
    if refine:
        prop_left = matrix @ left
        prop_right_t = np.swapaxes(matrix @ right, -1, -2)
    current, acc, inputs, mixed = emb, emb, [], []
    for _ in range(layers):
        nxt = matrix @ current
        if refine:
            inputs.append(current)
            mixed.append(prop_right_t @ current)
            nxt = nxt + (prop_left @ mixed[-1]) * alpha
        current = nxt
        acc = acc + current
    out = acc * (1.0 / layers)

    grad = g * (1.0 / layers)  # the final mul
    # the layer sums, last first: emb and every layer output get grad
    grads = [grad.copy() if emb_grad is None else emb_grad + grad]
    grads += [grad.copy() for _ in range(layers)]
    d_prop_left = d_prop_right_t = None
    for k in range(layers, 0, -1):
        grads[k - 1] = grads[k - 1] + matrix.T @ grads[k]  # spmv
        if refine:
            p = grads[k] * alpha  # the layer's add hands grads[k] to the mul
            term = p @ np.swapaxes(mixed[k - 1], -1, -2)  # matmul, left operand
            d_prop_left = term if d_prop_left is None else d_prop_left + term
            d_mixed = np.swapaxes(prop_left, -1, -2) @ p  # matmul, right operand
            term = d_mixed @ np.swapaxes(inputs[k - 1], -1, -2)  # matmul, left operand
            d_prop_right_t = term if d_prop_right_t is None else d_prop_right_t + term
            grads[k - 1] = grads[k - 1] + np.swapaxes(prop_right_t, -1, -2) @ d_mixed
    if not refine:
        return out, grads[0], None, None
    d_left = matrix.T @ d_prop_left  # spmv
    d_right = matrix.T @ np.swapaxes(d_prop_right_t, -1, -2).copy()  # transpose, spmv
    return out, grads[0], d_left, d_right


class TestPropagateAgainstTheChain:
    """``propagate`` against the chain of nodes it replaced, bit for bit."""

    def case(self, rng, alpha, nodes=30, dim=5, rank=3):
        graph = random_graph(rng, nodes - 1, num_seqs=40, max_len=8)
        emb = zero_pad_rows(rng, (nodes, dim))
        factors = collab.init_factors(rng, nodes, rank, alpha)
        factors.left.data = rng.standard_normal((nodes, rank))
        factors.right.data = rng.standard_normal((nodes, rank))
        return graph, emb, factors, rng.standard_normal((nodes, dim))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("earlier_grad", [False, True])
    def test_one_representation(self, rng, layers, alpha, earlier_grad):
        graph, emb0, factors, upstream = self.case(rng, alpha)
        earlier = rng.standard_normal(emb0.shape) if earlier_grad else None
        emb = Tensor(emb0.copy(), requires_grad=True)
        emb.grad = None if earlier is None else earlier.copy()
        out = collab.propagate(graph, emb, layers, factors)
        assert out.op == "propagate"
        ad.backward(weighted_sum(out, upstream))
        want = chain_reference(graph.matrix, emb0, factors.left.data, factors.right.data,
                               alpha, layers, upstream, earlier)
        assert out.data.tobytes() == want[0].tobytes()
        assert emb.grad.tobytes() == want[1].tobytes()
        for got, ref in zip((factors.left.grad, factors.right.grad), want[2:]):
            if ref is None:  # zero strength: the factors get no gradient
                assert got is None
            else:
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("passed_factors", [False, True])
    def test_both_representations_share_the_first_product(self, rng, layers, passed_factors):
        # the original node runs first, as gce_loss's anchors come first; every
        # real row is gathered, so the padding row's upstream is zero
        graph, emb0, factors, upstream = self.case(rng, 0.3)
        other = rng.standard_normal(emb0.shape)
        upstream[0] = other[0] = 0.0
        earlier = rng.standard_normal(emb0.shape)
        emb = Tensor(emb0.copy(), requires_grad=True)
        emb.grad = earlier.copy()
        perturbation = collab.detached_perturbation(graph, factors) if passed_factors else None
        ids = np.arange(1, emb0.shape[0])
        orig_rows, ref_rows = collab.graph_representations(graph, emb, factors, layers, ids,
                                                           perturbation=perturbation)
        assert orig_rows.op == ref_rows.op == "gather"
        assert [p.op for p in orig_rows.node._parents + ref_rows.node._parents] == ["propagate"] * 2
        ad.backward(ad.add(weighted_sum(orig_rows, upstream[1:]),
                           weighted_sum(ref_rows, other[1:])))
        original = chain_reference(graph.matrix, emb0, None, None, 0.0, layers,
                                   upstream, earlier)
        refined = chain_reference(graph.matrix, emb0, factors.left.data, factors.right.data,
                                  0.3, layers, other, original[1])
        assert orig_rows.data.tobytes() == original[0][1:].tobytes()
        assert ref_rows.data.tobytes() == refined[0][1:].tobytes()
        for got, want in zip((emb.grad, factors.left.grad, factors.right.grad), refined[1:]):
            assert got.tobytes() == want.tobytes()

    def test_one_tape_node_per_representation(self, rng):
        graph, emb0, factors, upstream = self.case(rng, 0.3)
        emb = Tensor(emb0, requires_grad=True)
        ids = np.array([4, 1, 9])
        orig_rows, ref_rows = collab.graph_representations(graph, emb, factors, 3, ids)
        loss = ad.add(weighted_sum(orig_rows, upstream[ids]),
                      weighted_sum(ref_rows, upstream[ids]))
        # add, two weighted sums, two gathers, two propagations
        assert len(tape_nodes(loss)) == 7


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


class TestGraphRepresentationRows:
    """``graph_representations`` returns the batch items' rows of both
    representations, as ``gather`` over the two ``propagate`` tables did."""

    def case(self, rng, nodes=8, dim=3, strength=0.1):
        graph = random_graph(rng, nodes - 1)
        emb = Tensor(zero_pad_rows(rng, (nodes, dim)), requires_grad=True)
        factors = collab.init_factors(rng, nodes, rank=2, strength=strength)
        factors.left.data = rng.standard_normal((nodes, 2))
        factors.right.data = rng.standard_normal((nodes, 2))
        return graph, emb, factors

    @pytest.mark.parametrize("passed_factors", [False, True])
    def test_equals_gather_of_the_propagated_tables(self, rng, passed_factors):
        graph, emb, factors = self.case(rng)
        ids = np.array([3, 1, 7, 3])
        perturbation = collab.detached_perturbation(graph, factors) if passed_factors else None
        runs = []
        for routed in (True, False):
            for t in (emb, factors.left, factors.right):
                t.grad = None
            if routed:
                orig, refined = collab.graph_representations(graph, emb, factors, 2, ids,
                                                             perturbation=perturbation)
            else:
                orig = ad.gather(collab.propagate(graph, emb, 2), ids)
                refined = ad.gather(collab.propagate(graph, emb, 2, factors), ids)
            ad.backward(collab.gce_loss(orig, refined, tau=0.2))
            runs.append([a.tobytes() for a in (orig.data, refined.data, emb.grad,
                                               factors.left.grad, factors.right.grad)])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("strength", [0.0, 0.1])
    def test_dividing_by_one_more_layer_trains_the_same(self, rng, layers, strength):
        # gce_loss reads the layer averages only through a cosine, which is
        # scale-invariant: dividing both sums by L + 1 instead of L keeps the
        # loss, and the 1/c of the cosine's Jacobian cancels the c of the scale
        graph, emb, factors = self.case(rng, strength=strength)
        ids = np.array([3, 1, 7, 3, 5])
        runs = []
        for scale in (1.0, layers / (layers + 1)):
            for t in (emb, factors.left, factors.right):
                t.grad = None
            orig, refined = collab.graph_representations(graph, emb, factors, layers, ids)
            loss = collab.gce_loss(ad.mul(orig, scale), ad.mul(refined, scale), tau=0.2)
            ad.backward(loss)
            runs.append([loss.data, emb.grad, factors.left.grad, factors.right.grad])
        (loss_l, *grads_l), (loss_l1, *grads_l1) = runs
        np.testing.assert_allclose(loss_l1, loss_l, rtol=1e-12)
        for i, (got, want) in enumerate(zip(grads_l1, grads_l)):
            if i > 0 and strength == 0.0:  # the original graph: no factor gradient
                assert got is None and want is None
                continue
            assert np.abs(want).max() > 0.0
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_duplicate_ids_repeat_rows(self, rng):
        graph, emb, factors = self.case(rng)
        orig, _ = collab.graph_representations(graph, emb, factors, 2, np.array([2, 2]))
        np.testing.assert_array_equal(orig.data[0], orig.data[1])

    def test_padding_id_rejected(self, rng):
        graph, emb, factors = self.case(rng)
        with pytest.raises(ValueError, match="position 1"):
            collab.graph_representations(graph, emb, factors, 2, np.array([3, 0, 1]))

    def test_id_beyond_the_graph_rejected_before_propagation(self, rng, monkeypatch):
        graph, emb, factors = self.case(rng)
        products = []
        monkeypatch.setattr(TransitionGraph, "spmv", lambda self, x: products.append(x))
        with pytest.raises(ValueError, match=r"^graph_representations: id 8 at batch "
                                             r"position 2 is outside a graph of 8 nodes$"):
            collab.graph_representations(graph, emb, factors, 2, np.array([3, 7, 8, 9]))
        assert products == []

    def test_ids_must_be_one_list(self, rng):
        graph, emb, factors = self.case(rng)
        with pytest.raises(ad.ShapeMismatch, match=r"1D id list, got shape \[1, 2\]"):
            collab.graph_representations(graph, emb, factors, 2, np.array([[3, 1]]))

    def test_gradient_reaches_only_gathered_rows(self, rng):
        graph, emb, factors = self.case(rng)
        orig, refined = collab.graph_representations(graph, emb, factors, 2, np.array([1, 4]))
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
            orig, refined = collab.graph_representations(graph, emb, factors, 2,
                                                         np.array([1, 2, 3]))
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
