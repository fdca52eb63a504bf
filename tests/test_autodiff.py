import ast
import collections
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from graphseqrec import autodiff as ad
from graphseqrec.autodiff import (DegenerateRow, GraphConsumed, NotRecorded, ShapeMismatch,
                                  Tensor)
from graphseqrec import encoder as enc
from graphseqrec.config import ModelConfig
from graphseqrec.encoder import attention_mask
from graphseqrec.training import next_item_loss, seq_cl_loss

from conftest import check_grads, closure_arrays, total_sum, weighted_sum


def row_softmax(x, mask=None):
    """The masked row softmax inside :func:`ad.attention`, read on its own.

    With zero queries and keys, scale 1 and ``x`` (B, N, N) passed as
    ``rel_pe``, the logits are ``x`` exactly; identity values make the output
    the softmax weights, and ``x.grad`` is the softmax backward of the
    gradient that reaches the output.  No mask means every entry is visible.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    b, n, _ = x.shape
    zeros = Tensor(np.zeros((b, n, n)))
    eye = Tensor(np.broadcast_to(np.eye(n), (b, n, n)).copy())
    mask = np.ones((b, n, n), dtype=bool) if mask is None else mask
    return ad.attention(zeros, zeros, eye, mask, 1, 1.0, x)


class TestSoftmaxRows:
    """The masked row softmax of the attention node."""

    def test_uniform_row(self):
        out = row_softmax(np.zeros((1, 3, 3)))
        np.testing.assert_allclose(out.data, np.full((1, 3, 3), 1 / 3), atol=1e-15)

    def test_large_logit_no_overflow(self):
        out = row_softmax(np.array([[[1000.0, 0.0], [0.0, 1000.0]]]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data[0, 0, 0], 1.0)
        assert out.data[0, 0, 1] < 1e-300

    def test_single_unmasked_entry_is_one(self):
        mask = np.array([[[False, True, False], [True, True, True], [True, True, True]]])
        out = row_softmax(np.array([[[5.0, -77.0, 2.0], [0.0] * 3, [0.0] * 3]]), mask)
        np.testing.assert_array_equal(out.data[0, 0], [0.0, 1.0, 0.0])

    def test_fully_masked_row_raises(self):
        mask = np.ones((2, 3, 3), dtype=bool)
        mask[1, 2] = False
        with pytest.raises(DegenerateRow, match=r"attention: fully masked row at index \(1, 2\)"):
            row_softmax(np.zeros((2, 3, 3)), mask)

    def test_row_stochastic_under_random_masks(self, rng):
        for _ in range(20):
            x = rng.standard_normal((2, 6, 6)) * 5
            mask = rng.random((2, 6, 6)) < 0.6
            mask[..., 0] = True  # keep every row alive
            out = row_softmax(x, mask).data
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
            assert (out[~mask] == 0.0).all()
            assert (out >= 0.0).all()

    def test_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 5, 5)), requires_grad=True)
        mask = rng.random((2, 5, 5)) < 0.7
        mask[..., 2] = True
        w = rng.standard_normal((2, 5, 5))
        check_grads(lambda: weighted_sum(row_softmax(x, mask), w),
                    {"x": x})

    def test_masked_logit_far_above_the_row_max_stays_zero(self):
        # exp(1000 - 1) overflows; masked entries must still be exact zeros
        x = Tensor(np.zeros((1, 3, 3)), requires_grad=True)
        x.data[0, 0] = [0.0, 1000.0, 1.0]
        mask = np.ones((1, 3, 3), dtype=bool)
        mask[0, 0, 1] = False
        upstream = np.zeros((1, 3, 3))
        upstream[0, 0] = [1.0, 5.0, 2.0]
        with np.errstate(all="raise"):
            out = row_softmax(x, mask)
            ad.backward(weighted_sum(out, upstream))
        e = np.exp(np.array([0.0, 1.0]) - 1.0)
        assert out.data[0, 0].tobytes() == np.array([e[0] / e.sum(), 0.0, e[1] / e.sum()]).tobytes()
        assert np.isfinite(x.grad).all() and x.grad[0, 0, 1] == 0.0


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        ad.backward(total_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_half_squared_norm_gives_x(self, rng):
        data = rng.standard_normal((4, 4))
        data += data.T
        x = Tensor(data.copy(), requires_grad=True)
        # x · x is the trace of one x @ x product for a symmetric x: x reaches
        # the loss twice, as the input and as the weight
        square = ad.linear(x, x, Tensor(np.zeros(4)))
        ad.backward(ad.mul(weighted_sum(square, np.eye(4)), 0.5))
        np.testing.assert_allclose(x.grad, data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeMismatch):
            ad.backward(Tensor(np.zeros(3), requires_grad=True))

    def test_shared_subexpression_accumulates_once_per_use(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = ad.mul(x, 3.0)
        loss = total_sum(ad.add(y, y))  # d/dx (3x + 3x) = 6
        ad.backward(loss)
        assert float(x.grad) == 6.0

    def test_add_hands_its_gradient_to_the_second_operand(self, rng):
        a, b = leaves(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)))
        out = ad.add(a, b)
        seen = []
        closure = out._backward
        out._backward = lambda g: (seen.append(g), closure(g))
        upstream = rng.standard_normal((2, 3))
        ad.backward(weighted_sum(out, upstream))
        assert a.grad.tobytes() == b.grad.tobytes() == upstream.tobytes()
        assert np.shares_memory(b.grad, seen[0])  # adopted, not copied
        assert not np.shares_memory(a.grad, seen[0])

    def test_first_gradient_is_an_owned_copy(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = np.arange(6.0).reshape(3, 2)
        ad._accumulate(x, g.T)  # a view of an array the caller keeps
        g[:] = -1.0
        ad._accumulate(x, np.ones((2, 3)))
        np.testing.assert_array_equal(x.grad, np.arange(6.0).reshape(3, 2).T + 1.0)

    def test_fresh_gradient_is_adopted_only_when_laid_out_like_the_tensor(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        fresh = np.ones((2, 3))
        ad._accumulate(x, fresh, fresh=True)
        assert x.grad is fresh
        y = Tensor(np.zeros((2, 3)), requires_grad=True)
        transposed = np.ones((3, 2)).T  # fresh, but not C-contiguous
        ad._accumulate(y, transposed, fresh=True)
        assert y.grad is not transposed and y.grad.flags.c_contiguous
        z = Tensor(np.zeros(3), requires_grad=True)
        ints = np.arange(3)  # fresh, but not float64
        ad._accumulate(z, ints, fresh=True)
        assert z.grad.dtype == np.float64

    def test_gradient_of_another_shape_rejected(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ShapeMismatch, match=r"gradient of shape \[3\].*\[2, 3\]"):
            ad._accumulate(x, np.ones(3))

    def test_determinism_same_seed_bitwise(self):
        def run():
            r = np.random.default_rng(7)
            x = Tensor(r.standard_normal((8, 8)), requires_grad=True)
            w = Tensor(r.standard_normal((8, 8)), requires_grad=True)
            loss = total_sum(ad.tanh(ad.linear(x, w, Tensor(np.zeros(8)))))
            ad.backward(loss)
            return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()

    def test_second_backward_on_the_same_loss_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = total_sum(ad.mul(x, 2.0))
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        with pytest.raises(GraphConsumed, match="'sum'"):
            ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))  # untouched

    def test_new_loss_through_a_consumed_node_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ad.mul(x, 2.0)
        ad.backward(total_sum(y))
        with pytest.raises(GraphConsumed, match="'mul'"):
            ad.backward(total_sum(ad.tanh(y)))

    def test_leaf_grad_sums_over_separate_passes(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ad.backward(total_sum(ad.mul(w, 3.0)))
        ad.backward(weighted_sum(w, 2.0 * w.data))
        np.testing.assert_array_equal(w.grad, 3.0 + 2.0 * w.data)

    def test_no_interior_node_keeps_a_grad(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        h = ad.linear(x, w, Tensor(np.zeros(2)))
        a = ad.tanh(h)
        loss = weighted_sum(a, rng.standard_normal((3, 2)))
        ad.backward(loss)
        assert [t.grad for t in (h, a, loss)] == [None, None, None]
        assert x.grad is not None and w.grad is not None

    def test_peak_memory_does_not_grow_with_depth(self):
        # 30 elementwise nodes on a 200x1000 leaf: holding one gradient per
        # node would need ~30 arrays at the peak; consuming the tape as it is
        # walked needs a few (the node's gradient, a temporary, its parent's)
        x = Tensor(np.random.default_rng(3).standard_normal((200, 1000)), requires_grad=True)
        shift = Tensor(0.1)
        y = x
        for _ in range(10):
            y = ad.tanh(ad.add(ad.mul(y, 0.5), shift))
        loss = total_sum(y)
        del y
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = (peak - before) / x.data.nbytes
        assert arrays <= 6.0, f"backward peaked at {arrays:.1f} arrays above its start"

    def test_forward_memory_does_not_grow_with_depth(self):
        # 30 add/mul nodes on a 200x1000 leaf, intermediates dropped: no
        # backward reads an add or mul output, so the forward holds none of them
        x = Tensor(np.random.default_rng(3).standard_normal((200, 1000)), requires_grad=True)
        shift = Tensor(0.1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = x
            for _ in range(15):
                y = ad.add(ad.mul(y, 0.5), shift)
            loss = total_sum(y)
            del y
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = (held - before) / x.data.nbytes
        assert arrays <= 1.0, f"the forward holds {arrays:.1f} arrays"
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 0.5 ** 15))


class TestLifetime:
    """A node keeps the arrays its backward reads and no output of its own."""

    def test_an_output_no_backward_reads_dies_with_its_tensor(self, rng):
        x, y = leaves(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        s = ad.add(x, y)
        out = ad.tanh(s)  # tanh's backward reads its own output, not its input
        ref, node = weakref.ref(s.data), s.node
        assert node.data is s.data
        del s
        assert ref() is None
        assert node.data.size == 0
        ad.backward(total_sum(out))
        np.testing.assert_array_equal(x.grad, 1.0 - out.data * out.data)

    @pytest.mark.parametrize("saver", ["relu", "linear"])
    def test_a_saved_array_lives_until_its_closure_has_run(self, rng, saver):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        h = ad.mul(x, 2.0)
        if saver == "relu":  # relu's backward reads its mask of positive outputs
            out = ad.relu(h)
            [mask] = [arr for arr in closure_arrays(out.node._backward) if arr.dtype == bool]
            ref = weakref.ref(mask)
            del mask
        else:  # linear's backward reads its input
            out = ad.linear(h, Tensor(rng.standard_normal((4, 2))), Tensor(np.zeros(2)))
            ref = weakref.ref(h.data)
        loss = total_sum(out)
        alive = []
        # the saver's closure runs before mul's, the last one
        for node in (out.node, h.node):
            closure = node._backward
            node._backward = lambda g, closure=closure: (alive.append(ref() is not None),
                                                         closure(g))
        del h, out
        assert ref() is not None
        ad.backward(loss)
        assert alive == [True, False]
        assert ref() is None

    def test_nothing_stays_pinned_after_backward(self, rng):
        x, w, v, gain = leaves(rng.standard_normal((2, 5, 4)), rng.standard_normal((4, 4)),
                               rng.standard_normal((2, 5, 5)), np.ones(4))
        zeros, half = Tensor(np.zeros(4)), Tensor(0.5)
        scalars = Tensor(rng.standard_normal((2, 1)), requires_grad=True)
        mask = attention_mask(np.array([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]]))
        readout = np.array([4, 3])
        a = ad.layer_norm(ad.add(x, half), gain, zeros)
        q = ad.linear(a, w, zeros)
        rel_pe = ad.per_sample_scale(scalars, v.data)
        h = ad.add(a, ad.dropout(ad.attention(q, q, q, mask, 2, 0.5, rel_pe), 0.3, rng))
        f = ad.relu(ad.linear(h, w, zeros))
        # a readout query row per sequence, as the last encoder layer runs it
        rows = ad.attention(ad.select_positions(f, readout), f, f, mask[np.arange(2), readout],
                            2, 0.5, ad.select_positions(rel_pe, readout))
        loss = ad.cosine_info_nce(rows, ad.tanh(ad.mul(ad.gather(w, [0, 2]), 2.0)), 0.5)
        del a, q, rel_pe, h, f, rows, readout
        # the leaves' arrays and the loss value stay with their tensors
        kept = {id(t.data) for t in (x, w, v, gain, zeros, half, scalars, loss)}
        refs, seen, stack = [], set(), [loss.node]
        while stack:
            node = stack.pop()
            if node.op == "leaf" or id(node) in seen:
                continue
            seen.add(id(node))
            refs += [weakref.ref(arr) for arr in (node.data, *closure_arrays(node._backward),
                                                  *closure_arrays(node._rebuild))
                     if arr.size and id(arr) not in kept]
            stack.extend(node._parents)
        assert len(seen) == 16 and len(refs) > 16
        assert any(ref() is not None for ref in refs)
        ad.backward(loss)
        assert [ref for ref in refs if ref() is not None] == []
        assert all(t.grad is not None for t in (x, w, gain, scalars))



HEAP_PROBE = """
import ctypes
import numpy as np
import graphseqrec

class Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

try:
    mallinfo2 = ctypes.CDLL(None).mallinfo2
except AttributeError:
    raise SystemExit(77)
mallinfo2.restype = Info
block = np.ones(20 << 17)  # 20 MiB
cut_from_heap = mallinfo2().hblkhd < block.nbytes
del block
print(cut_from_heap, mallinfo2().arena >= 20 << 20)
"""


def test_a_freed_block_stays_in_the_heap_for_the_next_step():
    # a fresh process, so no earlier allocation has moved glibc's thresholds
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode == 77:
        pytest.skip("needs glibc's mallinfo2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]

def test_closure_arrays_sees_what_a_captured_function_captured():
    inner_array, default_array = np.ones(3), np.zeros(2)

    def inner():
        return inner_array

    def closure(g, default=default_array):
        return inner()

    assert {id(a) for a in closure_arrays(closure)} == {id(inner_array), id(default_array)}
    assert closure_arrays(None) == []


class TestNotRecorded:
    """An op records a node exactly when one of its inputs requires a
    gradient; a forward over detached tensors builds no tape."""

    def test_backward_on_a_constant_output_raises(self):
        with pytest.raises(NotRecorded, match="'sum'"):
            ad.backward(total_sum(ad.mul(Tensor(np.ones(3)), 2.0)))

    def test_backward_on_a_detached_forward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = total_sum(ad.tanh(ad.mul(Tensor(x.data), 2.0)))
        assert not loss.requires_grad and loss.node is None
        with pytest.raises(NotRecorded, match="'sum'"):
            ad.backward(loss)
        assert x.grad is None

    def test_detached_values_match_the_recorded_forward_bitwise(self, rng, monkeypatch):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)

        def forward(x, w):
            h = ad.linear(x, w, Tensor(np.zeros(3)))
            return ad.cosine_info_nce(ad.tanh(h), h, 0.5, symmetric=True).data.tobytes()

        recorded = forward(x, w)
        nodes = []
        monkeypatch.setattr(ad, "Node", lambda *args: nodes.append(args))
        assert forward(Tensor(x.data), Tensor(w.data)) == recorded
        assert nodes == []


class TestDeferred:
    """Within ``deferred(leaves)`` a thread records its additions into those
    leaves' gradients; ``replay`` adds them later, bit for bit as if they had
    been added then."""

    @staticmethod
    def losses(rng):
        table, w, x = leaves(rng.standard_normal((6, 4)), rng.standard_normal((4, 4)),
                             rng.standard_normal((3, 4)))
        free = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        t = ad.tanh(ad.linear(ad.gather(table, [[1, 2], [2, 5], [1, 1]]), w, Tensor(np.zeros(4))))
        rows = ad.select_positions(t, [0, 1, 1])
        # add hands x a view of its incoming gradient, which rows adopts and
        # mul's closure adds into afterwards
        first = ad.add(total_sum(ad.add(x, rows)),
                       weighted_sum(ad.mul(rows, 2.0), rng.standard_normal((3, 4))))
        second = ad.add(weighted_sum(ad.gather(table, [4, 1, 4]), rng.standard_normal((3, 4))),
                        total_sum(ad.tanh(ad.add(ad.linear(x, w, Tensor(np.zeros(4))), free))))
        return (table, w, x), free, first, second

    def test_replayed_additions_match_direct_ones_bitwise(self):
        params, free, first, second = self.losses(np.random.default_rng(3))
        ad.backward(first)
        ad.backward(second)
        direct = [t.grad.tobytes() for t in (*params, free)]
        params, free, first, second = self.losses(np.random.default_rng(3))
        ad.backward(first)
        after_first = [t.grad.copy() for t in params]
        with ad.deferred(params) as log:
            ad.backward(second)
        # the deferred leaves are untouched; any other tensor accumulates as usual
        assert [t.grad.tobytes() for t in params] == [g.tobytes() for g in after_first]
        assert free.grad.tobytes() == direct[3]
        assert {id(t) for t, _, _ in log} == {id(t) for t in params}
        ad.replay(log)
        assert [t.grad.tobytes() for t in params] == direct[:3]

    def test_a_first_addition_replays_onto_no_gradient(self):
        params, _, first, _ = self.losses(np.random.default_rng(3))
        ad.backward(first)
        direct = [t.grad.tobytes() for t in params]
        params, _, first, _ = self.losses(np.random.default_rng(3))
        with ad.deferred(params) as log:
            ad.backward(first)
        assert all(t.grad is None for t in params)
        ad.replay(log)
        assert [t.grad.tobytes() for t in params] == direct

    def test_the_scope_belongs_to_its_thread(self):
        params, _, first, _ = self.losses(np.random.default_rng(3))
        done = []
        with ad.deferred(params) as log:
            worker = threading.Thread(target=lambda: (ad.backward(first), done.append(True)))
            worker.start()
            worker.join()
        assert done == [True] and log == []
        assert all(t.grad is not None for t in params)

    def test_a_scope_restores_the_one_it_was_opened_in(self):
        params, _, first, second = self.losses(np.random.default_rng(3))
        with ad.deferred(params[:1]) as outer:
            with ad.deferred(params[1:]):
                pass
            ad.backward(first)
        assert {id(t) for t, _, _ in outer} == {id(params[0])}
        assert params[0].grad is None and params[1].grad is not None


class TestElementwiseGradients:
    def test_unary_ops(self, rng):
        # softplus and negation live inside sampled_bce: test_sum_axis_gradient
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = rng.standard_normal((3, 4))
        check_grads(lambda: weighted_sum(ad.tanh(x), w), {"x": x})

    def test_relu_away_from_kink(self, rng):
        data = rng.uniform(0.05, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
        x = Tensor(data, requires_grad=True)
        w = rng.standard_normal((3, 4))
        check_grads(lambda: weighted_sum(ad.relu(x), w), {"x": x})

    def test_add_broadcast_bias(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        p = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grads(lambda: total_sum(ad.add(ad.add(x, b), p)),
                    {"x": x, "b": b, "p": p}, rtol=1e-6)

    def test_mul_takes_a_number_only(self):
        with pytest.raises(TypeError):
            ad.mul(Tensor(np.ones(3)), Tensor(np.ones(3)))

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ShapeMismatch):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
        # numpy would expand the size-1 axis; no caller in the package does
        with pytest.raises(ShapeMismatch, match=r"shapes \[2, 1\] and \[2, 3\]"):
            ad.add(Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeMismatch, match=r"shapes \[3\] and \[1\]"):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(1)))

    def test_a_0d_operand_broadcast_over_a_larger_one_gets_an_ndarray_gradient(self, rng):
        x, s = leaves(rng.standard_normal((2, 3)), np.array(0.5))
        ad.backward(total_sum(ad.add(x, s)))
        assert type(s.grad) is np.ndarray and s.grad.shape == () and s.grad == 6.0

    def test_add_of_scalars_records_an_array_held_weakly(self):
        a, b = leaves(np.array(1.5), np.array(2.0))
        out = ad.add(a, b)
        assert type(out.data) is np.ndarray and out.data.shape == ()
        node = out.node
        assert node.data is out.data
        del out
        assert node.data.size == 0  # the node held it weakly


def unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


class TestRowOps:
    """The row ops inside :func:`ad.cosine_info_nce`: the row logsumexp, the
    unit rows and the diagonal of its logits, read through the node."""

    def test_logsumexp_matches_naive(self, rng):
        a, c = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        tau = 0.03  # logits up to +-33
        logits = unit(a) @ unit(c).T / tau
        naive = [np.log(np.exp(x).sum(axis=-1)).sum() - np.trace(x) for x in (logits, logits.T)]
        one_way = float(ad.cosine_info_nce(Tensor(a), Tensor(c), tau).data)
        both = float(ad.cosine_info_nce(Tensor(a), Tensor(c), tau, symmetric=True).data)
        np.testing.assert_allclose(one_way, naive[0], rtol=1e-12)
        np.testing.assert_allclose(both, (naive[0] + naive[1]) / 2, rtol=1e-12)

    def test_logsumexp_single_element_exact(self, rng):
        # a one-entry row's logsumexp is that entry exactly, so the loss is 0
        a, c = Tensor(rng.standard_normal((1, 5))), Tensor(rng.standard_normal((1, 5)))
        for symmetric in (False, True):
            assert float(ad.cosine_info_nce(a, c, 0.3, symmetric).data) == 0.0

    def test_logsumexp_gradient(self, rng):
        a = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        for symmetric in (False, True):
            check_grads(lambda: ad.cosine_info_nce(a, c, 0.4, symmetric), {"a": a, "c": c})

    def test_unit_rows_normalizes(self, rng):
        a, c = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        base = float(ad.cosine_info_nce(Tensor(a), Tensor(c), 0.2).data)
        scaled = float(ad.cosine_info_nce(Tensor(a * rng.uniform(0.1, 9.0, (5, 1))),
                                          Tensor(c * rng.uniform(0.1, 9.0, (5, 1))), 0.2).data)
        np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_unit_rows_zero_row_raises(self):
        data = np.ones((3, 2))
        data[1] = 0.0
        with pytest.raises(DegenerateRow, match=r"zero-norm anchor row at index \(1,\)"):
            ad.cosine_info_nce(Tensor(data), Tensor(np.ones((3, 2))), 1.0)
        with pytest.raises(DegenerateRow, match=r"zero-norm candidate row at index \(1,\)"):
            ad.cosine_info_nce(Tensor(np.ones((3, 2))), Tensor(data), 1.0)

    def test_unit_rows_gradient(self, rng):
        a = Tensor(rng.uniform(0.5, 1.5, (4, 3)) * [[1.0], [4.0], [0.2], [2.0]],
                   requires_grad=True)
        c = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        check_grads(lambda: ad.cosine_info_nce(a, c, 0.5), {"a": a, "c": c})
        # the loss ignores row scale, so each row's gradient is orthogonal to it
        np.testing.assert_allclose((a.data * a.grad).sum(axis=-1), 0.0, atol=1e-12)

    def test_diagonal_gradient(self, rng):
        # identical views: the diagonal holds every row's largest logit
        a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        c = Tensor(a.data.copy(), requires_grad=True)
        for symmetric in (False, True):
            check_grads(lambda: ad.cosine_info_nce(a, c, 0.5, symmetric), {"a": a, "c": c})
            # one row: the diagonal's gradient cancels the logsumexp's exactly
            one = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
            ad.backward(ad.cosine_info_nce(one, Tensor(rng.standard_normal((1, 4))), 0.5,
                                           symmetric))
            assert not one.grad.any()


class TestIndexingOps:
    def test_gather_rows_and_gradient_isolation(self, rng):
        table = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        ids = np.array([[1, 1], [4, 0]])
        out = ad.gather(table, ids)
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.data[0, 0], table.data[1])
        ad.backward(total_sum(out))
        np.testing.assert_array_equal(table.grad[1], np.full(3, 2.0))  # gathered twice
        np.testing.assert_array_equal(table.grad[2], np.zeros(3))  # untouched row

    def test_gather_gradient_fd(self, rng):
        table = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        ids = np.array([0, 2, 2, 4])
        w = rng.standard_normal((4, 3))
        check_grads(lambda: weighted_sum(ad.gather(table, ids), w),
                    {"table": table}, rtol=1e-6)

    def test_select_positions(self, rng):
        x = Tensor(rng.standard_normal((3, 5, 2)), requires_grad=True)
        pos = np.array([4, 0, 2])
        out = ad.select_positions(x, pos)
        np.testing.assert_array_equal(out.data[1], x.data[1, 0])
        check_grads(lambda: total_sum(ad.select_positions(x, pos)), {"x": x}, rtol=1e-6)


class TestAttention:
    def test_gradient_vs_finite_differences(self, rng):
        seqs = np.array([[0, 2, 3, 1], [4, 1, 2, 6]])
        mask = attention_mask(seqs)
        q, k, v = (Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True) for _ in range(3))
        rel_pe = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
        w = rng.standard_normal((2, 4, 6))
        check_grads(lambda: weighted_sum(ad.attention(q, k, v, mask, 2, 0.5, rel_pe), w),
                    {"q": q, "k": k, "v": v, "rel_pe": rel_pe}, rtol=1e-6)

    @pytest.mark.parametrize("rows", [[[0], [2]], [[0, 3], [1, 2]]])
    @pytest.mark.parametrize("with_rel_pe", [False, True])
    def test_fewer_queries_than_keys_gradients(self, rng, rows, with_rel_pe):
        # M = 1 and 1 < M < N query rows per sequence, against N = 4 keys;
        # row 0 of [0, 2, 3, 1] is padding and keeps only its diagonal
        seqs = np.array([[0, 2, 3, 1], [4, 1, 2, 6]])
        rows = np.array(rows)
        mask = attention_mask(seqs)[np.arange(2)[:, None], rows]
        m = rows.shape[1]
        assert mask[0, 0].sum() == 1
        q = Tensor(rng.standard_normal((2, m, 6)), requires_grad=True)
        k, v = (Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True) for _ in range(2))
        tensors = {"q": q, "k": k, "v": v}
        rel_pe = None
        if with_rel_pe:
            rel_pe = tensors["rel_pe"] = Tensor(rng.standard_normal((2, m, 4)), requires_grad=True)
        w = rng.standard_normal((2, m, 6))
        out = ad.attention(q, k, v, mask, 2, 0.5, rel_pe)
        assert out.shape == (2, m, 6)
        check_grads(lambda: weighted_sum(ad.attention(q, k, v, mask, 2, 0.5, rel_pe), w),
                    tensors, rtol=1e-6)

    def test_query_rows_are_rows_of_full_attention(self, rng):
        seqs = np.array([[0, 2, 3, 1], [4, 1, 2, 6]])
        full_mask = attention_mask(seqs)
        x = Tensor(rng.standard_normal((2, 4, 6)))
        rel = Tensor(rng.standard_normal((2, 4, 4)))
        full = ad.attention(x, x, x, full_mask, 2, 0.5, rel).data
        rows = np.array([[0, 3], [1, 2]])
        pick = (np.arange(2)[:, None], rows)
        got = ad.attention(Tensor(x.data[pick]), x, x, full_mask[pick], 2, 0.5,
                           Tensor(rel.data[pick])).data
        np.testing.assert_allclose(got, full[pick], rtol=0.0, atol=4e-15)

    def test_fewer_queries_shape_errors_name_both_shapes(self):
        q = Tensor(np.zeros((2, 1, 4)))
        kv = Tensor(np.zeros((2, 3, 4)))
        mask = np.ones((2, 1, 3), dtype=bool)
        with pytest.raises(ShapeMismatch, match=r"mask shape \[2, 3, 3\] != logits shape \[2, 1, 3\]"):
            ad.attention(q, kv, kv, np.ones((2, 3, 3), dtype=bool), 2, 1.0)
        with pytest.raises(ShapeMismatch, match=r"rel_pe shape \[2, 3, 3\] != logits shape \[2, 1, 3\]"):
            ad.attention(q, kv, kv, mask, 2, 1.0, Tensor(np.zeros((2, 3, 3))))
        with pytest.raises(ShapeMismatch, match=r"q \[2, 1, 4\], k \[2, 3, 4\] and v \[2, 2, 4\]"):
            ad.attention(q, kv, Tensor(np.zeros((2, 2, 4))), mask, 2, 1.0)
        with pytest.raises(ShapeMismatch, match=r"q \[3, 1, 4\], k \[2, 3, 4\]"):
            ad.attention(Tensor(np.zeros((3, 1, 4))), kv, kv, mask, 2, 1.0)
        rows = Tensor(np.zeros((2, 4)))  # one query row per sequence
        with pytest.raises(ShapeMismatch, match=r"mask shape \[2, 1, 3\] != logits shape \[2, 3\]"):
            ad.attention(rows, kv, kv, mask, 2, 1.0)
        with pytest.raises(ShapeMismatch, match=r"rel_pe shape \[2, 1, 3\] != logits shape \[2, 3\]"):
            ad.attention(rows, kv, kv, mask[:, 0], 2, 1.0, Tensor(np.zeros((2, 1, 3))))
        with pytest.raises(ShapeMismatch, match=r"q \[2, 5\], k \[2, 3, 4\]"):
            ad.attention(Tensor(np.zeros((2, 5))), kv, kv, mask[:, 0], 2, 1.0)

    def test_fully_masked_row_names_its_index(self):
        x = Tensor(np.zeros((2, 3, 4)))
        mask = np.ones((2, 3, 3), dtype=bool)
        mask[1, 0] = False
        with pytest.raises(DegenerateRow, match=r"\(1, 0\)"):
            ad.attention(x, x, x, mask, 2, 1.0)

    def test_shape_errors_name_both_shapes(self):
        x = Tensor(np.zeros((2, 3, 4)))
        mask = np.ones((2, 3, 3), dtype=bool)
        with pytest.raises(ShapeMismatch, match=r"q \[2, 3, 4\], k \[2, 5, 4\]"):
            ad.attention(x, Tensor(np.zeros((2, 5, 4))), x, mask, 2, 1.0)
        with pytest.raises(ShapeMismatch, match=r"mask shape \[2, 3, 4\] != logits shape \[2, 3, 3\]"):
            ad.attention(x, x, x, np.ones((2, 3, 4), dtype=bool), 2, 1.0)
        with pytest.raises(ShapeMismatch, match=r"rel_pe shape \[3, 3\] != logits shape \[2, 3, 3\]"):
            ad.attention(x, x, x, mask, 2, 1.0, Tensor(np.zeros((3, 3))))
        with pytest.raises(ShapeMismatch, match="width 4 does not split into 3 heads"):
            ad.attention(x, x, x, mask, 3, 1.0)


class TestStructuredOps:
    def test_per_sample_scale_values(self, rng):
        mats = rng.standard_normal((3, 4, 4))
        s = Tensor(np.array([[2.0], [0.0], [-1.0]]), requires_grad=True)
        out = ad.per_sample_scale(s, mats)
        np.testing.assert_array_equal(out.data[0], 2.0 * mats[0])
        np.testing.assert_array_equal(out.data[1], np.zeros((4, 4)))
        check_grads(lambda: total_sum(ad.per_sample_scale(s, mats)), {"s": s}, rtol=1e-6)

    def test_layer_norm_statistics(self, rng):
        x = Tensor(rng.standard_normal((4, 8)) * 3 + 1)
        g = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        out = ad.layer_norm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-4)

    def test_layer_norm_gradients(self, rng):
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
        b = Tensor(rng.standard_normal(6), requires_grad=True)
        w = rng.standard_normal((3, 6))
        check_grads(lambda: weighted_sum(ad.layer_norm(x, g, b), w),
                    {"x": x, "g": g, "b": b})

    def test_dropout_identity_when_disabled(self, rng):
        x = Tensor(rng.standard_normal((3, 3)))
        assert ad.dropout(x, 0.0, rng) is x
        assert ad.dropout(x, 0.5, None) is x

    def test_dropout_gradient_with_fixed_mask(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 4)), requires_grad=True)
        check_grads(lambda: total_sum(
            ad.dropout(x, 0.5, np.random.default_rng(99))), {"x": x}, rtol=1e-6)

    def test_dropout_matches_the_float_mask_bitwise(self, rng):
        x = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
        w = rng.standard_normal((5, 7))
        drawn = np.random.default_rng(41)
        out = ad.dropout(x, 0.3, drawn)
        ad.backward(weighted_sum(out, w))
        reference = np.random.default_rng(41)
        keep = (reference.random(x.shape) >= 0.3) / (1.0 - 0.3)
        assert out.data.tobytes() == (x.data * keep).tobytes()
        assert x.grad.tobytes() == (w * keep).tobytes()
        assert drawn.random() == reference.random()  # same draws consumed

    def test_dropout_rows_keep_the_full_draw(self, rng):
        # rows (n, positions): the (B, d) input is one row of a (B, n, d)
        # activation, and gets that row's mask from the full-shape draw
        full = Tensor(rng.standard_normal((3, 4, 5)))
        pos = np.array([3, 0, 2])
        x = Tensor(full.data[np.arange(3), pos], requires_grad=True)
        drawn, reference = np.random.default_rng(41), np.random.default_rng(41)
        out = ad.dropout(x, 0.3, drawn, (4, pos))
        want = ad.dropout(full, 0.3, reference).data[np.arange(3), pos]
        assert out.data.tobytes() == want.tobytes()
        assert drawn.bit_generator.state == reference.bit_generator.state
        check_grads(lambda: total_sum(ad.dropout(x, 0.3, np.random.default_rng(5), (4, pos))),
                    {"x": x}, rtol=1e-6)

    def test_sum_axis_gradient(self, rng):
        # sampled_bce: last-axis sums into logits, the negated positive
        # logit and softplus on both sides of zero (logits up to ~+-10)
        hidden, positive, negative = leaves(*(rng.standard_normal((2, 3, 4)) * 1.6
                                              for _ in range(3)))
        mask = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        check_grads(lambda: ad.sampled_bce(hidden, positive, negative, mask),
                    {"hidden": hidden, "positive": positive, "negative": negative})
        assert not positive.grad[0, 1].any() and not negative.grad[1, 2].any()


# ---------------------------------------------------------------------------
# the allocation-lean ops against the formulas they replaced, bit for bit
# ---------------------------------------------------------------------------

def leaves(*arrays):
    return [Tensor(a.copy(), requires_grad=True) for a in arrays]


def layer_norm_reference(x, gain, bias, eps, g):
    width = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gain + bias
    d_gain = (g * xhat).reshape(-1, width).sum(axis=0)
    d_bias = g.reshape(-1, width).sum(axis=0)
    gh = g * gain
    m1 = gh.mean(axis=-1, keepdims=True)
    m2 = (gh * xhat).mean(axis=-1, keepdims=True)
    d_x = inv * (gh - m1 - xhat * m2)
    return out, d_x, d_gain, d_bias


def softmax_rows_reference(x, mask, g):
    if mask is not None:
        rowmax = np.where(mask, x, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(x - rowmax) * mask
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    inner = (g * out).sum(axis=-1, keepdims=True)
    return out, out * (g - inner)


def attention_reference(q, k, v, mask, heads, scale, rel_pe, g):
    """The per-head chain in plain numpy: copied column blocks, logits,
    masked softmax, weighted values and concatenation, then each head's
    backward; ``rel_pe``'s gradient sums the heads in ascending order."""
    dh = q.shape[-1] // heads
    outs = []
    grads = [np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)]
    d_rel = None
    for i in range(heads):
        cols = slice(i * dh, (i + 1) * dh)
        qh, kh, vh, gh = (a[..., cols].copy() for a in (q, k, v, g))
        logits = (qh @ np.swapaxes(kh, -1, -2)) * scale
        if rel_pe is not None:
            logits = logits + rel_pe
        logits = np.where(mask, logits, -np.inf)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        outs.append(w @ vh)
        gw = gh @ np.swapaxes(vh, -1, -2)
        gx = (gw - (gw * w).sum(axis=-1, keepdims=True)) * w
        gs = gx * scale
        grads[0][..., cols] = gs @ kh
        grads[1][..., cols] = np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2)
        grads[2][..., cols] = np.swapaxes(w, -1, -2) @ gh
        d_rel = gx if d_rel is None else d_rel + gx
    return np.concatenate(outs, axis=-1), grads, d_rel


def gather_backward_reference(num_rows, ids, g):
    """The dense scatter: a zero table plus np.add.at over every id."""
    gt = np.zeros((num_rows, g.shape[-1]))
    np.add.at(gt, np.asarray(ids).ravel(), g.reshape(-1, g.shape[-1]))
    return gt


def sigmoid_reference(x):
    with np.errstate(over="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def sampled_bce_reference(hidden, positive, negative, mask, g):
    """The deleted chain of ``next_item_loss`` and its backward: mul and
    sum_axis into logits, neg, softplus, add, mul by the mask, total_sum."""
    pos_logit = (hidden * positive).sum(axis=2)
    neg_logit = (hidden * negative).sum(axis=2)
    per_step = np.logaddexp(0.0, -pos_logit) + np.logaddexp(0.0, neg_logit)
    value = np.asarray((per_step * mask).sum())
    g_step = np.full(mask.shape, g) * mask
    g_pos = np.broadcast_to(-(g_step * sigmoid_reference(-pos_logit))[..., None], hidden.shape)
    g_neg = np.broadcast_to((g_step * sigmoid_reference(neg_logit))[..., None], hidden.shape)
    d_hidden = g_pos * positive + g_neg * negative
    return value, d_hidden, g_pos * hidden, g_neg * hidden


def info_nce_reference(logits, g):
    """The deleted ``info_nce(logits)``: total_sum(logsumexp_rows) plus
    neg(total_sum(diagonal)), and the gradient ``g`` sends to ``logits``."""
    rowmax = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - rowmax)
    s = e.sum(axis=-1, keepdims=True)
    value = (np.asarray((rowmax + np.log(s)).squeeze(-1).sum())
             + -np.asarray(np.diagonal(logits).copy().sum()))
    n = logits.shape[0]
    return value, np.full((n, 1), g) * (e / s) + np.diag(np.full(n, -g))


def cosine_info_nce_reference(anchors, candidates, tau, symmetric, g):
    """The deleted ``cosine_logits`` (unit_rows, transpose, matmul, mul by
    1/tau) under ``info_nce``, or, symmetric, the mean of ``info_nce`` on the
    logits and on their transpose; forward and backward."""
    norms_a = np.linalg.norm(anchors, axis=-1, keepdims=True)
    norms_c = np.linalg.norm(candidates, axis=-1, keepdims=True)
    ua, uc = anchors / norms_a, candidates / norms_c
    logits = (ua @ np.swapaxes(uc, -1, -2)) * (1.0 / tau)
    if symmetric:
        h = g * 0.5
        value, d_logits = info_nce_reference(logits, h)
        value_t, d_logits_t = info_nce_reference(np.swapaxes(logits, -1, -2), h)
        value = (value + value_t) * 0.5
        # logsumexp and diagonal first, then the transposed direction
        d_logits = d_logits + np.swapaxes(d_logits_t, -1, -2)
    else:
        value, d_logits = info_nce_reference(logits, g)
    d_logits = d_logits * (1.0 / tau)
    d_ua = d_logits @ uc
    d_uc = np.swapaxes(np.swapaxes(ua, -1, -2) @ d_logits, -1, -2).copy()

    def unit_rows_backward(grad, unit, norms):
        return (grad - unit * (grad * unit).sum(axis=-1, keepdims=True)) / norms

    return value, unit_rows_backward(d_ua, ua, norms_a), unit_rows_backward(d_uc, uc, norms_c)


def info_nce_case(rng, case):
    """(anchors, candidates, tau) for one named bitwise case."""
    # "ragged" is a 500-user epoch's last batch at batch size 256: at that
    # size OpenBLAS rounds glᵀ @ ua unlike ((uaᵀ) @ gl)ᵀ, on 1 or 2 threads
    b, d, tau = {"random": (8, 16, 0.2), "wide": (40, 64, 0.2), "ragged": (244, 64, 0.2),
                 "saturated": (12, 6, 0.02), "batch_of_one": (1, 5, 0.2),
                 "identical_views": (9, 7, 0.1)}[case]
    anchors = rng.standard_normal((b, d))
    candidates = rng.standard_normal((b, d))
    if case == "identical_views":
        candidates = anchors.copy()
    if case == "saturated":  # cosines of exactly +-1: logits of +-50
        candidates = anchors[rng.permutation(b)] * rng.choice([-2.0, 3.0], (b, 1))
    return anchors, candidates, tau


def layer_norm_peak_arrays(x, gain, bias):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.layer_norm(x, gain, bias, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return (peak - before) / x.data.nbytes


class TestBitwiseAgainstOldFormulas:
    @pytest.mark.parametrize("x_shape", [(7, 5), (4, 6, 5)])
    def test_linear_equals_matmul_plus_add(self, rng, x_shape):
        x0, w0, b0 = rng.standard_normal(x_shape), rng.standard_normal((5, 3)), rng.standard_normal(3)
        upstream = rng.standard_normal(x_shape[:-1] + (3,))
        x, w, b = leaves(x0, w0, b0)
        out = ad.linear(x, w, b)
        ad.backward(weighted_sum(out, upstream))
        # the deleted matmul and add nodes, forward and backward
        ref = x0 @ w0 + b0
        d_x = upstream @ np.swapaxes(w0, -1, -2)
        d_w = x0.reshape(-1, 5).T @ upstream.reshape(-1, 3)
        d_b = upstream.sum(axis=tuple(range(upstream.ndim - 1)))
        assert out.op == "linear"
        assert out.data.tobytes() == ref.tobytes()
        for got, want in ((x, d_x), (w, d_w), (b, d_b)):
            assert got.grad.tobytes() == want.tobytes()

    def test_linear_shape_error_names_the_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"linear: \[2, 3\] x \[3, 4\] \+ \[3\]"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))

    def test_layer_norm_forward_and_backward(self, rng):
        x0 = rng.standard_normal((6, 5, 8)) * 3.0 + 1.0
        g0, b0 = rng.uniform(0.5, 1.5, 8), rng.standard_normal(8)
        upstream = rng.standard_normal((6, 5, 8))
        x, gain, bias = leaves(x0, g0, b0)
        out = ad.layer_norm(x, gain, bias, 1e-8)
        ad.backward(weighted_sum(out, upstream))
        want = layer_norm_reference(x0, g0, b0, 1e-8, upstream)
        for got, ref in zip((out.data, x.grad, gain.grad, bias.grad), want):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("masked", [False, True])
    def test_softmax_rows_forward_and_backward(self, rng, masked):
        x0 = rng.standard_normal((3, 6, 6)) * 4.0
        mask = rng.random((3, 6, 6)) < 0.6 if masked else None
        if masked:
            mask[..., 0] = True
        upstream = rng.standard_normal((3, 6, 6))
        (x,) = leaves(x0)
        out = row_softmax(x, mask)
        ad.backward(weighted_sum(out, upstream))
        want_out, want_dx = softmax_rows_reference(x0, mask, upstream)
        assert out.data.tobytes() == want_out.tobytes()
        assert x.grad.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("with_rel_pe", [False, True])
    def test_attention_with_fewer_queries_forward_and_backward(self, rng, with_rel_pe):
        # two query rows per sequence against six keys
        seqs = np.array([[0, 0, 3, 1, 4, 2], [5, 1, 2, 6, 3, 7], [0, 0, 0, 0, 0, 9]])
        rows = np.array([[1, 5], [2, 4], [3, 5]])
        mask = attention_mask(seqs)[np.arange(3)[:, None], rows]
        q0 = rng.standard_normal((3, 2, 8))
        k0, v0 = (rng.standard_normal((3, 6, 8)) for _ in range(2))
        rel0 = rng.standard_normal((3, 2, 6)) if with_rel_pe else None
        upstream = rng.standard_normal((3, 2, 8))
        q, k, v = leaves(q0, k0, v0)
        rel_pe = Tensor(rel0.copy(), requires_grad=True) if with_rel_pe else None
        out = ad.attention(q, k, v, mask, 4, 0.5, rel_pe)
        ad.backward(weighted_sum(out, upstream))
        want_out, want_grads, want_rel = attention_reference(
            q0, k0, v0, mask, 4, 0.5, rel0, upstream)
        assert out.data.tobytes() == want_out.tobytes()
        for got, want in zip((q.grad, k.grad, v.grad), want_grads):
            assert got.tobytes() == want.tobytes()
        if with_rel_pe:
            assert rel_pe.grad.tobytes() == want_rel.tobytes()

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("with_rel_pe", [False, True])
    def test_attention_on_query_rows_equals_one_query_per_row(self, rng, heads, with_rel_pe):
        # a (B, d) query with a (B, N) mask and rel_pe against the (B, 1, d)
        # call with a (B, 1, N) mask and rel_pe, which the readout layer made
        # through shape-only nodes: the same bytes, forward and backward
        seqs = np.array([[0, 0, 3, 1, 4, 2], [5, 1, 2, 6, 3, 7], [0, 0, 0, 0, 0, 9]])
        readout = np.array([5, 3, 5])
        mask = attention_mask(seqs)[np.arange(3), readout]
        q0 = rng.standard_normal((3, 8))
        k0, v0 = (rng.standard_normal((3, 6, 8)) for _ in range(2))
        rel0 = rng.standard_normal((3, 6))
        upstream = rng.standard_normal((3, 8))
        runs = []
        # the (B, d) query rows first, then the same rows in (B, 1, d) form
        for form in (lambda a: a, lambda a: a[:, None]):
            q, k, v, rel_pe = leaves(form(q0), k0, v0, form(rel0))
            out = ad.attention(q, k, v, form(mask), heads, 0.5, rel_pe if with_rel_pe else None)
            assert out.shape == q.shape
            ad.backward(weighted_sum(out, form(upstream)))
            runs.append([a.tobytes() for a in (out.data, q.grad, k.grad, v.grad, rel_pe.grad)
                         if a is not None])
        assert len(runs[0]) == (5 if with_rel_pe else 4)
        assert runs[0] == runs[1]

    # four heads make rel_pe's sum order visible: ((a + b) + c) + d
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("with_rel_pe", [False, True])
    def test_attention_forward_and_backward(self, rng, heads, with_rel_pe):
        seqs = np.array([[0, 0, 3, 1, 4, 2], [5, 1, 2, 6, 3, 7], [0, 0, 0, 0, 0, 9]])
        mask = attention_mask(seqs)  # padded rows see only themselves
        q0, k0, v0 = (rng.standard_normal((3, 6, 8)) for _ in range(3))
        rel0 = rng.standard_normal((3, 6, 6)) if with_rel_pe else None
        upstream = rng.standard_normal((3, 6, 8))
        scale = 1.0 / np.sqrt(8 // heads)
        q, k, v = leaves(q0, k0, v0)
        rel_pe = Tensor(rel0.copy(), requires_grad=True) if with_rel_pe else None
        out = ad.attention(q, k, v, mask, heads, scale, rel_pe)
        ad.backward(weighted_sum(out, upstream))
        want_out, want_grads, want_rel = attention_reference(
            q0, k0, v0, mask, heads, scale, rel0, upstream)
        assert out.op == "attention"
        assert out.data.tobytes() == want_out.tobytes()
        for got, want in zip((q.grad, k.grad, v.grad), want_grads):
            assert got.tobytes() == want.tobytes()
        if with_rel_pe:
            assert rel_pe.grad.tobytes() == want_rel.tobytes()

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("case", ["random", "wide", "ragged", "saturated", "batch_of_one",
                                      "identical_views"])
    def test_cosine_info_nce_forward_and_backward(self, rng, case, symmetric):
        for g in (1.0, 0.05, -1.7):
            a0, c0, tau = info_nce_case(rng, case)
            a, c = leaves(a0, c0)
            out = ad.cosine_info_nce(a, c, tau, symmetric)
            ad.backward(ad.mul(out, g))
            want = cosine_info_nce_reference(a0, c0, tau, symmetric, g)
            assert out.op == "cosine_info_nce"
            for got, ref in zip((out.data, a.grad, c.grad), want):
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    @pytest.mark.parametrize("case", ["random", "saturated", "batch_of_one", "zero_mask_steps"])
    def test_sampled_bce_forward_and_backward(self, rng, case):
        b, n, d = (1, 6, 5) if case == "batch_of_one" else (4, 7, 9)
        h0, p0, n0 = (rng.standard_normal((b, n, d)) for _ in range(3))
        mask = (rng.random((b, n)) < 0.7).astype(np.float64)
        if case == "saturated":  # h·pos = +-50 and h·neg = +-50
            h0 = np.zeros((b, n, d))
            h0[..., 0] = 1.0
            p0[..., 0] = rng.choice([-50.0, 50.0], (b, n))
            n0[..., 0] = rng.choice([-50.0, 50.0], (b, n))
        if case == "zero_mask_steps":
            mask[1] = 0.0
            mask[:, :3] = 0.0
        for g in (1.0, -0.3):
            hidden, positive, negative = leaves(h0, p0, n0)
            out = ad.sampled_bce(hidden, positive, negative, mask)
            ad.backward(ad.mul(out, g))
            want = sampled_bce_reference(h0, p0, n0, mask, g)
            assert out.op == "sampled_bce"
            for got, ref in zip((out.data, hidden.grad, positive.grad, negative.grad), want):
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_loss_node_shape_errors_name_the_shapes(self):
        x = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeMismatch, match=r"negative \[2, 3, 5\] and step_mask \[2, 3\]"):
            ad.sampled_bce(x, x, Tensor(np.zeros((2, 3, 5))), np.ones((2, 3)))
        with pytest.raises(ShapeMismatch, match=r"step_mask \[3, 2\] do not align"):
            ad.sampled_bce(x, x, x, np.ones((3, 2)))
        with pytest.raises(ShapeMismatch, match=r"anchors \[2, 4\] and candidates \[3, 4\]"):
            ad.cosine_info_nce(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), 1.0)

    def test_gather_equals_the_dense_scatter(self, rng):
        ids_a = np.array([[3, 1, 3, 3], [0, 3, 5, 1]])
        ids_b = np.array([1, 1, 7, 3])
        u_a, u_b = rng.standard_normal((2, 4, 4)), rng.standard_normal((4, 4))
        (table,) = leaves(rng.standard_normal((9, 4)))
        loss = ad.add(weighted_sum(ad.gather(table, ids_a), u_a),
                      weighted_sum(ad.gather(table, ids_b), u_b))
        ad.backward(loss)
        want = gather_backward_reference(9, ids_a, u_a) + gather_backward_reference(9, ids_b, u_b)
        assert table.grad.tobytes() == want.tobytes()

    def test_gather_leaves_untouched_rows_alone(self, rng):
        # a gradient already on the table, with -0.0 in rows no id touches:
        # the dense scatter added +0.0 there and flipped them to +0.0
        ids = np.array([2, 4, 2])
        upstream = rng.standard_normal((3, 3))
        (table,) = leaves(rng.standard_normal((6, 3)))
        earlier = rng.standard_normal((6, 3))
        earlier[[0, 5]] = -0.0
        table.grad = earlier.copy()
        ad.backward(weighted_sum(ad.gather(table, ids), upstream))
        dense = earlier + gather_backward_reference(6, ids, upstream)
        touched = [2, 4]
        untouched = [0, 1, 3, 5]
        assert table.grad[touched].tobytes() == dense[touched].tobytes()
        assert table.grad[untouched].tobytes() == earlier[untouched].tobytes()
        assert np.signbit(table.grad[[0, 5]]).all() and not np.signbit(dense[[0, 5]]).any()

    def test_layer_norm_forward_peak_memory(self, rng):
        x = Tensor(rng.standard_normal((256, 20, 32)), requires_grad=True)
        gain, bias = leaves(np.ones(32), np.zeros(32))
        layer_norm_peak_arrays(x, gain, bias)  # warm the allocator
        arrays = layer_norm_peak_arrays(x, gain, bias)
        # the output and the saved xhat; every other temporary is reused
        assert arrays <= 2.5, f"layer_norm forward peaked at {arrays:.2f} input-sized arrays"


# ---------------------------------------------------------------------------
# rebuilt activations against the ops whose closures saved every parent's
# value, bit for bit
# ---------------------------------------------------------------------------

def saving_linear(x, w, b):
    data = x.data @ w.data
    data += b.data

    def back(g, x=ad._target(x), w=ad._target(w), b=ad._target(b), x_data=x.data,
             w_data=w.data):
        if b.requires_grad:
            ad._accumulate(b, g.sum(axis=tuple(range(g.ndim - 1))), fresh=True)
        if x.requires_grad:
            ad._accumulate(x, g @ w_data.T, fresh=True)
        if w.requires_grad:
            k, n = w.shape
            ad._accumulate(w, x_data.reshape(-1, k).T @ g.reshape(-1, n), fresh=True)

    return ad._node(data, (x, w, b), back, "linear")


def saving_layer_norm(x, gain, bias, eps=1e-8):
    width = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    data = xhat * xhat
    var = data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=data)
    data += bias.data

    def back(g, x=ad._target(x), gain=ad._target(gain), bias=ad._target(bias),
             gain_data=gain.data, xhat=xhat, inv=inv, width=width):
        scratch = g * xhat
        if gain.requires_grad:
            ad._accumulate(gain, scratch.reshape(-1, width).sum(axis=0), fresh=True)
        if bias.requires_grad:
            ad._accumulate(bias, g.reshape(-1, width).sum(axis=0), fresh=True)
        if x.requires_grad:
            gh = g * gain_data
            m1 = gh.mean(axis=-1, keepdims=True)
            np.multiply(gh, xhat, out=scratch)
            m2 = scratch.mean(axis=-1, keepdims=True)
            gh -= m1
            np.multiply(xhat, m2, out=scratch)
            gh -= scratch
            gh *= inv
            ad._accumulate(x, gh, fresh=True)

    return ad._node(data, (x, gain, bias), back, "layer_norm")


def saving_attention(q, k, v, mask, heads, scale, rel_pe=None):
    q_data = q.data[:, None] if q.ndim == 2 else q.data
    b, m, d = q_data.shape
    n = k.shape[1]
    hidden = ~np.asarray(mask, dtype=bool).reshape(b, m, n)
    rel = None if rel_pe is None else rel_pe.data.reshape(b, m, n)
    dh = d // heads
    blocks = [slice(i * dh, (i + 1) * dh) for i in range(heads)]
    data = np.empty_like(q.data)
    out = data.reshape(b, m, d)
    weights = []
    for cols in blocks:
        w = q_data[..., cols] @ np.swapaxes(k.data[..., cols], -1, -2)
        w *= scale
        if rel is not None:
            w += rel
        np.copyto(w, -np.inf, where=hidden)
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        np.matmul(w, v.data[..., cols], out=out[..., cols])
        weights.append(w)

    def back(g, q=ad._target(q), k=ad._target(k), v=ad._target(v),
             rel_pe=None if rel_pe is None else ad._target(rel_pe),
             q_data=q_data, k_data=k.data, v_data=v.data):
        g = g.reshape(q_data.shape)
        gq, gk, gv = np.empty_like(q_data), np.empty_like(k_data), np.empty_like(v_data)
        for cols, w in zip(blocks, weights):
            gh = g[..., cols]
            qh, kh = q_data[..., cols], k_data[..., cols]
            np.matmul(np.swapaxes(w, -1, -2), gh, out=gv[..., cols])
            gw = gh @ np.swapaxes(v_data[..., cols], -1, -2)
            scratch = gw * w
            inner = scratch.sum(axis=-1, keepdims=True)
            gw -= inner
            gw *= w
            gs = np.multiply(gw, scale, out=scratch)
            if rel_pe is not None:
                ad._accumulate(rel_pe, gw.reshape(rel_pe.shape), fresh=True)
            np.matmul(gs, kh, out=gq[..., cols])
            gk[..., cols] = np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2)
        ad._accumulate(q, gq.reshape(q.shape), fresh=True)
        ad._accumulate(k, gk, fresh=True)
        ad._accumulate(v, gv, fresh=True)

    parents = (q, k, v) if rel_pe is None else (q, k, v, rel_pe)
    return ad._node(data, parents, back, "attention")


def saving_sampled_bce(hidden, positive, negative, step_mask):
    mask = np.asarray(step_mask, dtype=np.float64)
    neg_pos = -(hidden.data * positive.data).sum(axis=-1)
    neg_logit = (hidden.data * negative.data).sum(axis=-1)
    per_step = (np.logaddexp(0.0, neg_pos) + np.logaddexp(0.0, neg_logit)) * mask

    def back(g, hidden=ad._target(hidden), positive=ad._target(positive),
             negative=ad._target(negative), h=hidden.data, pos=positive.data,
             neg=negative.data):
        g_step = g * mask
        g_pos = -(g_step * ad._sigmoid(neg_pos))[..., None]
        g_neg = (g_step * ad._sigmoid(neg_logit))[..., None]
        ad._accumulate(hidden, g_pos * pos, fresh=True)
        ad._accumulate(hidden, g_neg * neg, fresh=True)
        ad._accumulate(positive, g_pos * h, fresh=True)
        ad._accumulate(negative, g_neg * h, fresh=True)

    return ad._node(np.asarray(per_step.sum()), (hidden, positive, negative), back,
                    "sampled_bce")


def saving_relu(a):
    data = np.maximum(a.data, 0.0)

    def back(g, a=ad._target(a), data=data):
        ad._accumulate(a, g * (data > 0.0), fresh=True)

    return ad._node(data, (a,), back, "relu")


SAVING_OPS = {"linear": saving_linear, "layer_norm": saving_layer_norm, "relu": saving_relu,
              "attention": saving_attention, "sampled_bce": saving_sampled_bce}


def encoder_step(views: bool):
    """A 2-layer, 2-head encode with dropout and the personalized encoding
    under the next-item loss and, with ``views``, the seq-CL loss between two
    readout encodes, as one train step runs them.  Returns (params, loss)."""
    rng = np.random.default_rng(7)
    cfg = ModelConfig(num_items=9, num_users=4, dim=8, max_len=5, heads=2,
                      encoder_layers=2, dropout=0.2)
    params = enc.init_encoder_params(rng, cfg)
    params.update(enc.init_pge_params(rng, cfg))
    for t in params.values():  # no zero bias or unit gain that hides a term
        t.data += 0.1 * rng.standard_normal(t.shape)
    seqs = np.array([[0, 1, 2, 3, 4], [0, 0, 5, 6, 7], [8, 9, 1, 2, 3]])
    users = np.array([0, 2, 3])
    rel_pe = enc.pge_encoding(params, users, rng.random((3, 5, 5)))
    loss = next_item_loss(enc.encode(params, cfg, seqs, rel_pe, np.random.default_rng(1)),
                          params["item_emb"], rng.integers(1, 10, (3, 5)),
                          rng.integers(1, 10, (3, 5)), seqs > 0)
    if views:
        readout = enc.last_real_position(seqs)
        z1 = enc.encode(params, cfg, seqs, rel_pe, np.random.default_rng(2), readout)
        z2 = enc.encode(params, cfg, seqs[::-1].copy(), rel_pe, np.random.default_rng(3),
                        readout[::-1].copy())
        loss = ad.add(loss, seq_cl_loss(z1, z2, 0.5))
    return params, loss


def tape_nodes(loss) -> list:
    nodes, seen, stack = [], set(), [ad._target(loss)]
    while stack:
        node = stack.pop()
        if node.op == "leaf" or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


class TestRebuiltActivations:
    """Layer-norm, ReLU and attention outputs and attention's q/k/v are
    rebuilt at backward."""

    @pytest.mark.parametrize("views", [False, True])
    def test_gradients_match_the_saving_ops_bitwise(self, monkeypatch, views):
        params, loss = encoder_step(views)
        ad.backward(loss)
        for name, op in SAVING_OPS.items():
            monkeypatch.setattr(ad, name, op)
        oracle, oracle_loss = encoder_step(views)
        assert loss.data.tobytes() == oracle_loss.data.tobytes()
        ad.backward(oracle_loss)
        for name, t in params.items():
            # tobytes tells a negative zero from a positive one
            assert t.grad.tobytes() == oracle[name].grad.tobytes(), name

    def test_no_normalized_or_projected_activation_outlives_the_forward(self, monkeypatch):
        refs = []

        def spy(name, watched):
            op = getattr(ad, name)

            def spied(*args):
                out = op(*args)
                refs.extend(weakref.ref(t.data) for t in watched(out, args))
                return out

            monkeypatch.setattr(ad, name, spied)

        spy("layer_norm", lambda out, args: [out])
        spy("relu", lambda out, args: [out])
        spy("attention", lambda out, args: [*args[:3], out])  # q, k, v and the output
        _, loss = encoder_step(views=True)
        # per encode: 2 layers of (2 layer norms, ReLU, q, k, v, attention)
        # and the final norm
        assert len(refs) == 3 * (2 * 7 + 1)
        assert [ref for ref in refs if ref() is not None] == []
        ad.backward(loss)

    def test_each_output_is_rebuilt_once_per_backward(self):
        _, loss = encoder_step(views=True)
        nodes = tape_nodes(loss)
        rebuilds = dict.fromkeys(map(id, nodes), 0)
        for node in nodes:
            if node._rebuild is not None:
                def counted(rebuild=node._rebuild, key=id(node)):
                    rebuilds[key] += 1
                    return rebuild()

                node._rebuild = counted
        ad.backward(loss)
        counts = collections.Counter((node.op, rebuilds[id(node)]) for node in nodes
                                     if node.op in ("layer_norm", "linear", "relu", "attention"))
        # every layer norm once, though its three projections read it, but
        # the views' final norms, which feed the seq-CL loss's own unit rows;
        # q, k, v and the first feed-forward projection once each, the last
        # for the ReLU's rebuild; every ReLU and attention output once, for
        # the projection after it; the output, second feed-forward and gate
        # projections never
        assert counts == {("layer_norm", 1): 13, ("layer_norm", 0): 2,
                          ("linear", 1): 24, ("linear", 0): 14,
                          ("relu", 1): 6, ("attention", 1): 6}
        assert all(node._rebuild is None and node._rebuilt is None for node in nodes)


# ---------------------------------------------------------------------------
# the op set: every public op has a caller in the package
# ---------------------------------------------------------------------------

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphseqrec"


def autodiff_calls(tree: ast.Module) -> set:
    """Names of ``autodiff`` functions that a module calls, through the
    module (``ad.linear(...)``) or through a name imported from it."""
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module is None and alias.name == "autodiff":
                    modules.add(alias.asname or alias.name)
                elif node.module == "autodiff":
                    names[alias.asname or alias.name] = alias.name
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in modules):
                called.add(func.attr)
            elif isinstance(func, ast.Name) and func.id in names:
                called.add(names[func.id])
    return called


def test_every_public_op_has_a_caller_outside_autodiff():
    # a helper only tests call belongs in tests/conftest.py (as total_sum does)
    ops = {node.name for node in ast.parse((PACKAGE / "autodiff.py").read_text()).body
           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert {"add", "attention", "backward"} <= ops
    called = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "autodiff.py":
            called |= autodiff_calls(ast.parse(path.read_text()))
    assert sorted(ops - called) == []
