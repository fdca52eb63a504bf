"""Dense float64 tensors with tape-based reverse-mode differentiation.

A recorded op returns a :class:`Tensor` that owns its value (``data``) and
links to a :class:`Node`, the op's record on the tape: its name, its parent
nodes (or leaf tensors), the closure that applies the chain rule, the
gradient accumulator and the output's shape.  :func:`backward` walks the
nodes once in reverse topological order and accumulates ``grad`` into every
leaf that was created with ``requires_grad=True``.  The walk consumes the
graph: each node drops its gradient, closure, parents and rebuilt output
as soon as its closure has run, so gradients are kept on leaves only and a
second ``backward`` through the same nodes raises :class:`GraphConsumed`.

Gradient ownership and lifetime: a node does not keep its output.  Its
closure captures exactly what its backward reads: ``layer_norm`` the
normalized input ``xhat`` and the inverse deviations, ``relu`` the boolean
mask of its positive outputs, ``tanh`` its own output, ``attention`` its
softmax weights, ``linear`` its weight, and ``linear``, ``attention`` and
``sampled_bce`` the values of the parents they read (``linear`` its input,
``attention`` q, k and v, ``sampled_bce`` all three inputs); ``add``,
``mul``, ``dropout``, ``select_positions`` and ``per_sample_scale`` keep no
parent's value, only shapes (and ``dropout`` its keep mask,
``per_sample_scale`` its constant matrices).  A parent value that its op
can rebuild bit for bit from arrays it keeps anyway is not saved:
``layer_norm`` rebuilds ``xhat * gain + bias`` from its ``xhat``,
``linear`` rebuilds ``x @ w + b``, ``relu`` ``max(a, 0)`` and
``attention`` each head's ``weights @ v`` from its weights, reading ``x``,
``a`` and ``v`` the same way, so the layer-norm, ReLU and attention
outputs and attention's q, k and v live only through the forward.  Such a
consumer keeps the parent's node instead of the array and
reads the value through :func:`_value`: the output while something else
keeps it alive, else rebuilt once and cached on the node until ``backward``
consumes that node.  Rebuilding reads the forward's parameter arrays, which
the optimizer changes in place only after ``backward``.  An output is
therefore freed as soon as its caller drops the tensor, unless a closure
saved it, and a saved array lives until that closure has run.  A node's
``data`` is its output while something else keeps it alive (it holds a weak
reference) and an empty array otherwise.  A gradient is its node's or
leaf's own array, added to in place.  On first touch, a gradient array that
a backward closure has just built is adopted as it is; a view (a transpose
or a broadcast) is copied first, and so is the node's own incoming gradient,
except that :func:`add` hands it to its second operand once the first has
read it.  Ops reuse their own temporaries in place, in the same operation
order as the plain expressions, but never write into an input, an output
another node may read, or the incoming gradient.

A forward that reads a :class:`Deferred` stand-in of a leaf records each
addition into that leaf's gradient, in order, and :func:`replay` adds them
later, bit for bit as if they had been added then.  Every addition into a
gradient, ``gather``'s row blocks included, goes through ``_accumulate``,
so every op's backward can be deferred, on any thread.
``training.train_step`` runs its sequence-contrastive branch on a worker
thread over ``Model.deferred(log)``, beside the calling thread's backward.

One rule decides what is recorded: an op's output links to a node exactly
when one of its inputs requires a gradient.  A forward over tensors that
require none, such as the parameter views of ``Model.detached()`` that
evaluation reads, computes the same values and builds no tape, whatever
another thread records meanwhile.  ``backward`` on such an output raises
:class:`NotRecorded`.

The op set is deliberately small: exactly what multi-head attention,
layer-normalized feed-forward stacks and the contrastive /
binary-cross-entropy losses in this package need, each with a caller in
the package; graph propagation is a node of its own, ``collab.propagate``.
Every affine projection ``x @ w + b`` is one :func:`linear` node, and all
heads of one attention layer, masked row softmax included, are one
:func:`attention` node, whether its queries sit at every key position or
at one readout row per sequence.  Each loss term is one node too:
:func:`sampled_bce` for next-item prediction, :func:`cosine_info_nce` for
both contrastive terms, and :func:`weighted_sum` runs a tape from a
gradient known up front.  :func:`mul` scales by a number only.  :func:`add`
takes two tensors of one shape, or one shaped as the other's trailing axes
(a bias, ``pos_emb``, a 0-d tensor); anything else raises
:class:`ShapeMismatch` naming both shapes.  Recorded values are ndarrays (a
loss is 0-d), values and gradients are C-contiguous float64, which keeps
finite-difference checks meaningful.
"""

from __future__ import annotations

import ctypes
import weakref
from typing import Optional, Sequence

import numpy as np

# A train step or an evaluation pass frees every array it made before the
# next one starts, so the top of the heap is free between them.  By default
# glibc returns a free heap top larger than twice its mmap threshold to the
# system, and maps every array of 128 KiB or more on its own until it has
# unmapped a larger one; either way the next step or pass faults all its
# pages in again (8.5k page faults per evaluation pass on the 500 x 200 ring
# config).  Fixed thresholds keep arrays below 32 MiB, glibc's own ceiling
# for the mmap threshold, in the heap, and trim its top only once 64 MiB of
# it is free.  Other C libraries keep their defaults.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _fix_malloc_thresholds() -> None:
    """Set glibc's mmap and trim thresholds where the C library has mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1 in glibc's malloc.h
    mallopt(-3, MMAP_THRESHOLD)
    mallopt(-1, TRIM_THRESHOLD)


_fix_malloc_thresholds()


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class DegenerateRow(ValueError):
    """A row violates an operation precondition (fully masked, zero norm)."""


class GraphConsumed(RuntimeError):
    """``backward`` reached a node whose tape an earlier ``backward`` consumed."""


class NotRecorded(RuntimeError):
    """``backward`` was called on an output that no recorded op produced."""


class Tensor:
    """A dense float64 array plus an optional gradient accumulator.

    Leaves are built directly (``Tensor(data, requires_grad=...)``) and take
    their own gradient.  The ops in this module return tensors named after
    the op; a recorded one links to its tape :class:`Node` (``node``), which
    takes its gradient during :func:`backward`.  ``_parents`` and
    ``_backward`` answer for that node; the library walks nodes only, and
    their one reader is ``perfbench/spans.py``'s tracer.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self.node: Optional[Node] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def _parents(self) -> tuple:
        return () if self.node is None else self.node._parents

    @property
    def _backward(self):
        return None if self.node is None else self.node._backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self.node._backward = fn

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, op={self.op}, requires_grad={self.requires_grad})"


_GONE = np.empty(0)
_GONE.flags.writeable = False


class Node:
    """One recorded op on the tape: its name, its parents (nodes, or leaf
    tensors), its backward closure, its gradient while :func:`backward` runs
    and its output's shape.  The output itself is held
    weakly: ``data`` is the output while something else keeps it alive, an
    empty array once it is gone.  A ``layer_norm``, ``linear``, ``relu`` or
    ``attention`` node also holds the recipe that rebuilds its output
    (``_rebuild``) and, during :func:`backward`, the rebuilt output
    (``_rebuilt``)."""

    __slots__ = ("op", "_parents", "_backward", "grad", "shape", "_out", "_rebuild", "_rebuilt")
    requires_grad = True

    def __init__(self, op: str, parents: tuple, backward_fn, data: np.ndarray, rebuild=None):
        self.op = op
        self._parents = parents
        self._backward = backward_fn
        self.grad: Optional[np.ndarray] = None
        self.shape = data.shape
        self._out = weakref.ref(data)
        self._rebuild = rebuild
        self._rebuilt: Optional[np.ndarray] = None

    @property
    def data(self) -> np.ndarray:
        out = self._out()
        return _GONE if out is None else out


def _target(t: Tensor):
    """Where ``t``'s gradient accumulates: its node when an op recorded it,
    else ``t`` itself.  Closures capture this, not ``t``, so they do not keep
    ``t.data`` alive."""
    return t if t.node is None else t.node


def _kept(t: Tensor):
    """What a closure keeps to read ``t``'s value at backward: ``t``'s node
    when its op can rebuild the output, else the array itself."""
    node = t.node
    return node if node is not None and node._rebuild is not None else t.data


def _value(kept) -> np.ndarray:
    """The array that :func:`_kept` returned ``kept`` for: the array itself,
    or the node's output while it is alive, else the output rebuilt once and
    cached on the node until :func:`backward` consumes it."""
    if isinstance(kept, np.ndarray):
        return kept
    out = kept._out()
    if out is None:
        if kept._rebuilt is None:
            kept._rebuilt = kept._rebuild()
        out = kept._rebuilt
    return out


def _node(data: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str,
          rebuild=None) -> Tensor:
    """The op's output tensor, recorded with ``backward_fn`` when a parent
    requires a gradient.  ``rebuild``, if given, recomputes ``data`` bit for
    bit from arrays the node's closure keeps anyway."""
    data = np.asarray(data)  # an op on 0-d values yields a numpy scalar
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    out.requires_grad = any(p.requires_grad for p in parents)
    out.node = (Node(op, tuple(_target(p) for p in parents), backward_fn, data, rebuild)
                if out.requires_grad else None)
    return out


class Deferred(Tensor):
    """A stand-in leaf for ``param`` that shares its array, with no copy:
    a backward through it records each addition into its gradient, in
    order, as ``(param, g, rows)`` in ``log`` instead of adding it, and
    :func:`replay` adds them into ``param`` later."""

    __slots__ = ("param", "log")

    def __init__(self, param: Tensor, log: list):
        super().__init__(param.data, param.requires_grad)
        self.param, self.log = param, log


def replay(log: list) -> None:
    """Add the accumulations that :class:`Deferred` stand-ins recorded, in
    their order: each parameter's gradient ends bit for bit as if they had
    been added then."""
    for t, g, rows in log:
        _accumulate(t, g, fresh=True, rows=rows)


def _accumulate(t, g: np.ndarray, fresh: bool = False,
                rows: Optional[np.ndarray] = None) -> None:
    """Add ``g`` into ``t.grad``, ``t`` a node or a leaf; a ``t`` that requires
    no gradient is skipped, so closures need not check.  With ``rows``
    (distinct ids) ``g`` is the block of those rows, and a first gradient is
    zeros elsewhere.  ``fresh`` means the calling closure just built ``g``
    and keeps no other reference to it, so on first touch it can be adopted
    when it is C-contiguous float64; anything else is copied into an owned
    C-contiguous float64 array.  A :class:`Deferred` stand-in gets the
    addition recorded, a copy of ``g`` unless it is fresh.  This is the only
    code that adds into a gradient."""
    if not t.requires_grad:
        return
    shape = t.shape if rows is None else (len(rows),) + t.shape[1:]
    if g.shape != shape:
        what = "a tensor" if rows is None else f"{len(rows)} rows of a tensor"
        raise ShapeMismatch(f"{t.op}: gradient of shape {list(g.shape)} for {what} "
                            f"of shape {list(t.shape)}")
    if type(t) is Deferred:
        t.log.append((t.param, g if fresh else np.array(g, dtype=np.float64, order="C"), rows))
    elif rows is not None and t.grad is not None:
        t.grad[rows] += g
    elif rows is not None:
        t.grad = np.empty(t.shape)
        t.grad.fill(0.0)
        t.grad[rows] = g
    elif t.grad is not None:
        t.grad += g
    elif fresh and g.dtype == np.float64 and g.flags.c_contiguous:
        t.grad = g
    else:
        t.grad = np.empty(t.shape)
        t.grad[...] = g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` by summing its leading axes."""
    extra = g.ndim - len(shape)
    if extra > 0:  # a sum over every axis is a numpy scalar
        g = np.asarray(g.sum(axis=tuple(range(extra))))
    return g.reshape(shape)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` of every requires_grad leaf reachable from ``loss``.

    ``loss`` must be a scalar (shape ``()``).  The recorded graph is walked
    exactly once per node, in reverse topological order, and consumed as it
    goes: once a node's closure has run, every consumer of that node has
    already run, so the node drops its ``grad``, closure, parents, rebuild
    recipe and rebuilt output, and the arrays that closure saved can be freed
    while the walk goes on.  Gradients are kept on leaves only.  A node
    consumed by an earlier call raises :class:`GraphConsumed` before any
    gradient is touched; a ``loss`` that no recorded op produced (a leaf,
    or an output none of whose op's inputs required a gradient) raises
    :class:`NotRecorded`.
    """
    if loss.shape != ():
        raise ShapeMismatch(f"backward expects a scalar loss, got shape {list(loss.shape)}")
    root = loss.node
    if root is None:
        raise NotRecorded(f"backward: '{loss.op}' has no tape; no recorded op produced it")
    topo: list = []
    seen: set[int] = set()
    stack: list[tuple] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is None:
            raise GraphConsumed(f"backward: node '{node.op}' was consumed by an earlier backward")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if isinstance(p, Node) and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones((), dtype=np.float64)
    while topo:
        node = topo.pop()
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._backward = None
        node._parents = ()
        node._rebuild = node._rebuilt = None


# ---------------------------------------------------------------------------
# elementwise and broadcast arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    short, full = sorted((a.shape, b.shape), key=len)
    if full[len(full) - len(short):] != short:
        raise ShapeMismatch(f"add: shapes {list(a.shape)} and {list(b.shape)} do not align")
    data = a.data + b.data

    def back(g, a=_target(a), b=_target(b)):
        # a reduced gradient is a new array; an unreduced one is a view of g,
        # which this node drops once both operands have read it, so b, the
        # last reader, may adopt it
        _accumulate(a, _unbroadcast(g, a.shape), fresh=a.shape != g.shape)
        _accumulate(b, _unbroadcast(g, b.shape), fresh=True)

    return _node(data, (a, b), back, "add")


def mul(a: Tensor, c: float) -> Tensor:
    """``a`` times the scalar ``c``."""
    c = float(c)
    data = a.data * c

    def back(g, a=_target(a), c=c):
        _accumulate(a, g * c, fresh=True)

    return _node(data, (a,), back, "mul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine projection ``x @ w + b`` as one node: ``x`` is (..., k), ``w`` is
    (k, n) and ``b`` is (n,)."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatch(f"linear: {list(x.shape)} x {list(w.shape)} + {list(b.shape)} "
                            "do not align")
    data = x.data @ w.data
    data += b.data
    x_kept = _kept(x)

    def back(g, x=_target(x), w=_target(w), b=_target(b), x_kept=x_kept, w_data=w.data):
        _accumulate(b, g.sum(axis=tuple(range(g.ndim - 1))), fresh=True)
        _accumulate(x, g @ w_data.T, fresh=True)
        k, n = w.shape
        _accumulate(w, _value(x_kept).reshape(-1, k).T @ g.reshape(-1, n), fresh=True)

    def rebuild(x_kept=x_kept, w_data=w.data, b_data=b.data):
        out = _value(x_kept) @ w_data
        out += b_data
        return out

    return _node(data, (x, w, b), back, "linear", rebuild)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    """``max(a, 0)``; the node keeps the boolean mask of positive outputs and
    rebuilds the output from ``a``'s value."""
    data = np.maximum(a.data, 0.0)
    a_kept = _kept(a)

    def back(g, a=_target(a), mask=data > 0.0):
        _accumulate(a, g * mask, fresh=True)

    def rebuild(a_kept=a_kept):
        return np.maximum(_value(a_kept), 0.0)

    return _node(data, (a,), back, "relu", rebuild)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def back(g, a=_target(a), data=data):
        _accumulate(a, g * (1.0 - data * data), fresh=True)

    return _node(data, (a,), back, "tanh")


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------

def gather(table: Tensor, ids) -> Tensor:
    """Row lookup: output shape is ids.shape + (row_width,).

    The backward pass sums the output gradient per distinct id into a
    compact block (in the order the ids appear) and adds that block into the
    gathered rows only; rows that were not gathered are left untouched.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeMismatch(f"gather needs a 2D table, got shape {list(table.shape)}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"gather: id out of range for table with {table.shape[0]} rows")
    data = table.data[ids]

    def back(g, table=_target(table), ids=ids):
        uniq, inverse = np.unique(ids.ravel(), return_inverse=True)
        block = np.zeros((uniq.size, table.shape[1]))
        np.add.at(block, inverse, g.reshape(-1, table.shape[1]))
        _accumulate(table, block, fresh=True, rows=uniq)

    return _node(data, (table,), back, "gather")


def select_positions(x: Tensor, positions) -> Tensor:
    """Pick one row per batch entry from a (B, N, d) tensor; returns (B, d)."""
    positions = np.asarray(positions, dtype=np.int64)
    if x.ndim != 3 or positions.shape != (x.shape[0],):
        raise ShapeMismatch(f"select_positions: got shape {list(x.shape)} with positions {list(positions.shape)}")
    batch = np.arange(x.shape[0])
    data = x.data[batch, positions]

    def back(g, x=_target(x), positions=positions, batch=batch):
        gx = np.empty(x.shape)
        gx.fill(0.0)
        gx[batch, positions] = g
        _accumulate(x, gx, fresh=True)

    return _node(data, (x,), back, "select_positions")


# ---------------------------------------------------------------------------
# structured ops for attention and regularization
# ---------------------------------------------------------------------------

def attention(q: Tensor, k: Tensor, v: Tensor, mask, heads: int, scale: float,
              rel_pe: Optional[Tensor] = None) -> Tensor:
    """Multi-head scaled dot-product attention of one layer as one node.

    ``q`` is (B, M, d) and ``k`` and ``v`` are (B, N, d): M queries per row
    against N keys, with M = N for self-attention at every position.  A
    (B, d) ``q`` is one query per row, with a (B, N) ``mask`` and ``rel_pe``
    and a (B, d) output; the node runs it on (B, 1, ·) views, as M = 1.  Head
    ``i`` reads the column block ``[i * dh, (i + 1) * dh)`` of all three, with
    ``dh = d // heads``.  Per head the logits ``qh @ khᵀ * scale`` plus the
    optional (B, M, N) ``rel_pe`` go through a row softmax over the keys:
    ``mask`` is a boolean (B, M, N) array, masked entries get exact zero
    weight (they are exponentiated as -inf, whatever their logit), each row
    must keep at least one unmasked entry, and the row max over unmasked
    entries is subtracted first.  Head ``i`` writes ``weights @ vh`` into the
    same column block of the (B, M, d) output.
    """
    q_data = q.data[:, None] if q.ndim == 2 else q.data
    if q_data.ndim != 3 or k.ndim != 3 or k.shape != v.shape or k.shape[::2] != q_data.shape[::2]:
        raise ShapeMismatch(f"attention: q {list(q.shape)}, k {list(k.shape)} and v "
                            f"{list(v.shape)} must be (B, M, d) or (B, d), (B, N, d) and (B, N, d)")
    b, m, d = q_data.shape
    n = k.shape[1]
    if heads < 1 or d % heads:
        raise ShapeMismatch(f"attention: width {d} does not split into {heads} heads")
    logits = list(q.shape[:-1]) + [n]  # the logits' shape
    mask = np.asarray(mask, dtype=bool)
    if list(mask.shape) != logits:
        raise ShapeMismatch(f"attention: mask shape {list(mask.shape)} != logits shape {logits}")
    if rel_pe is not None and list(rel_pe.shape) != logits:
        raise ShapeMismatch(f"attention: rel_pe shape {list(rel_pe.shape)} != logits shape {logits}")
    alive = mask.any(axis=-1)
    if not alive.all():
        raise DegenerateRow("attention: fully masked row at index "
                            f"{tuple(np.argwhere(~alive)[0].tolist())}")
    hidden = ~mask.reshape(b, m, n)
    rel = None if rel_pe is None else rel_pe.data.reshape(b, m, n)
    dh = d // heads
    blocks = [slice(i * dh, (i + 1) * dh) for i in range(heads)]
    weights = []
    for cols in blocks:
        # the logits buffer becomes the softmax weights in place
        w = q_data[..., cols] @ np.swapaxes(k.data[..., cols], -1, -2)
        w *= scale
        if rel is not None:
            w += rel
        np.copyto(w, -np.inf, where=hidden)
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        weights.append(w)
    data = _attend(weights, v.data, blocks, q.shape)

    def back(g, q=_target(q), k=_target(k), v=_target(v),
             rel_pe=None if rel_pe is None else _target(rel_pe),
             q_kept=_kept(q), k_kept=_kept(k), v_kept=_kept(v),
             weights=weights, blocks=blocks, scale=scale):
        q_data = _value(q_kept)
        q_data = q_data[:, None] if q_data.ndim == 2 else q_data
        k_data, v_data = _value(k_kept), _value(v_kept)
        g = g.reshape(q_data.shape)
        gq, gk, gv = np.empty_like(q_data), np.empty_like(k_data), np.empty_like(v_data)
        for cols, w in zip(blocks, weights):
            gh = g[..., cols]
            qh, kh = q_data[..., cols], k_data[..., cols]
            np.matmul(np.swapaxes(w, -1, -2), gh, out=gv[..., cols])
            # softmax backward: gx = w * (gw - sum(gw * w)), into gw's buffer
            gw = gh @ np.swapaxes(v_data[..., cols], -1, -2)
            scratch = gw * w
            inner = scratch.sum(axis=-1, keepdims=True)
            gw -= inner
            gw *= w
            gs = np.multiply(gw, scale, out=scratch)
            if rel_pe is not None:
                _accumulate(rel_pe, gw.reshape(rel_pe.shape), fresh=True)
            np.matmul(gs, kh, out=gq[..., cols])
            gk[..., cols] = np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2)
        _accumulate(q, gq.reshape(q.shape), fresh=True)
        _accumulate(k, gk, fresh=True)
        _accumulate(v, gv, fresh=True)

    def rebuild(v_kept=_kept(v), weights=weights, blocks=blocks, shape=q.shape):
        return _attend(weights, _value(v_kept), blocks, shape)

    parents = (q, k, v) if rel_pe is None else (q, k, v, rel_pe)
    return _node(data, parents, back, "attention", rebuild)


def _attend(weights: list, v_data: np.ndarray, blocks: list, shape: tuple) -> np.ndarray:
    """Attention's output of ``shape``: head ``i`` writes ``weights[i] @ vh``
    into its column block, the forward and the rebuild alike."""
    data = np.empty(shape)
    out = data.reshape(v_data.shape[0], -1, v_data.shape[-1])
    for cols, w in zip(blocks, weights):
        np.matmul(w, v_data[..., cols], out=out[..., cols])
    return data


def per_sample_scale(scalars: Tensor, mats: np.ndarray) -> Tensor:
    """out[b] = scalars[b] * mats[b] for a constant stack of matrices.

    ``scalars`` has shape (B, 1); ``mats`` is a fixed (B, ...) array.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if scalars.ndim != 2 or scalars.shape[1] != 1 or scalars.shape[0] != mats.shape[0]:
        raise ShapeMismatch(f"per_sample_scale: scalars {list(scalars.shape)} vs mats {list(mats.shape)}")
    expand = scalars.data.reshape((-1,) + (1,) * (mats.ndim - 1))
    data = expand * mats

    def back(g, scalars=_target(scalars), mats=mats):
        axes = tuple(range(1, mats.ndim))
        _accumulate(scalars, (g * mats).sum(axis=axes).reshape(-1, 1), fresh=True)

    return _node(data, (scalars,), back, "per_sample_scale")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    width = x.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeMismatch(f"layer_norm: gain/bias must be [{width}], got {list(gain.shape)} and {list(bias.shape)}")
    # two buffers: the centered input, scaled in place into xhat, and the
    # squares, overwritten by the output
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    data = xhat * xhat
    var = data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=data)
    data += bias.data

    def back(g, x=_target(x), gain=_target(gain), bias=_target(bias), gain_data=gain.data,
             xhat=xhat, inv=inv, width=width):
        scratch = g * xhat
        _accumulate(gain, scratch.reshape(-1, width).sum(axis=0), fresh=True)
        _accumulate(bias, g.reshape(-1, width).sum(axis=0), fresh=True)
        # inv * ((gh - m1) - xhat * m2), one operation at a time
        gh = g * gain_data
        m1 = gh.mean(axis=-1, keepdims=True)
        np.multiply(gh, xhat, out=scratch)
        m2 = scratch.mean(axis=-1, keepdims=True)
        gh -= m1
        np.multiply(xhat, m2, out=scratch)
        gh -= scratch
        gh *= inv
        _accumulate(x, gh, fresh=True)

    def rebuild(xhat=xhat, gain_data=gain.data, bias_data=bias.data):
        out = np.multiply(xhat, gain_data)
        out += bias_data
        return out

    return _node(data, (x, gain, bias), back, "layer_norm", rebuild)


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator],
            rows: Optional[tuple] = None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no generator is supplied.

    ``rows = (n, positions)`` says that row b of the (B, d) ``x`` is position
    ``positions[b]`` of a (B, n, d) activation.  The uniform draw is then made
    at that full shape and only the matching rows are kept, so those rows get
    the mask that dropout of the full activation gives them, and the
    generator advances just as far.
    """
    if rate < 0.0 or rate >= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or rng is None:
        return x
    if rows is None:
        data = rng.random(x.shape)
    else:
        n, positions = rows
        b, d = x.shape
        data = rng.random((b, n, d))[np.arange(b), positions]
    keep = data >= rate  # boolean: 1 byte per entry on the tape
    np.divide(keep, 1.0 - rate, out=data)
    data *= x.data

    def back(g, x=_target(x), keep=keep, rate=rate):
        gx = keep / (1.0 - rate)
        gx *= g
        _accumulate(x, gx, fresh=True)

    return _node(data, (x,), back, "dropout")


# ---------------------------------------------------------------------------
# loss terms, one node each
# ---------------------------------------------------------------------------

def weighted_sum(a: Tensor, w) -> Tensor:
    """``sum(a * w)`` for a constant array ``w`` of ``a``'s shape: the gradient
    that reaches ``a`` is ``w``, so :func:`backward` on it runs ``a``'s tape
    from a gradient known before that tape was recorded."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != a.shape:
        raise ShapeMismatch(f"weighted_sum: weights {list(w.shape)} for a tensor of "
                            f"shape {list(a.shape)}")

    def back(g, a=_target(a), w=w):
        _accumulate(a, g * w, fresh=True)

    return _node(np.asarray((a.data * w).sum()), (a,), back, "weighted_sum")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sampled_bce(hidden: Tensor, positive: Tensor, negative: Tensor, step_mask) -> Tensor:
    """``sum(step_mask * (softplus(-h·pos) + softplus(h·neg)))`` for (..., d)
    inputs of one shape, dot products over the last axis.  softplus is the
    overflow-safe log(1 + exp(x)); its gradient is sigmoid(x)."""
    mask = np.asarray(step_mask, dtype=np.float64)
    if not hidden.shape == positive.shape == negative.shape or mask.shape != hidden.shape[:-1]:
        raise ShapeMismatch(f"sampled_bce: hidden {list(hidden.shape)}, positive {list(positive.shape)}, "
                            f"negative {list(negative.shape)} and step_mask {list(mask.shape)} do not align")
    neg_pos = -(hidden.data * positive.data).sum(axis=-1)
    neg_logit = (hidden.data * negative.data).sum(axis=-1)
    per_step = (np.logaddexp(0.0, neg_pos) + np.logaddexp(0.0, neg_logit)) * mask

    def back(g, hidden=_target(hidden), positive=_target(positive),
             negative=_target(negative), h=_kept(hidden), pos=positive.data,
             neg=negative.data, mask=mask):
        h = _value(h)
        g_step = g * mask
        g_pos = -(g_step * _sigmoid(neg_pos))[..., None]
        g_neg = (g_step * _sigmoid(neg_logit))[..., None]
        _accumulate(hidden, g_pos * pos, fresh=True)
        _accumulate(hidden, g_neg * neg, fresh=True)
        _accumulate(positive, g_pos * h, fresh=True)
        _accumulate(negative, g_neg * h, fresh=True)

    return _node(np.asarray(per_step.sum()), (hidden, positive, negative), back, "sampled_bce")


def _unit_rows(x: np.ndarray, name: str) -> tuple:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    bad = norms[..., 0] == 0.0
    if bad.any():
        raise DegenerateRow(f"cosine_info_nce: zero-norm {name} row at index "
                            f"{tuple(np.argwhere(bad)[0].tolist())}")
    return x / norms, norms


def _unit_rows_backward(g: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    return (g - unit * (g * unit).sum(axis=-1, keepdims=True)) / norms


def _info_nce_rows(logits: np.ndarray) -> tuple:
    """``sum_i logsumexp(logits[i]) - logits[i, i]``, and the row softmax."""
    rowmax = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - rowmax)
    s = e.sum(axis=-1, keepdims=True)
    e /= s
    return (rowmax + np.log(s)).squeeze(-1).sum() + -np.diagonal(logits).sum(), e


def _softmax_minus_eye(softmax: np.ndarray, g) -> np.ndarray:
    """The gradient ``g * (softmax - I)`` of :func:`_info_nce_rows`, in place."""
    softmax *= g
    np.fill_diagonal(softmax, np.diagonal(softmax) + -g)
    return softmax


def cosine_info_nce(anchors: Tensor, candidates: Tensor, tau: float,
                    symmetric: bool = False) -> Tensor:
    """In-batch InfoNCE over the logits ``unit(anchors) @ unit(candidates)ᵀ / tau``
    of two (B, d) inputs, summed over rows: row i's positive is column i.
    ``symmetric`` averages it with the same loss on the transposed logits."""
    if anchors.ndim != 2 or candidates.shape != anchors.shape:
        raise ShapeMismatch(f"cosine_info_nce: anchors {list(anchors.shape)} and candidates "
                            f"{list(candidates.shape)} must share one (B, d) shape")
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    ua, norms_a = _unit_rows(anchors.data, "anchor")
    uc, norms_c = _unit_rows(candidates.data, "candidate")
    logits = ua @ uc.T
    logits *= 1.0 / tau
    value, softmax = _info_nce_rows(logits)
    if symmetric:
        value_t, softmax_t = _info_nce_rows(logits.T)
        value = (value + value_t) * 0.5

    def back(g, anchors=_target(anchors), candidates=_target(candidates)):
        g = g * 0.5 if symmetric else g
        gl = _softmax_minus_eye(softmax, g)
        if symmetric:  # summed as (lse + diag) + swap(lse_t + diag_t)
            gl += _softmax_minus_eye(softmax_t, g).T
        gl *= 1.0 / tau
        _accumulate(anchors, _unit_rows_backward(gl @ uc, ua, norms_a), fresh=True)
        # ((uaᵀ) @ gl)ᵀ, copied row-major; glᵀ @ ua rounds differently
        gc = np.ascontiguousarray((ua.T @ gl).T)
        _accumulate(candidates, _unit_rows_backward(gc, uc, norms_c), fresh=True)

    return _node(np.asarray(value), (anchors, candidates), back, "cosine_info_nce")
