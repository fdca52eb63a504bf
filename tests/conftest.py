import types

import numpy as np
import pytest

from graphseqrec import autodiff as ad


def numeric_grad(loss_value, arr, h=1e-5):
    """Central finite differences of a scalar closure w.r.t. an array,
    perturbing the array in place."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_value()
        flat[i] = orig - h
        fm = loss_value()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_err(analytic, numeric):
    scale = max(1.0, float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def total_sum(a):
    """Sum of every entry as a 0-d tensor: reduces any output to a loss."""
    def back(g, a=ad._target(a)):
        ad._accumulate(a, np.broadcast_to(g, a.shape))

    return ad._node(np.asarray(a.data.sum()), (a,), back, "sum")


weighted_sum = ad.weighted_sum  # sum(a * w): the gradient that reaches a is w


def closure_arrays(closure) -> list:
    """The arrays a backward closure or rebuild recipe captured, as default
    arguments or free variables, lists of arrays and the captures of the
    functions it captured included; none for a missing (``None``) one."""
    found, todo, seen = [], [closure], set()
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif isinstance(item, types.FunctionType) and id(item) not in seen:
            seen.add(id(item))
            todo.extend(item.__defaults__ or ())
            for cell in item.__closure__ or ():
                try:
                    todo.append(cell.cell_contents)
                except ValueError:  # a free variable the op never assigned
                    pass
    return found


def _base(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_nodes(loss) -> list:
    """The tape nodes (not leaf tensors) reachable from ``loss``, each once."""
    nodes, seen, stack = [], set(), [ad._target(loss)]
    while stack:
        node = stack.pop()
        if isinstance(node, ad.Node) and id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def saved_bytes(loss) -> int:
    """Bytes the tape under ``loss`` keeps for backward: the distinct arrays
    (a view counts as its base) that its nodes' closures and rebuild recipes
    captured, leaf tensors' arrays (the parameters) excepted.  Outputs that
    only a node's weak reference holds are not counted."""
    kept, leaves = {}, set()
    for node in tape_nodes(loss):
        leaves.update(id(_base(p.data)) for p in node._parents if not isinstance(p, ad.Node))
        for arr in closure_arrays(node._backward) + closure_arrays(node._rebuild):
            kept[id(_base(arr))] = _base(arr)
    return sum(arr.nbytes for key, arr in kept.items() if key not in leaves)


def check_grads(make_loss, tensors, rtol=1e-4, h=1e-5):
    """Analytic gradients of make_loss() vs central differences.

    ``tensors`` maps names to leaf Tensors whose .data the closure reads.
    """
    for t in tensors.values():
        t.grad = None
    loss = make_loss()
    ad.backward(loss)
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in tensors.items()}
    for name, t in tensors.items():
        numeric = numeric_grad(lambda: float(make_loss().data), t.data, h)
        err = rel_err(analytic[name], numeric)
        assert err < rtol, f"gradient mismatch for {name}: rel err {err:.3g}"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
