"""Per-module busy time and call counts, taken from outside the library.

:class:`Tracer` rebinds each traced public function (and a few methods) of
the ``graphseqrec`` modules to a wrapper that times the call.  No library
file changes: a name imported into another module (``from .graph import
extract_subgraph_batch``) is rebound there too, so calls made inside the
library are seen as well as calls made by the benchmark.

Busy time of a span includes its traced children; self time excludes them.
The ``autodiff.backward`` wrapper also walks the loss graph before calling
through, to count the tape and to time each node's backward closure by op.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from graphseqrec import (autodiff, collab, data, encoder, evaluation, graph,
                         model, optim, training)

# (span name, owner, attribute); an owner is a module or a class
SPANS = (
    ("data.ingest", data, "ingest"),
    ("data.leave_one_out", data, "leave_one_out"),
    ("graph.build_transition_graph", graph, "build_transition_graph"),
    ("graph.extract_subgraph_batch", graph, "extract_subgraph_batch"),
    ("graph.spmv", graph.TransitionGraph, "spmv"),
    ("collab.graph_representations", collab, "graph_representations"),
    ("collab.gce_loss", collab, "gce_loss"),
    ("collab.detached_perturbation", collab, "detached_perturbation"),
    ("encoder.encode", encoder, "encode"),
    ("encoder.pge_encoding", encoder, "pge_encoding"),
    ("model.hidden_states", model.Model, "hidden_states"),
    ("model.user_reprs", model.Model, "user_reprs"),
    ("training.train_step", training, "train_step"),
    ("training.assemble_batch", training, "assemble_batch"),
    ("training.next_item_loss", training, "next_item_loss"),
    ("training.seq_cl_loss", training, "seq_cl_loss"),
    ("training.evaluate_model", training, "evaluate_model"),
    ("optim.adam_step", optim.Adam, "step"),
    ("evaluation.rank_from_scores", evaluation, "rank_from_scores"),
)
BACKWARD = "autodiff.backward"
TRAIN_STEP = "training.train_step"

# backward ops reported one by one; the rest are summed under "other"
BACKWARD_OPS = ("matmul", "layer_norm", "add", "mul", "slice_cols", "gather",
                "spmv", "softmax_rows", "dropout")


def tape(loss: autodiff.Tensor) -> list:
    """Every interior node reachable from ``loss``, walked as backward does."""
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op != "leaf":
            nodes.append(node)
        stack.extend(node._parents)
    return nodes


class Tracer:
    """Accumulates spans while :meth:`recording`; passes calls through otherwise."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.calls_in_step = defaultdict(int)
        self.subgraph_rows = 0
        self.backward_op_s = defaultdict(float)
        self.tape_nodes = 0
        self.tape_bytes = 0
        self._recording = False
        self._open = []  # [name, seconds covered by traced children] per open span
        self._rebound = []  # (namespace, attribute, original)

    # ------------------------------------------------------------ install
    def install(self) -> None:
        for name, owner, attr in SPANS:
            self._rebind(owner, attr, self._wrap(name, getattr(owner, attr)))
        self._rebind(autodiff, "backward", self._wrap_backward(autodiff.backward))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(mod, name) for mod in list(sys.modules.values())
                       if getattr(mod, "__name__", "").split(".")[0] == "graphseqrec"
                       for name, value in list(vars(mod).items()) if value is original]
        for namespace, name in targets:
            self._rebound.append((namespace, name, original))
            setattr(namespace, name, wrapper)

    @contextmanager
    def recording(self):
        self._recording = True
        try:
            yield
        finally:
            self._recording = False

    # ------------------------------------------------------------- spans
    def _span(self, name: str, fn, args, kwargs):
        frame = [name, 0.0]
        self._open.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._open.pop()
            self.busy[name] += elapsed
            self.self_time[name] += elapsed - frame[1]
            self.calls[name] += 1
            if self._open:
                self._open[-1][1] += elapsed
                if any(open_name == TRAIN_STEP for open_name, _ in self._open):
                    self.calls_in_step[name] += 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            if name == "graph.extract_subgraph_batch":
                self.subgraph_rows += len(args[1])
            return self._span(name, fn, args, kwargs)
        return traced

    def _wrap_backward(self, fn):
        @functools.wraps(fn)
        def traced(loss):
            if not self._recording:
                return fn(loss)
            nodes = tape(loss)
            self.tape_nodes = max(self.tape_nodes, len(nodes))
            self.tape_bytes = max(self.tape_bytes, sum(n.data.nbytes for n in nodes))
            for node in nodes:
                if node._backward is not None:
                    node._backward = self._timed_closure(node.op, node._backward)
            return self._span(BACKWARD, fn, (loss,), {})
        return traced

    def _timed_closure(self, op: str, closure):
        op_s = self.backward_op_s

        def timed(grad):
            start = perf_counter()
            closure(grad)
            op_s[op] += perf_counter() - start
        return timed

    # ----------------------------------------------------------- metrics
    def metrics(self, setups: int, rounds: int) -> dict:
        """Per-layer numbers: set-up spans per set-up, the rest per timed round."""
        per_setup = ("data.ingest", "data.leave_one_out", "graph.build_transition_graph")
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}_s"] = self.busy[name] / (setups if name in per_setup else rounds)
        for name in ("graph.extract_subgraph_batch", "graph.spmv",
                     "collab.detached_perturbation", "encoder.encode",
                     "model.hidden_states", "training.evaluate_model",
                     "evaluation.rank_from_scores", TRAIN_STEP):
            out[f"{name}_calls"] = self.calls[name] / rounds
        steps = self.calls[TRAIN_STEP]
        out["graph.extract_subgraph_batch_rows"] = self.subgraph_rows / rounds
        out["collab.detached_perturbation_per_step"] = (
            self.calls_in_step["collab.detached_perturbation"] / steps if steps else 0.0)
        out["evaluation.scoring_s"] = self.self_time["training.evaluate_model"] / rounds
        out[f"{BACKWARD}_s"] = self.busy[BACKWARD] / rounds
        for op in BACKWARD_OPS:
            out[f"{BACKWARD}.{op}_s"] = self.backward_op_s[op] / rounds
        other = sum(s for op, s in self.backward_op_s.items() if op not in BACKWARD_OPS)
        out[f"{BACKWARD}.other_s"] = other / rounds
        out["autodiff.tape_nodes_per_step"] = float(self.tape_nodes)
        out["autodiff.tape_mb_per_step"] = self.tape_bytes / 2**20
        return out
