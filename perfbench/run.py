"""Benchmark of graphseqrec's public path on generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ring-small --seed 1 --seconds 25 --trace 0

A run generates an interaction log from ``--seed``, writes it under
``.bench_build/`` and drives the library on that file alone:
``data.ingest`` -> ``leave_one_out`` -> ``build_transition_graph`` -> ``Model``
(set-up, repeated), an untimed one-epoch warm-up training, then rounds of
``training.train`` for a fixed epoch count, each followed by full-ranking
``evaluate_model`` passes on the test split, until ``--seconds`` have passed
(one round at least), and a ``Model.save`` -> ``Model.load`` round trip.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's public functions (``spans.py``) and reports per-module metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

# All load comes from this one process.  One BLAS thread keeps timings
# repeatable on a small shared machine; it must be set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import scipy
    import graphseqrec
    from graphseqrec import data, graph, training
    from graphseqrec.data import ItemSequence, SplitDataset
    from graphseqrec.evaluation import hr_ndcg, popularity_ranks
    from graphseqrec.model import Model
except ImportError as exc:
    sys.exit(f"perfbench: cannot import graphseqrec from {SRC}: {exc}")
if not Path(graphseqrec.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: graphseqrec was imported from {graphseqrec.__file__}, not {SRC}")

import spans  # noqa: E402  (needs graphseqrec on the path)


@dataclass(frozen=True)
class Workload:
    """A synthetic ring log (noise 0.2, min_count 1) and the model trained on it."""
    users: int
    items: int
    events: int
    max_len: int
    batch_size: int
    enable_pge: bool = True


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "ring-small": Workload(users=500, items=200, events=20, max_len=20, batch_size=256),
    "catalog-large": Workload(users=2000, items=20000, events=20, max_len=20,
                              batch_size=256),
    "long-seq-nopge": Workload(users=300, items=500, events=100, max_len=50,
                               batch_size=100, enable_pge=False),
}

# At lr 0.005, 3 epochs put test NDCG@20 far above popularity with a spread
# across seeds of a few percent; at 2 epochs, or at lr 0.01, catalog-large is
# still early in learning and its NDCG@20 spreads by +-10-20%.
LR = 0.005
EPOCHS = 3
SETUPS = 7
EVAL_PASSES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_seqs_per_s": "seq/s",
    "eval_users_per_s": "users/s",
    "peak_rss_mb": "MB",
    "test_ndcg20": "1",
    "ops_ok_frac": "1",
}

PER_LAYER_UNITS = {
    "autodiff.tape_mb_per_step": "MB",
    "collab.detached_perturbation_per_step": "1/step",
    "trace.train_seqs_per_s": "seq/s",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def train_config(w: Workload, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        dim=32, max_len=w.max_len, batch_size=w.batch_size, lr=LR, rank=8,
        heads=2, encoder_layers=2, dropout=0.2, lambda1=0.1, lambda2=0.1,
        enable_pge=w.enable_pge, max_epochs=EPOCHS, patience=EPOCHS - 1, seed=seed)


def write_log(w: Workload, seed: int, path: Path) -> None:
    data.write_interactions(path, data.synth_generate(
        w.users, w.items, noise=0.2, seed=seed, seq_len=w.events))


def set_up(log_path: Path, cfg: training.TrainConfig):
    """Interaction log on disk -> split dataset, finalized graph, initialized model."""
    dataset = data.leave_one_out(data.ingest(log_path, min_count=1))
    train_graph = graph.build_transition_graph(
        [ItemSequence(u.user_id, u.train) for u in dataset.users],
        cfg.window, dataset.num_items, cfg.degree_mode)
    model = Model(cfg.model_config(dataset.num_items, dataset.num_users), train_graph,
                  np.random.default_rng([cfg.seed, 0]))
    return dataset, train_graph, model


class Ops:
    """Attempted and failed operations: train steps, evaluation passes, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, count: int, what: str, fn, *args, **kwargs):
        """Call fn as ``count`` operations; on an exception count them failed."""
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failing operation is counted, the run goes on
            self.failed += count
            print(f"perfbench: {what} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - start


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    if not trace:
        return _run(w, seed, seconds, None, workdir)
    tracer = spans.Tracer()
    tracer.install()
    try:
        return _run(w, seed, seconds, tracer, workdir)
    finally:
        tracer.uninstall()


def _run(w, seed, seconds, tracer, workdir) -> dict:
    recording = tracer.recording if tracer else nullcontext
    ops = Ops()
    cfg = train_config(w, seed)
    log_path = workdir / "interactions.tsv"
    write_log(w, seed, log_path)

    setup_s = []
    for _ in range(SETUPS):
        with recording():
            (dataset, train_graph, _), elapsed = timed(set_up, log_path, cfg)
        setup_s.append(elapsed)
    steps_per_epoch = -(-dataset.num_users // cfg.batch_size)

    # An untimed one-epoch training lets allocations and lazy state settle.
    # Randomness is keyed on (seed, epoch, batch), so its epoch-1 history line
    # must equal that of every timed training.
    warm = ops.run(steps_per_epoch, "warm-up training", training.train,
                   replace(cfg, max_epochs=1, patience=0), dataset, train_graph)

    train_rates, eval_rates, histories, ranks = [], [], [], []
    result = None
    start, last_round = perf_counter(), 0.0
    # Start another round only if it should end within --seconds.
    while not histories or perf_counter() - start + last_round <= seconds:
        round_start = perf_counter()
        with recording():
            timed_train = ops.run(cfg.max_epochs * steps_per_epoch, "training", timed,
                                  training.train, cfg, dataset, train_graph)
            if timed_train is None:
                break
            result, elapsed = timed_train
            train_rates.append(dataset.num_users * cfg.max_epochs / elapsed)
            histories.append(result.history)
            for _ in range(EVAL_PASSES):
                timed_eval = ops.run(1, "test evaluation", timed, training.evaluate_model,
                                     result.model, dataset, "test", cfg.batch_size,
                                     cfg.exclude_history, keep_ranks=True)
                if timed_eval is not None:
                    report, elapsed = timed_eval
                    eval_rates.append(dataset.num_users / elapsed)
                    ranks.append(report.ranks)
        last_round = perf_counter() - round_start

    ndcg20 = 0.0
    if result is not None and ranks:
        ndcg20 = hr_ndcg(ranks[0], 20)[1]
        ops.check(all(h == histories[0] for h in histories),
                  f"metrics history differs across {len(histories)} same-seed trainings")
        ops.check(warm is not None and all(h[0] == warm.history[0] for h in histories),
                  "epoch 1 differs between the warm-up and a same-seed training")
        ops.check(all(r == ranks[0] for r in ranks),
                  f"test ranks differ across {len(ranks)} evaluation passes")
        restored = ops.run(1, "checkpoint round trip", checkpoint_ranks,
                           result.model, cfg, dataset, train_graph, workdir / "model.ckpt")
        if restored is not None:
            ops.check(restored == ranks[0], "restored model ranks the test split differently")
        pop = hr_ndcg(popularity_ranks(dataset, "test", cfg.exclude_history), 20)[1]
        ops.check(ndcg20 > pop, f"test NDCG@20 {ndcg20:.4f} does not beat popularity {pop:.4f}")

    if tracer:
        metrics = tracer.metrics(SETUPS, max(len(histories), 1))
        metrics["trace.train_seqs_per_s"] = median_or_zero(train_rates)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "train_seqs_per_s": median_or_zero(train_rates),
            "eval_users_per_s": median_or_zero(eval_rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "test_ndcg20": ndcg20,
            "ops_ok_frac": (ops.attempted - ops.failed) / ops.attempted,
        }
        units = END_TO_END_UNITS
    correct = ops.failed == 0 and bool(histories)
    return {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def checkpoint_ranks(trained: Model, cfg, dataset, train_graph, path: Path) -> list:
    """Save, load into a freshly initialized model, and rank the test split."""
    trained.save(path)
    fresh = Model(cfg.model_config(dataset.num_items, dataset.num_users), train_graph,
                  np.random.default_rng([cfg.seed, 1]))
    fresh.load(path)
    return training.evaluate_model(fresh, dataset, "test", cfg.batch_size,
                                   cfg.exclude_history, keep_ranks=True).ranks


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("machine " + json.dumps(machine()))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
