"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The end-to-end criteria share one set of trained models (three seeds
times three variants on the planted-ring benchmark), built once per session.
"""

import functools
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from graphseqrec import autodiff as ad
from graphseqrec import collab
from graphseqrec.autodiff import Tensor
from graphseqrec.cli import main as cli_main
from graphseqrec.data import (ItemSequence, build_sequences, leave_one_out,
                              pad_sequence, synth_generate)
from graphseqrec.evaluation import MetricsReport, popularity_ranks, spectrum
from graphseqrec.graph import TransitionGraph, build_transition_graph
from graphseqrec.model import Model
from graphseqrec.training import (TrainConfig, assemble_batch, next_item_loss,
                                  seq_cl_loss, total_loss, train, variant_config)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 1: graph builder vs brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_1_graph_builder_oracle_equivalence():
    rng = np.random.default_rng(42)
    num_items = 100
    seqs = []
    for u in range(200):
        length = int(rng.integers(2, 15))
        seqs.append(ItemSequence(u, [int(v) for v in rng.integers(1, num_items + 1, length)]))
    start = time.perf_counter()
    built = build_transition_graph(seqs, window=2, num_items=num_items).dense()

    weights = {}
    for seq in seqs:
        items = seq.items
        for i in range(len(items)):
            for j in range(i + 1, min(i + 2, len(items) - 1) + 1):
                key = (items[i], items[j])
                weights[key] = weights.get(key, 0.0) + 1.0 / (j - i)
    deg = np.zeros(num_items + 1)
    for (i, j), w in weights.items():
        deg[i] += w
        deg[j] += w
    oracle = np.zeros((num_items + 1, num_items + 1))
    for (i, j), w in weights.items():
        oracle[i, j] = (1.0 / deg[i] + 1.0 / deg[j]) * w
    oracle = oracle + oracle.T
    for item in {v for s in seqs for v in s.items}:
        oracle[item, item] += 1.0
    elapsed = time.perf_counter() - start
    deviation = np.abs(built - oracle).max()
    report(1, deviation < 1e-12 and elapsed < 5.0,
           f"graph builder vs pair-enumeration oracle: max dev {deviation:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: factored perturbation equals dense materialization
# ---------------------------------------------------------------------------

def dense_refined_oracle(graph_dense, emb, left, right, alpha, layers):
    perturbation = (graph_dense @ left) @ (graph_dense @ right).T
    refined = graph_dense + alpha * perturbation
    current, acc = emb.copy(), emb.copy()
    for _ in range(layers):
        current = refined @ current
        acc = acc + current
    return acc / layers


def test_criterion_2_factored_perturbation_exactness():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        num_items = int(rng.integers(5, 64))
        d = int(rng.integers(2, 9))
        rank = int(rng.integers(1, 5))
        layers = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.01, 0.5))
        seqs = [ItemSequence(u, [int(v) for v in rng.integers(1, num_items + 1,
                                                              rng.integers(2, 10))])
                for u in range(15)]
        graph = build_transition_graph(seqs, window=2, num_items=num_items)
        emb = rng.standard_normal((num_items + 1, d))
        emb[0] = 0.0
        factors = collab.init_factors(rng, num_items + 1, rank, alpha)
        factors.left.data = rng.standard_normal(factors.left.shape)
        factors.right.data = rng.standard_normal(factors.right.shape)
        fast = collab.propagate(graph, Tensor(emb), layers, factors).data
        oracle = dense_refined_oracle(graph.dense(), emb, factors.left.data,
                                      factors.right.data, alpha, layers)
        worst = max(worst, float(np.abs(fast - oracle).max()))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-8 and elapsed < 10.0,
           f"factored vs dense-materialization propagation: max abs diff {worst:.2e}, "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: linear-path scaling of the refined propagation
# ---------------------------------------------------------------------------

def random_sparse_graph(num_nodes, avg_degree, rng):
    edges = num_nodes * avg_degree // 2
    rows = rng.integers(1, num_nodes, edges)
    cols = rng.integers(1, num_nodes, edges)
    vals = rng.uniform(0.1, 1.0, edges)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(num_nodes, num_nodes))
    mat = mat + mat.T
    mat = mat + sp.eye(num_nodes, format="csr")
    return TransitionGraph(mat.tocsr())


def test_criterion_3_linear_path_scaling():
    rng = np.random.default_rng(3)
    d, rank, rounds = 32, 16, 7
    start = time.perf_counter()
    sizes = (4096, 8192, 16384)
    calls = {}
    for n in sizes:
        graph = random_sparse_graph(n + 1, 8, rng)
        emb = Tensor(rng.standard_normal((n + 1, d)))
        factors = collab.init_factors(rng, n + 1, rank, 0.05)
        calls[n] = functools.partial(collab.propagate, graph, emb, 1, factors)
    graph, emb, _, factors = calls[sizes[0]].args
    calls["dense"] = lambda: dense_refined_oracle(graph.dense(), emb.data, factors.left.data,
                                                  factors.right.data, 0.05, 1)

    # Freeing one 30 MiB block first raises glibc's dynamic mmap and trim
    # thresholds, so the timed calls reuse heap pages.  Without it the
    # largest size faults in ~18 MB of fresh pages per call and the smallest
    # none, and the ratios time the allocator instead of the propagation.
    np.ones(30 * 2**20 // 8).sum()
    # one untimed warm-up call each; then the calls are interleaved over
    # rounds, so a slow spell of the machine inflates every size alike, and
    # each keeps its minimum.  A call is timed by the CPU time of this
    # thread, so other processes' load on the host does not count
    for call in calls.values():
        call()
    times = dict.fromkeys(calls, np.inf)
    for _ in range(rounds):
        for key, call in calls.items():
            t0 = time.thread_time()
            call()
            times[key] = min(times[key], time.thread_time() - t0)
    ratio1 = times[8192] / times[4096]
    ratio2 = times[16384] / times[8192]
    slowdown = times["dense"] / times[4096]
    elapsed = time.perf_counter() - start
    report(3, ratio1 <= 3.0 and ratio2 <= 3.0 and slowdown >= 10.0 and elapsed < 120.0,
           f"doubling ratios {ratio1:.2f}, {ratio2:.2f} (need <= 3), dense path "
           f"{slowdown:.0f}x slower (need >= 10x), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: gradient suite on the toy model
# ---------------------------------------------------------------------------

def toy_setup():
    num_items, d, n, b = 12, 4, 6, 3
    log = synth_generate(b + 2, num_items, noise=0.4, seed=9, seq_len=n + 2)
    dataset = leave_one_out(build_sequences(log, min_count=1))
    cfg = TrainConfig(dim=d, max_len=n, batch_size=b, rank=2, encoder_layers=1,
                      heads=1, gcn_layers=2, alpha=0.1, lambda1=0.3, lambda2=0.2,
                      dropout=0.0, pge_graph="original", max_epochs=2, patience=1)
    graph = build_transition_graph(
        [ItemSequence(u.user_id, u.train) for u in dataset.users],
        cfg.window, dataset.num_items)
    model = Model(cfg.model_config(dataset.num_items, dataset.num_users), graph,
                  np.random.default_rng(5))
    batch = assemble_batch(dataset.users[:b], model.cfg, np.random.default_rng(1),
                           np.random.default_rng(2))
    return model, batch, cfg


def test_criterion_4_gradient_suite():
    model, batch, cfg = toy_setup()
    start = time.perf_counter()

    def loss_rec():
        hidden = model.hidden_states(batch.seqs, batch.user_ids, model.subgraph_perturbation())
        return next_item_loss(hidden, model.params["item_emb"], batch.targets,
                              batch.negatives, batch.step_mask)

    def loss_gce():
        orig, refined = model.graph_representations(batch.seqs[:, -1])
        return collab.gce_loss(orig, refined, cfg.tau)

    def loss_seq():
        pert = model.subgraph_perturbation()
        return seq_cl_loss(model.user_reprs(batch.view1, batch.user_ids, pert),
                           model.user_reprs(batch.view2, batch.user_ids, pert), cfg.tau)

    def loss_total():
        return total_loss(loss_rec(), loss_gce(), loss_seq(), cfg.lambda1, cfg.lambda2)

    h = 1e-5
    worst = 0.0
    for label, loss_fn in (("rec", loss_rec), ("gce", loss_gce),
                           ("seq", loss_seq), ("total", loss_total)):
        model.zero_grads()
        ad.backward(loss_fn())
        for name, t in model.params.items():
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            numeric = np.zeros_like(t.data)
            flat, nflat = t.data.ravel(), numeric.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float(loss_fn().data)
                flat[i] = orig - h
                down = float(loss_fn().data)
                flat[i] = orig
                nflat[i] = (up - down) / (2 * h)
            scale = max(1.0, np.abs(analytic).max(), np.abs(numeric).max())
            err = float(np.abs(analytic - numeric).max()) / scale
            worst = max(worst, err)
            assert err < 1e-4, f"{label} loss, parameter {name}: rel err {err:.3g}"
    elapsed = time.perf_counter() - start
    report(4, worst < 1e-4 and elapsed < 60.0,
           f"all parameter gradients within 1e-4 of central differences "
           f"(worst {worst:.2e}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: closed-form loss values
# ---------------------------------------------------------------------------

def test_criterion_5_closed_form_loss_values():
    rng = np.random.default_rng(0)
    single = float(collab.gce_loss(Tensor(rng.standard_normal((1, 4))),
                                   Tensor(rng.standard_normal((1, 4))), 0.2).data)
    ortho = np.eye(2)
    pair = float(collab.gce_loss(Tensor(ortho), Tensor(ortho.copy()), 0.2).data)
    pair_target = 2.0 * np.log1p(np.exp(-5.0))
    bce = float(next_item_loss(Tensor(np.ones((1, 1, 2))), Tensor(np.zeros((3, 2))),
                               np.array([[1]]), np.array([[2]]),
                               np.array([[1.0]])).data)
    bce_target = 2.0 * np.log(2.0)
    ok = single == 0.0 and abs(pair - pair_target) < 1e-9 and abs(bce - bce_target) < 1e-12
    report(5, ok,
           f"gce(|B|=1)={single}, gce(orthonormal pair) off by "
           f"{abs(pair - pair_target):.1e} (<1e-9), zero-logit step off by "
           f"{abs(bce - bce_target):.1e} (<1e-12)")


# ---------------------------------------------------------------------------
# criterion 6: toggle bit-equivalence
# ---------------------------------------------------------------------------

def test_criterion_6_toggle_bit_equivalence():
    rng = np.random.default_rng(11)
    log = synth_generate(20, 15, noise=0.3, seed=6, seq_len=8)
    dataset = leave_one_out(build_sequences(log, min_count=1))
    cfg = TrainConfig(dim=8, max_len=8, batch_size=8, rank=2, encoder_layers=1,
                      dropout=0.0, max_epochs=2, patience=1)
    graph = build_transition_graph(
        [ItemSequence(u.user_id, u.train) for u in dataset.users],
        cfg.window, dataset.num_items)
    seqs = np.stack([pad_sequence(u.train, cfg.max_len) for u in dataset.users[:6]])
    users = np.arange(6)

    zeroed = Model(cfg.model_config(dataset.num_items, dataset.num_users), graph,
                   np.random.default_rng(1))
    zeroed.params["pge_w2"].data[:] = 0.0
    disabled = Model(replace(cfg, enable_pge=False).model_config(
        dataset.num_items, dataset.num_users), graph, np.random.default_rng(1))
    pge_ok = (zeroed.hidden_states(seqs, users, zeroed.subgraph_perturbation()).data.tobytes()
              == disabled.hidden_states(seqs, users, None).data.tobytes())

    emb = Tensor(np.vstack([np.zeros(4), rng.standard_normal((dataset.num_items, 4))]))
    factors = collab.init_factors(rng, dataset.num_items + 1, 2, strength=0.0)
    alpha_ok = (collab.propagate(graph, emb, 2, factors).data.tobytes()
                == collab.propagate(graph, emb, 2).data.tobytes())

    rec = Tensor(np.asarray(1.234), requires_grad=True)
    lambdas_ok = total_loss(rec, Tensor(np.asarray(9.0)), Tensor(np.asarray(3.0)),
                            0.0, 0.0) is rec

    report(6, pge_ok and alpha_ok and lambdas_ok,
           f"zeroed-projection==disabled encoding: {pge_ok}, zero-strength==original "
           f"propagation: {alpha_ok}, zero-weight total==rec object: {lambdas_ok}")


# ---------------------------------------------------------------------------
# criteria 7, 8, 10 share the planted-ring benchmark runs
# ---------------------------------------------------------------------------

BENCH_SEEDS = (0, 1, 2)


def benchmark_config(seed):
    return TrainConfig(dim=32, max_len=20, batch_size=256, rank=8,
                       encoder_layers=2, heads=2, gcn_layers=2, alpha=0.05,
                       lambda1=0.1, lambda2=0.1, dropout=0.2, lr=1e-3,
                       max_epochs=12, patience=11, seed=seed)


@pytest.fixture(scope="session")
def benchmark_runs():
    log = synth_generate(num_users=500, num_items=200, noise=0.2, seed=101,
                         seq_len=20)
    dataset = leave_one_out(build_sequences(log, min_count=1))
    runs = {}
    wall = {}
    for variant in ("full", "no_pge", "no_agcl"):
        for seed in BENCH_SEEDS:
            cfg = variant_config(benchmark_config(seed), variant)
            t0 = time.perf_counter()
            runs[(variant, seed)] = train(cfg, dataset)
            wall[(variant, seed)] = time.perf_counter() - t0
    return dataset, runs, wall


def test_criterion_7_end_to_end_learning(benchmark_runs):
    dataset, runs, wall = benchmark_runs
    pop = MetricsReport.from_ranks(popularity_ranks(dataset, "test"))
    model_hr10 = np.median([runs[("full", s)].test_report.hr[10] for s in BENCH_SEEDS])
    full_time = sum(wall[("full", s)] for s in BENCH_SEEDS)
    ok = model_hr10 >= 2.0 * pop.hr[10] and full_time < 600.0
    report(7, ok,
           f"median test HR@10 {model_hr10:.3f} vs popularity {pop.hr[10]:.3f} "
           f"(need >= 2x), full-model training {full_time:.0f}s (< 600s)")


def test_criterion_8_ablation_direction(benchmark_runs):
    dataset, runs, _ = benchmark_runs
    scores = {variant: np.array([runs[(variant, s)].test_report.ndcg[10]
                                 for s in BENCH_SEEDS])
              for variant in ("full", "no_pge", "no_agcl")}
    full = scores["full"]
    lines = [f"full median NDCG@10 {np.median(full):.4f}"]
    ok = True
    for variant in ("no_pge", "no_agcl"):
        abl = scores[variant]
        pooled = float(np.sqrt((full.std(ddof=1) ** 2 + abl.std(ddof=1) ** 2) / 2.0))
        margin = float(np.median(abl) - np.median(full))
        regression = margin > pooled
        ok = ok and not regression
        lines.append(f"{variant} median {np.median(abl):.4f} "
                     f"(margin {margin:+.4f}, pooled std {pooled:.4f})")
    report(8, ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    log_path = tmp_path / "log.tsv"
    assert cli_main(["synth", "--out", str(log_path), "--users", "60", "--items",
                     "30", "--seq-len", "10", "--noise", "0.3", "--seed", "13"]) == 0
    blobs = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        code = cli_main(["train", "--dataset", str(log_path), "--outdir", str(outdir),
                         "--dim", "8", "--max-len", "10", "--rank", "2",
                         "--encoder-layers", "1", "--batch-size", "32",
                         "--max-epochs", "3", "--patience", "2", "--min-count", "1",
                         "--seed", "17"])
        assert code == 0
        blobs.append((outdir / "metrics.log").read_bytes())
    ok = blobs[0] == blobs[1]
    report(9, ok, f"two identically configured runs: metrics.log byte-identical: {ok}")


# ---------------------------------------------------------------------------
# criterion 10: spectrum sanity and collapse diagnostic
# ---------------------------------------------------------------------------

def test_criterion_10_spectrum_sanity(benchmark_runs):
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(10):
        m = rng.standard_normal((int(rng.integers(5, 40)), int(rng.integers(2, 12))))
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        worst = max(worst, float(np.abs(u @ np.diag(s) @ vt - m).max()))
        sv = spectrum(m).singular_values
        np.testing.assert_allclose(sv, s, atol=1e-10)

    dataset, runs, _ = benchmark_runs
    k = benchmark_config(0).dim // 2
    tails = {}
    for variant in ("full", "no_agcl"):
        ratios = [spectrum(runs[(variant, s)].model.params["item_emb"].data[1:])
                  .tail_ratio(k) for s in BENCH_SEEDS]
        tails[variant] = float(np.median(ratios))
    ok = worst < 1e-8
    report(10, ok,
           f"SVD reconstruction max err {worst:.2e} (<1e-8); singular-value tail "
           f"sigma_{k}/sigma_1: full={tails['full']:.4f}, "
           f"zero-weight baseline={tails['no_agcl']:.4f} (recorded, not gated)")
