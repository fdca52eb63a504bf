import sys
import threading
import time
from itertools import chain

import numpy as np
import pytest

from graphseqrec import evaluation as ev
from graphseqrec import training as tr
from graphseqrec.data import (EmptyDataset, ItemSequence, SplitDataset, UserSplit,
                              build_sequences, leave_one_out, pad_sequence, synth_generate)
from graphseqrec.graph import build_transition_graph
from graphseqrec.model import Model
from graphseqrec.training import TrainConfig, evaluate_model


def masked_rank_from_scores(scores, histories, targets, exclude_history=True):
    """The replaced ranker: a (B, V) candidate mask, swept by two comparisons
    and two counts.  Kept as the oracle for the count-and-correct ranker."""
    rows, num_items = scores.shape
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.ones(scores.shape, dtype=bool)
    if exclude_history:
        hist_rows = np.repeat(np.arange(rows), [len(h) for h in histories])
        hist_items = np.fromiter(chain.from_iterable(histories), dtype=np.int64,
                                 count=hist_rows.size)
        kept = hist_items > 0
        mask[hist_rows[kept], hist_items[kept] - 1] = False
    by_row = np.arange(rows)
    assert mask[by_row, targets - 1].all()
    target_score = scores[by_row, targets - 1][:, None]
    beaten = np.greater(scores, target_score)
    beaten &= mask
    higher = np.count_nonzero(beaten, axis=1)
    tied_lower = np.equal(scores, target_score, out=beaten)
    tied_lower &= mask
    smaller_id = np.less(np.arange(1, num_items + 1), targets[:, None], out=mask)
    tied_lower &= smaller_id
    return 1 + higher + np.count_nonzero(tied_lower, axis=1)


def chunked_popularity_ranks(dataset, split, exclude_history=True):
    """The replaced baseline: per-item counts, broadcast into 256-row score
    blocks for the masked ranker."""
    counts = np.zeros(dataset.num_items, dtype=np.float64)
    for user in dataset.users:
        for item in user.train:
            counts[item - 1] += 1.0
    rows = ev.eval_input_sequences(dataset, split)
    ranks = []
    for start in range(0, len(rows), 256):
        chunk = rows[start:start + 256]
        ranks.append(masked_rank_from_scores(
            np.broadcast_to(counts, (len(chunk), counts.size)),
            [history for _, _, history in chunk], [target for _, target, _ in chunk],
            exclude_history))
    return np.concatenate(ranks).tolist()


def planted_block(rng, rows, items, history_len):
    """Scores with planted ties, targets and histories that hold padding and
    duplicate ids.  Ties: whole tied rows, ties at smaller and larger ids,
    and history items tied with the target."""
    scores = rng.standard_normal((rows, items))
    scores[::7] = 0.5
    targets = rng.integers(1, items + 1, rows)
    targets[:3] = [1, items, 1 + items // 2][:rows]
    histories = []
    for b in range(rows):
        t = int(targets[b])
        tie_ids = rng.integers(1, items + 1, 4)
        scores[b, tie_ids - 1] = scores[b, t - 1]
        history = rng.integers(0, items + 1, history_len).tolist() + tie_ids[:2].tolist()
        history = [h for h in history if h != t]
        histories.append(history if b % 2 else set(history))
    return scores, histories, targets


def sort_oracle(scores, history, target, exclude_history=True):
    """Full-sort ranking with the same pessimistic tie rule."""
    history = set(history)
    rows = [(item, s) for item, s in enumerate(scores, start=1)
            if not (exclude_history and item in history)]
    ordered = sorted(rows, key=lambda row: (-row[1], row[0]))
    return 1 + next(i for i, (item, _) in enumerate(ordered) if item == target)


def rank_one(scores, history, target, exclude_history=True):
    """The batched ranker on a one-row block."""
    ranks = ev.rank_from_scores(np.asarray(scores)[None, :], [history], [target],
                                exclude_history)
    assert ranks.shape == (1,)
    return int(ranks[0])


class TestRankTarget:
    def test_unique_max_is_rank_one(self, rng):
        emb = np.zeros((6, 3))
        emb[3] = [1.0, 1.0, 1.0]
        assert rank_one(emb[1:] @ np.ones(3), history=set(), target=3) == 1

    def test_all_ties_largest_id_ranks_last(self):
        scores = np.zeros(7)
        assert rank_one(scores, set(), target=7) == 7
        # every target of an all-tied block ranks at its own id
        np.testing.assert_array_equal(
            ev.rank_from_scores(np.zeros((7, 7)), [set()] * 7, np.arange(1, 8)),
            np.arange(1, 8))

    def test_matches_sort_oracle(self, rng):
        for _ in range(50):
            scores = rng.standard_normal(30)
            scores[rng.integers(0, 30, 5)] = scores[0]  # force some ties
            history = {int(v) for v in rng.integers(1, 31, 6)}
            target = int(rng.integers(1, 31))
            history.discard(target)
            got = rank_one(scores, history, target)
            assert got == sort_oracle(scores, history, target)

    def test_excluded_target_is_error(self):
        with pytest.raises(ValueError, match="target item 2"):
            rank_one(np.zeros(4), {2}, target=2)
        # in a block, the error names the first row's excluded target
        with pytest.raises(ValueError, match="target item 3 is excluded"):
            ev.rank_from_scores(np.zeros((3, 4)), [{1}, {3}, {4}], [2, 3, 4])

    def test_history_id_above_the_catalog_names_its_row(self):
        scores = np.arange(15.0).reshape(3, 5)
        with pytest.raises(ValueError, match=r"row 2: history item 8 is outside 1\.\.5"):
            ev.rank_from_scores(scores, [{1}, {2, 5}, {3, 8, 9}], [2, 3, 4])
        # padding and negative ids stay ignored; unread without exclusion
        np.testing.assert_array_equal(
            ev.rank_from_scores(scores, [{0, -3}, {0}, {-1, 1}], [2, 3, 4]), [4, 3, 2])
        np.testing.assert_array_equal(
            ev.rank_from_scores(scores, [{1}, {2}, {8}], [2, 3, 4], exclude_history=False),
            [4, 3, 2])

    def test_history_exclusion_only_helps(self, rng):
        # removing candidates that score below the target never changes rank
        for _ in range(20):
            scores = rng.standard_normal(20)
            target = int(np.argmax(scores)) + 1
            weak = {int(i) + 1 for i in rng.integers(0, 20, 4)} - {target}
            with_hist = rank_one(scores, weak, target)
            without = rank_one(scores, set(), target, exclude_history=False)
            assert with_hist == without == 1

    @pytest.mark.parametrize("exclude_history", [True, False])
    def test_block_matches_sort_oracle_row_by_row(self, rng, exclude_history):
        rows, items = 50, 30
        scores = rng.standard_normal((rows, items))
        # ties inside rows, and whole rows copied from others
        for b in range(rows):
            scores[b, rng.integers(0, items, 6)] = scores[b, rng.integers(0, items)]
        scores[10] = scores[3]
        scores[20] = 0.0
        targets = rng.integers(1, items + 1, rows)
        histories = []
        for b in range(rows):
            history = {int(v) for v in rng.integers(0, items + 1, int(rng.integers(0, 12)))}
            history.discard(int(targets[b]))
            histories.append(history)  # may hold the padding id 0, which is ignored
        got = ev.rank_from_scores(scores, histories, targets, exclude_history)
        assert got.shape == (rows,)
        for b in range(rows):
            want = sort_oracle(scores[b], histories[b] - {0}, int(targets[b]),
                               exclude_history)
            assert got[b] == want, b

    def test_out_of_range_target_and_shape_errors(self):
        with pytest.raises(ValueError, match="target item 5 is outside 1..4"):
            ev.rank_from_scores(np.zeros((2, 4)), [set(), set()], [1, 5])
        with pytest.raises(ValueError, match="2 targets for 3 score rows"):
            ev.rank_from_scores(np.zeros((3, 4)), [set()] * 3, [1, 2])
        with pytest.raises(ValueError, match=r"\(B, V\) block"):
            ev.rank_from_scores(np.zeros(4), [set()], [1])

    def test_non_finite_target_score_names_its_row(self):
        # a NaN target compares false with every score: it has no rank
        scores = np.zeros((3, 4))
        scores[1, 2] = np.nan
        scores[2, 0] = np.nan  # not a target: ranked as before
        with pytest.raises(ValueError, match="row 1: target score nan is not finite"):
            ev.rank_from_scores(scores, [set()] * 3, [1, 3, 2])
        scores[1, 2] = -np.inf
        with pytest.raises(ValueError, match="row 1: target score -inf"):
            ev.rank_from_scores(scores, [set()] * 3, [1, 3, 2])

    @pytest.mark.parametrize("exclude_history", [True, False])
    def test_nan_candidate_counts_ahead_of_the_target(self, exclude_history):
        # a NaN compares false both ways, so counting scores above the target
        # would let it fall behind
        assert ev.rank_from_scores(np.array([[np.nan, 1.0, 0.5]]), [[]], [2],
                                   exclude_history).tolist() == [2]
        scores = np.array([[np.nan, 0.5, 0.5, np.nan, 0.1]])
        # ahead of item 3: both NaNs and the smaller tied id 2
        for history, excluded_rank in (([], 4), ([1], 3), ([1, 2, 4], 1), ([5], 4)):
            want = excluded_rank if exclude_history else 4
            assert ev.rank_from_scores(scores, [history], [3], exclude_history).tolist() == [want]


class TestCountAndCorrectAgainstMaskedOracle:
    @pytest.mark.parametrize("exclude_history", [True, False])
    @pytest.mark.parametrize("rows,items,history_len", [
        (1, 1, 0), (1, 9, 6), (1, 300, 40), (2, 2, 3), (37, 23, 12), (64, 200, 19),
        (256, 17271, 19)])
    def test_planted_ties(self, rng, exclude_history, rows, items, history_len):
        for _ in range(3 if rows * items < 10**6 else 1):
            scores, histories, targets = planted_block(rng, rows, items, history_len)
            got = ev.rank_from_scores(scores, histories, targets, exclude_history)
            want = masked_rank_from_scores(scores, histories, targets, exclude_history)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("exclude_history", [True, False])
    def test_integer_scores_tie_everywhere(self, rng, exclude_history):
        for _ in range(30):
            rows, items = int(rng.integers(1, 12)), int(rng.integers(1, 40))
            scores = rng.integers(-2, 3, (rows, items)).astype(np.float64)
            targets = rng.integers(1, items + 1, rows)
            histories = [[h for h in rng.integers(0, items + 1, 2 * items).tolist()
                          if h != targets[b]] for b in range(rows)]
            np.testing.assert_array_equal(
                ev.rank_from_scores(scores, histories, targets, exclude_history),
                masked_rank_from_scores(scores, histories, targets, exclude_history))

    def test_catalog_wider_than_a_16_bit_count(self):
        scores = np.zeros((2, 70000))
        scores[0, :66000] = 1.0
        targets = [69999, 70000]
        histories = [{1, 2, 0}, {5}]
        np.testing.assert_array_equal(
            ev.rank_from_scores(scores, histories, targets),
            masked_rank_from_scores(scores, histories, targets))
        np.testing.assert_array_equal(
            ev.rank_from_scores(scores, histories, targets, exclude_history=False),
            [69999, 70000])


class TestPopularityAgainstChunkedOracle:
    @pytest.mark.parametrize("exclude_history", [True, False])
    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_synthetic_logs(self, exclude_history, split):
        for users, items, seq_len in [(40, 12, 10), (300, 1000, 8), (600, 50, 20)]:
            for seed in range(3):
                log = synth_generate(users, items, noise=0.5, seed=seed, seq_len=seq_len)
                dataset = leave_one_out(build_sequences(log, min_count=1))
                assert (ev.popularity_ranks(dataset, split, exclude_history)
                        == chunked_popularity_ranks(dataset, split, exclude_history))

    def test_history_tied_with_the_target_at_smaller_ids(self):
        # items 1, 2 and 3 are seen twice each in training; 4 and 5 never
        dataset = SplitDataset([UserSplit(0, [1, 2, 3], 4, 3),
                                UserSplit(1, [3, 2, 1], 2, 5)], num_items=5)
        for split in ("valid", "test"):
            for exclude in (True, False):
                assert (ev.popularity_ranks(dataset, split, exclude)
                        == chunked_popularity_ranks(dataset, split, exclude))
        # test row 0: target 3 ties 1 and 2, both in its history
        assert ev.popularity_ranks(dataset, "test") == [1, 2]
        assert ev.popularity_ranks(dataset, "test", exclude_history=False) == [3, 5]


class TestEvaluateModelRanks:
    def case(self, enable_pge=True):
        log = synth_generate(7, 15, noise=0.4, seed=2, seq_len=9)
        dataset = leave_one_out(build_sequences(log, min_count=1))
        cfg = TrainConfig(dim=8, max_len=8, batch_size=3, rank=2, encoder_layers=1,
                          heads=2, enable_pge=enable_pge)
        graph = build_transition_graph([ItemSequence(u.user_id, u.train) for u in dataset.users],
                                       cfg.window, dataset.num_items)
        model = Model(cfg.model_config(dataset.num_items, dataset.num_users), graph,
                      np.random.default_rng(3))
        return dataset, cfg, model

    def reference_ranks(self, dataset, cfg, model, split, batch_size):
        """One thread, a fresh product per chunk and the masked ranker."""
        rows = ev.eval_input_sequences(dataset, split)
        detached = model.detached()
        item_emb = detached.params["item_emb"].data
        perturbation = detached.subgraph_perturbation()
        want = []
        for start in range(0, len(rows), batch_size):
            chunk = rows[start:start + batch_size]
            seqs = np.stack([pad_sequence(inp, cfg.max_len) for inp, _, _ in chunk])
            user_ids = [u.user_id for u in dataset.users[start:start + batch_size]]
            reprs = detached.user_reprs(seqs, user_ids, perturbation).data
            want.extend(masked_rank_from_scores(
                reprs @ item_emb[1:].T, [h for _, _, h in chunk], [t for _, t, _ in chunk]))
        return [int(r) for r in want]

    @pytest.mark.parametrize("block_rows", [None, 2])
    @pytest.mark.parametrize("enable_pge", [True, False])
    def test_reused_block_matches_fresh_products(self, enable_pge, block_rows, monkeypatch):
        dataset, cfg, model = self.case(enable_pge)
        if block_rows is not None:  # a catalog too large for a whole chunk at a time
            monkeypatch.setattr(tr, "SCORE_BLOCK_BYTES", block_rows * 8 * dataset.num_items)
        main = threading.current_thread()
        scored = []
        monkeypatch.setattr(tr, "rank_from_scores", lambda scores, histories, targets, *rest: (
            scored.append((threading.current_thread() is main, list(targets), scores.nbytes)),
            ev.rank_from_scores(scores, histories, targets, *rest))[1])
        threads = threading.active_count()
        for split in ("valid", "test"):
            scored.clear()
            got = evaluate_model(model, dataset, split, batch_size=3, keep_ranks=True).ranks
            assert got == self.reference_ranks(dataset, cfg, model, split, 3)
            # chunks of 3, 3 and 1 rows: chunks 0 and 2 are ranked on the
            # calling thread, chunk 1 on the worker, each as many rows at a
            # time as a block holds; the two threads' calls interleave
            targets = [t for _, t, _ in ev.eval_input_sequences(dataset, split)]
            assert len(targets) == 7 and targets[:3] != targets[3:6]
            step = block_rows or 3
            parts = ([], [])  # (on the calling thread, on the worker)
            for chunk, start in enumerate(range(0, 7, 3)):
                for lo in range(start, min(start + 3, 7), step):
                    parts[chunk % 2].append(targets[lo:min(lo + step, start + 3)])
            assert [t for is_main, t, _ in scored if is_main] == parts[0]
            assert [t for is_main, t, _ in scored if not is_main] == parts[1]
            assert max(nbytes for _, _, nbytes in scored) <= tr.SCORE_BLOCK_BYTES
        assert threading.active_count() == threads

    @pytest.mark.parametrize("batch_size", range(1, 9))
    @pytest.mark.parametrize("enable_pge", [True, False])
    def test_every_chunk_count_ranks_as_the_reference_loop(self, enable_pge, batch_size):
        # 1 to 7 chunks of the 7 users: odd and even counts, a short last chunk
        dataset, cfg, model = self.case(enable_pge)
        for split in ("valid", "test"):
            got = evaluate_model(model, dataset, split, batch_size, keep_ranks=True).ranks
            assert got == self.reference_ranks(dataset, cfg, model, split, batch_size)

    def test_one_chunk_pass_starts_no_thread(self, monkeypatch):
        dataset, _, model = self.case()
        seen = []
        monkeypatch.setattr(tr, "rank_from_scores", lambda *args: (
            seen.append((threading.current_thread(), threading.active_count())),
            ev.rank_from_scores(*args))[1])
        threads = threading.active_count()
        evaluate_model(model, dataset, "valid", batch_size=7)
        assert seen == [(threading.current_thread(), threads)]

    def poison(self, monkeypatch, row_by_thread, delay=0.0):
        """Patch ``rank_from_scores`` to score NaN at the target of row
        ``row_by_thread[on the calling thread]`` (None: no row); the worker
        first sleeps ``delay`` s.  Returns the lists ``raised`` (on the calling
        thread, error) and ``ranked`` (on the calling thread), appended per
        block."""
        main = threading.current_thread()
        raised, ranked = [], []

        def poisoned(scores, histories, targets, *rest):
            is_main = threading.current_thread() is main
            if not is_main:
                time.sleep(delay)
            row = row_by_thread[is_main]
            if row is not None:
                scores[row, targets[row] - 1] = np.nan
            try:
                ranks = ev.rank_from_scores(scores, histories, targets, *rest)
            except ValueError as exc:
                raised.append((is_main, exc))
                raise
            ranked.append(is_main)
            return ranks

        monkeypatch.setattr(tr, "rank_from_scores", poisoned)
        return raised, ranked

    def test_callers_error_wins_when_both_chunks_fail(self, monkeypatch):
        dataset, _, model = self.case()
        raised, _ = self.poison(monkeypatch, {True: 0, False: 1})
        threads = threading.active_count()
        with pytest.raises(ValueError, match=r"^row 0: target score nan is not finite$") as err:
            evaluate_model(model, dataset, "valid", batch_size=3)
        errors = dict(raised)  # both chunks failed; the worker's error is dropped
        assert len(raised) == 2 and errors[True] is err.value
        assert str(errors[False]) == "row 1: target score nan is not finite"
        assert threading.active_count() == threads

    def test_callers_error_waits_for_the_worker(self, monkeypatch):
        dataset, _, model = self.case()
        raised, ranked = self.poison(monkeypatch, {True: 0, False: None}, delay=0.2)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=r"^row 0: target score nan is not finite$") as err:
            evaluate_model(model, dataset, "valid", batch_size=3)
        # the worker ranked chunk 1 before the caller's error left the call
        assert raised == [(True, err.value)] and ranked == [False]
        assert threading.active_count() == threads

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        dataset, _, model = self.case()
        monkeypatch.setattr(tr, "SCORE_BLOCK_BYTES", 2 * 8 * dataset.num_items)
        raised = []

        def poisoned(scores, histories, targets, *rest):
            if threading.current_thread() is not main:
                scores[1, targets[1] - 1] = np.nan  # the first block's second row
            try:
                return ev.rank_from_scores(scores, histories, targets, *rest)
            except ValueError as exc:
                raised.append(exc)
                raise

        main = threading.current_thread()
        monkeypatch.setattr(tr, "rank_from_scores", poisoned)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=r"^row 1: target score nan is not finite$") as err:
            evaluate_model(model, dataset, "valid", batch_size=3)
        assert raised == [err.value]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("block_rows", [None, 2])
    def test_concurrent_passes_rank_as_lone_passes(self, block_rows, monkeypatch):
        # each pass owns its blocks and its worker: three threads evaluating
        # at once, switching every microsecond, rank as one pass alone
        dataset, _, model = self.case()
        if block_rows is not None:
            monkeypatch.setattr(tr, "SCORE_BLOCK_BYTES", block_rows * 8 * dataset.num_items)
        want = evaluate_model(model, dataset, "test", batch_size=3, keep_ranks=True).ranks
        got = []

        def passes():
            for _ in range(20):
                got.append(evaluate_model(model, dataset, "test", batch_size=3,
                                          keep_ranks=True).ranks)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=passes) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 60

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_below_one_is_rejected_before_any_work(self, batch_size):
        # neither the model nor the dataset is touched
        with pytest.raises(ValueError, match=rf"^batch_size must be >= 1, got {batch_size}$"):
            evaluate_model(None, None, "valid", batch_size)

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_split_with_no_users_is_rejected_before_any_work(self, split):
        # the model is not touched
        with pytest.raises(EmptyDataset,
                           match=rf"^evaluate_model: split '{split}' has no users$"):
            evaluate_model(None, SplitDataset([], 5), split)


class TestHrNdcg:
    def test_all_hits_at_rank_one(self):
        hr, ndcg = ev.hr_ndcg([1, 1, 1], 5)
        assert hr == 1.0 and ndcg == 1.0

    def test_single_rank_three(self):
        hr, ndcg = ev.hr_ndcg([3], 5)
        assert hr == 1.0
        np.testing.assert_allclose(ndcg, 0.5)  # 1/log2(4)

    def test_matches_scripted_recomputation(self, rng):
        ranks = rng.integers(1, 40, 200)
        for k in (5, 10, 20):
            hr, ndcg = ev.hr_ndcg(ranks, k)
            want_hr = sum(1 for r in ranks if r <= k) / len(ranks)
            want_ndcg = sum(1.0 / np.log2(r + 1) for r in ranks if r <= k) / len(ranks)
            np.testing.assert_allclose(hr, want_hr, atol=1e-15)
            np.testing.assert_allclose(ndcg, want_ndcg, atol=1e-15)

    def test_report_invariants(self, rng):
        report = ev.MetricsReport.from_ranks(rng.integers(1, 50, 300))
        for k in (5, 10, 20):
            assert 0.0 <= report.ndcg[k] <= report.hr[k] <= 1.0
        assert report.hr[5] <= report.hr[10] <= report.hr[20]
        assert report.ndcg[5] <= report.ndcg[10] <= report.ndcg[20]

    def test_empty_and_invalid_ranks(self):
        with pytest.raises(ValueError):
            ev.hr_ndcg([], 5)
        with pytest.raises(ValueError):
            ev.hr_ndcg([0, 2], 5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_names_k(self, k):
        with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
            ev.hr_ndcg([1, 2], k)


class TestSpectrum:
    def test_identical_rows_have_single_nonzero_singular_value(self):
        emb = np.tile([2.0, 1.0, 0.5], (6, 1))
        report = ev.spectrum(emb)
        assert report.singular_values[0] > 0
        np.testing.assert_allclose(report.singular_values[1:], 0.0, atol=1e-12)

    def test_scaled_orthogonal_rows(self):
        emb = np.array([[3.0, 0.0], [0.0, 4.0]])
        report = ev.spectrum(emb)
        np.testing.assert_allclose(report.singular_values, [4.0, 3.0], atol=1e-9)

    def test_reconstruction_error_below_tolerance(self, rng):
        emb = rng.standard_normal((20, 8))
        u, s, vt = np.linalg.svd(emb, full_matrices=False)
        assert np.abs(u @ np.diag(s) @ vt - emb).max() < 1e-8
        report = ev.spectrum(emb)
        np.testing.assert_allclose(report.singular_values, s, atol=1e-10)
        np.testing.assert_allclose(report.coords, emb @ vt[:2].T, atol=1e-10)

    def test_singular_values_sorted_descending(self, rng):
        report = ev.spectrum(rng.standard_normal((15, 6)))
        assert (np.diff(report.singular_values) <= 1e-12).all()

    def test_csv_with_sidecar(self, tmp_path, rng):
        report = ev.spectrum(rng.standard_normal((9, 4)))
        path = tmp_path / "spectrum.csv"
        ev.write_spectrum_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "item_id,x,y"
        assert len(lines) == 10
        sidecar = (tmp_path / "spectrum.csv.singvals").read_text().splitlines()
        assert len(sidecar) == 4

    def test_tail_ratio(self):
        report = ev.SpectrumReport(np.array([4.0, 2.0, 1.0]), np.zeros((3, 2)))
        np.testing.assert_allclose(report.tail_ratio(2), 0.5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_tail_ratio_below_one_names_k(self, k):
        # a negative index would read from the tail instead
        report = ev.spectrum(np.diag([4.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
            report.tail_ratio(k)


class TestPopularityBaseline:
    def test_most_frequent_item_ranks_first(self):
        log = synth_generate(40, 12, noise=0.5, seed=3, seq_len=10)
        dataset = leave_one_out(build_sequences(log, min_count=1))
        ranks = ev.popularity_ranks(dataset, "test")
        assert len(ranks) == dataset.num_users
        assert all(1 <= r <= dataset.num_items for r in ranks)

    def test_near_uniform_data_is_weak(self):
        log = synth_generate(200, 50, noise=1.0, seed=4, seq_len=12)
        dataset = leave_one_out(build_sequences(log, min_count=1))
        report = ev.MetricsReport.from_ranks(ev.popularity_ranks(dataset, "test"))
        # with ~uniform popularity, hits at 10 of 50 should sit near 20%
        assert report.hr[10] < 0.4
