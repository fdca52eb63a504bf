import numpy as np
import pytest

from graphseqrec import evaluation as ev
from graphseqrec.data import build_sequences, leave_one_out, synth_generate


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
