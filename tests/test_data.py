import numpy as np
import pytest
from scipy import stats

from graphseqrec import data as dp
from graphseqrec.data import (EmptyDataset, Interaction, ItemSequence, ParseError,
                              SequenceTooShort)
from graphseqrec.training import TrainConfig, assemble_batch


def make_log(rows):
    return [Interaction(u, v, t) for u, v, t in rows]


class TestIngest:
    def test_user_with_too_few_interactions_dropped(self, tmp_path):
        lines = [f"0\t{v}\t{t}" for t, v in enumerate([3, 4, 5, 6])]
        lines += [f"{u}\t7\t{t}" for u in range(1, 6) for t in range(5)]
        path = tmp_path / "log.tsv"
        path.write_text("\n".join(lines) + "\n")
        seqs = dp.ingest(path, min_count=5)
        assert all(s.user_id in range(5) for s in seqs)
        assert len(seqs) == 5  # user 0 had only 4 events

    def test_min_count_one_is_identity_grouping(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("# comment line\n5\t10\t2\n5\t11\t1\n9\t10\t0\n")
        seqs = dp.ingest(path, min_count=1)
        assert len(seqs) == 2
        by_user = {s.user_id: s.items for s in seqs}
        # user 5 -> 0, items 10 -> 1, 11 -> 2; sorted by timestamp
        assert by_user[0] == [2, 1]
        assert by_user[1] == [1]

    def test_fixpoint_matches_repeated_pass_oracle(self):
        # dropping item 30 starves user 2, whose removal starves item 31
        rows = []
        for u in range(6):
            for t in range(3):
                rows.append((u, 20 + u % 2, t))
        rows += [(0, 30, 9), (1, 30, 9), (2, 30, 9), (2, 31, 10), (3, 31, 9),
                 (4, 31, 9), (5, 31, 9), (2, 20, 11)]
        log = make_log(rows)

        def oracle(interactions, min_count):
            current = list(interactions)
            changed = True
            while changed:
                users = {}
                items = {}
                for it in current:
                    users[it.user_id] = users.get(it.user_id, 0) + 1
                    items[it.item_id] = items.get(it.item_id, 0) + 1
                nxt = [it for it in current
                       if users[it.user_id] >= min_count and items[it.item_id] >= min_count]
                changed = len(nxt) != len(current)
                current = nxt
            return current

        for min_count in (2, 3, 4):
            assert dp.core_filter(log, min_count) == oracle(log, min_count)

    def test_survivors_satisfy_core_property(self, rng):
        log = [Interaction(int(rng.integers(0, 30)), int(rng.integers(0, 40)), t)
               for t in range(600)]
        kept = dp.core_filter(log, 5)
        users = {}
        items = {}
        for it in kept:
            users[it.user_id] = users.get(it.user_id, 0) + 1
            items[it.item_id] = items.get(it.item_id, 0) + 1
        assert all(c >= 5 for c in users.values())
        assert all(c >= 5 for c in items.values())

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2\t3\nnot-an-int\t2\t3\n")
        with pytest.raises(ParseError, match=":2:"):
            dp.ingest(path, min_count=1)

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2\t3\n4\t5\n")
        with pytest.raises(ParseError, match=":2:"):
            dp.ingest(path, min_count=1)

    def test_empty_result_is_explicit_error(self, tmp_path):
        path = tmp_path / "tiny.tsv"
        path.write_text("1\t2\t3\n")
        with pytest.raises(EmptyDataset):
            dp.ingest(path, min_count=5)

    def test_timestamp_ties_keep_input_order(self):
        log = make_log([(0, 10, 5), (0, 11, 5), (0, 12, 1)])
        seqs = dp.build_sequences(log, min_count=1)
        # item ids remap to 1..3 in ascending original order: 10->1, 11->2, 12->3
        assert seqs[0].items == [3, 1, 2]

    def test_comma_delimiter(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,1,0\n0,2,1\n")
        seqs = dp.ingest(path, min_count=1, delimiter=",")
        assert seqs[0].items == [1, 2]


class TestLeaveOneOut:
    def test_three_item_sequence(self):
        split = dp.leave_one_out([ItemSequence(0, [1, 2, 3])])
        user = split.users[0]
        assert (user.train, user.valid, user.test) == ([1], 2, 3)

    def test_five_item_sequence(self):
        split = dp.leave_one_out([ItemSequence(0, [7, 8, 9, 10, 11])])
        user = split.users[0]
        assert (user.train, user.valid, user.test) == ([7, 8, 9], 10, 11)

    def test_reconstruction_on_random_sequences(self, rng):
        seqs = []
        for u in range(100):
            length = int(rng.integers(3, 30))
            seqs.append(ItemSequence(u, [int(v) for v in rng.integers(1, 50, length)]))
        split = dp.leave_one_out(seqs)
        for seq, user in zip(seqs, split.users):
            assert user.train + [user.valid, user.test] == seq.items

    def test_short_sequence_rejected_with_user_id(self):
        with pytest.raises(SequenceTooShort, match="user 42"):
            dp.leave_one_out([ItemSequence(42, [1, 2])])


class TestSampleNegative:
    """Negatives as training draws them: ``assemble_batch`` samples uniformly
    from ``eligible_negatives`` at every real prediction step."""

    def negatives(self, train, num_items, rng, users=1, max_len=None):
        split = [dp.UserSplit(u, list(train), 0, 0) for u in range(users)]
        batch = assemble_batch(split, num_items, max_len or len(train), rng, None,
                               TrainConfig())
        return batch.negatives[batch.step_mask > 0]

    def test_forced_choice(self, rng):
        drawn = self.negatives([1, 1, 1], num_items=2, rng=rng, users=20)
        assert drawn.size == 40 and (drawn == 2).all()

    def test_never_in_sequence(self, rng):
        items = [3, 5, 8, 13]
        drawn = self.negatives(items * 3, num_items=20, rng=rng, users=50)
        assert drawn.size == 550
        assert not np.isin(drawn, items).any()

    def test_uniform_over_eligible_items(self):
        rng = np.random.default_rng(7)
        items = [2, 4, 6]
        eligible = dp.eligible_negatives(items, num_items=10)
        assert sorted(eligible) == [1, 3, 5, 7, 8, 9, 10]
        draws = self.negatives(items * 334, 10, rng, users=100)
        assert draws.size == 100_100
        counts = np.array([(draws == e).sum() for e in eligible])
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_no_eligible_item_is_error(self, rng):
        with pytest.raises(ValueError, match="user 42: no eligible negative item"):
            assemble_batch([dp.UserSplit(42, [1, 2], 0, 0)], 2, 2, rng, None, TrainConfig())


class TestAugment:
    def test_crop_span_arithmetic(self):
        assert dp.crop_span([1, 2, 3, 4, 5], ratio=0.6, start=1) == [2, 3, 4]

    def test_mask_ratio_zero_unchanged(self, rng):
        seq = ItemSequence(0, [4, 5, 6, 7])
        out = dp.augment(seq, "mask", 0.0, rng)
        assert out.items == seq.items

    def test_mask_replaces_with_padding_token(self, rng):
        seq = ItemSequence(0, list(range(1, 11)))
        out = dp.augment(seq, "mask", 0.3, rng)
        assert len(out.items) == 10
        assert sum(1 for v in out.items if v == 0) == 3
        assert all(a == b or a == 0 for a, b in zip(out.items, seq.items))

    def test_reorder_preserves_multiset(self, rng):
        for _ in range(50):
            length = int(rng.integers(2, 25))
            items = [int(v) for v in rng.integers(1, 99, length)]
            out = dp.augment(ItemSequence(0, items), "reorder", 0.6, rng)
            assert sorted(out.items) == sorted(items)
            assert len(out.items) == length

    def test_crop_keeps_contiguous_span(self, rng):
        items = list(range(1, 21))
        for _ in range(20):
            out = dp.augment(ItemSequence(0, items), "crop", 0.6, rng).items
            assert len(out) == 12
            start = items.index(out[0])
            assert items[start:start + 12] == out

    def test_ratio_out_of_range(self, rng):
        seq = ItemSequence(0, [1, 2, 3])
        with pytest.raises(ValueError):
            dp.augment(seq, "crop", 1.5, rng)
        with pytest.raises(ValueError):
            dp.augment(seq, "crop", 0.0, rng)

    def test_short_sequence_rejected(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            dp.augment(ItemSequence(0, [1]), "mask", 0.5, rng)

    def test_views_stay_inside_vocabulary(self, rng):
        vocab = set(range(0, 31))
        cfg = TrainConfig()
        for _ in range(100):
            length = int(rng.integers(2, 20))
            items = [int(v) for v in rng.integers(1, 31, length)]
            v1, v2 = dp.augment_pair(ItemSequence(0, items), cfg, rng)
            assert set(v1.items) <= vocab and set(v2.items) <= vocab
            assert v1.items and v2.items

    def test_augment_reproducible_from_seed(self):
        seq = ItemSequence(0, list(range(1, 15)))
        cfg = TrainConfig()
        first = dp.augment_pair(seq, cfg, np.random.default_rng(3))
        second = dp.augment_pair(seq, cfg, np.random.default_rng(3))
        assert first[0].items == second[0].items
        assert first[1].items == second[1].items


class TestPadSequence:
    def test_left_padding(self):
        np.testing.assert_array_equal(dp.pad_sequence([5, 6], 5), [0, 0, 0, 5, 6])

    def test_truncation_keeps_most_recent(self):
        np.testing.assert_array_equal(dp.pad_sequence([1, 2, 3, 4, 5], 3), [3, 4, 5])


class TestSynthGenerate:
    def test_noiseless_ring_transitions(self):
        log = dp.synth_generate(num_users=5, num_items=10, noise=0.0, seed=1, seq_len=12)
        by_user = {}
        for it in log:
            by_user.setdefault(it.user_id, []).append(it)
        for events in by_user.values():
            items = [it.item_id for it in sorted(events, key=lambda e: e.timestamp)]
            for a, b in zip(items, items[1:]):
                assert b == a % 10 + 1

    def test_full_noise_is_uniform(self):
        # total-variation distance of the empirical transition row to uniform
        log = dp.synth_generate(num_users=100, num_items=10, noise=1.0, seed=2,
                                seq_len=1000)
        counts = np.zeros((11, 11))
        by_user = {}
        for it in log:
            by_user.setdefault(it.user_id, []).append(it.item_id)
        for items in by_user.values():
            for a, b in zip(items, items[1:]):
                counts[a, b] += 1
        rows = counts[1:, 1:]
        probs = rows / rows.sum(axis=1, keepdims=True)
        tv = 0.5 * np.abs(probs - 0.1).sum(axis=1)
        assert tv.max() < 0.05

    def test_same_seed_identical_log(self):
        a = dp.synth_generate(20, 15, noise=0.3, seed=9)
        b = dp.synth_generate(20, 15, noise=0.3, seed=9)
        assert a == b

    def test_round_trip_through_file(self, tmp_path):
        log = dp.synth_generate(10, 8, noise=0.5, seed=4)
        path = tmp_path / "synth.tsv"
        dp.write_interactions(path, log)
        parsed = dp.parse_interactions(path)
        assert parsed == log

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            dp.synth_generate(0, 5)
        with pytest.raises(ValueError):
            dp.synth_generate(5, 5, noise=1.5)
