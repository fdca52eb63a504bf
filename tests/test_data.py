import math
import re
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from graphseqrec import data as dp
from graphseqrec.data import EmptyDataset, ItemSequence, ParseError, SequenceTooShort
from graphseqrec.training import Batch, TrainConfig, assemble_batch


def make_log(rows):
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def as_pairs(sequences):
    return [(s.user_id, s.items) for s in sequences]


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
                for user, item, _ in current:
                    users[user] = users.get(user, 0) + 1
                    items[item] = items.get(item, 0) + 1
                nxt = [it for it in current
                       if users[it[0]] >= min_count and items[it[1]] >= min_count]
                changed = len(nxt) != len(current)
                current = nxt
            return current

        for min_count in (2, 3, 4):
            assert (as_pairs(dp.build_sequences(log, min_count))
                    == as_pairs(reference_group(oracle(rows, min_count))))

    def test_survivors_satisfy_core_property(self, rng):
        log = make_log([(int(rng.integers(0, 30)), int(rng.integers(0, 40)), t)
                        for t in range(600)])
        seqs = dp.build_sequences(log, 5)
        items = {}
        for seq in seqs:
            for item in seq.items:
                items[item] = items.get(item, 0) + 1
        assert all(len(seq) >= 5 for seq in seqs)
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

    @pytest.mark.parametrize("shape", [(3, 4), (3, 2), (3,)])
    def test_a_log_not_of_three_columns_is_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"build_sequences: events of shape {list(shape)}, not (n, 3)")) as info:
            dp.build_sequences(np.ones(shape, dtype=np.int64), min_count=1)
        assert info.type is ValueError

    def test_an_empty_log_is_an_empty_dataset(self):
        with pytest.raises(EmptyDataset, match="core filter"):
            dp.build_sequences(np.zeros((0, 3), dtype=np.int64), min_count=1)

    def test_comma_delimiter(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,1,0\n0,2,1\n")
        seqs = dp.ingest(path, min_count=1, delimiter=",")
        assert seqs[0].items == [1, 2]


class TestParseContract:
    """The input grammar of the module docstring, line by line."""

    def ingest_text(self, tmp_path, text, delimiter="\t"):
        path = tmp_path / "log.txt"
        path.write_bytes(text.encode("utf-8"))
        return as_pairs(dp.ingest(path, 1, delimiter))

    def parse_error(self, tmp_path, text, delimiter="\t"):
        with pytest.raises(ParseError) as err:
            self.ingest_text(tmp_path, text, delimiter)
        assert str(err.value).startswith(f"{tmp_path / 'log.txt'}:")
        return str(err.value)

    def test_indented_hash_line_is_a_comment(self, tmp_path):
        assert self.ingest_text(tmp_path, "  # x\n1\t2\t3\n\t# y\t1\n") == [(0, [1])]

    def test_hash_after_data_is_not_a_comment(self, tmp_path):
        # loadtxt's comments= would cut the line at '#' and read "3"
        assert ":2: non-integer field" in self.parse_error(tmp_path, "1\t2\t3\n1\t2\t3#c\n")

    def test_blank_and_whitespace_only_lines_skipped(self, tmp_path):
        text = "\n1\t2\t3\n   \n\t\n \t \n1\t3\t4\n\n"
        assert self.ingest_text(tmp_path, text) == [(0, [1, 2])]

    def test_crlf_and_no_trailing_newline(self, tmp_path):
        want = [(0, [1, 2]), (1, [2])]
        assert self.ingest_text(tmp_path, "1\t5\t0\r\n1\t6\t1\r\n2\t6\t0\r\n") == want
        assert self.ingest_text(tmp_path, "1\t5\t0\n1\t6\t1\n2\t6\t0") == want
        assert self.ingest_text(tmp_path, "1\t5\t0\r1\t6\t1\r2\t6\t0") == want

    def test_line_numbers_count_comments_and_blanks(self, tmp_path):
        text = "# header\n\n1\t2\t3\n  \n# note\r\n1\t2\n"
        assert ":6: expected 3 fields, got 2" in self.parse_error(tmp_path, text)

    def test_first_fault_in_file_order_is_named(self, tmp_path):
        count, integer = "1\t2\n", "1\tx\t3\n"
        good = "1\t2\t3\n"
        assert ":2: expected 3 fields" in self.parse_error(tmp_path, good + count + integer)
        assert ":2: non-integer field" in self.parse_error(tmp_path, good + integer + count)

    def test_every_line_with_two_fields_fails_at_line_one(self, tmp_path):
        # loadtxt returns an (n, 2) array for this without raising
        assert ":1: expected 3 fields, got 2" in self.parse_error(tmp_path, "1\t2\n3\t4\n")
        assert ":1: expected 3 fields, got 4" in self.parse_error(tmp_path, "1\t2\t3\t4\n")

    @pytest.mark.parametrize("text", ["", "\n\n", "# only\n  # comments\n"])
    def test_empty_and_all_comment_files(self, tmp_path, text):
        with pytest.raises(EmptyDataset):
            self.ingest_text(tmp_path, text)

    def test_comma_delimiter_faults(self, tmp_path):
        assert self.ingest_text(tmp_path, "1, 2 ,3\n", delimiter=",") == [(0, [1])]
        assert ":1: expected 3 fields, got 1" in self.parse_error(tmp_path, "1\t2\t3\n", ",")

    def test_signs_and_padding_inside_a_field(self, tmp_path):
        text = "-7\t+0012\t3\n -7 \t\x0b12\x0c\t-9223372036854775808\n"
        assert self.ingest_text(tmp_path, text) == [(0, [1, 1])]

    @pytest.mark.parametrize("field", ["5_0", "\u0663", "\uff11", "\u01fe", "\ufeff1", "1\xa0",
                                       "1.0", "1e3", "0x10", "+-1", "- 1", "1 2",
                                       "9223372036854775808", "-9223372036854775809"])
    def test_fields_outside_the_grammar(self, tmp_path, field):
        # int() took underscores, non-ASCII digits and any size; loadtxt reads
        # some non-ASCII letters (U+01FE) as digits
        assert ":2:" in self.parse_error(tmp_path, f"1\t2\t3\n1\t{field}\t3\n")

    def test_scan_names_a_line_whenever_loadtxt_fails(self, tmp_path):
        rng = np.random.default_rng(0)
        alphabet = list("0123456789+- .e_x#") + ["\x0b", "\x0c", "\x1c", "\x1f", "\xa0"]
        grammar = re.compile(r"[ \x0b\x0c\x1c-\x1f]*[+-]?[0-9]+[ \x0b\x0c\x1c-\x1f]*")
        for _ in range(300):
            field = "".join(rng.choice(alphabet, int(rng.integers(0, 6))))
            if rng.random() < 0.2:
                field += "".join(rng.choice(list("0123456789"), 19))
            text = f"1\t2\t3\n1\t{field}\t3\n"
            ok = grammar.fullmatch(field) and -2 ** 63 <= int(field.strip()) < 2 ** 63
            if ok:
                want = dp.build_sequences(make_log([(1, 2, 3), (1, int(field.strip()), 3)]), 1)
                assert self.ingest_text(tmp_path, text) == as_pairs(want), repr(field)
            else:
                assert ":2:" in self.parse_error(tmp_path, text), repr(field)

    def test_byte_order_mark_is_not_part_of_line_one(self, tmp_path):
        text = "1\t2\t3\n1\t3\t4\n"
        assert self.ingest_text(tmp_path, "\ufeff" + text) == self.ingest_text(tmp_path, text)
        # only one leading mark goes, and the line numbers stay
        twice = "\ufeff" + text.replace("\n1", "\n\ufeff1")
        assert ":2: non-integer field" in self.parse_error(tmp_path, twice)

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_bytes(b"1\t2\t3\r\n# note\n1\t\xff\t3\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:3: not UTF-8 text"):
            dp.ingest(path, min_count=1)


def reference_parse(path, delimiter="\t"):
    """The per-line parser ``ingest`` replaced: one ``int()`` per field,
    returning (user, item, timestamp) tuples."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(delimiter)
            if len(fields) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
            try:
                user, item, ts = (int(f) for f in fields)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-integer field in {fields!r}") from None
            out.append((user, item, ts))
    return out


def reference_core_filter(interactions, min_count):
    """The dict-loop filter ``build_sequences`` replaced; also returns the
    number of passes it made."""
    current = list(interactions)
    passes = 0
    while True:
        passes += 1
        user_counts, item_counts = {}, {}
        for user, item, _ in current:
            user_counts[user] = user_counts.get(user, 0) + 1
            item_counts[item] = item_counts.get(item, 0) + 1
        kept = [it for it in current
                if user_counts[it[0]] >= min_count and item_counts[it[1]] >= min_count]
        if len(kept) == len(current):
            return kept, passes
        current = kept


def reference_group(kept):
    """The dense remap and per-user ``sorted`` grouping ``build_sequences``
    replaced."""
    user_map = {u: i for i, u in enumerate(sorted({it[0] for it in kept}))}
    item_map = {v: i + 1 for i, v in enumerate(sorted({it[1] for it in kept}))}
    grouped = {}
    for it in kept:
        grouped.setdefault(it[0], []).append(it)
    return [ItemSequence(user_map[u],
                         [item_map[it[1]] for it in sorted(grouped[u], key=lambda e: e[2])])
            for u in sorted(grouped, key=lambda u: user_map[u])]


class TestIngestReference:
    """``ingest`` against the per-line parser, dict-loop filter and per-user
    sort it replaced: equal (user_id, items) lists, or the same error."""

    def check(self, path, delimiter, min_count):
        kept, passes = reference_core_filter(reference_parse(path, delimiter), min_count)
        if not kept:
            with pytest.raises(EmptyDataset):
                dp.ingest(path, min_count, delimiter)
            return passes
        assert as_pairs(dp.ingest(path, min_count, delimiter)) == as_pairs(reference_group(kept))
        return passes

    def random_log(self, rng):
        # few sparse, negative and near-int64 ids give repeated (user, item)
        # pairs; timestamps from a small range repeat within a user
        users = rng.choice([-2 ** 62, -40, -3, 0, 7, 1000, 10 ** 12, 2 ** 62],
                           int(rng.integers(2, 9)), replace=False)
        items = rng.choice(np.arange(-30, 30) * 9973, int(rng.integers(2, 25)), replace=False)
        n = int(rng.integers(1, 200))
        return np.stack([rng.choice(users, n), rng.choice(items, n),
                         rng.integers(-3, 6, n)], axis=1)

    def write(self, path, log, delimiter, rng):
        lines = [delimiter.join(str(v) for v in row) for row in log.tolist()]
        for _ in range(int(rng.integers(0, 4))):
            lines.insert(int(rng.integers(0, len(lines) + 1)),
                         str(rng.choice(["", "  ", "# note", " #7\t1\t2"])))
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("min_count", [1, 2, 3, 4, 5, 6])
    def test_equal_sequences_on_random_logs(self, tmp_path, min_count):
        rng = np.random.default_rng(min_count)
        path = tmp_path / "log.txt"
        for case in range(40):
            delimiter = "\t,"[case % 2]
            self.write(path, self.random_log(rng), delimiter, rng)
            self.check(path, delimiter, min_count)

    def test_cascade_needs_several_passes(self, tmp_path):
        # a core of users 100..103 x items 500..503, and a chain hanging off
        # it where user u holds items u and u + 1: item 0 is seen once, so at
        # min_count 2 it goes in the first pass, user 0 in the second, item 1
        # in the third, and so on up the chain
        core = [(u, v, t) for u in range(100, 104) for v in range(500, 504) for t in (0, 1)]
        chain = ([(u, u, 3) for u in range(6)] + [(u, u + 1, 4) for u in range(5)]
                 + [(5, 500, 4)])
        path = tmp_path / "chain.tsv"
        dp.write_interactions(path, make_log(core + chain))
        passes = [self.check(path, "\t", min_count) for min_count in range(1, 7)]
        assert passes[1] >= 3


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

    def test_no_sequences_is_an_empty_dataset(self):
        with pytest.raises(EmptyDataset, match="leave_one_out: no sequences"):
            dp.leave_one_out([])

    def test_short_sequence_rejected_with_user_id(self):
        with pytest.raises(SequenceTooShort, match="user 42"):
            dp.leave_one_out([ItemSequence(42, [1, 2])])


class TestSampleNegative:
    """Negatives as training draws them: ``assemble_batch`` samples uniformly
    from the items a window lacks at every real prediction step."""

    def negatives(self, train, num_items, rng, users=1, max_len=None):
        split = [dp.UserSplit(u, list(train), 0, 0) for u in range(users)]
        cfg = TrainConfig(max_len=max_len or len(train)).model_config(num_items, users)
        batch = assemble_batch(split, cfg, rng, None)
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
        eligible = [v for v in range(1, 11) if v not in items]
        draws = self.negatives(items * 334, 10, rng, users=100)
        assert draws.size == 100_100
        counts = np.array([(draws == e).sum() for e in eligible])
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_no_eligible_item_is_error(self, rng):
        with pytest.raises(ValueError, match="user 42: no eligible negative item"):
            assemble_batch([dp.UserSplit(42, [1, 2], 0, 0)],
                           TrainConfig(max_len=2).model_config(2, 1), rng, None)


def reference_augment(seq, kind, ratio, rng):
    """The ItemSequence augmentation the list version replaced."""
    n = len(seq.items)
    out = list(seq.items)
    if kind == "crop":
        span = math.ceil(ratio * n)
        start = int(rng.integers(0, n - span + 1))
        return ItemSequence(seq.user_id, out[start:start + span])
    k = math.floor(ratio * n)
    if kind == "mask":
        for p in (rng.choice(n, size=k, replace=False) if k else []):
            out[p] = 0
        return ItemSequence(seq.user_id, out)
    if k < 2:
        return ItemSequence(seq.user_id, out)
    start = int(rng.integers(0, n - k + 1))
    segment = out[start:start + k]
    out[start:start + k] = [segment[i] for i in rng.permutation(k)]
    return ItemSequence(seq.user_id, out)


def reference_batch(users, cfg, rng_negatives, rng_augment):
    """The per-row assembly the array version replaced, kept as its oracle:
    a pool of eligible negatives and one ``choice`` per row, per-row padding,
    and two ItemSequence views per row."""
    num_items, n, b = cfg.num_items, cfg.max_len, len(users)
    seqs, targets, negatives = (np.zeros((b, n), dtype=np.int64) for _ in range(3))
    step_mask = np.zeros((b, n), dtype=np.float64)
    views = [np.zeros((b, n), dtype=np.int64) for _ in range(2)] if rng_augment else [None] * 2
    user_ids = np.zeros(b, dtype=np.int64)
    for row, user in enumerate(users):
        user_ids[row] = user.user_id
        items = user.train[-n:]
        seqs[row] = dp.pad_sequence(items, n)
        targets[row, :-1] = seqs[row, 1:]
        valid = (seqs[row] > 0) & (targets[row] > 0)
        step_mask[row] = valid.astype(np.float64)
        present = np.zeros(num_items + 1, dtype=bool)
        present[np.asarray(items, dtype=np.int64)] = True
        present[0] = True
        pool = np.flatnonzero(~present)
        if pool.size == 0:
            raise ValueError(f"user {user.user_id}: no eligible negative item")
        count = int(valid.sum())
        if count:
            negatives[row, valid] = rng_negatives.choice(pool, size=count, replace=True)
        if rng_augment is not None:
            seq = ItemSequence(user.user_id, items)
            for view in views:
                if len(items) < 2:
                    out = ItemSequence(seq.user_id, list(items))
                else:
                    kind = ("crop", "mask", "reorder")[int(rng_augment.integers(0, 3))]
                    ratio = {"crop": cfg.crop_ratio, "mask": cfg.mask_ratio,
                             "reorder": cfg.reorder_ratio}[kind]
                    out = reference_augment(seq, kind, ratio, rng_augment)
                view[row] = dp.pad_sequence(out.items, n)
    return Batch(user_ids, seqs, targets, negatives, step_mask, *views)


class TestAssembleBatchReference:
    """``assemble_batch`` against the per-row loop it replaced: every field
    bitwise, and both generators left in the same state."""

    def check(self, users, cfg, seed, augment):
        def run(build):
            rng_neg = np.random.default_rng([seed, 2])
            rng_aug = np.random.default_rng([seed, 3]) if augment else None
            batch = build(users, cfg, rng_neg, rng_aug)
            return batch, rng_neg.random(), rng_aug.random() if augment else None

        got, want = run(assemble_batch), run(reference_batch)
        for f in fields(Batch):
            a, b = getattr(got[0], f.name), getattr(want[0], f.name)
            if b is None:
                assert a is None, f.name
                continue
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("augment", [False, True], ids=["plain", "views"])
    @pytest.mark.parametrize("num_items", [2, 3, 7, 50, 1000, 20000])
    def test_bitwise_equal_to_per_row_loop(self, num_items, augment):
        rng = np.random.default_rng(num_items)
        ratios = [{}, dict(crop_ratio=0.3, mask_ratio=0.5, reorder_ratio=1.0)]
        for case in range(8):
            max_len = int(rng.integers(2, 12))
            users = []
            for u in range(int(rng.integers(1, 40))):
                # a window's items come from at most V - 1 ids, so one is always
                # eligible; few ids give repeats, long lists pass max_len
                ids = rng.choice(num_items, int(rng.integers(1, min(num_items - 1, 15) + 1)),
                                 replace=False) + 1
                length = int(rng.integers(1, max_len + 8))
                users.append(dp.UserSplit(3 * u + 1, [int(v) for v in rng.choice(ids, length)],
                                          0, 0))
            cfg = TrainConfig(max_len=max_len, **ratios[case % 2])
            self.check(users, cfg.model_config(num_items, len(users)), case, augment)

    @pytest.mark.parametrize("augment", [False, True], ids=["plain", "views"])
    def test_one_item_pool(self, augment):
        users = [dp.UserSplit(u, [1, 1, 1], 0, 0) for u in range(5)]
        self.check(users, TrainConfig(max_len=3).model_config(2, 5), 0, augment)
        self.check(users, TrainConfig(max_len=5).model_config(2, 5), 1, augment)

    def test_error_names_first_user_without_eligible_item(self):
        # user 3 holds both items, but its window of 2 holds only item 1
        users = [dp.UserSplit(3, [2, 1, 1], 0, 0), dp.UserSplit(7, [2, 1], 0, 0),
                 dp.UserSplit(9, [1, 2], 0, 0)]
        for build in (reference_batch, assemble_batch):
            with pytest.raises(ValueError, match="^user 7: no eligible negative item$"):
                build(users, TrainConfig(max_len=2).model_config(2, 3),
                      np.random.default_rng(0), np.random.default_rng(1))

    def test_no_users_raise_before_any_draw(self):
        rng_neg, rng_aug = np.random.default_rng(0), np.random.default_rng(1)
        with pytest.raises(EmptyDataset, match="^assemble_batch: no users$"):
            assemble_batch([], TrainConfig().model_config(5, 1), rng_neg, rng_aug)
        assert rng_neg.random() == np.random.default_rng(0).random()
        assert rng_aug.random() == np.random.default_rng(1).random()


class TestAugment:
    def test_crop_span_arithmetic(self, rng):
        # ceil(0.6 * 5) = 3 items, starting anywhere in 0..2
        items = [1, 2, 3, 4, 5]
        starts = set()
        for _ in range(30):
            out = dp.augment(items, "crop", 0.6, rng)
            assert len(out) == 3 and out == items[out[0] - 1:out[0] + 2]
            starts.add(out[0] - 1)
        assert starts == {0, 1, 2}

    def test_mask_ratio_zero_unchanged(self, rng):
        items = [4, 5, 6, 7]
        out = dp.augment(items, "mask", 0.0, rng)
        assert out == items and out is not items

    def test_mask_replaces_with_padding_token(self, rng):
        items = list(range(1, 11))
        out = dp.augment(items, "mask", 0.3, rng)
        assert len(out) == 10
        assert sum(1 for v in out if v == 0) == 3
        assert all(a == b or a == 0 for a, b in zip(out, items))
        assert items == list(range(1, 11))

    def test_reorder_preserves_multiset(self, rng):
        for _ in range(50):
            length = int(rng.integers(2, 25))
            items = [int(v) for v in rng.integers(1, 99, length)]
            out = dp.augment(items, "reorder", 0.6, rng)
            assert sorted(out) == sorted(items)
            assert len(out) == length

    def test_crop_keeps_contiguous_span(self, rng):
        items = list(range(1, 21))
        for _ in range(20):
            out = dp.augment(items, "crop", 0.6, rng)
            assert len(out) == 12
            start = items.index(out[0])
            assert items[start:start + 12] == out

    def test_ratio_out_of_range(self, rng):
        with pytest.raises(ValueError):
            dp.augment([1, 2, 3], "crop", 1.5, rng)
        with pytest.raises(ValueError):
            dp.augment([1, 2, 3], "crop", 0.0, rng)

    def test_short_sequence_rejected(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            dp.augment([1], "mask", 0.5, rng)

    def test_views_stay_inside_vocabulary(self, rng):
        vocab = set(range(0, 31))
        cfg = TrainConfig()
        for _ in range(100):
            length = int(rng.integers(2, 20))
            items = [int(v) for v in rng.integers(1, 31, length)]
            v1, v2 = dp.augment_pair(items, cfg, rng)
            assert set(v1) <= vocab and set(v2) <= vocab
            assert v1 and v2

    def test_augment_reproducible_from_seed(self):
        items = list(range(1, 15))
        cfg = TrainConfig()
        first = dp.augment_pair(items, cfg, np.random.default_rng(3))
        second = dp.augment_pair(items, cfg, np.random.default_rng(3))
        assert first == second


class TestPadSequence:
    def test_left_padding(self):
        np.testing.assert_array_equal(dp.pad_sequence([5, 6], 5), [0, 0, 0, 5, 6])

    def test_truncation_keeps_most_recent(self):
        np.testing.assert_array_equal(dp.pad_sequence([1, 2, 3, 4, 5], 3), [3, 4, 5])


class TestSynthGenerate:
    def test_noiseless_ring_transitions(self):
        log = dp.synth_generate(num_users=5, num_items=10, noise=0.0, seed=1, seq_len=12)
        assert log.shape == (60, 3) and log.dtype == np.int64
        for user in range(5):
            events = log[log[:, 0] == user]
            items = events[np.argsort(events[:, 2], kind="stable"), 1].tolist()
            for a, b in zip(items, items[1:]):
                assert b == a % 10 + 1

    def test_full_noise_is_uniform(self):
        # total-variation distance of the empirical transition row to uniform
        log = dp.synth_generate(num_users=100, num_items=10, noise=1.0, seed=2,
                                seq_len=1000)
        counts = np.zeros((11, 11))
        for user in range(100):
            items = log[log[:, 0] == user, 1]
            np.add.at(counts, (items[:-1], items[1:]), 1)
        rows = counts[1:, 1:]
        probs = rows / rows.sum(axis=1, keepdims=True)
        tv = 0.5 * np.abs(probs - 0.1).sum(axis=1)
        assert tv.max() < 0.05

    def test_same_seed_identical_log(self):
        a = dp.synth_generate(20, 15, noise=0.3, seed=9)
        b = dp.synth_generate(20, 15, noise=0.3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_round_trip_through_file(self, tmp_path):
        log = dp.synth_generate(10, 8, noise=0.5, seed=4)
        path = tmp_path / "synth.tsv"
        dp.write_interactions(path, log)
        assert path.read_text().splitlines() == ["\t".join(map(str, row)) for row in log.tolist()]
        assert as_pairs(dp.ingest(path, min_count=1)) == as_pairs(dp.build_sequences(log, 1))

    def test_parameter_validation(self):
        # each bad parameter is named alone, noise and seed included
        good = dict(num_users=3, num_items=4, markov_order=1, noise=0.2, seed=0, seq_len=5)
        for name, value in [("num_users", 0), ("num_items", -1), ("markov_order", 0),
                            ("seq_len", 0), ("noise", 1.5), ("noise", -0.1),
                            ("noise", float("nan")), ("seed", -1)]:
            with pytest.raises(ValueError, match=f"^{name} must") as err:
                dp.synth_generate(**dict(good, **{name: value}))
            assert not any(other in str(err.value) for other in set(good) - {name})
