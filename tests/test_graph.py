import numpy as np
import pytest
import scipy.sparse as sp

from graphseqrec import graph as gr
from graphseqrec.autodiff import ShapeMismatch
from graphseqrec.data import ItemSequence


def brute_force_weights(sequences, window):
    """O(n^2) pair enumeration: weight 1/offset for every in-window pair."""
    weights = {}
    for seq in sequences:
        items = seq.items
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if j - i > window:
                    break
                key = (items[i], items[j])
                weights[key] = weights.get(key, 0.0) + 1.0 / (j - i)
    return weights


def brute_force_normalized(sequences, window, num_items, degree_mode="weighted"):
    """Scripted normalization: scale by reciprocal degrees (summed weights, or
    edge counts), add the transpose, then unit self-loops on every interacted
    item."""
    weights = brute_force_weights(sequences, window)
    deg = np.zeros(num_items + 1)
    for (i, j), w in weights.items():
        inc = w if degree_mode == "weighted" else 1.0
        deg[i] += inc
        deg[j] += inc
    dense = np.zeros((num_items + 1, num_items + 1))
    for (i, j), w in weights.items():
        dense[i, j] = (1.0 / deg[i] + 1.0 / deg[j]) * w
    dense = dense + dense.T
    for item in {v for s in sequences for v in s.items}:
        dense[item, item] += 1.0
    return dense


def random_sequences(rng, count, num_items, min_len=1, max_len=12):
    out = []
    for u in range(count):
        length = int(rng.integers(min_len, max_len + 1))
        out.append(ItemSequence(u, [int(v) for v in rng.integers(1, num_items + 1, length)]))
    return out


class TestAccumulate:
    """The windowed 1/k pair weights, read off the finalized graph."""

    def test_window_offsets_weight_by_reciprocal_distance(self):
        # [1, 2, 3] at window 2: (1,2) and (2,3) weigh 1, (1,3) weighs 1/2, so
        # the weighted degrees are 1.5, 2, 1.5
        dense = gr.build_transition_graph([ItemSequence(0, [1, 2, 3])], window=2).dense()
        assert dense[1, 2] == (1 / 1.5 + 1 / 2) * 1.0
        assert dense[2, 3] == (1 / 2 + 1 / 1.5) * 1.0
        assert dense[1, 3] == (1 / 1.5 + 1 / 1.5) * 0.5

    def test_single_item_sequence_adds_nothing(self):
        graph = gr.build_transition_graph([ItemSequence(0, [4])], window=2, num_items=5)
        want = np.zeros((6, 6))
        want[4, 4] = 1.0
        np.testing.assert_array_equal(graph.dense(), want)

    def test_matches_pair_enumeration_oracle(self, rng):
        seqs = random_sequences(rng, 50, 20)
        np.testing.assert_array_equal(gr.build_transition_graph(seqs, window=2).dense(),
                                      brute_force_normalized(seqs, 2, 20))

    def test_wider_window(self, rng):
        seqs = random_sequences(rng, 10, 8)
        np.testing.assert_array_equal(
            gr.build_transition_graph(seqs, window=4, num_items=8).dense(),
            brute_force_normalized(seqs, 4, 8))

    def test_order_insensitive_across_sequences(self, rng):
        seqs = random_sequences(rng, 25, 10)
        forward = gr.build_transition_graph(seqs, window=2, num_items=10)
        backward = gr.build_transition_graph(list(reversed(seqs)), window=2, num_items=10)
        np.testing.assert_array_equal(forward.matrix.indptr, backward.matrix.indptr)
        np.testing.assert_array_equal(forward.matrix.indices, backward.matrix.indices)
        assert forward.matrix.data.tobytes() == backward.matrix.data.tobytes()

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window must be >= 1, got 0"):
            gr.build_transition_graph([], window=0)

    @pytest.mark.parametrize("ids,bad", [([0, 2, 3], 0), ([1, -1], -1), ([1, 5], 5)],
                             ids=["padding", "negative", "past-end"])
    def test_item_id_outside_catalog_rejected(self, ids, bad):
        with pytest.raises(ValueError, match=rf"item id {bad} is outside 1\.\.3"):
            gr.build_transition_graph([ItemSequence(0, ids)], window=2, num_items=3)


class TestNormalizeFinalize:
    """Degree normalization, symmetry, self-loops and the text dump."""

    def test_hand_evaluated_two_item_sequence(self):
        graph = gr.build_transition_graph([ItemSequence(0, [1, 2])], window=2, num_items=2)
        dense = graph.dense()
        assert dense[1, 2] == 2.0 and dense[2, 1] == 2.0
        assert dense[1, 1] == 1.0 and dense[2, 2] == 1.0
        assert dense[0].sum() == 0.0 and dense[:, 0].sum() == 0.0

    def test_no_sequences_no_entries(self):
        graph = gr.build_transition_graph([], window=2, num_items=4)
        assert graph.nnz == 0 and graph.num_nodes == 5

    def test_unseen_items_get_no_self_loop(self):
        graph = gr.build_transition_graph([ItemSequence(0, [1, 2])], window=2, num_items=9)
        dense = graph.dense()
        assert dense[5, 5] == 0.0

    def test_symmetry_on_random_inputs(self, rng):
        for _ in range(5):
            seqs = random_sequences(rng, 15, 12)
            dense = gr.build_transition_graph(seqs, window=2, num_items=12).dense()
            np.testing.assert_array_equal(dense, dense.T)

    @pytest.mark.parametrize("degree_mode", ["weighted", "count"])
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_matches_scripted_normalization_oracle(self, rng, window, degree_mode):
        seqs = random_sequences(rng, 30, 15)
        dense = gr.build_transition_graph(seqs, window, 15, degree_mode).dense()
        np.testing.assert_array_equal(dense,
                                      brute_force_normalized(seqs, window, 15, degree_mode))

    def test_count_degree_mode(self):
        # [1,2,3]: weighted deg(1)=1.5 vs edge-count deg(1)=2
        seqs = [ItemSequence(0, [1, 2, 3])]
        weighted = gr.build_transition_graph(seqs, 2, 3, degree_mode="weighted").dense()
        counted = gr.build_transition_graph(seqs, 2, 3, degree_mode="count").dense()
        assert weighted[1, 2] != counted[1, 2]
        np.testing.assert_allclose(counted[1, 2], (1 / 2 + 1 / 2) * 1.0)

    def test_dump_format_sorted(self, tmp_path):
        graph = gr.build_transition_graph([ItemSequence(0, [2, 1])], window=1, num_items=2)
        path = tmp_path / "graph.tsv"
        graph.dump(path)
        lines = path.read_text().splitlines()
        triples = [line.split("\t") for line in lines]
        assert [(int(i), int(j)) for i, j, _ in triples] == sorted(
            (int(i), int(j)) for i, j, _ in triples)
        rebuilt = {(int(i), int(j)): float(w) for i, j, w in triples}
        assert rebuilt[(1, 2)] == 2.0 and rebuilt[(1, 1)] == 1.0


class TestSpmv:
    def test_pure_self_loop_graph_is_identity(self, rng):
        seqs = [ItemSequence(u, [u + 1]) for u in range(6)]
        graph = gr.build_transition_graph(seqs, window=2, num_items=6)
        x = rng.standard_normal((7, 3))
        x[0] = 0.0  # padding row carries no self-loop
        np.testing.assert_array_equal(graph.spmv(x), x)

    def test_matches_dense_matmul(self, rng):
        seqs = random_sequences(rng, 12, 8)
        graph = gr.build_transition_graph(seqs, window=2, num_items=8)
        x = rng.standard_normal((9, 4))
        np.testing.assert_allclose(graph.spmv(x), graph.dense() @ x,
                                   atol=1e-12)

    def test_shape_mismatch(self, rng):
        graph = gr.build_transition_graph([ItemSequence(0, [1, 2])], window=2, num_items=2)
        with pytest.raises(ShapeMismatch, match=r"3x3"):
            graph.spmv(np.zeros((5, 2)))


def per_row_reference(graph, seqs, perturbation=None):
    """The per-row extraction the batched lookup replaced, kept as its oracle."""
    out = np.zeros(seqs.shape + seqs.shape[1:])
    for b, row in enumerate(seqs):
        real = row > 0
        if not real.any():
            continue
        ids = row[real]
        block = graph.matrix[ids][:, ids].toarray()
        if perturbation is not None and perturbation.strength != 0.0:
            block = block + perturbation.strength * (
                perturbation.left[ids] @ perturbation.right[ids].T)
        out[b][np.ix_(real, real)] = block
    return out


class TestExtractSubgraph:
    def build(self, rng, num_items=10):
        return gr.build_transition_graph(random_sequences(rng, 20, num_items),
                                         window=2, num_items=num_items)

    def one_row(self, graph, padded, perturbation=None):
        return gr.extract_subgraph_batch(graph, np.asarray(padded)[None], perturbation)[0]

    def test_all_padding_gives_zero_matrix(self, rng):
        graph = self.build(rng)
        out = self.one_row(graph, np.zeros(6, dtype=np.int64))
        np.testing.assert_array_equal(out, np.zeros((6, 6)))

    def test_repeated_item_fills_diagonal_weight(self, rng):
        graph = self.build(rng)
        padded = np.array([0, 0, 3, 3, 3])
        out = self.one_row(graph, padded)
        expected = graph.dense()[3, 3]
        assert (out[2:, 2:] == expected).all()
        assert (out[:2] == 0).all() and (out[:, :2] == 0).all()

    def test_matches_per_pair_lookup(self, rng):
        graph = self.build(rng)
        dense = graph.dense()
        for _ in range(10):
            padded = np.zeros(8, dtype=np.int64)
            real = int(rng.integers(1, 9))
            padded[8 - real:] = rng.integers(1, 11, real)
            out = self.one_row(graph, padded)
            for p in range(8):
                for q in range(8):
                    want = dense[padded[p], padded[q]] if padded[p] and padded[q] else 0.0
                    assert out[p, q] == want

    def test_refined_lookup_adds_low_rank_term(self, rng):
        graph = self.build(rng)
        left = rng.standard_normal((11, 3))
        right = rng.standard_normal((11, 3))
        pert = gr.SubgraphPerturbation(left, right, 0.25)
        padded = np.array([0, 2, 5, 9])
        out = self.one_row(graph, padded, pert)
        dense = graph.dense()
        for p in range(1, 4):
            for q in range(1, 4):
                want = dense[padded[p], padded[q]] + 0.25 * left[padded[p]] @ right[padded[q]]
                np.testing.assert_allclose(out[p, q], want, atol=1e-12)
        assert (out[0] == 0).all() and (out[:, 0] == 0).all()

    def test_batch_stacks_per_sequence(self, rng):
        graph = self.build(rng)
        seqs = np.array([[0, 1, 2], [3, 3, 0]])
        # trailing padding does not occur in training layouts but must still zero out
        batch = gr.extract_subgraph_batch(graph, seqs)
        np.testing.assert_array_equal(batch[0], self.one_row(graph, seqs[0]))
        np.testing.assert_array_equal(batch[1], self.one_row(graph, seqs[1]))

    @pytest.mark.parametrize("strength", [0.0, 0.05, 2.5])
    def test_bitwise_equal_to_per_row_reference(self, rng, strength):
        # items 13..16 never occur in a sequence, so they have no edges at all
        graph = gr.build_transition_graph(random_sequences(rng, 30, 12), window=3,
                                          num_items=16)
        # a non-zero padding row checks that padding positions are masked; at
        # rank 32 a product of another shape than the per-row one rounds apart
        pert = gr.SubgraphPerturbation(50 * rng.standard_normal((17, 32)),
                                       50 * rng.standard_normal((17, 32)), strength)
        for _ in range(20):
            seqs = rng.integers(1, 17, (int(rng.integers(1, 12)), 9))
            seqs[rng.random(seqs.shape) < 0.3] = 0   # padding anywhere, trailing too
            seqs[0] = 0                              # an all-padding row
            seqs[-1, :4] = seqs[-1, 4]               # duplicates
            np.testing.assert_array_equal(gr.extract_subgraph_batch(graph, seqs, pert),
                                          per_row_reference(graph, seqs, pert))
            np.testing.assert_array_equal(gr.extract_subgraph_batch(graph, seqs),
                                          per_row_reference(graph, seqs))

    def test_out_of_range_id_rejected(self, rng):
        graph = self.build(rng)
        with pytest.raises(IndexError, match="item id 11 is out of range"):
            gr.extract_subgraph_batch(graph, np.array([[0, 3, 11]]))

    def test_empty_graph_reads_zero_base_weights(self, rng):
        graph = gr.TransitionGraph(sp.csr_matrix((6, 6)))
        seqs = np.array([[0, 1, 5], [2, 2, 0]])
        np.testing.assert_array_equal(gr.extract_subgraph_batch(graph, seqs),
                                      np.zeros((2, 3, 3)))
        pert = gr.SubgraphPerturbation(rng.standard_normal((6, 2)),
                                       rng.standard_normal((6, 2)), 0.5)
        np.testing.assert_array_equal(gr.extract_subgraph_batch(graph, seqs, pert),
                                      per_row_reference(graph, seqs, pert))

    def test_unsorted_duplicated_csr_is_canonicalized(self):
        # row 1 holds column 3 twice and out of order, row 2 holds (2, 0); the
        # (0, 0) entry must still read as zero at padding positions
        matrix = sp.csr_matrix((np.array([9.0, 1.0, 2.0, 4.0, 7.0]),
                                np.array([0, 3, 1, 3, 0]), np.array([0, 1, 4, 5, 5])),
                               shape=(4, 4))
        graph = gr.TransitionGraph(matrix)
        assert graph.matrix.has_canonical_format
        seqs = np.array([[0, 1, 3, 2, 1]])
        want = np.zeros((1, 5, 5))
        want[0, 1, 1] = want[0, 4, 4] = want[0, 1, 4] = want[0, 4, 1] = 2.0
        want[0, 1, 2] = want[0, 4, 2] = 5.0
        np.testing.assert_array_equal(gr.extract_subgraph_batch(graph, seqs), want)
