import numpy as np
import pytest

from graphseqrec.autodiff import ShapeMismatch
from graphseqrec.checkpoint import CheckpointError
from graphseqrec.data import build_sequences, synth_generate
from graphseqrec.graph import build_transition_graph
from graphseqrec.model import Model, ModelConfig


@pytest.fixture(scope="module")
def setup():
    log = synth_generate(30, 20, noise=0.3, seed=2, seq_len=8)
    seqs = build_sequences(log, min_count=1)
    graph = build_transition_graph(seqs, window=2, num_items=20)
    return seqs, graph


def config(**overrides):
    base = dict(num_items=20, num_users=30, dim=8, max_len=8, heads=2,
                encoder_layers=1, dropout=0.0, gcn_layers=2, alpha=0.05, rank=2)
    base.update(overrides)
    return ModelConfig(**base)


def batch_from(seqs, n=8, count=4):
    from graphseqrec.data import pad_sequence
    padded = np.stack([pad_sequence(s.items, n) for s in seqs[:count]])
    users = np.array([s.user_id for s in seqs[:count]])
    return padded, users


class TestToggles:
    def test_disabled_pge_equals_zeroed_projection(self, setup):
        seqs, graph = setup
        padded, users = batch_from(seqs)
        zeroed = Model(config(enable_pge=True), graph, np.random.default_rng(3))
        zeroed.params["pge_w2"].data[:] = 0.0
        disabled = Model(config(enable_pge=False), graph, np.random.default_rng(3))
        a = zeroed.hidden_states(padded, users, zeroed.subgraph_perturbation()).data
        b = disabled.hidden_states(padded, users, None).data
        assert a.tobytes() == b.tobytes()

    def test_pge_graph_choice_changes_hidden_states(self, setup):
        seqs, graph = setup
        padded, users = batch_from(seqs)
        refined = Model(config(pge_graph="refined", alpha=0.5), graph,
                        np.random.default_rng(3))
        original = Model(config(pge_graph="original", alpha=0.5), graph,
                         np.random.default_rng(3))
        unrefined = Model(config(pge_graph="refined", alpha=0.0), graph,
                          np.random.default_rng(3))
        states = {name: model.hidden_states(padded, users, model.subgraph_perturbation()).data
                  for name, model in (("refined", refined), ("original", original),
                                      ("unrefined", unrefined))}
        assert not np.array_equal(states["refined"], states["original"])
        assert states["original"].tobytes() == states["unrefined"].tobytes()
        # with pge_graph = original the snapshot is not read
        assert original.hidden_states(padded, users, None).data.tobytes() == \
            states["original"].tobytes()

    def test_refined_pge_without_a_snapshot_is_an_error(self, setup):
        seqs, graph = setup
        padded, users = batch_from(seqs)
        model = Model(config(pge_graph="refined"), graph, np.random.default_rng(3))
        with pytest.raises(ValueError, match="subgraph_perturbation"):
            model.hidden_states(padded, users, None)
        with pytest.raises(ValueError, match="subgraph_perturbation"):
            model.user_reprs(padded, users, None)

    def test_invalid_pge_graph_rejected(self):
        with pytest.raises(ValueError):
            config(pge_graph="other")


class TestDetached:
    def test_shares_config_graph_and_arrays_and_records_no_tape(self, setup):
        seqs, graph = setup
        padded, users = batch_from(seqs)
        model = Model(config(pge_graph="refined"), graph, np.random.default_rng(3))
        detached = model.detached()
        assert detached.cfg is model.cfg and detached.graph is model.graph
        assert detached.params.keys() == model.params.keys()
        for name, t in detached.params.items():
            assert t.data is model.params[name].data and not t.requires_grad
        recorded = model.user_reprs(padded, users, model.subgraph_perturbation())
        read = detached.user_reprs(padded, users, detached.subgraph_perturbation())
        assert recorded.node is not None and read.node is None
        assert read.data.tobytes() == recorded.data.tobytes()
        # an in-place update of the model shows through the detached view
        for t in model.params.values():
            t.data *= 2.0
        again = detached.user_reprs(padded, users, detached.subgraph_perturbation())
        assert again.data.tobytes() != read.data.tobytes()


class TestPersistence:
    def test_save_load_round_trip(self, setup, tmp_path):
        seqs, graph = setup
        padded, users = batch_from(seqs)
        model = Model(config(), graph, np.random.default_rng(4))
        before = model.hidden_states(padded, users, model.subgraph_perturbation()).data.copy()
        path = tmp_path / "model.ckpt"
        model.save(path)
        other = Model(config(), graph, np.random.default_rng(99))
        other.load(path)
        after = other.hidden_states(padded, users, other.subgraph_perturbation()).data
        np.testing.assert_array_equal(before, after)

    def test_shape_mismatch_names_parameter_and_shapes(self, setup, tmp_path):
        seqs, graph = setup
        model = Model(config(), graph, np.random.default_rng(4))
        path = tmp_path / "model.ckpt"
        model.save(path)
        bigger = Model(config(dim=16), graph, np.random.default_rng(4))
        with pytest.raises(ShapeMismatch, match=r"item_emb.*\[21, 8\].*\[21, 16\]"):
            bigger.load(path)

    @pytest.mark.parametrize("saved,loading,error,match", [
        (dict(encoder_layers=2), dict(encoder_layers=1), CheckpointError,
         r"record 'layer1\.\w+' is not a parameter"),
        # pos_emb is checked after item_emb, which would load cleanly
        (dict(max_len=8), dict(max_len=10), ShapeMismatch,
         r"'pos_emb' has shape \[8, 8\], model expects \[10, 8\]"),
    ], ids=["unknown-record", "shape-mismatch"])
    def test_failed_load_changes_no_parameter(self, setup, tmp_path, saved, loading,
                                              error, match):
        _, graph = setup
        path = tmp_path / "model.ckpt"
        Model(config(**saved), graph, np.random.default_rng(4)).save(path)
        model = Model(config(**loading), graph, np.random.default_rng(5))
        before = model.snapshot()
        with pytest.raises(error, match=match):
            model.load(path)
        assert all(before[name].tobytes() == t.data.tobytes()
                   for name, t in model.params.items())

    def test_snapshot_restore(self, setup):
        seqs, graph = setup
        model = Model(config(), graph, np.random.default_rng(4))
        snap = model.snapshot()
        model.params["item_emb"].data += 1.0
        model.restore(snap)
        np.testing.assert_array_equal(model.params["item_emb"].data, snap["item_emb"])
