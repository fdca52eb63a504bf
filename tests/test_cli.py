import hashlib
import os
import shutil
from pathlib import Path

import pytest

from graphseqrec.checkpoint import load_archive, save_archive
from graphseqrec.cli import main
from graphseqrec.data import ingest

FAST_FLAGS = [
    "--dim", "8", "--max-len", "8", "--rank", "2", "--encoder-layers", "1",
    "--batch-size", "32", "--max-epochs", "2", "--patience", "1",
    "--min-count", "1", "--dropout", "0.0", "--seed", "3",
]


@pytest.fixture(scope="module")
def synth_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "log.tsv"
    code = main(["synth", "--out", str(path), "--users", "40", "--items", "20",
                 "--seq-len", "8", "--noise", "0.3", "--seed", "5"])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_log):
    outdir = tmp_path_factory.mktemp("run")
    code = main(["train", "--dataset", synth_log, "--outdir", str(outdir)] + FAST_FLAGS)
    assert code == 0
    return str(outdir)


class TestSynth:
    def test_output_parses_back(self, synth_log):
        seqs = ingest(synth_log, min_count=1)
        assert len(seqs) == 40
        assert all(len(s.items) == 8 for s in seqs)

    def test_fixed_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for path in (a, b):
            assert main(["synth", "--out", str(path), "--users", "10",
                         "--items", "9", "--seed", "11"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noiseless_log_follows_planted_chain(self, tmp_path):
        path = tmp_path / "ring.tsv"
        assert main(["synth", "--out", str(path), "--users", "5", "--items", "7",
                     "--noise", "0", "--seq-len", "10"]) == 0
        for seq in ingest(path, min_count=1):
            for a, b in zip(seq.items, seq.items[1:]):
                assert b == a % 7 + 1

    @pytest.mark.parametrize("delimiter, digest", [
        ("tab", "fb30447d4fb844ffbd01bc0a7ee10d2aee0d0d87fed2558807e88aa1698211b1"),
        ("comma", "d25ace4adeedf2db45fddce3138ce4fb1342425dfdbcfd0aa68e9b1eb48e0088")])
    def test_log_bytes_pinned(self, tmp_path, delimiter, digest):
        # the generator's draws and the line format, at the default noise
        path = tmp_path / "log.txt"
        assert main(["synth", "--out", str(path), "--users", "500", "--items", "200",
                     "--seed", "0", "--delimiter", delimiter]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("flag, value", [("--users", "0"), ("--items", "0"),
                                             ("--order", "0"), ("--seq-len", "0"),
                                             ("--noise", "1.5"), ("--noise", "nan"),
                                             ("--seed", "-1")])
    def test_out_of_range_flag_is_a_usage_error_naming_it(self, tmp_path, capsys, flag, value):
        path = tmp_path / "log.tsv"
        assert main(["synth", "--out", str(path), flag, value]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must" in err
        others = {"--users", "--items", "--order", "--seq-len", "--noise", "--seed"} - {flag}
        assert not any(other in err for other in others)
        assert not path.exists()


@pytest.mark.parametrize("command", ["train", "eval", "synth", "gridsearch", "build-graph"])
def test_unknown_argument_prints_the_subcommands_usage(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--spectrum", "true"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: graphseqrec {command} ")
    assert err.endswith("error: unrecognized arguments: --spectrum true\n")


class TestTrain:
    def test_missing_dataset_is_usage_error(self, capsys, tmp_path):
        code = main(["train", "--outdir", str(tmp_path / "run")])
        assert code == 2
        assert "--dataset" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_nonexistent_dataset_names_flag(self, capsys, tmp_path):
        code = main(["train", "--dataset", "/no/such/file", "--outdir", str(tmp_path / "run")])
        assert code == 2
        assert "--dataset" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_utf8_log_names_path_and_line(self, capsys, tmp_path):
        log = tmp_path / "log.tsv"
        log.write_bytes(b"1\t2\t3\n1\t2\xff\t4\n")
        code = main(["train", "--dataset", str(log), "--outdir", str(tmp_path / "run")])
        assert code == 1
        assert f"error: {log}:2: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_artifacts_written(self, trained):
        assert sorted(os.listdir(trained)) == ["checkpoint.best", "config.resolved",
                                               "metrics.log", "timing.log"]

    def test_determinism_byte_identical_metrics(self, synth_log, tmp_path):
        runs = []
        for sub in ("one", "two"):
            outdir = tmp_path / sub
            assert main(["train", "--dataset", synth_log, "--outdir", str(outdir),
                         "--seed", "7"] + FAST_FLAGS[:-2]) == 0
            runs.append((outdir / "metrics.log").read_bytes())
        assert runs[0] == runs[1]

    def test_resolved_config_reproduces_run(self, trained, tmp_path):
        rerun = tmp_path / "rerun"
        assert main(["train", "--config", os.path.join(trained, "config.resolved"),
                     "--outdir", str(rerun)]) == 0
        first = Path(trained, "metrics.log").read_bytes()
        assert first == (rerun / "metrics.log").read_bytes()

    def test_rerun_from_a_snapshot_whose_paths_hold_hash(self, synth_log, tmp_path):
        data, outdir = tmp_path / "logs#v2", tmp_path / "runs" / "a#1 = b"
        data.mkdir()
        shutil.copy(synth_log, data / "log.tsv")
        assert main(["train", "--dataset", str(data / "log.tsv"), "--outdir", str(outdir)]
                    + FAST_FLAGS) == 0
        first = (outdir / "metrics.log").read_bytes()
        (outdir / "metrics.log").unlink()
        assert main(["train", "--config", str(outdir / "config.resolved")]) == 0
        assert (outdir / "metrics.log").read_bytes() == first
        assert os.listdir(tmp_path / "runs") == ["a#1 = b"]

    # an outer space would not read back from config.resolved, a line break
    # would start another key there
    @pytest.mark.parametrize("key,suffix", [("outdir", " "), ("dataset", "\nmin_count = 7")])
    def test_a_path_the_snapshot_cannot_hold_is_rejected_before_any_artifact(
            self, synth_log, tmp_path, capsys, key, suffix):
        paths = {"dataset": synth_log, "outdir": str(tmp_path / "run")}
        paths[key] += suffix
        assert main(["train", "--dataset", paths["dataset"], "--outdir", paths["outdir"]]
                    + FAST_FLAGS) == 1
        assert capsys.readouterr().err == (
            f"error: {key} must be one line without outer whitespace, got {paths[key]!r}\n")
        assert os.listdir(tmp_path) == []

    def test_non_utf8_config_names_path_and_line(self, synth_log, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"dim = 8\r\n# caf\xe9\nheads = 2\n")
        code = main(["train", "--dataset", synth_log, "--outdir", str(tmp_path / "run"),
                     "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}:2: not UTF-8 text (invalid continuation byte at byte 14)" in err
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_rejected(self, synth_log, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 5\n")
        code = main(["train", "--dataset", synth_log, "--outdir", str(tmp_path),
                     "--config", str(cfg)])
        assert code == 2
        assert "no_such_key" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--heads", "0"), ("--heads", "-2"), ("--mask-ratio", "1.0"), ("--mask-ratio", "1.5"),
        ("--crop-ratio", "0"), ("--crop-ratio", "1.5"), ("--reorder-ratio", "-0.1"),
        ("--reorder-ratio", "1.5"),
        ("--batch-size", "0"), ("--dim", "0"), ("--max-len", "0"), ("--encoder-layers", "0"),
        ("--window", "0"), ("--rank", "0"), ("--gcn-layers", "0"),
        ("--dropout", "nan"), ("--alpha", "inf"), ("--lr", "nan"), ("--beta1", "inf"),
        ("--beta2", "nan"), ("--eps", "inf"), ("--lambda1", "inf"), ("--lambda2", "nan"),
        ("--tau", "inf"), ("--crop-ratio", "nan"), ("--mask-ratio", "inf"),
        ("--reorder-ratio", "nan"),
        ("--beta1", "1.5"), ("--beta1", "-0.1"), ("--beta2", "1.0"), ("--eps", "-1"),
        ("--eps", "0"), ("--max-epochs", "0"), ("--max-epochs", "-3"), ("--patience", "-1"),
        ("--seed", "-1"), ("--min-count", "0"),
    ])
    def test_out_of_range_key_rejected_before_training(self, synth_log, tmp_path, capsys,
                                                       flag, value):
        outdir = tmp_path / "run"
        code = main(["train", "--dataset", synth_log, "--outdir", str(outdir)]
                    + FAST_FLAGS + [flag, value])
        assert code == 1
        key = flag[2:].replace("-", "_")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and f"got {float(value):g}" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("flags,code,message", [
        (["--pge-graph", "bogus"], 1, "pge_graph must be 'original' or 'refined', got 'bogus'"),
        (["--degree-mode", "bogus"], 1,
         "degree_mode must be 'weighted' or 'count', got 'bogus'"),
        (["--dim", "7", "--heads", "2"], 1, "dim 7 must be divisible by heads 2"),
        (["--delimiter", "bogus"], 2, "delimiter must be 'tab' or 'comma', got 'bogus'"),
    ], ids=["pge-graph", "degree-mode", "dim-heads", "delimiter"])
    def test_choice_and_shape_keys_rejected_before_any_artifact(self, synth_log, tmp_path,
                                                                capsys, flags, code, message):
        outdir = tmp_path / "run"
        assert main(["train", "--dataset", synth_log, "--outdir", str(outdir)]
                    + FAST_FLAGS + flags) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("flag,value,detail", [
        ("--seed", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("--enable-pge", "maybe", "expected a boolean, got 'maybe'"),
    ], ids=["seed", "enable-pge"])
    def test_unparsable_flag_value_names_flag_and_key(self, synth_log, tmp_path, capsys,
                                                      flag, value, detail):
        outdir = tmp_path / "run"
        assert main(["train", "--dataset", synth_log, "--outdir", str(outdir)]
                    + FAST_FLAGS + [flag, value]) == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {flag}: bad value for {key}: {detail}\n"
        assert not outdir.exists()

    def test_flag_overrides_config_file(self, synth_log, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("seed = 1\ndim = 8\nmax_len = 8\nrank = 2\nencoder_layers = 1\n"
                       "batch_size = 32\nmax_epochs = 1\npatience = 0\nmin_count = 1\n")
        outdir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--dataset", synth_log,
                     "--outdir", str(outdir), "--seed", "2"]) == 0
        resolved = (outdir / "config.resolved").read_text()
        assert "seed = 2" in resolved

    def test_output_root_env_fallback(self, synth_log, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAPHSEQREC_OUTPUT_ROOT", str(tmp_path / "root"))
        assert main(["train", "--dataset", synth_log] + FAST_FLAGS) == 0
        assert os.path.exists(tmp_path / "root" / "train" / "metrics.log")


class TestEval:
    def test_eval_reproduces_training_test_metrics(self, trained, synth_log, capsys):
        metrics = Path(trained, "metrics.log").read_text().splitlines()
        test_line = next(line for line in metrics if line.startswith("test "))
        code = main(["eval", "--config", os.path.join(trained, "config.resolved"),
                     "--checkpoint", os.path.join(trained, "checkpoint.best"),
                     "--dataset", synth_log, "--split", "test"])
        assert code == 0
        out = capsys.readouterr().out
        assert test_line.removeprefix("test ") in out

    def test_eval_on_validation_reproduces_best_recorded(self, trained, synth_log, capsys):
        metrics = Path(trained, "metrics.log").read_text().splitlines()
        best_line = next(line for line in metrics if line.startswith("best_epoch="))
        best_value = best_line.split("best_val_ndcg@20=")[1]
        code = main(["eval", "--config", os.path.join(trained, "config.resolved"),
                     "--checkpoint", os.path.join(trained, "checkpoint.best"),
                     "--dataset", synth_log, "--split", "valid"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"ndcg@20={best_value}" in out

    def test_spectrum_flag_writes_csv_with_item_rows(self, trained, synth_log, tmp_path):
        csv = tmp_path / "spec.csv"
        code = main(["eval", "--config", os.path.join(trained, "config.resolved"),
                     "--checkpoint", os.path.join(trained, "checkpoint.best"),
                     "--dataset", synth_log, "--spectrum-csv", str(csv)])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 1 + 20  # header + one row per item

    def test_shape_mismatch_reports_parameter(self, trained, synth_log, capsys):
        code = main(["eval", "--config", os.path.join(trained, "config.resolved"),
                     "--checkpoint", os.path.join(trained, "checkpoint.best"),
                     "--dataset", synth_log, "--dim", "16"])
        assert code == 1
        err = capsys.readouterr().err
        assert "item_emb" in err and "[21, 8]" in err and "[21, 16]" in err

    def test_record_the_model_lacks_is_an_error(self, synth_log, tmp_path, capsys):
        deeper = tmp_path / "deeper"
        assert main(["train", "--dataset", synth_log, "--outdir", str(deeper)]
                    + FAST_FLAGS + ["--encoder-layers", "2", "--max-epochs", "1",
                                    "--patience", "0"]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(deeper / "config.resolved"),
                     "--checkpoint", str(deeper / "checkpoint.best"),
                     "--dataset", synth_log, "--encoder-layers", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "checkpoint.best: record 'layer1." in captured.err and captured.out == ""

    def test_parameter_the_checkpoint_lacks_is_an_error(self, synth_log, tmp_path, capsys):
        shallower = tmp_path / "shallower"
        assert main(["train", "--dataset", synth_log, "--outdir", str(shallower)]
                    + FAST_FLAGS + ["--encoder-layers", "3", "--max-epochs", "1",
                                    "--patience", "0"]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(shallower / "config.resolved"),
                     "--checkpoint", str(shallower / "checkpoint.best"),
                     "--dataset", synth_log, "--encoder-layers", "4"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and '"' not in captured.err
        assert "checkpoint.best: parameter 'layer3.attn_query_w'" in captured.err
        assert captured.out == ""

    def test_non_finite_parameter_is_an_error(self, trained, synth_log, tmp_path, capsys):
        arrays = load_archive(os.path.join(trained, "checkpoint.best"))
        arrays["ln_final_g"][0] = float("nan")
        broken = tmp_path / "nan.ckpt"
        save_archive(broken, arrays)
        code = main(["eval", "--config", os.path.join(trained, "config.resolved"),
                     "--checkpoint", str(broken), "--dataset", synth_log])
        assert code == 1
        captured = capsys.readouterr()
        assert f"{broken}: parameter 'ln_final_g' holds a non-finite value" in captured.err
        assert captured.out == ""

    def test_missing_checkpoint_usage_error(self, synth_log, capsys):
        assert main(["eval", "--dataset", synth_log, "--min-count", "1"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_negative_seed_rejected(self, trained, synth_log, capsys):
        code = main(["eval", "--config", os.path.join(trained, "config.resolved"),
                     "--checkpoint", os.path.join(trained, "checkpoint.best"),
                     "--dataset", synth_log, "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


class TestBuildGraph:
    def test_dump_is_parseable_and_symmetric(self, synth_log, tmp_path):
        out = tmp_path / "graph.tsv"
        assert main(["build-graph", "--dataset", synth_log, "--out", str(out),
                     "--min-count", "1"]) == 0
        entries = {}
        for line in out.read_text().splitlines():
            i, j, w = line.split("\t")
            entries[(int(i), int(j))] = float(w)
        assert entries
        for (i, j), w in entries.items():
            assert entries[(j, i)] == w

    def test_out_of_range_key_rejected(self, synth_log, tmp_path, capsys):
        out = tmp_path / "graph.tsv"
        assert main(["build-graph", "--dataset", synth_log, "--out", str(out),
                     "--min-count", "1", "--dropout", "7"]) == 1
        assert capsys.readouterr().err == "error: dropout must be in [0, 1), got 7.0\n"
        assert not out.exists()


class TestGridsearch:
    def test_single_cell_matches_train(self, synth_log, tmp_path):
        grid_dir = tmp_path / "grid"
        assert main(["gridsearch", "--dataset", synth_log, "--outdir", str(grid_dir),
                     "--lambda1-grid", "0.1", "--layers-grid", "1"] + FAST_FLAGS) == 0
        train_dir = tmp_path / "train"
        assert main(["train", "--dataset", synth_log, "--outdir", str(train_dir),
                     "--lambda1", "0.1"] + FAST_FLAGS) == 0
        cell = grid_dir / "cell-lambda1_0.1-layers_1"
        assert (cell / "metrics.log").read_bytes() == (train_dir / "metrics.log").read_bytes()
        assert sorted(os.listdir(cell)) == sorted(os.listdir(train_dir))

    def test_grid_emits_row_per_cell_sorted(self, synth_log, tmp_path):
        grid_dir = tmp_path / "grid4"
        assert main(["gridsearch", "--dataset", synth_log, "--outdir", str(grid_dir),
                     "--lambda1-grid", "0.05,0.2", "--layers-grid", "1,2"] + FAST_FLAGS) == 0
        lines = (grid_dir / "grid_summary.tsv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 cells
        values = [float(line.split("\t")[2]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)

    def test_best_row_matches_standalone_rerun(self, synth_log, tmp_path):
        grid_dir = tmp_path / "grid1"
        assert main(["gridsearch", "--dataset", synth_log, "--outdir", str(grid_dir),
                     "--lambda1-grid", "0.05,0.4", "--layers-grid", "1"] + FAST_FLAGS) == 0
        header, best, *_ = (grid_dir / "grid_summary.tsv").read_text().splitlines()
        lam, layers, val, _, _ = best.split("\t")
        rerun = tmp_path / "rerun"
        assert main(["train", "--dataset", synth_log, "--outdir", str(rerun),
                     "--lambda1", lam, "--encoder-layers", layers] + FAST_FLAGS) == 0
        metrics = (rerun / "metrics.log").read_text().splitlines()
        best_line = next(line for line in metrics if line.startswith("best_epoch="))
        assert best_line.endswith(val)

    # a bad token, a grid of no value, or a value given twice, whose cell
    # would train twice into one directory; each is found before the dataset
    # is read
    @pytest.mark.parametrize("flag,value", [("--lambda1-grid", "abc"), ("--layers-grid", "1,1.5"),
                                            ("--lambda1-grid", ","), ("--layers-grid", " "),
                                            ("--lambda1-grid", "0.1,0.10"),
                                            ("--layers-grid", "2,1,2")])
    def test_rejected_grid_is_a_usage_error_leaving_no_outdir(self, tmp_path, capsys,
                                                              flag, value):
        grid_dir = tmp_path / "grid"
        assert main(["gridsearch", "--dataset", str(tmp_path / "missing.tsv"),
                     "--outdir", str(grid_dir), flag, value] + FAST_FLAGS) == 2
        repeated = {"0.1,0.10": "repeated grid value 0.1", "2,1,2": "repeated grid value 2"}
        detail = repeated.get(value, "bad grid specification")
        assert capsys.readouterr().err == f"error: {flag}: {detail}: {value!r}\n"
        assert not grid_dir.exists()

    def test_bad_grid_value_fails_only_its_cell(self, synth_log, tmp_path, capsys):
        grid_dir = tmp_path / "grid"
        assert main(["gridsearch", "--dataset", synth_log, "--outdir", str(grid_dir),
                     "--lambda1-grid", "0.1", "--layers-grid", "0,1"] + FAST_FLAGS) == 0
        assert capsys.readouterr().err == (
            "cell lambda1=0.1 layers=0 failed: encoder_layers must be >= 1, got 0\n")
        assert sorted(os.listdir(grid_dir)) == ["cell-lambda1_0.1-layers_1", "grid_summary.tsv"]
        assert len((grid_dir / "grid_summary.tsv").read_text().splitlines()) == 2


# enable_agcl only repeated lambda1 = 0 and spectrum only repeated
# eval --spectrum-csv; neither flag is read, not even as the prefix of a longer one
@pytest.mark.parametrize("command", ["train", "eval", "gridsearch", "build-graph"])
@pytest.mark.parametrize("flag", ["--enable-agcl", "--spectrum"])
def test_a_deleted_flag_is_a_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as exit_:
        main([command, flag, "true"])
    assert exit_.value.code == 2
    assert f"error: unrecognized arguments: {flag} true\n" in capsys.readouterr().err
