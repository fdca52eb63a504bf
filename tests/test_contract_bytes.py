"""Byte contract at the shapes a change is checked on: the acceptance
planted-ring config as it is, with each PGE/AGCL variant and with the
deepest layer count the gridsearch trains, plus a catalog large enough that
``evaluate_model`` scores a chunk in more than one block.  Each run must
write the recorded ``metrics.log`` and ``checkpoint.best``.

Like ``test_golden_bytes.py``, the digests hold only on the numpy/BLAS
build they were recorded with; on any other build the test skips and names
the difference.  Every command runs in a fresh process at one BLAS thread.
"""

import hashlib

import numpy as np
import pytest

from test_golden_bytes import RECORDED_BLAS, RECORDED_NUMPY, blas_name, cli

SYNTH = {
    "ring": ["--users", "500", "--items", "200", "--seed", "0"],
    # 2936 of the 3000 items survive, above the 2048 at which evaluate_model
    # splits its score block
    "catalog": ["--users", "600", "--items", "3000", "--seed", "0"],
}
TRAIN_FLAGS = ["--min-count", "1", "--dim", "32", "--max-len", "20", "--rank", "8",
               "--dropout", "0.2", "--lambda1", "0.1", "--lambda2", "0.1", "--seed", "1"]
RING_EPOCHS = ["--max-epochs", "3", "--patience", "2"]

# name: (dataset, extra train flags, metrics.log digest, checkpoint.best digest)
RUNS = {
    "ring": ("ring", RING_EPOCHS,
             "08b0bd17edc5a1255e0fb18a5621fcdf22a6c251a044efdb57b237c281895a0b",
             "0b1b5e332445341577f37da2ee1990080c7f17662fba31bee271911269f9b0d3"),
    "ring-nopge": ("ring", RING_EPOCHS + ["--enable-pge", "false"],
                   "03c189118cd8282d3807222a07a4783d6396aceb033af4b0b0a176028d45f27d",
                   "b2c2003cbbb8f1113b0a6bbff395bc4aa5c40500be419cfed9655b7cc129a69e"),
    "ring-pge-original": ("ring", RING_EPOCHS + ["--pge-graph", "original"],
                          "211079fbc9f78dd3ff3cb2f87f6b5918579f81160fd3f081a44e489b70208ab5",
                          "8435901568e88e824a87724e271448a9f982d749e050141f9b1fce227a6f2656"),
    "ring-noagcl": ("ring", RING_EPOCHS + ["--lambda1", "0", "--pge-graph", "original"],
                    "965045dad182265ce2fdb46c5b40ad221df8f257c55060f6f9242db36aec9128",
                    "0fd019dabc833a953d6a770adb355f4aa987293ce2a71393642b9f9f12a416a4"),
    "ring-3-layers": ("ring", RING_EPOCHS + ["--encoder-layers", "3", "--heads", "4"],
                      "87ec7be142e96400bea2cca42d967815af64b027a432fd25692d24c6c20849ce",
                      "11a1eac579d975f5b929cbacd7138d05d5a9afd8c8ea824bfba7a702b0278c4d"),
    "catalog": ("catalog", ["--max-epochs", "2", "--patience", "1"],
                "7a5efa78de781c87c3e16d8d1752e2d5b6f4421ca1a8963af3437353b428b451",
                "30ac3d1f20399eeb5cb1f684cc6eba6ded8c72a0bf88e7bf74c7d78b0c79601d"),
}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """Each synthetic log, written once for every run that trains on it."""
    build = (np.__version__, blas_name())
    if build != (RECORDED_NUMPY, RECORDED_BLAS):
        pytest.skip(f"digests were recorded with numpy {RECORDED_NUMPY} / {RECORDED_BLAS}; "
                    f"this build is numpy {build[0]} / {build[1]}")
    root = tmp_path_factory.mktemp("contract")
    logs = {}
    for name, flags in SYNTH.items():
        logs[name] = root / f"{name}.tsv"
        cli(["synth", "--out", str(logs[name])] + flags, 1)
    return logs


@pytest.mark.parametrize("run", list(RUNS))
def test_run_matches_recorded_digests(tmp_path, datasets, run):
    dataset, extra, *digests = RUNS[run]
    cli(["train", "--dataset", str(datasets[dataset]), "--outdir", str(tmp_path)]
        + TRAIN_FLAGS + extra, 1)
    got = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("metrics.log", "checkpoint.best")]
    assert got == digests
