"""Golden bytes: a tiny run with every loss term and dropout on must write the
same ``metrics.log`` and ``checkpoint.best`` as the recorded digests.

Speed-ups to the autodiff engine, the encoder and the optimizer promise the
same bits, not merely close numbers.  This pins that promise end to end.
Floating-point results depend on the numpy build and its BLAS, so the
digests are valid only on the build they were recorded with; on any other
build the test skips and names the difference.
"""

import hashlib

import numpy as np
import pytest

from graphseqrec.cli import main

RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = "scipy-openblas 0.3.31.188.0"
# user representations run the last encoder layer at the readout rows only;
# those one-row products round differently from the rows of the full encode
# (within 4e-15), and checkpoint.best, the best-validation parameters, pins
# the bits that training reached through them
DIGESTS = {
    "metrics.log": "b8030c34efa633c2fab4bbd410ca3e323fe97cc6a7e9a4b2376e37b70f2043b6",
    "checkpoint.best": "472ee9229168b083b86ff22a02f8bc1deb502c613ee035aefb7f8cdbee1d73ae",
}

# PGE, the graph contrastive loss (AGCL), the sequence contrastive loss and
# dropout all on, 2 heads and 2 layers, so every op of the model runs
FLAGS = ["--dim", "16", "--heads", "2", "--encoder-layers", "2", "--max-len", "10",
         "--rank", "4", "--dropout", "0.2", "--batch-size", "32", "--max-epochs", "3",
         "--patience", "2", "--min-count", "1", "--lambda1", "0.1", "--lambda2", "0.1",
         "--seed", "7", "--enable-agcl", "true", "--enable-pge", "true", "--lr", "0.005"]


def blas_name() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def test_tiny_run_matches_recorded_digests(tmp_path):
    build = (np.__version__, blas_name())
    if build != (RECORDED_NUMPY, RECORDED_BLAS):
        pytest.skip(f"digests were recorded with numpy {RECORDED_NUMPY} / {RECORDED_BLAS}; "
                    f"this build is numpy {build[0]} / {build[1]}")
    log = tmp_path / "log.tsv"
    assert main(["synth", "--out", str(log), "--users", "150", "--items", "40",
                 "--seq-len", "12", "--noise", "0.2", "--seed", "5"]) == 0
    outdir = tmp_path / "run"
    assert main(["train", "--dataset", str(log), "--outdir", str(outdir)] + FLAGS) == 0
    got = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
