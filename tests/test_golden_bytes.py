"""Golden bytes: a tiny run with every loss term and dropout on must write the
same ``metrics.log`` and ``checkpoint.best`` as the recorded digests.

Speed-ups to the autodiff engine, the encoder and the optimizer promise the
same bits, not merely close numbers.  This pins that promise end to end.
Floating-point results depend on the numpy build and its BLAS, so the
digests are valid only on the build they were recorded with; on any other
build the test skips and names the difference.  Some BLAS products round
differently at another thread count, so the run is made in a fresh process
at one and at two BLAS threads, and both must match.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import graphseqrec

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
         "--seed", "7", "--enable-pge", "true", "--lr", "0.005"]


def blas_name() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def cli(args, threads: int) -> None:
    """Run ``graphseqrec`` in a new process limited to ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(graphseqrec.__file__)),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "graphseqrec.cli"] + args, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_tiny_run_matches_recorded_digests(tmp_path):
    build = (np.__version__, blas_name())
    if build != (RECORDED_NUMPY, RECORDED_BLAS):
        pytest.skip(f"digests were recorded with numpy {RECORDED_NUMPY} / {RECORDED_BLAS}; "
                    f"this build is numpy {build[0]} / {build[1]}")
    log = tmp_path / "log.tsv"
    cli(["synth", "--out", str(log), "--users", "150", "--items", "40",
         "--seq-len", "12", "--noise", "0.2", "--seed", "5"], 1)
    for threads in (1, 2):
        outdir = tmp_path / f"run-{threads}"
        cli(["train", "--dataset", str(log), "--outdir", str(outdir)] + FLAGS, threads)
        got = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
               for name in DIGESTS}
        assert got == DIGESTS, f"at {threads} BLAS thread(s)"
