"""
Diagnosing dimensional collapse with the embedding spectrum
===========================================================

If item embeddings collapse into a low-dimensional subspace, their
singular values decay sharply.  The graph-contrastive term pushes toward
a flatter spectrum.  This script trains a model with and without that
term and compares the singular-value tails, then writes the 2D
projection CSV for plotting into the working directory.
"""

import numpy as np

from graphseqrec import (TrainConfig, build_sequences, leave_one_out, spectrum,
                         synth_generate, train)
from graphseqrec.evaluation import write_spectrum_csv

log = synth_generate(num_users=200, num_items=100, noise=0.2, seed=1, seq_len=16)
dataset = leave_one_out(build_sequences(log, min_count=1))

base = dict(dim=16, max_len=16, batch_size=128, rank=4, encoder_layers=1,
            lambda2=0.1, dropout=0.1, max_epochs=8, patience=7, seed=1)

with_graph_loss = train(TrainConfig(lambda1=0.1, **base), dataset)
without = train(TrainConfig(lambda1=0.0, **base), dataset)

k = base["dim"] // 2
for label, result in (("with graph loss", with_graph_loss), ("lambda1 = 0", without)):
    emb = result.model.params["item_emb"].data[1:]
    report = spectrum(emb)
    tail = report.tail_ratio(k)
    print(f"{label:16s} sigma_1={report.singular_values[0]:.3f} "
          f"sigma_{k}/sigma_1={tail:.4f}")

report = spectrum(with_graph_loss.model.params["item_emb"].data[1:])
write_spectrum_csv(report, "item_spectrum.csv")
print("projection written to item_spectrum.csv "
      "(+ singular values in item_spectrum.csv.singvals)")
