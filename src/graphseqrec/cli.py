"""Command-line entry points: train, eval, synth, gridsearch, build-graph.

Exit codes: 0 success, 2 usage error, 1 runtime failure.  Every run writes a
resolved-config snapshot so it can be reproduced bit-for-bit with
``graphseqrec train --config <outdir>/config.resolved``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from . import config as cfgmod
from .checkpoint import atomic_open
from .config import ConfigError, TrainConfig
from .data import (ingest, leave_one_out, synth_generate, write_interactions)
from .evaluation import spectrum, write_spectrum_csv
from .graph import train_graph
from .model import Model
from .training import (LAMBDA1_GRID, ENCODER_LAYER_GRID, TrainResult, evaluate_model,
                       train)

OUTPUT_ROOT_ENV = "GRAPHSEQREC_OUTPUT_ROOT"


class UsageError(Exception):
    pass


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser reports the arguments it does not know itself,
    under its own usage, rather than hand them back to the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.allow_abbrev = False  # a flag matches whole, never as the prefix of a longer one
    parser.add_argument("--config", help="flat key = value configuration file")
    for key, field in cfgmod.KEYS.items():
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, default=None, metavar="V",
                            help=f"{field.metadata['help']} (default: {field.default})")


def _collect_overrides(args: argparse.Namespace) -> Dict[str, object]:
    return {key: getattr(args, key) for key in cfgmod.KEYS if getattr(args, key, None) is not None}


def _resolve_outdir(cfg: TrainConfig, command: str) -> TrainConfig:
    if not cfg.outdir:
        root = os.environ.get(OUTPUT_ROOT_ENV, "")
        if not root:
            raise UsageError(f"--outdir is required (or set {OUTPUT_ROOT_ENV})")
        cfg = replace(cfg, outdir=os.path.join(root, command))
    return cfg


def _load_dataset(cfg: TrainConfig):
    if not cfg.dataset:
        raise UsageError("--dataset is required")
    if not os.path.exists(cfg.dataset):
        raise UsageError(f"--dataset: no such file: {cfg.dataset}")
    sequences = ingest(cfg.dataset, cfg.min_count, cfgmod.DELIMITERS[cfg.delimiter])
    return leave_one_out(sequences)


def _train_run(cfg: TrainConfig, dataset) -> TrainResult:
    """Train one configuration and write its artifacts into ``cfg.outdir``.
    The resolved config goes first, so a run that fails can be reproduced."""
    os.makedirs(cfg.outdir, exist_ok=True)
    cfgmod.write_resolved(os.path.join(cfg.outdir, "config.resolved"), cfg)
    result = train(cfg, dataset)
    with atomic_open(os.path.join(cfg.outdir, "metrics.log")) as fh:
        fh.write("\n".join(result.history) + "\n")
    with atomic_open(os.path.join(cfg.outdir, "timing.log")) as fh:
        fh.write("\n".join(result.timing) + "\n")
    # the model holds the restored best parameters at this point
    result.model.save(os.path.join(cfg.outdir, "checkpoint.best"))
    return result


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_outdir(cfgmod.resolve(args.config, _collect_overrides(args)), "train")
    result = _train_run(cfg, _load_dataset(cfg))
    for line in result.history[-2:]:
        print(line)
    print(f"artifacts written to {cfg.outdir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = cfgmod.resolve(args.config, _collect_overrides(args))
    if not args.checkpoint:
        raise UsageError("--checkpoint is required")
    if not os.path.exists(args.checkpoint):
        raise UsageError(f"--checkpoint: no such file: {args.checkpoint}")
    dataset = _load_dataset(cfg)
    graph = train_graph(dataset, cfg.window, cfg.degree_mode)
    rng = np.random.default_rng([cfg.seed, 0])
    model = Model(cfg.model_config(dataset.num_items, dataset.num_users), graph, rng)
    model.load(args.checkpoint)
    report = evaluate_model(model, dataset, args.split, cfg.batch_size, cfg.exclude_history)
    print(f"split={args.split} " + " ".join(report.lines()))
    if args.spectrum_csv:
        write_spectrum_csv(spectrum(model.params["item_emb"].data[1:]), args.spectrum_csv)
        print(f"spectrum written to {args.spectrum_csv}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if not args.out:
        raise UsageError("--out is required")
    for flag in ("users", "items", "order", "seq_len"):
        if getattr(args, flag) < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 1, got {getattr(args, flag)}")
    if not 0.0 <= args.noise <= 1.0:
        raise UsageError(f"--noise must lie in [0, 1], got {args.noise}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    log = synth_generate(args.users, args.items, args.order, args.noise,
                         args.seed, args.seq_len)
    write_interactions(args.out, log, cfgmod.DELIMITERS[args.delimiter])
    print(f"wrote {len(log)} interactions for {args.users} users to {args.out}")
    return 0


def cmd_build_graph(args: argparse.Namespace) -> int:
    cfg = cfgmod.resolve(args.config, _collect_overrides(args))
    if not args.out:
        raise UsageError("--out is required")
    graph = train_graph(_load_dataset(cfg), cfg.window, cfg.degree_mode)
    graph.dump(args.out)
    print(f"graph with {graph.nnz} entries written to {args.out}")
    return 0


def _parse_grid(text: Optional[str], kind, flag: str, default) -> List:
    if text is None:
        return list(default)
    try:
        grid = [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        grid = []
    if not grid:
        raise UsageError(f"{flag}: bad grid specification: {text!r}")
    for i, value in enumerate(grid):
        if value in grid[:i]:  # its cell would train twice into one directory
            raise UsageError(f"{flag}: repeated grid value {value}: {text!r}")
    return grid


def _grid_text(grid) -> str:
    return ",".join(map(str, grid))


def cmd_gridsearch(args: argparse.Namespace) -> int:
    base = _resolve_outdir(cfgmod.resolve(args.config, _collect_overrides(args)), "gridsearch")
    lambda1_grid = _parse_grid(args.lambda1_grid, float, "--lambda1-grid", LAMBDA1_GRID)
    layers_grid = _parse_grid(args.layers_grid, int, "--layers-grid", ENCODER_LAYER_GRID)
    dataset = _load_dataset(base)
    os.makedirs(base.outdir, exist_ok=True)
    rows = []
    for lam in lambda1_grid:
        for layers in layers_grid:
            cell_dir = os.path.join(base.outdir, f"cell-lambda1_{lam}-layers_{layers}")
            try:
                result = _train_run(
                    replace(base, lambda1=lam, encoder_layers=layers, outdir=cell_dir), dataset)
            except Exception as exc:  # keep scanning the rest of the grid
                print(f"cell lambda1={lam} layers={layers} failed: {exc}", file=sys.stderr)
                continue
            rows.append((lam, layers, result.state.best_val_ndcg20,
                         result.test_report.hr[20], result.test_report.ndcg[20]))
    rows.sort(key=lambda r: -r[2])
    summary = os.path.join(base.outdir, "grid_summary.tsv")
    with atomic_open(summary) as fh:
        fh.write("lambda1\tencoder_layers\tval_ndcg@20\ttest_hr@20\ttest_ndcg@20\n")
        for lam, layers, val, hr20, ndcg20 in rows:
            fh.write(f"{lam}\t{layers}\t{val:.6f}\t{hr20:.6f}\t{ndcg20:.6f}\n")
    print(f"grid summary written to {summary}")
    return 0 if rows else 1  # a grid holds a cell, so no row means every cell failed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphseqrec",
        description="Graph-enhanced sequential recommendation: train, evaluate, "
                    "and inspect models on interaction logs.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    p_train = sub.add_parser("train", help="train a model and write run artifacts")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    _add_config_flags(p_eval)
    p_eval.add_argument("--checkpoint", help="checkpoint archive to load")
    p_eval.add_argument("--split", choices=("valid", "test"), default="test")
    p_eval.add_argument("--spectrum-csv", dest="spectrum_csv",
                        help="also write the embedding spectrum CSV here")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic interaction log")
    p_synth.add_argument("--out", help="output log path")
    p_synth.add_argument("--users", type=int, default=500)
    p_synth.add_argument("--items", type=int, default=200)
    p_synth.add_argument("--order", type=int, default=1)
    p_synth.add_argument("--noise", type=float, default=0.2)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--seq-len", dest="seq_len", type=int, default=20)
    p_synth.add_argument("--delimiter", choices=tuple(cfgmod.DELIMITERS), default="tab")
    p_synth.set_defaults(func=cmd_synth)

    p_grid = sub.add_parser("gridsearch", help="train every cell of a hyperparameter grid")
    _add_config_flags(p_grid)
    p_grid.add_argument("--lambda1-grid", dest="lambda1_grid",
                        help=f"comma-separated lambda1 values (default {_grid_text(LAMBDA1_GRID)})")
    p_grid.add_argument("--layers-grid", dest="layers_grid",
                        help="comma-separated encoder layer counts "
                             f"(default {_grid_text(ENCODER_LAYER_GRID)})")
    p_grid.set_defaults(func=cmd_gridsearch)

    p_graph = sub.add_parser("build-graph", help="dump the finalized transition graph")
    _add_config_flags(p_graph)
    p_graph.add_argument("--out", help="output text path (i<TAB>j<TAB>weight)")
    p_graph.set_defaults(func=cmd_build_graph)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
