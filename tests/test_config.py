import ast
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from graphseqrec import config as cfgmod
from graphseqrec.config import ModelConfig, TrainConfig
from graphseqrec.data import AUGMENT_KINDS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphseqrec"

# the empty-string defaults are spelled out so no trailing space hides in a block
DEFAULT_RESOLVED = "dataset = \n" + """\
delimiter = tab
min_count = 5
""" + "outdir = \n" + """\
dim = 64
max_len = 50
heads = 2
encoder_layers = 2
dropout = 0.2
gcn_layers = 2
alpha = 0.05
rank = 32
window = 2
degree_mode = weighted
batch_size = 256
lr = 0.001
beta1 = 0.9
beta2 = 0.999
eps = 1e-08
lambda1 = 0.1
lambda2 = 0.1
tau = 0.2
max_epochs = 1000
patience = 40
seed = 0
crop_ratio = 0.6
mask_ratio = 0.3
reorder_ratio = 0.6
exclude_history = true
enable_pge = true
pge_graph = refined
"""


def test_default_resolved_text_is_pinned():
    # key order, defaults and bool spelling of the resolved snapshot
    assert cfgmod.format_resolved(TrainConfig()) == DEFAULT_RESOLVED


def test_model_config_carries_every_field():
    # every value differs from its default, so a field left uncopied shows;
    # halved floats and incremented ints stay in range
    values = {}
    for f in fields(TrainConfig):
        if f.type is bool:
            values[f.name] = not f.default
        elif f.type is float:
            values[f.name] = f.default / 2
        elif f.type is int:
            values[f.name] = f.default + 1
    values.update(dataset="log.tsv", outdir="run", delimiter="comma", pge_graph="original",
                  degree_mode="count", dim=66, heads=3)
    assert values.keys() == {f.name for f in fields(TrainConfig)}
    cfg = TrainConfig(**values)
    sized = cfg.model_config(7, 9)
    assert isinstance(sized, ModelConfig)
    assert (sized.num_items, sized.num_users) == (7, 9)
    for name, value in values.items():
        assert getattr(sized, name) == value, name


def test_sized_config_rejects_dim_not_divisible_by_heads():
    with pytest.raises(ValueError, match="dim 7 must be divisible by heads 2"):
        TrainConfig(dim=7, heads=2).model_config(5, 5)


def test_config_checks_itself_on_every_construction():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match=r"^dropout must be in \[0, 1\), got 7.0$"):
        replace(TrainConfig(), dropout=7.0)
    with pytest.raises(ValueError, match=r"^encoder_layers must be >= 1, got 0$"):
        ModelConfig(num_items=5, num_users=5, encoder_layers=0)
    with pytest.raises(cfgmod.ConfigError, match="delimiter must be 'tab' or 'comma'"):
        TrainConfig(delimiter="bogus")
    with pytest.raises(FrozenInstanceError):
        TrainConfig().seed = 1


def test_byte_order_mark_is_not_part_of_line_one(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes("\ufeffdim = 8\n".encode("utf-8"))
    assert cfgmod.parse_config_file(path) == {"dim": 8}
    # only one leading mark goes, and the line numbers stay
    path.write_bytes("\ufeff# note\n\ufeffdim = 8\n".encode("utf-8"))
    with pytest.raises(cfgmod.ConfigError, match=r":2: unknown key '\\ufeffdim'"):
        cfgmod.parse_config_file(path)


# a str for a number, a float for an int, a bool for a number, a str for a
# bool and a number for a str
WRONG_TYPES = {int: ("1", 1.0, True), float: ("0.1", True), bool: ("false", 1), str: (1,)}


@pytest.mark.parametrize("key,value", [
    (f.name, value) for f in fields(TrainConfig) for value in WRONG_TYPES[f.type]])
def test_wrong_type_is_rejected_naming_the_key(key, value):
    with pytest.raises(ValueError, match=rf"^{key} must be an? \w+, got {re.escape(repr(value))}$"):
        TrainConfig(**{key: value})


def test_numpy_scalars_and_ints_for_floats_are_accepted():
    cfg = TrainConfig(dim=np.int64(8), alpha=0, lr=np.float64(0.5),
                      exclude_history=np.bool_(False))
    assert (cfg.dim, cfg.alpha, cfg.lr, cfg.exclude_history) == (8, 0, 0.5, False)
    assert "\nexclude_history = false\n" in cfgmod.format_resolved(cfg)


def attribute_names(path: Path) -> set:
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def test_every_key_declares_a_rule_and_has_a_library_reader():
    # only bools and the two free-text paths accept every value of their type
    for f in fields(TrainConfig):
        rule = f.metadata["rule"]
        if f.type is bool or f.name in ("dataset", "outdir"):
            assert rule is None, f.name
        else:
            assert rule in cfgmod._RANGES or isinstance(rule, tuple), f.name
    # a key no library module reads configures nothing
    read = {f"{kind}_ratio" for kind in AUGMENT_KINDS}
    for path in PACKAGE.glob("*.py"):
        if path.name != "config.py":
            read |= attribute_names(path)
    assert sorted(cfgmod.KEYS.keys() - read) == []


def test_paths_holding_hash_equals_and_spaces_read_back_as_written(tmp_path):
    cfg = TrainConfig(dataset="logs#v2/a = b.tsv", outdir="runs/a#1 # not a comment")
    path = tmp_path / "config.resolved"
    cfgmod.write_resolved(path, cfg)
    assert cfgmod.resolve(str(path), {}) == cfg
    # a path its line cannot hold as written is rejected, naming its key: an
    # outer space would be stripped, a line break would start another key
    for key in ("dataset", "outdir"):
        for value in ("runs/a ", " runs/a", "runs/a\t", "runs/a\nmin_count = 7", "runs/a\r",
                      "a\rb"):
            with pytest.raises(ValueError, match=rf"^{key} must be one line without outer "
                                                 rf"whitespace, got {re.escape(repr(value))}$"):
                TrainConfig(**{key: value})


def test_only_a_line_starting_with_hash_is_a_comment(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n   # an indented one\ndim = 8\n")
    assert cfgmod.parse_config_file(path) == {"dim": 8}
    # a comment after a value is part of it, so a typed value fails loudly
    path.write_text("# a comment\ndim = 8  # the width\n")
    with pytest.raises(cfgmod.ConfigError, match=r"run\.cfg:2: bad value for dim: "):
        cfgmod.parse_config_file(path)


# keys a resolved config written before their deletion still names: the
# layer-average divisor, and two that repeated lambda1 = 0 and eval --spectrum-csv
@pytest.mark.parametrize("key", ["literal_layer_avg", "enable_agcl", "spectrum"])
def test_a_snapshot_holding_a_deleted_key_is_rejected_naming_its_line(tmp_path, key):
    lines = DEFAULT_RESOLVED.splitlines(keepends=True)
    lines.insert(11, f"{key} = true\n")
    path = tmp_path / "config.resolved"
    path.write_text("".join(lines))
    with pytest.raises(cfgmod.ConfigError, match=rf"config\.resolved:12: unknown key '{key}'$"):
        cfgmod.parse_config_file(path)
