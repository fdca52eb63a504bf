"""Flat key=value run configuration.

``TrainConfig`` declares every run key once.  Its fields, in order, drive
config-file parsing, CLI flag generation, default documentation, and the
resolved snapshot written next to every run: each field's annotation picks
its parser and type, its metadata its help text and rule.  ``ModelConfig``
is the same configuration sized to a dataset.  A configuration is frozen and
checks itself when it is built, so a bad value raises, naming its key,
before any caller can act on it; derive variants with ``dataclasses.replace``.
Unknown keys are rejected; command-line flags override file values.
"""

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

import numpy as np

from .checkpoint import atomic_open, read_lines


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# per annotation: a text parser, and the type's name and concrete classes
_PARSERS = {int: int, float: float, str: str, bool: _parse_bool}
_TYPES = {int: ("an int", (int, np.integer)),
          float: ("a float", (int, float, np.integer, np.floating)),
          str: ("a str", str), bool: ("a bool", (bool, np.bool_))}

# a rule: a range, by the phrase its message prints, or a tuple of choices
_RANGES = {
    ">= 1": lambda v: v >= 1,
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


def _key(default, doc: str, rule=None):
    return field(default=default, metadata={"help": doc, "rule": rule})


# field delimiter of the interaction log, by its config value
DELIMITERS = {"tab": "\t", "comma": ","}


@dataclass(frozen=True)
class TrainConfig:
    # data
    dataset: str = _key("", "path to the interaction log")
    delimiter: str = _key("tab", "field delimiter in the log: tab or comma", tuple(DELIMITERS))
    min_count: int = _key(5, "core filter: minimum interactions per user and item", ">= 1")
    outdir: str = _key("", "output directory for run artifacts")
    # model
    dim: int = _key(64, "embedding width", ">= 1")
    max_len: int = _key(50, "maximum sequence length (left-padded)", ">= 1")
    heads: int = _key(2, "attention heads", ">= 1")
    encoder_layers: int = _key(2, "Transformer layers", ">= 1")
    dropout: float = _key(0.2, "dropout rate", "in [0, 1)")
    gcn_layers: int = _key(2, "graph propagation layers", ">= 1")
    alpha: float = _key(0.05, "strength of the learned graph refinement", ">= 0")
    rank: int = _key(32, "rank of the refinement factors", ">= 1")
    window: int = _key(2, "co-occurrence window for graph construction", ">= 1")
    degree_mode: str = _key("weighted", "graph degree definition: weighted or count",
                            ("weighted", "count"))
    # training
    batch_size: int = _key(256, "training batch size", ">= 1")
    lr: float = _key(1e-3, "Adam learning rate", "> 0")
    beta1: float = _key(0.9, "Adam first-moment decay", "in [0, 1)")
    beta2: float = _key(0.999, "Adam second-moment decay", "in [0, 1)")
    eps: float = _key(1e-8, "Adam epsilon", "> 0")
    lambda1: float = _key(0.1, "weight of the graph contrastive loss", ">= 0")
    lambda2: float = _key(0.1, "weight of the sequence contrastive loss", ">= 0")
    tau: float = _key(0.2, "contrastive temperature", "> 0")
    max_epochs: int = _key(1000, "maximum training epochs", ">= 1")
    patience: int = _key(40, "early stopping patience (validation NDCG@20)", ">= 0")
    seed: int = _key(0, "random seed", ">= 0")
    crop_ratio: float = _key(0.6, "crop augmentation keep ratio", "in (0, 1]")
    mask_ratio: float = _key(0.3, "mask augmentation ratio", "in [0, 1)")
    reorder_ratio: float = _key(0.6, "reorder augmentation span ratio", "in [0, 1]")
    exclude_history: bool = _key(True, "exclude seen items when ranking")
    # toggles
    enable_pge: bool = _key(True, "enable the personalized graph encoding")
    pge_graph: str = _key("refined", "graph read by subgraph extraction: original or refined",
                          ("original", "refined"))

    def __post_init__(self):
        """Reject a value of the wrong type or against its key's rule, a path
        its snapshot line cannot hold, or a width the heads do not split,
        naming the key, before any work."""
        for f in fields(TrainConfig):
            key, value, rule = f.name, getattr(self, f.name), f.metadata["rule"]
            kind, classes = _TYPES[f.type]
            if not isinstance(value, classes) or (isinstance(value, bool) and f.type is not bool):
                raise ValueError(f"{key} must be {kind}, got {value!r}")
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            if isinstance(rule, tuple) and value not in rule:
                error = ConfigError if key == "delimiter" else ValueError  # exit 2, as before
                raise error(f"{key} must be {' or '.join(map(repr, rule))}, got {value!r}")
            if isinstance(rule, str) and not _RANGES[rule](value):
                raise ValueError(f"{key} must be {rule}, got {value}")
            # a path reads back from its 'key = value' line only as written
            if f.type is str and (value.strip() != value or {"\n", "\r"} & set(value)):
                raise ValueError(f"{key} must be one line without outer whitespace, got {value!r}")
        if self.patience >= self.max_epochs:
            raise ValueError(f"patience ({self.patience}) must be < max_epochs ({self.max_epochs})")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} must be divisible by heads {self.heads}")

    def model_config(self, num_items: int, num_users: int) -> "ModelConfig":
        keys = {f.name: getattr(self, f.name) for f in fields(TrainConfig)}
        return ModelConfig(num_items=num_items, num_users=num_users, **keys)


@dataclass(frozen=True)
class ModelConfig(TrainConfig):
    """A run configuration sized to a dataset's item and user counts."""
    num_items: int = field(kw_only=True)
    num_users: int = field(kw_only=True)


# every key's dataclass field, by name, in declaration order
KEYS = {f.name: f for f in fields(TrainConfig)}


def parse_config_file(path) -> Dict[str, object]:
    """Read 'key = value' lines of UTF-8 text; a line whose first non-blank
    character is '#' is a comment, a later '#' is part of the value.  Unknown
    keys and bytes that are not UTF-8 fail, naming ``path:line``."""
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(read_lines(path, ConfigError), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _PARSERS[KEYS[key].type](value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


def resolve(file_path: Optional[str], overrides: Dict[str, object]) -> TrainConfig:
    """defaults < config file < explicit overrides."""
    values = parse_config_file(file_path) if file_path else {}
    for key, value in overrides.items():
        if key not in KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if isinstance(value, str):
            try:
                value = _PARSERS[KEYS[key].type](value)
            except ValueError as exc:
                flag = "--" + key.replace("_", "-")
                raise ConfigError(f"{flag}: bad value for {key}: {exc}") from None
        values[key] = value
    return TrainConfig(**values)


def format_resolved(cfg: TrainConfig) -> str:
    lines = []
    for key in KEYS:
        value = getattr(cfg, key)
        if isinstance(value, (bool, np.bool_)):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_resolved(path, cfg: TrainConfig) -> None:
    with atomic_open(path) as fh:
        fh.write(format_resolved(cfg))
