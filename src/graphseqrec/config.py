"""Flat key=value run configuration.

``TrainConfig`` declares every run key once.  Its fields, in order, drive
config-file parsing, CLI flag generation, default documentation, and the
resolved snapshot written next to every run: each field's annotation picks
its parser and its metadata carries its help text.  ``ModelConfig`` is the
same configuration sized to a dataset.  A configuration is frozen and checks
itself when it is built, so a bad value raises, naming its key, before any
caller can act on it; derive variants with ``dataclasses.replace``.  Unknown
keys are rejected; command-line flags override file values.
"""

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional

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


def _key(default, doc: str):
    return field(default=default, metadata={"help": doc})


# field delimiter of the interaction log, by its config value
DELIMITERS = {"tab": "\t", "comma": ","}


@dataclass(frozen=True)
class TrainConfig:
    # data
    dataset: str = _key("", "path to the interaction log")
    delimiter: str = _key("tab", "field delimiter in the log: tab or comma")
    min_count: int = _key(5, "core filter: minimum interactions per user and item")
    outdir: str = _key("", "output directory for run artifacts")
    # model
    dim: int = _key(64, "embedding width")
    max_len: int = _key(50, "maximum sequence length (left-padded)")
    heads: int = _key(2, "attention heads")
    encoder_layers: int = _key(2, "Transformer layers")
    dropout: float = _key(0.2, "dropout rate")
    gcn_layers: int = _key(2, "graph propagation layers")
    alpha: float = _key(0.05, "strength of the learned graph refinement")
    rank: int = _key(32, "rank of the refinement factors")
    window: int = _key(2, "co-occurrence window for graph construction")
    degree_mode: str = _key("weighted", "graph degree definition: weighted or count")
    literal_layer_avg: bool = _key(True, "divide the layer sum by L (true) or L+1 (false)")
    # training
    batch_size: int = _key(256, "training batch size")
    lr: float = _key(1e-3, "Adam learning rate")
    beta1: float = _key(0.9, "Adam first-moment decay")
    beta2: float = _key(0.999, "Adam second-moment decay")
    eps: float = _key(1e-8, "Adam epsilon")
    lambda1: float = _key(0.1, "weight of the graph contrastive loss")
    lambda2: float = _key(0.1, "weight of the sequence contrastive loss")
    tau: float = _key(0.2, "contrastive temperature")
    max_epochs: int = _key(1000, "maximum training epochs")
    patience: int = _key(40, "early stopping patience (validation NDCG@20)")
    seed: int = _key(0, "random seed")
    crop_ratio: float = _key(0.6, "crop augmentation keep ratio")
    mask_ratio: float = _key(0.3, "mask augmentation ratio")
    reorder_ratio: float = _key(0.6, "reorder augmentation span ratio")
    exclude_history: bool = _key(True, "exclude seen items when ranking")
    # toggles
    enable_agcl: bool = _key(True, "enable the adaptive collaborative learner")
    enable_pge: bool = _key(True, "enable the personalized graph encoding")
    pge_graph: str = _key("refined", "graph read by subgraph extraction: original or refined")
    # reporting
    spectrum: bool = _key(False, "write the embedding spectrum CSV after training")

    def __post_init__(self):
        """Reject an out-of-range key, an unknown choice or a width the heads
        do not split, naming the key, before any work or artifact."""
        def bad(key, rule):
            raise ValueError(f"{key} must be {rule}, got {getattr(self, key)}")

        if self.delimiter not in DELIMITERS:
            raise ConfigError(f"delimiter must be 'tab' or 'comma', got {self.delimiter!r}")
        for f in fields(TrainConfig):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                bad(f.name, "finite")
        for key in ("dim", "max_len", "heads", "encoder_layers", "gcn_layers", "rank",
                    "window", "batch_size", "max_epochs"):
            if getattr(self, key) < 1:
                bad(key, ">= 1")
        for key in ("patience", "seed"):
            if getattr(self, key) < 0:
                bad(key, ">= 0")
        for key in ("lr", "eps", "tau"):
            if getattr(self, key) <= 0:
                bad(key, "> 0")
        for key in ("alpha", "lambda1", "lambda2"):
            if getattr(self, key) < 0:
                bad(key, ">= 0")
        for key in ("dropout", "beta1", "beta2", "mask_ratio"):
            if not 0 <= getattr(self, key) < 1:
                bad(key, "in [0, 1)")
        if not 0 < self.crop_ratio <= 1:
            bad("crop_ratio", "in (0, 1]")
        if not 0 <= self.reorder_ratio <= 1:
            bad("reorder_ratio", "in [0, 1]")
        if self.patience >= self.max_epochs:
            raise ValueError(f"patience ({self.patience}) must be < max_epochs ({self.max_epochs})")
        if self.pge_graph not in ("original", "refined"):
            raise ValueError(f"pge_graph must be 'original' or 'refined', got {self.pge_graph!r}")
        if self.degree_mode not in ("weighted", "count"):
            raise ValueError(f"degree_mode must be 'weighted' or 'count', got {self.degree_mode!r}")
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


@dataclass(frozen=True)
class Field:
    default: object
    parse: Callable
    help: str


_PARSERS = {int: int, float: float, str: str, bool: _parse_bool}

SCHEMA: Dict[str, Field] = {
    f.name: Field(f.default, _PARSERS[f.type], f.metadata["help"]) for f in fields(TrainConfig)}


def parse_config_file(path) -> Dict[str, object]:
    """Read 'key = value' lines of UTF-8 text; '#' starts a comment; unknown
    keys and bytes that are not UTF-8 fail, naming ``path:line``."""
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(read_lines(path, ConfigError), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = SCHEMA[key].parse(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


def resolve(file_path: Optional[str], overrides: Dict[str, object]) -> TrainConfig:
    """defaults < config file < explicit overrides."""
    values = parse_config_file(file_path) if file_path else {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        if isinstance(value, str):
            try:
                value = SCHEMA[key].parse(value)
            except ValueError as exc:
                flag = "--" + key.replace("_", "-")
                raise ConfigError(f"{flag}: bad value for {key}: {exc}") from None
        values[key] = value
    return TrainConfig(**values)


def format_resolved(cfg: TrainConfig) -> str:
    lines = []
    for key in SCHEMA:
        value = getattr(cfg, key)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_resolved(path, cfg: TrainConfig) -> None:
    with atomic_open(path) as fh:
        fh.write(format_resolved(cfg))
