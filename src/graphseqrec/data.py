"""Interaction logs, per-user sequences, leave-one-out splits, padding, the
crop/mask/reorder augmentations, and planted-structure synthetic logs.

Input format: UTF-8 text, one interaction per line, tab- or comma-separated
``user_id item_id timestamp`` (all integers).  Lines starting with ``#`` are
comments.  Item id 0 is reserved for padding/masking, so ingestion remaps
surviving items densely starting at 1 and users starting at 0.
Augmentations take and return plain item lists; a training batch's
negatives are drawn in ``training.assemble_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .checkpoint import atomic_open
from .config import TrainConfig


class ParseError(ValueError):
    pass


class EmptyDataset(ValueError):
    pass


class SequenceTooShort(ValueError):
    pass


@dataclass(frozen=True)
class Interaction:
    user_id: int
    item_id: int
    timestamp: int


@dataclass
class ItemSequence:
    user_id: int
    items: List[int]

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class UserSplit:
    user_id: int
    train: List[int]
    valid: int
    test: int


@dataclass
class SplitDataset:
    users: List[UserSplit]
    num_items: int

    @property
    def num_users(self) -> int:
        return len(self.users)


def parse_interactions(path, delimiter: str = "\t") -> List[Interaction]:
    out: List[Interaction] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(delimiter)
            if len(fields) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
            try:
                user, item, ts = (int(f) for f in fields)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-integer field in {fields!r}") from None
            out.append(Interaction(user, item, ts))
    return out


def write_interactions(path, interactions: Iterable[Interaction], delimiter: str = "\t") -> None:
    with atomic_open(path) as fh:
        for it in interactions:
            fh.write(f"{it.user_id}{delimiter}{it.item_id}{delimiter}{it.timestamp}\n")


def core_filter(interactions: Sequence[Interaction], min_count: int) -> List[Interaction]:
    """Drop users and items with fewer than min_count events until a fixpoint."""
    current = list(interactions)
    while True:
        user_counts: Dict[int, int] = {}
        item_counts: Dict[int, int] = {}
        for it in current:
            user_counts[it.user_id] = user_counts.get(it.user_id, 0) + 1
            item_counts[it.item_id] = item_counts.get(it.item_id, 0) + 1
        kept = [it for it in current
                if user_counts[it.user_id] >= min_count and item_counts[it.item_id] >= min_count]
        if len(kept) == len(current):
            return kept
        current = kept


def ingest(path, min_count: int, delimiter: str = "\t") -> List[ItemSequence]:
    """Parse, core-filter, densely remap ids, and group into per-user sequences.

    Users are renumbered 0..U-1 and items 1..V in ascending original-id
    order.  Within a user, events sort by timestamp with input order
    breaking ties (stable).
    """
    interactions = parse_interactions(path, delimiter=delimiter)
    return build_sequences(interactions, min_count)


def build_sequences(interactions: Sequence[Interaction], min_count: int) -> List[ItemSequence]:
    kept = core_filter(interactions, min_count)
    if not kept:
        raise EmptyDataset(f"no interactions survive the {min_count}-core filter")
    user_map = {u: i for i, u in enumerate(sorted({it.user_id for it in kept}))}
    item_map = {v: i + 1 for i, v in enumerate(sorted({it.item_id for it in kept}))}
    grouped: Dict[int, List[Interaction]] = {}
    for it in kept:
        grouped.setdefault(it.user_id, []).append(it)
    sequences = []
    for orig_user in sorted(grouped, key=lambda u: user_map[u]):
        events = sorted(grouped[orig_user], key=lambda it: it.timestamp)
        sequences.append(ItemSequence(user_map[orig_user], [item_map[it.item_id] for it in events]))
    return sequences


def num_items_of(sequences: Sequence[ItemSequence]) -> int:
    return max(max(s.items) for s in sequences)


def leave_one_out(sequences: Sequence[ItemSequence]) -> SplitDataset:
    """Last item becomes the test target, second-to-last the validation target."""
    users = []
    for seq in sequences:
        if len(seq.items) < 3:
            raise SequenceTooShort(f"user {seq.user_id} has only {len(seq.items)} items (need >= 3)")
        users.append(UserSplit(seq.user_id, seq.items[:-2], seq.items[-2], seq.items[-1]))
    return SplitDataset(users, num_items_of(sequences))


# ---------------------------------------------------------------------------
# sequence augmentations
# ---------------------------------------------------------------------------

AUGMENT_KINDS = ("crop", "mask", "reorder")


def augment(items: Sequence[int], kind: str, ratio: float,
            rng: np.random.Generator) -> List[int]:
    """One contrastive view of an item list, as a new list: ``crop`` keeps a
    contiguous span of ceil(ratio * n) items, ``mask`` sets floor(ratio * n)
    distinct positions to the padding id 0, and ``reorder`` shuffles a
    contiguous span of floor(ratio * n) items in place.

    Crop needs ratio > 0 so the view stays nonempty; mask and reorder accept
    ratio 0 as a no-op.
    """
    if not 0.0 <= ratio <= 1.0 or (kind == "crop" and ratio == 0.0):
        raise ValueError(f"augmentation ratio out of range for {kind}: {ratio}")
    n = len(items)
    if n < 2:
        raise ValueError(f"augmentation needs at least 2 items, got {n}")
    out = list(items)
    if kind == "crop":
        span = math.ceil(ratio * n)
        start = int(rng.integers(0, n - span + 1))
        return out[start:start + span]
    if kind == "mask":
        k = math.floor(ratio * n)
        for p in (rng.choice(n, size=k, replace=False) if k else ()):
            out[p] = 0
        return out
    if kind == "reorder":
        k = math.floor(ratio * n)
        if k >= 2:
            start = int(rng.integers(0, n - k + 1))
            segment = out[start:start + k]
            out[start:start + k] = [segment[i] for i in rng.permutation(k)]
        return out
    raise ValueError(f"unknown augmentation kind {kind!r}")


def augment_pair(items: Sequence[int], cfg: TrainConfig,
                 rng: np.random.Generator) -> tuple:
    """Two independently augmented views of an item list; the operator of
    each view is drawn uniformly from crop/mask/reorder and applied at its
    ``<kind>_ratio`` in ``cfg``.  A list shorter than 2 items passes through
    as two identity views and draws nothing."""
    views = []
    for _ in range(2):
        if len(items) < 2:
            views.append(list(items))
            continue
        kind = AUGMENT_KINDS[int(rng.integers(0, 3))]
        views.append(augment(items, kind, getattr(cfg, f"{kind}_ratio"), rng))
    return views[0], views[1]


def pad_sequence(items: Sequence[int], max_len: int) -> np.ndarray:
    """Left-pad with 0 to max_len, keeping the most recent items on truncation."""
    tail = list(items)[-max_len:]
    out = np.zeros(max_len, dtype=np.int64)
    if tail:
        out[max_len - len(tail):] = tail
    return out


# ---------------------------------------------------------------------------
# synthetic interaction logs
# ---------------------------------------------------------------------------

def synth_generate(num_users: int, num_items: int, markov_order: int = 1,
                   noise: float = 0.0, seed: int = 0,
                   seq_len: int = 20) -> List[Interaction]:
    """Planted-structure log: each user walks a ring over the item set.

    With probability 1-noise the next item follows the planted transition
    (successor of the item ``markov_order`` steps back, wrapping at num_items);
    otherwise it is uniform over all items.  Timestamps are the step index.
    """
    if num_users <= 0 or num_items <= 0 or markov_order <= 0 or seq_len <= 0:
        raise ValueError("num_users, num_items, markov_order, seq_len must be positive")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    rng = np.random.default_rng(seed)
    log: List[Interaction] = []
    for user in range(num_users):
        items = [int(rng.integers(1, num_items + 1))]
        for t in range(1, seq_len):
            state = items[t - markov_order] if t >= markov_order else items[0]
            if noise > 0.0 and rng.random() < noise:
                nxt = int(rng.integers(1, num_items + 1))
            else:
                nxt = state % num_items + 1
            items.append(nxt)
        log.extend(Interaction(user, item, t) for t, item in enumerate(items))
    return log
