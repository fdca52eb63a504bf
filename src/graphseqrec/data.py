"""Interaction logs, per-user sequences, leave-one-out splits, padding, the
crop/mask/reorder augmentations, and planted-structure synthetic logs.

Input format: UTF-8 text, one ``user_id item_id timestamp`` interaction per
line, the three fields separated by a tab or a comma.  A line ends at
``\n``, ``\r\n`` or a lone ``\r``, and is stripped of surrounding
whitespace.  A line then empty, or starting with ``#``, is skipped: ``#``
starts a comment only at the start of a line.  Every other line must be
ASCII and hold exactly three fields, each an optional sign and ASCII
digits with optional ASCII whitespace around them, in int64 range.
Anything else is a ``ParseError`` naming ``path:line``, with lines counted
from 1 through comments and blanks.  Item id 0 is reserved for
padding/masking, so ingestion remaps surviving items densely starting at 1
and users starting at 0.
Augmentations take and return plain item lists; a training batch's
negatives are drawn in ``training.assemble_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .checkpoint import atomic_open, read_lines
from .config import TrainConfig


class ParseError(ValueError):
    pass


class EmptyDataset(ValueError):
    pass


class SequenceTooShort(ValueError):
    pass


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


def _read_events(path, delimiter: str) -> np.ndarray:
    """The log at ``path`` as an (n, 3) int64 array of (user, item, timestamp)
    rows in file order, parsed by one ``np.loadtxt`` call over its data lines."""
    lines = read_lines(path, ParseError)
    kept = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    if not kept:
        return np.empty((0, 3), dtype=np.int64)
    events = _load(kept, delimiter)
    if events is None:
        raise _first_fault(path, lines, delimiter)
    return events


def _load(kept: Sequence[str], delimiter: str) -> Optional[np.ndarray]:
    """The (n, 3) int64 array of the data lines ``kept``, or None when a line
    is not three int64 fields: a run of lines loads exactly when each of its
    lines does."""
    # loadtxt reads some non-ASCII letters as digits, so it only sees ASCII;
    # comments=None, as its comment marker would also cut a line mid-way
    if not "".join(kept).isascii():
        return None
    try:
        events = np.loadtxt(kept, dtype=np.int64, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    # a log whose lines all hold 2 (or 4) fields loads without an error
    return events if events.shape[1] == 3 else None


def _first_fault(path, lines: Sequence[str], delimiter: str) -> ParseError:
    """The error naming the first data line, in file order, that ``_load``
    rejects, found by halving the data lines; called once it has rejected
    them all together."""
    numbered = [(lineno, line) for lineno, line in enumerate(map(str.strip, lines), start=1)
                if line and line[0] != "#"]
    while len(numbered) > 1:
        half = numbered[:len(numbered) // 2]
        faulty = _load([line for _, line in half], delimiter) is None
        numbered = half if faulty else numbered[len(half):]
    lineno, line = numbered[0]
    fields = line.split(delimiter)
    if len(fields) != 3:
        return ParseError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
    return ParseError(f"{path}:{lineno}: non-integer field in {fields!r}")


def write_interactions(path, events: np.ndarray, delimiter: str = "\t") -> None:
    """Write (n, 3) rows of (user, item, timestamp), one line each, as
    ``ingest`` reads them."""
    with atomic_open(path) as fh:
        fh.writelines(f"{user}{delimiter}{item}{delimiter}{ts}\n"
                      for user, item, ts in events.tolist())


def ingest(path, min_count: int, delimiter: str = "\t") -> List[ItemSequence]:
    """Parse the log at ``path`` and group it with ``build_sequences``."""
    return build_sequences(_read_events(path, delimiter), min_count)


def build_sequences(events: np.ndarray, min_count: int) -> List[ItemSequence]:
    """Core-filter an (n, 3) int array of (user, item, timestamp) rows,
    densely remap ids, and group into per-user sequences.

    The filter drops users and items with fewer than ``min_count`` events
    until a fixpoint.  Users are renumbered 0..U-1 and items 1..V in
    ascending original-id order.  Within a user, events sort by timestamp
    with input order breaking ties (stable).
    """
    if np.ndim(events) != 2 or np.shape(events)[1] != 3:
        raise ValueError(f"build_sequences: events of shape {list(np.shape(events))}, not (n, 3)")
    # dense indices first: ids may be negative or sparse
    user_ids, users = np.unique(events[:, 0], return_inverse=True)
    item_ids, items = np.unique(events[:, 1], return_inverse=True)
    stamps = events[:, 2]
    while True:
        user_counts = np.bincount(users, minlength=len(user_ids))
        item_counts = np.bincount(items, minlength=len(item_ids))
        keep = (user_counts[users] >= min_count) & (item_counts[items] >= min_count)
        if keep.all():
            break
        users, items, stamps = users[keep], items[keep], stamps[keep]
    if not users.size:
        raise EmptyDataset(f"no interactions survive the {min_count}-core filter")
    order = np.lexsort((stamps, users))
    # the surviving items, counted in id order, are 1..V
    flat = np.cumsum(item_counts > 0)[items[order]].tolist()
    ends = np.cumsum(user_counts[user_counts > 0]).tolist()
    return [ItemSequence(user, flat[start:end])
            for user, (start, end) in enumerate(zip([0] + ends[:-1], ends))]


def leave_one_out(sequences: Sequence[ItemSequence]) -> SplitDataset:
    """Last item becomes the test target, second-to-last the validation target."""
    if not sequences:
        raise EmptyDataset("leave_one_out: no sequences to split")
    users = []
    for seq in sequences:
        if len(seq.items) < 3:
            raise SequenceTooShort(f"user {seq.user_id} has only {len(seq.items)} items (need >= 3)")
        users.append(UserSplit(seq.user_id, seq.items[:-2], seq.items[-2], seq.items[-1]))
    return SplitDataset(users, max(max(s.items) for s in sequences))


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
                   seq_len: int = 20) -> np.ndarray:
    """Planted-structure log: each user walks a ring over the item set.

    With probability 1-noise the next item follows the planted transition
    (successor of the item ``markov_order`` steps back, wrapping at num_items);
    otherwise it is uniform over all items.  Timestamps are the step index.
    Returns (num_users * seq_len, 3) int64 rows of (user, item, timestamp),
    user by user.
    """
    for name, value in (("num_users", num_users), ("num_items", num_items),
                        ("markov_order", markov_order), ("seq_len", seq_len)):
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    log = np.empty((num_users, seq_len, 3), dtype=np.int64)
    log[:, :, 0] = np.arange(num_users)[:, None]
    log[:, :, 2] = np.arange(seq_len)
    for user in range(num_users):
        items = [int(rng.integers(1, num_items + 1))]
        for t in range(1, seq_len):
            state = items[t - markov_order] if t >= markov_order else items[0]
            if noise > 0.0 and rng.random() < noise:
                nxt = int(rng.integers(1, num_items + 1))
            else:
                nxt = state % num_items + 1
            items.append(nxt)
        log[user, :, 1] = items
    return log.reshape(-1, 3)
