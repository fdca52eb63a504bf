"""Full-ranking evaluation over the whole item set, plus the embedding
spectrum report used to inspect dimensional collapse.

Ranking is pessimistic: the target loses a tie to any candidate with a
smaller item id and ranks below a NaN, so reported ranks never flatter the
model.  Ranks are counted from the scores, never sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Collection, Dict, List, Optional, Sequence

import numpy as np

from .checkpoint import atomic_open
from .data import SplitDataset

METRIC_CUTOFFS = (5, 10, 20)


def _flatten(histories: Sequence[Collection[int]]) -> tuple:
    """(row, item) pairs of every history entry, in row order."""
    rows = np.repeat(np.arange(len(histories)), [len(h) for h in histories])
    items = np.fromiter(chain.from_iterable(histories), dtype=np.int64, count=rows.size)
    return rows, items


def rank_from_scores(scores: np.ndarray, histories: Sequence[Collection[int]],
                     targets: Sequence[int], exclude_history: bool = True) -> np.ndarray:
    """Rank of each row's target in a (B, V) score block.

    ``scores[b, i]`` scores item id i+1 for row b.  With ``exclude_history``
    the items of ``histories[b]`` are not candidates in row b (padding and
    negative ids are ignored; an id above V raises, naming its row).  A
    non-finite target score raises, naming its row: NaN has no rank.  Ties
    break by ascending item id, so the target is ranked below every
    equal-scoring smaller id and below every NaN candidate.

    Each row counts the scores not at or below its target's (so NaNs too)
    and its ties; only rows with a tie besides the target look up which ties
    have smaller ids.  The history items among those are then subtracted.
    """
    if scores.ndim != 2:
        raise ValueError(f"rank_from_scores needs a (B, V) block, got shape {list(scores.shape)}")
    rows, num_items = scores.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (rows,):
        raise ValueError(f"{targets.size} targets for {rows} score rows")
    if rows and (targets.min() < 1 or targets.max() > num_items):
        bad = targets[(targets < 1) | (targets > num_items)][0]
        raise ValueError(f"target item {bad} is outside 1..{num_items}")
    target_score = scores[np.arange(rows), targets - 1]
    if not np.isfinite(target_score).all():
        bad = int(np.flatnonzero(~np.isfinite(target_score))[0])
        raise ValueError(f"row {bad}: target score {target_score[bad]} is not finite")
    # a count of at most 65535 items sums in 16 bits, several times faster
    count_dtype = np.uint16 if num_items <= np.iinfo(np.uint16).max else np.int64
    ranks = np.ones(rows, dtype=np.int64)
    ties = np.empty(rows, dtype=np.int64)
    # ~64k scores at a time, so both comparisons read them from cache
    step = max(1, 2**16 // max(num_items, 1))
    for lo in range(0, rows, step):
        part, t = scores[lo:lo + step], target_score[lo:lo + step, None]
        ranks[lo:lo + step] += num_items - np.add.reduce(part <= t, axis=1, dtype=count_dtype)
        ties[lo:lo + step] = np.add.reduce(part == t, axis=1, dtype=count_dtype)
    for b in np.flatnonzero(ties > 1):  # a tie besides the target itself
        ranks[b] += np.count_nonzero(scores[b, :targets[b] - 1] == target_score[b])
    if not exclude_history:
        return ranks
    hist_rows, hist_items = _flatten(histories)
    kept = hist_items > 0
    hist_rows, hist_items = hist_rows[kept], hist_items[kept]
    over = np.flatnonzero(hist_items > num_items)
    if over.size:
        raise ValueError(f"row {hist_rows[over[0]]}: history item {hist_items[over[0]]} "
                         f"is outside 1..{num_items}")
    hist_targets = targets[hist_rows]
    excluded = hist_items == hist_targets
    if excluded.any():
        raise ValueError(f"target item {hist_targets[excluded][0]} is excluded by the history")
    hist_scores = scores[hist_rows, hist_items - 1]
    hist_target_scores = target_score[hist_rows]
    ahead = ~(hist_scores <= hist_target_scores) | (
        (hist_scores == hist_target_scores) & (hist_items < hist_targets))
    # an item listed twice in one history is still one candidate
    keys = np.sort(hist_rows[ahead] * (num_items + 1) + hist_items[ahead])
    keys = keys[np.diff(keys, prepend=-1) > 0]
    return ranks - np.bincount(keys // (num_items + 1), minlength=rows)


def hr_ndcg(ranks: Sequence[int], k: int) -> tuple:
    """Hit rate and discounted-gain quality at cutoff k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size == 0:
        raise ValueError("empty rank list")
    if (ranks < 1).any():
        raise ValueError("ranks must be >= 1")
    hits = ranks <= k
    hr = float(hits.mean())
    gains = np.where(hits, 1.0 / np.log2(ranks + 1.0), 0.0)
    return hr, float(gains.mean())


@dataclass
class MetricsReport:
    hr: Dict[int, float] = field(default_factory=dict)
    ndcg: Dict[int, float] = field(default_factory=dict)
    ranks: Optional[List[int]] = None

    @classmethod
    def from_ranks(cls, ranks: Sequence[int], keep_ranks: bool = False) -> "MetricsReport":
        report = cls()
        for k in METRIC_CUTOFFS:
            report.hr[k], report.ndcg[k] = hr_ndcg(ranks, k)
        if keep_ranks:
            report.ranks = list(int(r) for r in ranks)
        return report

    def lines(self) -> List[str]:
        out = []
        for k in sorted(self.hr):
            out.append(f"hr@{k}={self.hr[k]:.6f}")
            out.append(f"ndcg@{k}={self.ndcg[k]:.6f}")
        return out


def eval_input_sequences(dataset: SplitDataset, split: str) -> List[tuple]:
    """(input items, target, history) per user for the requested split.

    Validation predicts the held-out second-to-last item from the training
    prefix; test additionally appends the validation item to the input.
    The target is removed from the history set so it always stays a
    candidate (items can recur in a sequence).
    """
    if split not in ("valid", "test"):
        raise ValueError(f"split must be 'valid' or 'test', got {split!r}")
    rows = []
    for user in dataset.users:
        if split == "valid":
            inp = user.train
            target = user.valid
        else:
            inp = user.train + [user.valid]
            target = user.test
        rows.append((inp, target, set(inp) - {target}))
    return rows


def popularity_ranks(dataset: SplitDataset, split: str,
                     exclude_history: bool = True) -> List[int]:
    """Frequency-ranking baseline on the same splits and ranking rule: every
    row scores each item by its training count (one row, broadcast)."""
    counts = np.bincount(np.fromiter(chain.from_iterable(u.train for u in dataset.users),
                                     dtype=np.int64), minlength=dataset.num_items + 1)
    rows = eval_input_sequences(dataset, split)
    scores = np.broadcast_to(counts[1:], (len(rows), dataset.num_items))
    return rank_from_scores(scores, [history for _, _, history in rows],
                            [target for _, target, _ in rows], exclude_history).tolist()


@dataclass
class SpectrumReport:
    singular_values: np.ndarray
    coords: np.ndarray  # (num_items, 2) projection onto top-2 right directions

    def tail_ratio(self, k: int) -> float:
        """sigma_k / sigma_1 (1-based k), the collapse diagnostic."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        s = self.singular_values
        if s[0] == 0.0:
            return 0.0
        return float(s[min(k, s.size) - 1] / s[0])


def spectrum(embeddings: np.ndarray) -> SpectrumReport:
    """Singular values plus 2D coordinates of every row.

    Rank-deficient inputs simply report trailing zero singular values.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < 2 or emb.shape[1] < 2:
        raise ValueError(f"spectrum needs at least a 2x2 matrix, got {list(emb.shape)}")
    u, s, vt = np.linalg.svd(emb, full_matrices=False)
    coords = emb @ vt[:2].T
    return SpectrumReport(s, coords)


def write_spectrum_csv(report: SpectrumReport, path) -> None:
    """CSV of per-item coordinates plus a sidecar singular-value file."""
    with atomic_open(path) as fh:
        fh.write("item_id,x,y\n")
        for idx, (x, y) in enumerate(report.coords, start=1):
            fh.write(f"{idx},{x:.10g},{y:.10g}\n")
    with atomic_open(f"{path}.singvals") as fh:
        for value in report.singular_values:
            fh.write(f"{value:.10g}\n")
