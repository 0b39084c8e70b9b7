"""Sliding-window candidate enumeration and fused proposal selection.

The selector combines a pointwise ranking score f_s with a sequential
(pointer-style) score f_e: at each step it stops if the sequential model's
argmax over remaining candidates plus EOS is EOS, otherwise it picks the
candidate maximizing f_s * f_e, extends the selection prefix by that single
candidate, and appends the top-K candidates by fused score to the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .core import (CorpusFormatError, IntervalArray, PredictionEntry, TimeInterval, VideoMeta,
                   as_bounds, check_count, read_field, read_interval, read_intervals, read_items,
                   read_json, read_object)
from .intervals import tiou_matrix

DEFAULT_SCALES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEDUP_TOL_S = 1e-6
DISTRIBUTION_TOL = 1e-6
SCORE_FLOOR = 1e-3  # heuristic f_s of a candidate that overlaps no attractor
COVER_TIOU = 0.5  # tIoU at which a prefix member covers an attractor
EOS_WEIGHT_OPEN = 0.05  # heuristic EOS weight while an attractor is uncovered


class FusionError(RuntimeError):
    """A scorer violated its contract (e.g. non-normalized distribution)."""


class PointwiseScorer(Protocol):
    def scores(self, bounds: np.ndarray) -> np.ndarray:
        """Deterministic ranking score in (0, 1] per [start, end] row, as a float array."""


class SequentialScorer(Protocol):
    def distribution(self, prefix: List[int],
                     pool: "CandidatePool") -> Tuple[np.ndarray, float]:
        """Probabilities over remaining candidates and EOS.

        Returns (probs, eos): one probability per candidate not in `prefix`,
        in index order, then EOS; together they must sum to 1.
        """


@dataclass
class CandidatePool:
    """Candidate intervals with their pointwise scores."""

    candidates: IntervalArray  # a list of TimeIntervals is converted
    scores: Optional[np.ndarray] = None  # f_s per candidate, aligned with `candidates`

    def __post_init__(self):
        if not isinstance(self.candidates, IntervalArray):
            self.candidates = IntervalArray(as_bounds(self.candidates))

    def __len__(self):
        return len(self.candidates)

    @classmethod
    def from_windows(cls, windows: Sequence[TimeInterval], scorer: PointwiseScorer,
                     cap: int = 80) -> "CandidatePool":
        """Score `windows` as given (the enumerator has removed near duplicates)
        and keep the top `cap` by f_s, in window order."""
        check_count("cap", cap)
        bounds = as_bounds(windows)
        scores = np.asarray(scorer.scores(bounds), dtype=float)
        keep = np.sort(np.argsort(-scores, kind="stable")[:cap])  # enumeration order
        return cls(IntervalArray(bounds[keep]), scores[keep])


@dataclass
class FusionConfig:
    k: int = 1
    max_steps: int = 20
    candidate_cap: int = 80

    def __post_init__(self):
        for name in ("k", "max_steps", "candidate_cap"):
            check_count(name, getattr(self, name))


@dataclass(frozen=True, slots=True)
class FusedProposal:
    interval: TimeInterval
    score: float
    step: int


def _dedup(bounds: np.ndarray) -> np.ndarray:
    """Greedy dedup of (n, 2) bounds: True for the rows to keep.

    A row is dropped when both its ends lie within DEDUP_TOL_S of an earlier
    row that was kept. Only pairs whose starts lie within 2 * DEDUP_TOL_S (a
    superset that absorbs rounding) are tested: O(n log n) plus those pairs.
    """
    order = np.argsort(bounds[:, 0], kind="stable")
    rows, n = bounds[order], len(bounds)
    counts = (np.searchsorted(rows[:, 0], rows[:, 0] + 2 * DEDUP_TOL_S, side="right")
              - np.arange(1, n + 1))  # sorted rows after each one that may be near
    # each such pair (a, b), a < b, as positions in `rows`
    a = np.repeat(np.arange(n), counts)
    b = np.arange(len(a)) + np.repeat(np.arange(1, n + 1) - np.cumsum(counts) + counts, counts)
    near = np.abs(rows[a] - rows[b]) <= DEDUP_TOL_S
    near = near[:, 0] & near[:, 1]
    keep = np.ones(n, dtype=bool)
    if near.any():
        a, b = order[a[near]], order[b[near]]
        # later rows in index order, so each earlier row is settled before it is read
        for i, j in sorted(zip(np.maximum(a, b).tolist(), np.minimum(a, b).tolist())):
            keep[i] &= not keep[j]
    return keep


def enumerate_sliding_windows(meta: VideoMeta,
                              scales: Sequence[float] = DEFAULT_SCALES,
                              stride_ratio: float = 0.5) -> IntervalArray:
    """Multi-scale sliding windows over [0, duration], sorted by (start, length).

    For each scale, windows of length scale * duration start at multiples of
    stride_ratio * length; a final window is clamped to end at the duration
    when the regular stride would overshoot. Duplicates are removed. Ends may
    miss the duration by DEDUP_TOL_S, or half a stride when that is less.
    """
    if not all(0 < s <= 1 for s in scales):
        raise ValueError("scales must lie in (0, 1]")
    if not (0 < stride_ratio <= 1):
        raise ValueError("stride_ratio must lie in (0, 1]")
    duration = meta.duration_s
    starts, ends = [], []
    for scale in scales:
        length = scale * duration
        stride = stride_ratio * length
        k, last_end, tol = 0, 0.0, min(DEDUP_TOL_S, stride / 2)  # no window past the end
        while (start := k * stride) + length <= duration + tol:
            last_end = min(start + length, duration)
            starts.append(start)
            ends.append(last_end)
            k += 1
        if last_end < duration - tol:
            starts.append(duration - length)
            ends.append(duration)
    bounds = np.array([starts, ends], dtype=float).T
    bounds = bounds[_dedup(bounds)]
    order = np.lexsort((bounds[:, 1] - bounds[:, 0], bounds[:, 0]))  # (start, length), stable
    return IntervalArray(bounds[order])


def _checked_distribution(f_e: SequentialScorer, prefix, pool, remaining):
    """The scorer's distribution as (probabilities aligned with `remaining`, EOS)."""
    probs, eos = f_e.distribution(prefix, pool)
    probs = np.asarray(probs, dtype=float)
    if probs.shape != remaining.shape:
        raise FusionError(f"f_e gave shape {probs.shape} for {remaining.size} candidates")
    total = probs.sum() + eos
    # written so that NaN fails every comparison
    if not (abs(total - 1.0) <= DISTRIBUTION_TOL and 0.0 <= eos < math.inf
            and 0.0 <= probs.min() and probs.max() < math.inf):
        raise FusionError(f"sequential scorer returned a non-distribution "
                          f"(sum={total}, eos={eos})")
    return probs, eos


def fuse_select(pool: CandidatePool, f_s: Optional[PointwiseScorer], f_e: SequentialScorer,
                cfg: Optional[FusionConfig] = None) -> List[FusedProposal]:
    """Fused inference over a candidate pool.

    The stopping test uses the raw sequential distribution (argmax over
    remaining candidates plus EOS); the per-step selection uses the product
    f_s * f_e. The prefix grows by exactly one candidate per step while the
    output gains up to `cfg.k` (deduplicated), so with k=1 the output equals
    the prefix sequence. `f_s` is consulted only when `pool.scores` is None;
    `cfg` defaults to `FusionConfig()`.
    """
    if len(pool) == 0:
        raise ValueError("candidate pool is empty")
    cfg = cfg if cfg is not None else FusionConfig()
    f_s_vals = np.asarray(pool.scores if pool.scores is not None
                          else f_s.scores(pool.candidates.bounds), dtype=float)
    if f_s_vals.shape != (len(pool),) or not np.isfinite(f_s_vals).all():
        raise FusionError("pointwise scores must be one finite value per candidate")

    prefix: List[int] = []
    in_prefix = np.zeros(len(pool), dtype=bool)
    in_output = np.zeros(len(pool), dtype=bool)
    selected: List[FusedProposal] = []
    for step in range(cfg.max_steps):
        remaining = np.flatnonzero(~in_prefix)
        if remaining.size == 0:
            break
        probs, eos = _checked_distribution(f_e, prefix, pool, remaining)
        # raw-f_e stopping rule; candidate ties beat EOS ties deterministically
        if eos > probs.max():
            break
        fused = f_s_vals[remaining] * probs
        ranked = np.argsort(-fused, kind="stable")  # ties: smaller index first
        prefix.append(int(remaining[ranked[0]]))
        in_prefix[prefix[-1]] = True
        for j in ranked[:cfg.k].tolist():
            i = int(remaining[j])
            if not in_output[i]:
                in_output[i] = True
                selected.append(FusedProposal(pool.candidates[i], float(fused[j]), step))
    return selected


# ---------------------------------------------------------------------------
# Heuristic oracle scorers: stand-ins for the trained ranking and sequential
# models, driven by a set of planted attractor intervals. They make the full
# pipeline runnable (and testable) without any neural model.

@dataclass
class HeuristicPointwiseScorer:
    """f_s(c) = max tIoU of c against any attractor, floored at SCORE_FLOOR."""

    attractors: List[TimeInterval]

    def scores(self, bounds: np.ndarray) -> np.ndarray:
        return tiou_matrix(bounds, as_bounds(self.attractors)).max(axis=1, initial=SCORE_FLOOR)


@dataclass
class HeuristicSequentialScorer:
    """Weights candidates by their best tIoU to attractors not yet covered.

    An attractor counts as covered once some prefix member overlaps it with
    tIoU >= COVER_TIOU. EOS weight is 1 when everything is covered, else
    EOS_WEIGHT_OPEN, and the whole thing is normalized to a distribution.
    """

    attractors: List[TimeInterval]
    _tious: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def distribution(self, prefix, pool: CandidatePool):
        if self._tious[0] is not pool:  # selection asks about one pool at every step
            self._tious = (pool, tiou_matrix(pool.candidates.bounds, as_bounds(self.attractors)))
        tious = self._tious[1]  # pool x attractors
        remaining = np.ones(len(tious), dtype=bool)
        remaining[prefix] = False
        covered = (tious[~remaining] >= COVER_TIOU).any(axis=0)
        weights = tious[remaining][:, ~covered].max(axis=1, initial=0.0)
        eos = 1.0 if covered.all() else EOS_WEIGHT_OPEN
        total = sum(weights.tolist()) + eos
        return weights / total, eos / total


@dataclass
class TableSequentialScorer:
    """Step-indexed weights, for precomputed f_e tables.

    Row t of `steps`, a (T, n + 1) float array, holds step t's weight for
    each of the pool's n candidates, then EOS. Weights of already-selected
    candidates are dropped and the rest renormalized; past the last row EOS
    takes all the mass.
    """

    steps: np.ndarray

    def distribution(self, prefix, pool: CandidatePool):
        if len(prefix) >= len(self.steps):
            return np.zeros(len(pool) - len(prefix)), 1.0
        row = np.asarray(self.steps[len(prefix)], dtype=float)
        if row.shape != (len(pool) + 1,):
            raise FusionError(f"table step of {row.size} for {len(pool)} candidates + EOS")
        weights, eos = np.delete(row[:-1], prefix), row[-1]
        total = sum(weights.tolist()) + eos
        if total <= 0:
            raise FusionError("table step has zero total mass")
        return weights / total, eos / total


# ---------------------------------------------------------------------------
# Scores files: {"mode": "heuristic", "attractors": {vid: [[s, e], ...]}}, or
# {"mode": "tables", "videos": {vid: {"candidates": [[s, e], ...], "f_s": [...],
# "f_e_steps": [{"probs": {"<index>": p, ...}, "eos": p}, ...]}}}.

def _read_step(step, n: int, where) -> np.ndarray:
    """One f_e_steps entry as n candidate weights (0 where left out), then EOS."""
    probs = read_field(read_object(step, where), "probs", dict, where)
    if not all(i.isdecimal() and int(i) < n for i in probs):
        raise CorpusFormatError(f"{where}: probs keys must be indices of the {n} candidates")
    row = np.zeros(n + 1)
    for i in probs:
        row[int(i)] = read_field(probs, i, (int, float), where)
    row[n] = read_field(step, "eos", (int, float), where)
    return row


def _read_table(table, where):
    table = read_object(table, where)
    pool = CandidatePool(read_intervals(table, "candidates", math.inf, where),
                         np.asarray(read_items(table, "f_s", (int, float), where), float))
    if len(pool.scores) != len(pool):
        raise CorpusFormatError(f"{where}: {len(pool.scores)} f_s values for "
                                f"{len(pool)} candidates")
    steps = [_read_step(step, len(pool), f"{where}: f_e_steps[{t}]")
             for t, step in enumerate(read_field(table, "f_e_steps", list, where))]
    return pool, None, TableSequentialScorer(np.reshape(steps, (-1, len(pool) + 1)))


def load_scores(path) -> Dict[str, tuple]:
    """Read a scores file in either mode into {video_id: (pool, f_s, f_e)}.

    A table brings its own scored pool and no f_s; heuristic attractors
    bring no pool, and selection builds one from the video's windows.
    """
    doc = read_json(path)
    mode = doc.get("mode")
    if mode == "tables":
        return {vid: _read_table(table, vid)
                for vid, table in read_field(doc, "videos", dict, path).items()}
    if mode != "heuristic":
        raise CorpusFormatError(f"{path}: mode must be 'heuristic' or 'tables', "
                                f"got {mode!r}")
    scorers = {}
    attractors = read_field(doc, "attractors", dict, path)
    for vid in attractors:
        planted = read_intervals(attractors, vid, math.inf, vid)
        scorers[vid] = (None, HeuristicPointwiseScorer(planted),
                        HeuristicSequentialScorer(planted))
    return scorers


def select_proposals(scorers: Dict[str, tuple], metas: Dict[str, VideoMeta],
                     cfg: Optional[FusionConfig] = None) -> Dict[str, List[PredictionEntry]]:
    """`fuse_select` per video of a `load_scores` map, as predictions whose
    score is the fused one capped at 1.

    A video without a pool gets its meta's sliding windows, or is left out
    without a meta; a pool's candidates must pass `read_interval` against its duration.
    """
    cfg = cfg if cfg is not None else FusionConfig()
    out = {}
    for vid, (pool, f_s, f_e) in sorted(scorers.items()):
        if pool is None:
            if vid not in metas:
                continue
            pool = CandidatePool.from_windows(enumerate_sliding_windows(metas[vid]),
                                              f_s, cap=cfg.candidate_cap)
        elif vid in metas:  # read_interval clamps an end just past the duration to it
            pool = CandidatePool(IntervalArray(
                [read_interval(pair, metas[vid].duration_s, f"{vid}[{k}]")
                 for k, pair in enumerate(pool.candidates.bounds.tolist())]), pool.scores)
        out[vid] = [PredictionEntry(p.interval, proposal_score=min(1.0, p.score))
                    for p in fuse_select(pool, f_s, f_e, cfg)]
    return out
