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

from .core import (CorpusFormatError, PredictionEntry, SegmentGrid, TimeInterval,
                   VideoMeta, read_field, read_intervals, read_items, read_json,
                   read_object)
from .intervals import as_bounds, tiou_matrix

DEFAULT_SCALES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEDUP_TOL_S = 1e-6
DISTRIBUTION_TOL = 1e-6


class FusionError(RuntimeError):
    """A scorer violated its contract (e.g. non-normalized distribution)."""


class PointwiseScorer(Protocol):
    def scores(self, candidates: Sequence[TimeInterval],
               grid: Optional[SegmentGrid]) -> np.ndarray:
        """Deterministic ranking score in (0, 1] per candidate, as a float array."""


class SequentialScorer(Protocol):
    def distribution(self, prefix: List[int], pool: "CandidatePool",
                     grid: Optional[SegmentGrid]):
        """Probabilities over remaining candidates and EOS.

        Returns ({candidate_index: prob}, eos_prob) covering exactly the
        candidates not in `prefix`; the whole thing must sum to 1.
        """


@dataclass
class CandidatePool:
    """Deduplicated candidate intervals with their pointwise scores."""

    candidates: List[TimeInterval]
    scores: Optional[np.ndarray] = None  # f_s per candidate, aligned with `candidates`

    def __len__(self):
        return len(self.candidates)

    @classmethod
    def from_windows(cls, windows: Sequence[TimeInterval], scorer: PointwiseScorer,
                     grid: Optional[SegmentGrid] = None,
                     cap: int = 80) -> "CandidatePool":
        """Score windows, keep the top `cap` by f_s, dedup near-identical ones."""
        windows = [w for w, k in zip(windows, _dedup(as_bounds(windows)).tolist()) if k]
        scores = np.asarray(scorer.scores(windows, grid), dtype=float)
        order = np.argsort(-scores, kind="stable")[:cap]
        keep = sorted(order.tolist())  # preserve enumeration order
        return cls([windows[i] for i in keep], scores[keep])


@dataclass
class FusionConfig:
    k: int = 1
    max_steps: int = 20
    candidate_cap: int = 80

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.candidate_cap < 1:
            raise ValueError("candidate_cap must be >= 1")


@dataclass(frozen=True)
class FusedProposal:
    interval: TimeInterval
    score: float
    step: int


def _dedup(bounds: np.ndarray) -> np.ndarray:
    """Greedy dedup of (n, 2) bounds: True for the rows to keep.

    A row is dropped when both its ends lie within DEDUP_TOL_S of an earlier
    row that was kept.
    """
    near = ((np.abs(bounds[:, None, 0] - bounds[None, :, 0]) <= DEDUP_TOL_S)
            & (np.abs(bounds[:, None, 1] - bounds[None, :, 1]) <= DEDUP_TOL_S))
    near &= np.tri(len(bounds), k=-1, dtype=bool)  # row i only looks at rows j < i
    keep = np.ones(len(bounds), dtype=bool)
    for i in np.flatnonzero(near.any(axis=1)).tolist():
        keep[i] = not (near[i] & keep).any()
    return keep


def enumerate_sliding_windows(meta: VideoMeta,
                              scales: Sequence[float] = DEFAULT_SCALES,
                              stride_ratio: float = 0.5) -> List[TimeInterval]:
    """Multi-scale sliding windows over [0, duration], sorted by (start, length).

    For each scale, windows of length scale * duration start at multiples of
    stride_ratio * length; a final window is clamped to end at the duration
    when the regular stride would overshoot. Duplicates are removed.
    """
    if not all(0 < s <= 1 for s in scales):
        raise ValueError("scales must lie in (0, 1]")
    if not (0 < stride_ratio <= 1):
        raise ValueError("stride_ratio must lie in (0, 1]")
    duration = meta.duration_s
    spans: List[Tuple[float, float]] = []
    for scale in scales:
        length = scale * duration
        stride = stride_ratio * length
        k = 0
        last_end = 0.0
        while k * stride + length <= duration + DEDUP_TOL_S:
            start = k * stride
            end = min(start + length, duration)
            spans.append((start, end))
            last_end = end
            k += 1
        if last_end < duration - DEDUP_TOL_S:
            spans.append((duration - length, duration))
    keep = _dedup(np.array(spans, dtype=float).reshape(-1, 2)).tolist()
    windows = [TimeInterval(s, e) for (s, e), k in zip(spans, keep) if k]
    windows.sort(key=lambda w: (w.start_s, w.length_s))
    return windows


def _checked_distribution(f_e: SequentialScorer, prefix, pool, grid, remaining):
    """The scorer's distribution as (probabilities aligned with `remaining`, EOS)."""
    probs, eos = f_e.distribution(prefix, pool, grid)
    remaining = remaining.tolist()
    if set(probs) != set(remaining):
        raise FusionError("sequential scorer must cover exactly the remaining candidates")
    p = np.array([probs[i] for i in remaining], dtype=float)
    total = sum(probs.values()) + eos
    # written so that NaN fails every comparison
    if not (abs(total - 1.0) <= DISTRIBUTION_TOL and 0.0 <= eos < math.inf
            and np.all((p >= 0.0) & (p < math.inf))):
        raise FusionError(f"sequential scorer returned a non-distribution "
                          f"(sum={total}, eos={eos})")
    return p, eos


def fuse_select(pool: CandidatePool, f_s: Optional[PointwiseScorer], f_e: SequentialScorer,
                cfg: Optional[FusionConfig] = None,
                grid: Optional[SegmentGrid] = None) -> List[FusedProposal]:
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
                          else f_s.scores(pool.candidates, grid), dtype=float)
    if f_s_vals.shape != (len(pool),) or not np.isfinite(f_s_vals).all():
        raise FusionError("pointwise scores must be one finite value per candidate")

    prefix: List[int] = []
    in_prefix = np.zeros(len(pool), dtype=bool)
    selected: List[FusedProposal] = []
    selected_idx: set = set()
    for step in range(cfg.max_steps):
        remaining = np.flatnonzero(~in_prefix)
        if remaining.size == 0:
            break
        probs, eos = _checked_distribution(f_e, prefix, pool, grid, remaining)
        # raw-f_e stopping rule; candidate ties beat EOS ties deterministically
        if eos > probs.max():
            break
        fused = f_s_vals[remaining] * probs
        ranked = np.argsort(-fused, kind="stable")  # ties: smaller index first
        prefix.append(int(remaining[ranked[0]]))
        in_prefix[prefix[-1]] = True
        for j in ranked[:cfg.k].tolist():
            i = int(remaining[j])
            if i not in selected_idx:
                selected_idx.add(i)
                selected.append(FusedProposal(pool.candidates[i], float(fused[j]), step))
    return selected


# ---------------------------------------------------------------------------
# Heuristic oracle scorers: stand-ins for the trained ranking and sequential
# models, driven by a set of planted attractor intervals. They make the full
# pipeline runnable (and testable) without any neural model.

@dataclass
class HeuristicPointwiseScorer:
    """f_s(c) = max tIoU of c against any attractor, floored at 1e-3."""

    attractors: List[TimeInterval]
    floor: float = 1e-3

    def scores(self, candidates: Sequence[TimeInterval], grid=None) -> np.ndarray:
        m = tiou_matrix(as_bounds(candidates), as_bounds(self.attractors))
        return m.max(axis=1, initial=self.floor)


@dataclass
class HeuristicSequentialScorer:
    """Weights candidates by their best tIoU to attractors not yet covered.

    An attractor counts as covered once some prefix member overlaps it with
    tIoU >= `cover_tiou`. EOS weight is 1 when everything is covered, else a
    small constant, and the whole thing is normalized to a distribution.
    """

    attractors: List[TimeInterval]
    cover_tiou: float = 0.5
    eos_weight_open: float = 0.05
    _bounds: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def distribution(self, prefix, pool: CandidatePool, grid=None):
        if self._bounds[0] is not pool:  # selection asks about one pool at every step
            self._bounds = (pool, as_bounds(pool.candidates))
        bounds, attractors = self._bounds[1], as_bounds(self.attractors)
        covered = (tiou_matrix(bounds[prefix], attractors)
                   >= self.cover_tiou).any(axis=0)
        in_prefix = np.zeros(len(pool), dtype=bool)
        in_prefix[prefix] = True
        remaining = np.flatnonzero(~in_prefix)
        weights = tiou_matrix(bounds[remaining],
                              attractors[~covered]).max(axis=1, initial=0.0)
        eos = 1.0 if covered.all() else self.eos_weight_open
        total = sum(weights.tolist()) + eos
        return dict(zip(remaining.tolist(), (weights / total).tolist())), eos / total


@dataclass
class TableSequentialScorer:
    """Step-indexed distributions, for precomputed f_e tables.

    `steps[t]` is ({candidate_index: prob}, eos_prob) for step t; entries for
    already-selected candidates are dropped and the rest renormalized.
    """

    steps: List[Tuple[Dict[int, float], float]]

    def distribution(self, prefix, pool: CandidatePool, grid=None):
        t = len(prefix)
        if t >= len(self.steps):
            remaining = [i for i in range(len(pool)) if i not in prefix]
            return {i: 0.0 for i in remaining}, 1.0
        probs, eos = self.steps[t]
        kept = {i: p for i, p in probs.items() if i not in prefix}
        for i in range(len(pool)):
            if i not in prefix:
                kept.setdefault(i, 0.0)
        total = sum(kept.values()) + eos
        if total <= 0:
            raise FusionError("table step has zero total mass")
        return {i: p / total for i, p in kept.items()}, eos / total


# ---------------------------------------------------------------------------
# Scores files: {"mode": "heuristic", "attractors": {vid: [[s, e], ...]}}, or
# {"mode": "tables", "videos": {vid: {"candidates": [[s, e], ...], "f_s": [...],
# "f_e_steps": [{"probs": {"<index>": p, ...}, "eos": p}, ...]}}}.

def _read_step(step, where) -> Tuple[Dict[int, float], float]:
    probs = read_field(read_object(step, where), "probs", dict, where)
    if not all(i.isdecimal() for i in probs):
        raise CorpusFormatError(f"{where}: probs keys must be candidate indices")
    return ({int(i): read_field(probs, i, (int, float), where) for i in probs},
            read_field(step, "eos", (int, float), where))


def _read_table(table, where):
    table = read_object(table, where)
    pool = CandidatePool(read_intervals(table, "candidates", math.inf, where),
                         np.asarray(read_items(table, "f_s", (int, float), where), float))
    steps = [_read_step(step, f"{where}: f_e_steps[{t}]")
             for t, step in enumerate(read_field(table, "f_e_steps", list, where))]
    if len(pool.scores) != len(pool):
        raise CorpusFormatError(f"{where}: {len(pool.scores)} f_s values for "
                                f"{len(pool)} candidates")
    if any(not 0 <= i < len(pool) for probs, _ in steps for i in probs):
        raise CorpusFormatError(f"{where}: f_e_steps name a candidate index outside "
                                f"the {len(pool)} candidates")
    return pool, None, TableSequentialScorer(steps)


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

    A video without a pool gets the sliding windows of its meta, and is left
    out when it has no meta either.
    """
    cfg = cfg if cfg is not None else FusionConfig()
    out = {}
    for vid, (pool, f_s, f_e) in sorted(scorers.items()):
        if pool is None:
            if vid not in metas:
                continue
            pool = CandidatePool.from_windows(enumerate_sliding_windows(metas[vid]),
                                              f_s, cap=cfg.candidate_cap)
        out[vid] = [PredictionEntry(p.interval, proposal_score=min(1.0, p.score))
                    for p in fuse_select(pool, f_s, f_e, cfg)]
    return out
