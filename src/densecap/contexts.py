"""Context extraction over the segment grid: the five kinds of context around a
target event (`build_bundle` lists them), as segment index sets plus feature pooling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (Corpus, CorpusFormatError, SegmentGrid, TimeInterval, VideoMeta,
                   as_bounds, segment_range)


POOLS = {"mean": np.ndarray.mean, "max": np.ndarray.max}  # pooling mode -> row reduction


class EmptyContext(Exception):
    """Pooling was asked for an empty segment selection."""


def _pool(mode: str):
    if mode not in POOLS:
        raise ValueError(f"unknown pooling mode {mode!r}")
    return POOLS[mode]


@dataclass
class EventContextBundle:
    event_range: Tuple[int, int]
    local_before: Tuple[int, int]
    local_after: Tuple[int, int]
    global_mask: np.ndarray  # bool per segment, True = included
    neighbor_events: List[int]
    sentence_history: List[str]

    def to_dict(self, grid: Optional[SegmentGrid] = None, mode: str = "mean") -> dict:
        """The fields for JSON, the mask as 0/1; with a feature grid, also each
        view pooled by `pool_features`, and a zero vector for an empty view."""
        _pool(mode)
        row = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}
        row["global_mask"] = self.global_mask.astype(int).tolist()
        if grid is not None:
            for key, selection in (("event_vector", self.event_range),
                                   ("local_before_vector", self.local_before),
                                   ("local_after_vector", self.local_after),
                                   ("global_vector", self.global_mask)):
                try:
                    row[key] = pool_features(grid, selection, mode).tolist()
                except EmptyContext:
                    row[key] = [0.0] * grid.dim
        return row


def check_window_ratio(ratio: float) -> None:
    """Raise ValueError unless the local-context window ratio is finite and > 0."""
    if not 0 < ratio < np.inf:  # written so that NaN fails the check
        raise ValueError(f"window_ratio must be finite and > 0, not {ratio}")


def pool_features(grid: SegmentGrid, selection, mode: str = "mean") -> np.ndarray:
    """Mean or max pool the selected feature rows into one vector.

    `selection` is a (start, end) integer range with 0 <= start <= end <=
    segment count, or a boolean mask over the segments; anything else is a
    ValueError. Raises EmptyContext on an empty selection so the caller can
    substitute a zero vector of the right size.
    """
    pool = _pool(mode)
    if isinstance(selection, tuple) and len(selection) == 2:
        start, end = selection
        if (isinstance(start, bool) or isinstance(end, bool)
                or not (isinstance(start, (int, np.integer))
                        and isinstance(end, (int, np.integer))
                        and 0 <= start <= end <= len(grid.features))):
            raise ValueError(f"segment range {selection} is not within "
                             f"0..{len(grid.features)}")
        rows = grid.features[start:end]
    elif (isinstance(selection, np.ndarray) and selection.dtype == bool
          and selection.shape == grid.features.shape[:1]):
        rows = grid.features[selection]
    else:
        raise ValueError("selection is neither a (start, end) range nor a segment mask")
    if rows.shape[0] == 0:
        raise EmptyContext("empty segment selection")
    return pool(rows, axis=0)


def build_bundle(events: Sequence[TimeInterval], target: int, meta: VideoMeta,
                 captions: Sequence[str], window_ratio: float = 0.5,
                 direction: str = "bi") -> EventContextBundle:
    """The five contexts of event `target` in a start-sorted event list.

    - segment: `event_range` = (i, j) = `segment_range(event, meta)`;
    - local: `local_before` = (min(floor(max(0, start - w) / seg), n - 1), i) and
      `local_after` = (j, max(j, min(max(floor(end / seg) + [e > end], ceil(e / seg)), n))),
      e = min(duration, end + w), the segments of the windows of length w = window_ratio
      * |event| before and after the event (seg: segment duration, n: segment count);
    - global: `global_mask`, every segment outside `event_range`;
    - event: `neighbor_events`, the earlier events' indices for direction
      "uni", every other event's for "bi";
    - sentence: `sentence_history`, the captions of the earlier events.

    `captions` holds one caption per event; events out of start order are a ValueError.
    """
    check_window_ratio(window_ratio)
    if direction not in ("uni", "bi"):
        raise ValueError(f"unknown direction {direction!r}")
    if len(captions) != len(events):
        raise ValueError(f"{len(captions)} captions for {len(events)} events")
    if not 0 <= target < len(events):
        raise IndexError(f"target {target} out of range")
    starts = as_bounds(events)[:, 0].tolist()
    for k, (a, b) in enumerate(zip(starts, starts[1:])):
        if b < a:
            raise ValueError(f"event {k + 1} starts before event {k}: {b} < {a}")
    event = events[target]
    i, j = segment_range(event, meta)
    w, seg, n = window_ratio * event.length_s, meta.segment_duration_s, meta.segment_count
    end = min(meta.duration_s, event.end_s + w)
    # a non-empty after window claims a segment, as segment_range gives every interval one
    last = max(math.floor(event.end_s / seg) + (end > event.end_s), math.ceil(end / seg))
    mask = np.ones(n, dtype=bool)
    mask[i:j] = False
    neighbors = range(target) if direction == "uni" else (
        k for k in range(len(events)) if k != target)
    return EventContextBundle(
        event_range=(i, j),
        local_before=(min(math.floor(max(0.0, event.start_s - w) / seg), n - 1), i),
        local_after=(j, max(j, min(last, n))), global_mask=mask,
        neighbor_events=list(neighbors), sentence_history=list(captions[:target]))


def corpus_bundles(corpus: Corpus, grids: Dict[str, SegmentGrid],
                   window_ratio: float = 0.5, direction: str = "bi",
                   mode: str = "mean") -> Dict[str, List[dict]]:
    """Every event's bundle as `to_dict` rows, per video.

    Events are annotation set 0's, in start-time order, with its sentences as
    the sentence history. A video with a grid in `grids` also gets pooled
    vectors; its grid must have the video's segment count.
    """
    _pool(mode)
    out = {}
    for vid in corpus.video_ids():
        record = corpus.videos[vid]
        ann = record.annotation_sets[0]
        order = np.argsort(ann.intervals.bounds[:, 0], kind="stable").tolist()
        events = [ann.intervals[i] for i in order]
        captions = [ann.sentences[i] for i in order]
        grid = grids.get(vid)
        if grid is not None and grid.meta.segment_count != record.meta.segment_count:
            raise CorpusFormatError(
                f"{vid}: {grid.meta.segment_count} feature segments for "
                f"{record.meta.segment_count} in the video's meta")
        out[vid] = [build_bundle(events, t, record.meta, captions, window_ratio, direction)
                    .to_dict(grid, mode) for t in range(len(events))]
    return out
