"""Context extraction over the segment grid.

Five kinds of context around a target event, all realized as deterministic
index-set extraction plus feature pooling: segment-level features come from
the grid itself, local windows sit immediately before/after the event,
global context is everything outside the event, event context is the other
events, and sentence context is the captions generated so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (Corpus, CorpusFormatError, SegmentGrid, TimeInterval, VideoMeta,
                   segment_range)


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


def local_context(event: TimeInterval, meta: VideoMeta,
                  window_ratio: float = 0.5):
    """Segment ranges of the windows immediately before and after the event.

    Each window has length window_ratio * |event|, clipped to the video; the
    resulting ranges are additionally clipped against the event's own range
    so they never overlap it. Empty ranges (i == j) occur at the video
    boundaries.
    """
    check_window_ratio(window_ratio)
    ev_i, ev_j = segment_range(event, meta)
    w = window_ratio * event.length_s

    before_start = max(0.0, event.start_s - w)
    if before_start < event.start_s:
        b_i, b_j = segment_range(TimeInterval(before_start, event.start_s), meta)
        before = (min(b_i, ev_i), min(b_j, ev_i))
    else:
        before = (ev_i, ev_i)

    after_end = min(meta.duration_s, event.end_s + w)
    if after_end > event.end_s:
        a_i, a_j = segment_range(TimeInterval(event.end_s, after_end), meta)
        after = (max(a_i, ev_j), max(a_j, ev_j))
    else:
        after = (ev_j, ev_j)
    return before, after


def global_context(event: TimeInterval, meta: VideoMeta) -> np.ndarray:
    """Boolean mask selecting every segment outside the event's range."""
    i, j = segment_range(event, meta)
    mask = np.ones(meta.segment_count, dtype=bool)
    mask[i:j] = False
    return mask


def event_neighbors(events: Sequence[TimeInterval], target: int, direction: str) -> List[int]:
    """Neighbor event indices in temporal order.

    "uni" returns only past events (indices before the target in start-time
    order), "bi" returns all other events. `events` must already be sorted
    by start time.
    """
    if direction not in ("uni", "bi"):
        raise ValueError(f"unknown direction {direction!r}")
    if not (0 <= target < len(events)):
        raise IndexError(f"target {target} out of range")
    if direction == "uni":
        return list(range(target))
    return [i for i in range(len(events)) if i != target]


def sentence_history(captions: Sequence[str], target: int) -> List[str]:
    """Captions generated for events before the target, in order.

    Callers decode events sequentially, so asking for event i's history only
    makes sense once events 0..i-1 have captions.
    """
    if not (0 <= target <= len(captions)):
        raise IndexError(f"target {target} out of range")
    return list(captions[:target])


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
                 captions: Optional[Sequence[str]] = None,
                 window_ratio: float = 0.5,
                 direction: str = "bi") -> EventContextBundle:
    """Assemble the full context bundle for one event of a sorted event list."""
    event = events[target]
    before, after = local_context(event, meta, window_ratio)
    history = sentence_history(captions, target) if captions is not None else []
    return EventContextBundle(
        event_range=segment_range(event, meta),
        local_before=before,
        local_after=after,
        global_mask=global_context(event, meta),
        neighbor_events=event_neighbors(events, target, direction),
        sentence_history=history,
    )


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
        out[vid] = [build_bundle(events, target, record.meta, captions=captions,
                                 window_ratio=window_ratio,
                                 direction=direction).to_dict(grid, mode)
                    for target in range(len(events))]
    return out
