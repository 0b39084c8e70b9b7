"""Temporal IoU and proposal precision/recall tables."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import Corpus, TimeInterval, VideoRecord, as_bounds


@dataclass
class PRTable:
    """Per-threshold precision/recall averaged over videos."""

    thresholds: List[float]
    precision: Dict[float, float]
    recall: Dict[float, float]
    avg_proposals_per_video: float
    videos: int = 0
    zero_prediction_videos: int = 0

    def rows(self) -> List[Tuple[float, float, float]]:
        return [(t, self.precision[t], self.recall[t]) for t in self.thresholds]

    def to_dict(self) -> dict:
        return report_dict(self)


def report_dict(report) -> dict:
    """Every field of a per-threshold report dataclass, JSON-ready: a
    `{threshold: value}` field is keyed by `str(threshold)`."""
    return {name: {str(t): v for t, v in value.items()} if isinstance(value, dict) else value
            for name, value in asdict(report).items()}


def tiou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) tIoU of every row of `a` against every row of `b`.

    Both are (n, 2) [start, end] arrays; a pair that does not overlap has tIoU 0.
    """
    a_start, a_end = a[:, 0, None], a[:, 1, None]
    inter = np.minimum(a_end, b[:, 1]) - np.maximum(a_start, b[:, 0])
    union = np.maximum(a_end, b[:, 1]) - np.minimum(a_start, b[:, 0])
    return np.divide(inter, union, out=np.zeros(inter.shape), where=inter > 0)


def tiou(a: TimeInterval, b: TimeInterval) -> float:
    """Temporal intersection-over-union of two intervals, in [0, 1]."""
    return float(tiou_matrix(as_bounds([a]), as_bounds([b]))[0, 0])


def check_thresholds(thresholds: Sequence[float]) -> List[float]:
    """`thresholds` as a list: non-empty, each distinct and in [0, 1].

    ValueError otherwise; NaN and infinities fail the range check.
    """
    thresholds = list(thresholds)
    if not thresholds:
        raise ValueError("no tIoU thresholds given")
    for t in thresholds:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"tIoU threshold {t} is not in [0, 1]")
    if len(set(thresholds)) != len(thresholds):
        raise ValueError(f"repeated tIoU threshold in {thresholds}")
    return thresholds


def video_matches(record: VideoRecord, levels) -> np.ndarray:
    """(P, G, T) booleans: prediction p reaches tIoU `levels[t]` with event g.

    The events are the record's annotation sets, concatenated in set order.
    """
    events = np.concatenate([np.zeros((0, 2)),  # a record may have no annotation set
                             *(ann.intervals.bounds for ann in record.annotation_sets)])
    tious = tiou_matrix(as_bounds([p.interval for p in record.predictions]), events)
    return tious[:, :, None] >= np.asarray(levels, dtype=float)


def precision_recall(corpus: Corpus, thresholds: Sequence[float]) -> PRTable:
    """Corpus-level PRTable: per-video precision/recall averaged over videos.

    The groundtruth for each video is the union (concatenation) of all its
    annotation sets; a video without groundtruth is skipped. Videos with
    zero predictions count as precision 0 and are flagged in
    `zero_prediction_videos`.
    """
    thresholds = check_thresholds(thresholds)
    prec_sum, rec_sum = np.zeros((2, len(thresholds)))
    n_videos = zero_pred = total_props = 0
    for video_id in corpus.video_ids():
        hits = video_matches(corpus.videos[video_id], thresholds)
        n_preds, n_events, _ = hits.shape
        if not n_events:
            continue
        n_videos += 1
        total_props += n_preds
        if not n_preds:
            zero_pred += 1
            continue  # contributes 0 to both sums
        # each side matches independently against the other, as the
        # challenge evaluator does
        prec_sum += np.count_nonzero(hits.any(axis=1), axis=0) / n_preds
        rec_sum += np.count_nonzero(hits.any(axis=0), axis=0) / n_events
    if n_videos == 0:
        raise ValueError("corpus has no videos with groundtruth")
    return PRTable(
        thresholds=thresholds,
        precision=dict(zip(thresholds, (prec_sum / n_videos).tolist())),
        recall=dict(zip(thresholds, (rec_sum / n_videos).tolist())),
        avg_proposals_per_video=total_props / n_videos,
        videos=n_videos,
        zero_prediction_videos=zero_pred,
    )
