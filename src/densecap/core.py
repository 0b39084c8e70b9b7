"""Domain types and file I/O for the dense-captioning toolkit.

Everything here is deliberately dumb data: intervals in seconds, a fixed
segment grid per video, groundtruth annotation sets and prediction entries.
All types are immutable after load and safe to share across workers.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

# Interval ends may exceed the video duration by this much before we refuse
# to load them (annotation files carry float slop); smaller overshoot is
# clamped to the duration.
DURATION_SLOP_S = 1e-6

_FEATURE_MAGIC = b"SEGF"


class CorpusFormatError(ValueError):
    """Raised when a groundtruth/prediction/feature file violates the format."""


@dataclass(frozen=True)
class TimeInterval:
    """A [start, end] span in seconds with start < end."""

    start_s: float
    end_s: float

    def __post_init__(self):
        if not (self.start_s < self.end_s):
            raise CorpusFormatError(
                f"inverted interval [{self.start_s}, {self.end_s}]"
            )
        if self.start_s < 0:
            raise CorpusFormatError(f"negative start {self.start_s}")

    @property
    def length_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def center_s(self) -> float:
        return 0.5 * (self.start_s + self.end_s)


@dataclass(frozen=True)
class VideoMeta:
    """Per-video metadata fixing the segment grid geometry."""

    video_id: str
    duration_s: float
    fps: float = 25.0
    frames_per_segment: int = 64

    def __post_init__(self):
        if self.duration_s <= 0:
            raise CorpusFormatError(f"{self.video_id}: duration must be > 0")
        if self.fps <= 0:
            raise CorpusFormatError(f"{self.video_id}: fps must be > 0")
        if self.frames_per_segment < 1:
            raise CorpusFormatError(f"{self.video_id}: frames_per_segment must be >= 1")

    @property
    def segment_duration_s(self) -> float:
        return self.frames_per_segment / self.fps

    @property
    def segment_count(self) -> int:
        return max(1, math.ceil(self.duration_s * self.fps / self.frames_per_segment))


@dataclass
class SegmentGrid:
    """Fixed segmentation of one video, optionally carrying feature rows."""

    meta: VideoMeta
    features: Optional[np.ndarray] = None  # (segment_count, D) float array
    feature_tag: str = "basic"

    def __post_init__(self):
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
            if self.features.ndim != 2:
                raise CorpusFormatError("features must be a 2-D array")
            if self.features.shape[0] != self.meta.segment_count:
                raise CorpusFormatError(
                    f"{self.meta.video_id}: {self.features.shape[0]} feature rows "
                    f"for {self.meta.segment_count} segments"
                )

    @property
    def dim(self) -> Optional[int]:
        return None if self.features is None else self.features.shape[1]


@dataclass
class AnnotationSet:
    """One groundtruth segmentation: parallel intervals and sentences."""

    intervals: List[TimeInterval]
    sentences: List[str]

    def __post_init__(self):
        if len(self.intervals) != len(self.sentences):
            raise CorpusFormatError(
                f"{len(self.intervals)} intervals vs {len(self.sentences)} sentences"
            )
        if not self.intervals:
            raise CorpusFormatError("annotation set must contain at least one event")


@dataclass
class PredictionEntry:
    """One predicted proposal, optionally with caption and scores."""

    interval: TimeInterval
    sentence: Optional[str] = None
    proposal_score: Optional[float] = None
    caption_logprob: Optional[float] = None

    def __post_init__(self):
        if self.proposal_score is not None and not (0.0 <= self.proposal_score <= 1.0):
            raise CorpusFormatError(
                f"score out of range: proposal_score={self.proposal_score}"
            )


@dataclass
class VideoRecord:
    meta: VideoMeta
    annotation_sets: List[AnnotationSet] = field(default_factory=list)
    predictions: List[PredictionEntry] = field(default_factory=list)


@dataclass
class Corpus:
    """All videos keyed by id, each with meta, groundtruth sets and predictions."""

    videos: Dict[str, VideoRecord] = field(default_factory=dict)

    def video_ids(self) -> List[str]:
        return sorted(self.videos)


def _read_interval(pair, duration_s, where):
    """Validate one raw [start, end] pair against the video duration."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise CorpusFormatError(f"bad timestamp {where}")
    try:
        start, end = float(pair[0]), float(pair[1])
    except (TypeError, ValueError) as exc:
        raise CorpusFormatError(f"bad timestamp {where}") from exc
    if start >= end:
        raise CorpusFormatError(f"inverted interval {where}")
    if start < 0:
        raise CorpusFormatError(f"negative start {where}")
    if end > duration_s + DURATION_SLOP_S:
        raise CorpusFormatError(
            f"interval end {end} exceeds duration {duration_s} at {where}"
        )
    return TimeInterval(start, min(end, duration_s))


def _optional_field(entry: dict, key: str, types, where: str):
    """`entry[key]`, or None when absent; any other type than `types` is an error."""
    value = entry.get(key)
    if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
        raise CorpusFormatError(f"{where}: bad {key} {value!r}")
    return value


def load_ground_truth(path, meta_source=None, corpus: Optional[Corpus] = None) -> Corpus:
    """Load a groundtruth file into a corpus (merging into `corpus` if given).

    The file maps video_id -> {"duration": s, "timestamps": [[s, e], ...],
    "sentences": [...]}. Loading a second file for the same videos attaches a
    second AnnotationSet. `meta_source` is an optional dict or JSON path with
    per-video {"fps": ..., "frames_per_segment": ...} overrides.
    """
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise CorpusFormatError(f"{path}: expected a video_id -> entry map")

    if isinstance(meta_source, (str, bytes)) or hasattr(meta_source, "__fspath__"):
        with open(meta_source) as f:
            meta_source = json.load(f)
    meta_source = meta_source or {}

    corpus = corpus if corpus is not None else Corpus()
    for video_id, entry in raw.items():
        try:
            duration = float(entry["duration"])
            timestamps = entry["timestamps"]
            sentences = entry["sentences"]
        except (KeyError, TypeError) as exc:
            raise CorpusFormatError(f"{video_id}: malformed entry ({exc})") from exc
        overrides = meta_source.get(video_id, {})
        meta = VideoMeta(
            video_id,
            duration,
            fps=float(overrides.get("fps", 25.0)),
            frames_per_segment=int(overrides.get("frames_per_segment", 64)),
        )
        intervals = [_read_interval(pair, duration, f"{video_id}[{i}]")
                     for i, pair in enumerate(timestamps)]
        ann = AnnotationSet(intervals, [str(s) for s in sentences])
        record = corpus.videos.get(video_id)
        if record is None:
            corpus.videos[video_id] = VideoRecord(meta, [ann])
        else:
            if abs(record.meta.duration_s - duration) > 0.5:
                raise CorpusFormatError(
                    f"{video_id}: duration mismatch between groundtruth files"
                )
            record.annotation_sets.append(ann)
    return corpus


def save_ground_truth(corpus: Corpus, path, set_index: int = 0) -> None:
    """Write one annotation set per video in the groundtruth format."""
    out = {}
    for video_id in corpus.video_ids():
        record = corpus.videos[video_id]
        if set_index >= len(record.annotation_sets):
            continue
        ann = record.annotation_sets[set_index]
        out[video_id] = {
            "duration": record.meta.duration_s,
            "timestamps": [[iv.start_s, iv.end_s] for iv in ann.intervals],
            "sentences": list(ann.sentences),
        }
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)


def load_predictions(path, corpus: Optional[Corpus] = None,
                     strict_video_ids: bool = False):
    """Load a predictions file.

    Returns {video_id: [PredictionEntry, ...]} preserving file order. When a
    corpus is given, entries are attached to it; predictions for unknown
    video ids are skipped with a warning count unless `strict_video_ids`.
    Returns (predictions, skipped_count).
    """
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}: not valid JSON ({exc})") from exc
    results = raw.get("results") if isinstance(raw, dict) else None
    if not isinstance(results, dict):
        raise CorpusFormatError(f"{path}: missing 'results' map")

    predictions: Dict[str, List[PredictionEntry]] = {}
    skipped = 0
    for video_id, entries in results.items():
        if corpus is not None and video_id not in corpus.videos:
            if strict_video_ids:
                raise CorpusFormatError(f"unknown video_id {video_id}")
            skipped += 1
            continue
        duration = (corpus.videos[video_id].meta.duration_s
                    if corpus is not None else math.inf)
        if not isinstance(entries, list):
            raise CorpusFormatError(f"{video_id}: expected a list of predictions")
        parsed = []
        for i, entry in enumerate(entries):
            where = f"{video_id}[{i}]"
            if not isinstance(entry, dict):
                raise CorpusFormatError(f"{where}: expected an object")
            parsed.append(PredictionEntry(
                _read_interval(entry.get("timestamp"), duration, where),
                sentence=_optional_field(entry, "sentence", str, where),
                proposal_score=_optional_field(entry, "proposal_score", (int, float), where),
                caption_logprob=_optional_field(entry, "caption_logprob", (int, float), where),
            ))
        predictions[video_id] = parsed
        if corpus is not None:
            corpus.videos[video_id].predictions = parsed
    return predictions, skipped


def save_predictions(predictions, path) -> None:
    """Write {video_id: [PredictionEntry]} in the submission format.

    Optional fields that are absent stay absent in the file (round-trip
    stable), they are never written as zeros.
    """
    if isinstance(predictions, Corpus):
        predictions = {vid: rec.predictions
                       for vid, rec in predictions.videos.items() if rec.predictions}
    results = {}
    for video_id in sorted(predictions):
        rows = []
        for entry in predictions[video_id]:
            row = {"timestamp": [entry.interval.start_s, entry.interval.end_s]}
            if entry.sentence is not None:
                row["sentence"] = entry.sentence
            if entry.proposal_score is not None:
                row["proposal_score"] = entry.proposal_score
            if entry.caption_logprob is not None:
                row["caption_logprob"] = entry.caption_logprob
            rows.append(row)
        results[video_id] = rows
    with open(path, "w") as f:
        json.dump({"version": "VERSION 1.0", "results": results}, f, indent=1,
                  sort_keys=True)


def segment_range(interval: TimeInterval, meta: VideoMeta):
    """Map a time interval to a half-open segment index range [i, j).

    i = floor(start / seg_dur), j = max(i + 1, ceil(end / seg_dur)), both
    clamped into [0, segment_count). Guarantees j > i, so even sub-segment
    intervals claim one segment.
    """
    seg_dur = meta.segment_duration_s
    count = meta.segment_count
    i = int(math.floor(interval.start_s / seg_dur))
    i = min(i, count - 1)
    j = max(i + 1, int(math.ceil(interval.end_s / seg_dur)))
    j = min(j, count)
    if j <= i:
        i = j - 1
    return i, j


# ---------------------------------------------------------------------------
# Feature files: binary float32 container or an equivalent JSON layout.

def save_features(grid: SegmentGrid, path, binary: bool = True) -> None:
    """Write a per-video feature file (binary float32 or JSON)."""
    if grid.features is None:
        raise CorpusFormatError(f"{grid.meta.video_id}: grid has no features")
    header = {
        "video_id": grid.meta.video_id,
        "segment_count": grid.meta.segment_count,
        "dim": int(grid.features.shape[1]),
        "feature_tag": grid.feature_tag,
        "duration": grid.meta.duration_s,
        "fps": grid.meta.fps,
        "frames_per_segment": grid.meta.frames_per_segment,
    }
    if binary:
        payload = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as f:
            f.write(_FEATURE_MAGIC)
            f.write(struct.pack("<I", len(payload)))
            f.write(payload)
            f.write(np.ascontiguousarray(grid.features, dtype="<f4").tobytes())
    else:
        header["features"] = grid.features.tolist()
        with open(path, "w") as f:
            json.dump(header, f, sort_keys=True)


def load_features(path) -> SegmentGrid:
    """Read a feature file written by save_features (either layout)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic == _FEATURE_MAGIC:
            (header_len,) = struct.unpack("<I", f.read(4))
            header = json.loads(f.read(header_len).decode())
            payload = f.read()
            if len(payload) % 4:
                raise CorpusFormatError(f"{path}: truncated feature payload")
            data = np.frombuffer(payload, dtype="<f4")
        else:
            f.seek(0)
            header = json.loads(f.read().decode())
            data = np.asarray(header.pop("features"), dtype=np.float64)
    meta = VideoMeta(
        header["video_id"],
        header["duration"],
        fps=header.get("fps", 25.0),
        frames_per_segment=header.get("frames_per_segment", 64),
    )
    rows, dim = header["segment_count"], header["dim"]
    if meta.segment_count != rows:
        raise CorpusFormatError(f"{meta.video_id}: header segment_count mismatch")
    if data.size != rows * dim:
        raise CorpusFormatError(f"{path}: {data.size} feature values for {rows} x {dim}")
    features = np.asarray(data, dtype=np.float64).reshape(rows, dim)
    return SegmentGrid(meta, features, feature_tag=header.get("feature_tag", "basic"))
