"""Domain types and file I/O for the dense-captioning toolkit.

Everything here is deliberately dumb data: intervals in seconds, a fixed
segment grid per video, groundtruth annotation sets and prediction entries.
All types are immutable after load and safe to share across workers.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
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
        if not 0 < self.duration_s < math.inf:
            raise CorpusFormatError(f"{self.video_id}: duration must be finite and > 0")
        if not 0 < self.fps < math.inf:
            raise CorpusFormatError(f"{self.video_id}: fps must be finite and > 0")
        if not self.duration_s * self.fps < math.inf:
            raise CorpusFormatError(f"{self.video_id}: duration x fps overflows")
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


def read_interval(pair, duration_s, where):
    """Validate one raw [start, end] pair against the video duration.

    An end past the duration by at most DURATION_SLOP_S is clamped to it.
    """
    if not isinstance(pair, list) or len(pair) != 2:
        raise CorpusFormatError(f"bad timestamp {where}")
    try:
        start, end = float(pair[0]), float(pair[1])
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorpusFormatError(f"bad timestamp {where}") from exc
    if not (math.isfinite(start) and math.isfinite(end)):
        raise CorpusFormatError(f"non-finite timestamp {where}")
    if start >= end:
        raise CorpusFormatError(f"inverted interval {where}")
    if start < 0:
        raise CorpusFormatError(f"negative start {where}")
    if end > duration_s + DURATION_SLOP_S:
        raise CorpusFormatError(
            f"interval end {end} exceeds duration {duration_s} at {where}"
        )
    return TimeInterval(start, min(end, duration_s))


def read_intervals(record: dict, key: str, duration_s, where) -> List[TimeInterval]:
    """The required list `record[key]` of [start, end] pairs, each read by
    `read_interval`."""
    return [read_interval(pair, duration_s, f"{where}[{i}]")
            for i, pair in enumerate(read_field(record, key, list, where))]


_REQUIRED = object()


def _checked(value, types, where, key):
    if isinstance(value, bool) or not isinstance(value, types):
        raise CorpusFormatError(f"{where}: bad {key} {value!r}")
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise CorpusFormatError(f"{where}: non-finite {key}")
    return value


def read_field(record: dict, key: str, types, where, default=_REQUIRED):
    """`record[key]`, checked against `types` (booleans and non-finite
    numbers never pass).

    An absent or null field gives `default`; without a default it is a
    CorpusFormatError, as is a value of any other type.
    """
    value = record.get(key)
    if value is None:
        if default is _REQUIRED:
            raise CorpusFormatError(f"{where}: missing {key}")
        return default
    return _checked(value, types, where, key)


def read_items(record: dict, key: str, types, where) -> list:
    """The required list `record[key]`, each item checked as `read_field` does."""
    return [_checked(item, types, where, f"{key}[{i}]")
            for i, item in enumerate(read_field(record, key, list, where))]


def read_object(record, where) -> dict:
    """`record`, which must be a JSON object."""
    if not isinstance(record, dict):
        raise CorpusFormatError(f"{where}: expected an object")
    return record


def _json_object(blob: bytes, where) -> dict:
    try:
        doc = json.loads(blob.decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CorpusFormatError(f"{where}: not valid JSON ({exc})") from exc
    return read_object(doc, where)


def read_json(path) -> dict:
    """A JSON file whose top level is an object."""
    with open(path, "rb") as f:
        return _json_object(f.read(), path)


def write_json(payload, path) -> None:
    """The one JSON layout of every file the toolkit writes: sorted keys,
    indent 1, and no NaN or Infinity."""
    try:
        with open(path, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True, allow_nan=False)
    except ValueError:  # a NaN or an infinity: leave no half-written file
        os.remove(path)
        raise


def read_header(f, magic: bytes, path):
    """Header of a file in either layout of the binary containers.

    A binary file is `magic`, a little-endian u32 length, that many bytes of
    JSON header and then the payload, where `f` is left. Any other file is
    one JSON object that carries header and data together. Returns
    (header, binary).
    """
    if f.read(4) != magic:
        f.seek(0)
        return _json_object(f.read(), path), False
    prefix = f.read(4)
    if len(prefix) == 4:
        (length,) = struct.unpack("<I", prefix)
        blob = f.read(length)
        if len(blob) == length:
            return _json_object(blob, path), True
    raise CorpusFormatError(f"{path}: truncated header")


# ---------------------------------------------------------------------------
# Meta files: video_id -> {"duration": s, "fps": ..., "frames_per_segment": ...}.
# Feature file headers carry the same fields.

def _meta_fields(meta: VideoMeta) -> dict:
    return {"duration": meta.duration_s, "fps": meta.fps,
            "frames_per_segment": meta.frames_per_segment}


def _read_meta(entry: dict, video_id: str, where) -> VideoMeta:
    """`duration` is required; `fps` and `frames_per_segment` default to VideoMeta's."""
    return VideoMeta(
        video_id, float(read_field(entry, "duration", (int, float), where)),
        fps=float(read_field(entry, "fps", (int, float), where, VideoMeta.fps)),
        frames_per_segment=read_field(entry, "frames_per_segment", int, where,
                                      VideoMeta.frames_per_segment))


def load_meta(path) -> Dict[str, VideoMeta]:
    """Read a meta file, the one `save_meta` writes."""
    return {vid: _read_meta(read_object(entry, vid), vid, vid)
            for vid, entry in read_json(path).items()}


def save_meta(corpus: Corpus, path) -> None:
    """Write every video's meta in the format `load_meta` reads."""
    write_json({vid: _meta_fields(rec.meta) for vid, rec in corpus.videos.items()}, path)


def load_ground_truth(path, meta_source: Optional[Dict[str, VideoMeta]] = None,
                      corpus: Optional[Corpus] = None) -> Corpus:
    """Load a groundtruth file into a corpus (merging into `corpus` if given).

    The file maps video_id -> {"duration": s, "timestamps": [[s, e], ...],
    "sentences": [...]}. Loading a second file for the same videos attaches a
    second AnnotationSet. `meta_source` is an optional `load_meta` map whose
    fps and frames_per_segment replace the defaults; the groundtruth
    duration stays, and a meta duration more than 0.5 s away from it is a
    CorpusFormatError.
    """
    meta_source = meta_source or {}
    corpus = corpus if corpus is not None else Corpus()
    for video_id, entry in read_json(path).items():
        entry = read_object(entry, video_id)
        duration = float(read_field(entry, "duration", (int, float), video_id))
        intervals = read_intervals(entry, "timestamps", duration, video_id)
        sentences = read_items(entry, "sentences", str, video_id)
        meta = meta_source.get(video_id)
        if meta is not None and abs(meta.duration_s - duration) > 0.5:
            raise CorpusFormatError(f"{video_id}: duration mismatch with the meta file")
        meta = (VideoMeta(video_id, duration) if meta is None
                else replace(meta, duration_s=duration))
        ann = AnnotationSet(intervals, sentences)
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
    write_json(out, path)


def load_predictions(path, corpus: Optional[Corpus] = None):
    """Load a predictions file.

    Returns {video_id: [PredictionEntry, ...]} preserving file order. When a
    corpus is given, entries are attached to it, and predictions for unknown
    video ids are skipped and counted. Returns (predictions, skipped_count).
    """
    results = read_field(read_json(path), "results", dict, path)

    predictions: Dict[str, List[PredictionEntry]] = {}
    skipped = 0
    for video_id, entries in results.items():
        if corpus is not None and video_id not in corpus.videos:
            skipped += 1
            continue
        duration = (corpus.videos[video_id].meta.duration_s
                    if corpus is not None else math.inf)
        if not isinstance(entries, list):
            raise CorpusFormatError(f"{video_id}: expected a list of predictions")
        parsed = []
        for i, entry in enumerate(entries):
            where = f"{video_id}[{i}]"
            read_object(entry, where)
            parsed.append(PredictionEntry(
                read_interval(entry.get("timestamp"), duration, where),
                sentence=read_field(entry, "sentence", str, where, None),
                proposal_score=read_field(entry, "proposal_score", (int, float), where, None),
                caption_logprob=read_field(entry, "caption_logprob", (int, float),
                                           where, None),
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
    write_json({"version": "VERSION 1.0", "results": results}, path)


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
        **_meta_fields(grid.meta),
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
        header, binary = read_header(f, _FEATURE_MAGIC, path)
        if binary:
            payload = f.read()
            if len(payload) % 4:
                raise CorpusFormatError(f"{path}: truncated feature payload")
            data = np.frombuffer(payload, dtype="<f4")
        else:
            table = read_field(header, "features", list, path)
            if not all(isinstance(row, list) and len(row) == len(table[0]) for row in table):
                raise CorpusFormatError(f"{path}: features must be rows of equal length")
            data = np.array([_checked(v, (int, float), path, "feature")
                             for row in table for v in row], dtype=np.float64)
    if not np.isfinite(data).all():
        raise CorpusFormatError(f"{path}: non-finite feature value")
    meta = _read_meta(header, read_field(header, "video_id", str, path), path)
    rows = read_field(header, "segment_count", int, path)
    dim = read_field(header, "dim", int, path)
    if meta.segment_count != rows:
        raise CorpusFormatError(f"{meta.video_id}: header segment_count mismatch")
    if data.size != rows * dim:
        raise CorpusFormatError(f"{path}: {data.size} feature values for {rows} x {dim}")
    features = np.asarray(data, dtype=np.float64).reshape(rows, dim)
    tag = read_field(header, "feature_tag", str, path, "basic")
    return SegmentGrid(meta, features, feature_tag=tag)


def load_features_dir(path) -> Dict[str, SegmentGrid]:
    """Every feature file in a directory, keyed by the video id in its header."""
    grids = (load_features(os.path.join(path, name)) for name in os.listdir(path))
    return {grid.meta.video_id: grid for grid in grids}
