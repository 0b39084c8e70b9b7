"""Domain types and file I/O for the dense-captioning toolkit.

Everything here is deliberately dumb data: intervals in seconds, a fixed
segment grid per video, groundtruth annotation sets and prediction entries.
A set of intervals is one read-only `IntervalArray` of (n, 2) bounds, and a
single interval a `TimeInterval`; both check the same contract. `TimeInterval`
and `VideoMeta` are frozen; the other records are plain mutable dataclasses.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

# Interval ends may exceed the video duration by this much before we refuse
# to load them (annotation files carry float slop); smaller overshoot is
# clamped to the duration.
DURATION_SLOP_S = 1e-6

_FEATURE_MAGIC = b"SEGF"


class CorpusFormatError(ValueError):
    """Raised when a groundtruth/prediction/feature file violates the format."""


def check_count(name: str, value) -> None:
    """Raise ValueError unless `value` is an int (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be >= 1 and an int, got {value!r}")


@dataclass(frozen=True, slots=True)
class TimeInterval:
    """A [start, end] span in seconds with start < end."""

    start_s: float
    end_s: float

    def __post_init__(self):  # one comparison, which NaN and infinite ends fail
        if not 0 <= self.start_s < self.end_s < math.inf:
            raise CorpusFormatError(f"inverted interval [{self.start_s}, {self.end_s}]"
                                    if not self.start_s < self.end_s else
                                    f"negative start {self.start_s}" if self.start_s < 0 else
                                    f"non-finite end {self.end_s}")

    @property
    def length_s(self) -> float:
        return self.end_s - self.start_s


class IntervalArray(Sequence[TimeInterval]):
    """Read-only TimeIntervals held as one (n, 2) float `bounds` array. Every row
    is checked here, and the first bad one raises TimeInterval's error."""

    __slots__ = ("bounds",)

    def __init__(self, bounds):
        self.bounds = np.array(bounds, dtype=float).reshape(len(bounds), 2)
        self.bounds.setflags(write=False)
        start, end = self.bounds.T
        ok = (0 <= start) & (start < end) & (end < np.inf)  # NaN fails every comparison
        if not ok.all():
            TimeInterval(*self.bounds[np.argmin(ok)].tolist())  # raises for that row

    def __len__(self) -> int:
        return len(self.bounds)

    def __getitem__(self, i) -> TimeInterval:
        return TimeInterval(*self.bounds[operator.index(i)].tolist())  # one row, not a slice

    def __iter__(self):
        return map(TimeInterval, *self.bounds.T.tolist())

    def __eq__(self, other):
        return isinstance(other, IntervalArray) and np.array_equal(self.bounds, other.bounds)


def as_bounds(intervals: Sequence[TimeInterval]) -> np.ndarray:
    """(n, 2) float array of [start_s, end_s] rows; an IntervalArray's own."""
    if isinstance(intervals, IntervalArray):
        return intervals.bounds
    return np.array([[iv.start_s for iv in intervals], [iv.end_s for iv in intervals]],
                    dtype=float).T  # two float lists convert faster than n pairs


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
    """Fixed segmentation of one video with one feature row per segment."""

    meta: VideoMeta
    features: np.ndarray  # (segment_count, D) float array

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise CorpusFormatError("features must be a 2-D array")
        if self.features.shape[0] != self.meta.segment_count:
            raise CorpusFormatError(
                f"{self.meta.video_id}: {self.features.shape[0]} feature rows "
                f"for {self.meta.segment_count} segments"
            )

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class AnnotationSet:
    """One groundtruth segmentation: parallel intervals and sentences."""

    intervals: IntervalArray  # a list of TimeIntervals is converted
    sentences: List[str]

    def __post_init__(self):
        if not isinstance(self.intervals, IntervalArray):
            self.intervals = IntervalArray(as_bounds(self.intervals))
        if len(self.intervals) != len(self.sentences):
            raise CorpusFormatError(
                f"{len(self.intervals)} intervals vs {len(self.sentences)} sentences"
            )
        if not self.intervals:
            raise CorpusFormatError("annotation set must contain at least one event")


@dataclass(slots=True)
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
    """One raw [start, end] pair, checked against the video duration, as two floats.

    Both ends are checked as `read_field` checks a number, so booleans and
    numeric strings fail. An end past the duration by at most DURATION_SLOP_S
    is clamped to it. Then `0 <= start < end` must hold, as in TimeInterval.
    """
    if not isinstance(pair, list) or len(pair) != 2:
        raise CorpusFormatError(f"bad timestamp {where}")
    start = float(_checked(pair[0], (int, float), where, "start"))
    end = float(_checked(pair[1], (int, float), where, "end"))
    if end > duration_s + DURATION_SLOP_S:
        raise CorpusFormatError(f"interval end {end} exceeds duration {duration_s} at {where}")
    end = min(end, duration_s)
    if not start < end:
        raise CorpusFormatError(f"inverted interval [{start}, {end}] at {where}")
    if start < 0:
        raise CorpusFormatError(f"negative start {start} at {where}")
    return start, end


def read_intervals(record: dict, key: str, duration_s, where) -> IntervalArray:
    """The required list `record[key]` of [start, end] pairs, each read by
    `read_interval`, as one IntervalArray."""
    return IntervalArray([read_interval(pair, duration_s, f"{where}[{i}]")
                          for i, pair in enumerate(read_field(record, key, list, where))])


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


def read_rows(record: dict, key: str, where) -> np.ndarray:
    """The required list `record[key]` of equal-length rows of numbers, as a 2-D array."""
    table = read_field(record, key, list, where)
    if not all(isinstance(row, list) and len(row) == len(table[0]) for row in table):
        raise CorpusFormatError(f"{where}: {key} must be rows of equal length")
    return np.array([_checked(v, (int, float), where, key) for row in table for v in row],
                    dtype=np.float64).reshape(len(table), len(table[0]) if table else 0)


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
    with open(path, "w") as f:
        try:
            json.dump(payload, f, indent=1, sort_keys=True, allow_nan=False)
        except Exception:  # NaN, infinity or a type json cannot write
            f.close()  # then leave no half-written file
            os.remove(path)
            raise


def write_container(path, magic: bytes, header: dict, arrays: Dict[str, np.ndarray],
                    dtype: str, binary: bool) -> None:
    """Write `header` and `arrays` in a layout that `read_container` reads.

    Binary: `magic`, a little-endian u32 length, that many bytes of JSON
    header, then each array's values as `dtype`. JSON: one `write_json`
    object, the header plus each array as nested lists under its name. A
    value that is not finite as `dtype` is a ValueError before any write.
    """
    with np.errstate(over="ignore"):  # too large for `dtype` becomes inf
        cast = [np.ascontiguousarray(a, dtype=dtype) for a in arrays.values()]
    if not all(np.isfinite(values).all() for values in cast):
        raise ValueError(f"{path}: a value is not finite as {np.dtype(dtype).name}")
    if binary:
        blob = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as f:
            f.write(magic + len(blob).to_bytes(4, "little") + blob)
            for values in cast:  # one write each, no joined copy
                f.write(values)
    else:
        write_json({**header, **{k: a.tolist() for k, a in arrays.items()}}, path)


def read_container(path, magic: bytes, dtype: str):
    """(header, flat `dtype` payload) of a binary `write_container` file, or
    (object, None) of a JSON one, whose object carries the data itself."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != magic:
        return _json_object(blob, path), None
    start = 8 + int.from_bytes(blob[4:8], "little")
    if len(blob) < start:
        raise CorpusFormatError(f"{path}: truncated header")
    if (len(blob) - start) % np.dtype(dtype).itemsize:
        raise CorpusFormatError(f"{path}: truncated payload")
    return _json_object(blob[8:start], path), np.frombuffer(blob, dtype, offset=start)


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
            "timestamps": ann.intervals.bounds.tolist(),
            "sentences": list(ann.sentences),
        }
    write_json(out, path)


def load_predictions(path, corpus: Optional[Corpus] = None):
    """Load a predictions file.

    Returns {video_id: [PredictionEntry, ...]} preserving file order. When a
    corpus is given, every corpus video gets the file's list, or [] where the
    file lacks it, and predictions for unknown video ids are skipped and
    counted. Returns (predictions, skipped_count).
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
                TimeInterval(*read_interval(entry.get("timestamp"), duration, where)),
                sentence=read_field(entry, "sentence", str, where, None),
                proposal_score=read_field(entry, "proposal_score", (int, float), where, None),
                caption_logprob=read_field(entry, "caption_logprob", (int, float),
                                           where, None),
            ))
        predictions[video_id] = parsed
    if corpus is not None:
        for video_id, record in corpus.videos.items():
            record.predictions = predictions.get(video_id, [])
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
    return i, min(j, count)


# ---------------------------------------------------------------------------
# Feature files: binary float32 container or an equivalent JSON layout.

def save_features(grid: SegmentGrid, path, binary: bool = True) -> None:
    """Write a per-video feature file (binary float32 or JSON)."""
    header = {
        "video_id": grid.meta.video_id,
        "segment_count": grid.meta.segment_count,
        "dim": grid.dim,
        **_meta_fields(grid.meta),
    }
    write_container(path, _FEATURE_MAGIC, header, {"features": grid.features}, "<f4", binary)


def load_features(path) -> SegmentGrid:
    """Read a feature file written by save_features (either layout)."""
    header, data = read_container(path, _FEATURE_MAGIC, "<f4")
    if data is None:
        data = read_rows(header, "features", path)
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
    return SegmentGrid(meta, features)


def load_features_dir(path) -> Dict[str, SegmentGrid]:
    """Every feature file in a directory, keyed by the (unique) video id in its header."""
    grids, names = {}, {}
    for name in sorted(os.listdir(path)):
        grid = load_features(os.path.join(path, name))
        vid = grid.meta.video_id
        if vid in grids:
            raise CorpusFormatError(f"{path}: video {vid} in both {names[vid]} and {name}")
        grids[vid], names[vid] = grid, name
    return grids
