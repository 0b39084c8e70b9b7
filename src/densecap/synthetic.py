"""Synthetic corpus generation for end-to-end tests and demos.

Videos get random durations, planted non-overlapping groundtruth events and
template sentences over a small vocabulary. An optional second annotation
set jitters each interval by up to 10% of its length (keeping tIoU >= 2/3
against the first set) and paraphrases sentences through a synonym table.
Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .concepts import MimlExample
from .core import (AnnotationSet, Corpus, IntervalArray, PredictionEntry, SegmentGrid,
                   TimeInterval, VideoMeta, VideoRecord, check_count)

SUBJECTS = ["man", "woman", "dog", "girl", "boy", "chef"]
VERBS = ["runs", "jumps", "cooks", "dances", "sings", "slides"]
OBJECTS = ["ball", "guitar", "cake", "rope", "stage", "board"]
ADVERBS = ["quickly", "slowly", "gracefully", "loudly", "carefully", "twice"]
TEMPLATE = "the {} {} with the {} {}"
SLOTS = (SUBJECTS, VERBS, OBJECTS, ADVERBS)

SYNONYMS = {
    "man": "guy", "woman": "lady", "dog": "puppy", "girl": "child",
    "boy": "kid", "chef": "cook", "runs": "sprints", "jumps": "leaps",
    "cooks": "prepares", "dances": "moves", "sings": "performs",
    "slides": "glides", "quickly": "fast", "slowly": "gently",
    "ball": "sphere", "guitar": "instrument", "cake": "dessert",
}
PARAPHRASE_SLOTS = tuple([SYNONYMS.get(w, w) for w in slot] for slot in SLOTS)

MIN_DURATION_S = 30.0
MAX_DURATION_S = 300.0
EVENT_LEN_FRAC = (0.06, 0.16)
JITTER_FRAC = 0.1


def _captions(n_events: int, rng: np.random.Generator) -> List[List[str]]:
    """Sentences and their paraphrases from one draw, in the stream of one rng.choice per word."""
    words = rng.integers(list(map(len, SLOTS)), size=(n_events, len(SLOTS))).tolist()
    return [[TEMPLATE.format(subj[s], verb[v], obj[o], adv[a]) for s, v, o, a in words]
            for subj, verb, obj, adv in (SLOTS, PARAPHRASE_SLOTS)]


def _plant_events(duration: float, n_events: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 2) bounds of non-overlapping events, in order, with lengths in
    EVENT_LEN_FRAC of the duration, scaled down when n such lengths could
    add up past it (more than 6 events)."""
    scale = duration * min(1, 1 / (n_events * EVENT_LEN_FRAC[1]))
    lengths = rng.uniform(*EVENT_LEN_FRAC, size=n_events) * scale
    slack = duration - lengths.sum()
    cuts = np.sort(rng.uniform(0, slack, size=n_events))
    gaps = np.diff(np.concatenate([[0.0], cuts]))
    # each start is the previous end plus a gap, each end the start plus a length
    return np.cumsum(np.column_stack([gaps, lengths])).reshape(n_events, 2)


def _jitter(bounds: np.ndarray, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Each row's ends moved by up to JITTER_FRAC of its length and clipped to
    the video; a row whose moved ends would not form an interval stays put."""
    w = JITTER_FRAC * (bounds[:, 1:] - bounds[:, :1])
    moved = np.clip(bounds + rng.uniform(-w, w, size=bounds.shape), 0.0, duration)
    return np.where(moved[:, 1:] > moved[:, :1], moved, bounds)


def gen_synthetic(n_videos: int, events_range: Tuple[int, int] = (2, 5),
                  seed: int = 0, two_sets: bool = True) -> Corpus:
    """Generate a synthetic corpus of `n_videos` videos.

    `events_range` is inclusive; the default (2, 5) averages 3.5 events per
    video. With `two_sets`, each video carries a second, jittered and
    paraphrased annotation set the way validation videos do.
    """
    lo, hi = events_range
    for name, value in (("n_videos", n_videos), ("events_range[0]", lo), ("events_range[1]", hi)):
        check_count(name, value)
    if lo > hi:
        raise ValueError("events_range must satisfy lo <= hi")
    rng = np.random.default_rng(seed)
    corpus = Corpus()
    for v in range(n_videos):
        video_id = f"v_{seed:04d}_{v:05d}"
        duration = float(rng.uniform(MIN_DURATION_S, MAX_DURATION_S))
        n_events = int(rng.integers(lo, hi + 1))
        events = _plant_events(duration, n_events, rng)
        sentences, paraphrases = _captions(n_events, rng)
        sets = [AnnotationSet(IntervalArray(events), sentences)]
        if two_sets:
            sets.append(AnnotationSet(IntervalArray(_jitter(events, duration, rng)), paraphrases))
        corpus.videos[video_id] = VideoRecord(VideoMeta(video_id, duration), sets)
    return corpus


def identity_predictions(corpus: Corpus) -> Corpus:
    """Copy groundtruth set 0 into the prediction slots (for metric identities)."""
    for record in corpus.videos.values():
        ann = record.annotation_sets[0]
        record.predictions = [
            PredictionEntry(iv, sentence=sent, proposal_score=1.0)
            for iv, sent in zip(ann.intervals, ann.sentences)
        ]
    return corpus


def synthetic_grid(meta: VideoMeta, dim: int, seed: int = 0) -> SegmentGrid:
    """A feature grid of standard-normal rows, deterministic per seed."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((meta.segment_count, dim))
    return SegmentGrid(meta, features)


def make_separable_miml(n_proposals: int = 200, n_concepts: int = 4,
                        dim: int = 16, seed: int = 0) -> List[MimlExample]:
    """A linearly separable multi-label set for learnability checks.

    Each proposal's segments carry the same signal vector (+/-2 on the
    concept axes according to the label) plus small noise, so a
    linear-sigmoid predictor can reach near-perfect proposal accuracy.
    """
    rng = np.random.default_rng(seed)
    meta = VideoMeta("miml", duration_s=16.0, fps=16.0)  # 4 segments of 4 s
    examples = []
    for _ in range(n_proposals):
        labels = rng.integers(0, 2, size=n_concepts).astype(float)
        signal = np.zeros(dim)
        signal[:n_concepts] = 2.0 * (2.0 * labels - 1.0)
        features = signal + 0.1 * rng.standard_normal((meta.segment_count, dim))
        grid = SegmentGrid(meta, features)
        examples.append(MimlExample(TimeInterval(0.0, meta.duration_s), grid, labels))
    return examples
