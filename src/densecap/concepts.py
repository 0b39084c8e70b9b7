"""Linear multi-instance multi-label concept predictor.

A proposal is a bag of segments: segment-level probabilities come from a
linear-sigmoid layer, the proposal-level prediction is the element-wise max
over K evenly selected segments, and training minimizes binary cross
entropy with the subgradient of the max routed to the (first) argmax
segment per concept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (DURATION_SLOP_S, CorpusFormatError, SegmentGrid, TimeInterval, VideoMeta,
                   check_count, read_container, read_field, read_interval, read_items, read_json,
                   read_object, read_rows, segment_range, write_container)

LOGIT_CLAMP = 30.0
PROB_CLAMP = 1e-7
WEIGHT_INIT_SCALE = 0.01
POSITIVE_AT = 0.5  # probabilities and labels at or above it count as positive

_MODEL_MAGIC = b"CONM"


class TrainingDiverged(ValueError):
    def __init__(self, epoch: int):
        super().__init__(f"loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass
class ConceptVocabulary:
    concepts: List[str]

    def __post_init__(self):
        if not self.concepts:
            raise ValueError("vocabulary must contain at least one concept")
        if len(set(self.concepts)) != len(self.concepts):
            raise ValueError("duplicate concepts in vocabulary")
        self.lookup: Dict[str, int] = {c: i for i, c in enumerate(self.concepts)}

    def __len__(self):
        return len(self.concepts)


@dataclass
class LinearConceptModel:
    W: np.ndarray  # (C, D)
    b: np.ndarray  # (C,)
    vocabulary: ConceptVocabulary
    k_segments: int  # K, the segments a proposal is pooled over; set by training

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError("W must be (C, D) with b of length C")
        if self.W.shape[0] != len(self.vocabulary):
            raise ValueError("weight rows must match vocabulary size")
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValueError("model parameters must be finite")
        check_count("k_segments", self.k_segments)

    @property
    def n_concepts(self) -> int:
        return self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.W.shape[1]


@dataclass
class MimlExample:
    proposal: TimeInterval
    grid: SegmentGrid
    labels: np.ndarray  # binary, length C

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 100
    batch_size: int = 32
    k_segments: int = 20
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails the check
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        for name in ("epochs", "batch_size", "k_segments"):
            check_count(name, getattr(self, name))


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    z = np.maximum(logits, -LOGIT_CLAMP)  # np.clip's ufuncs, then in place
    np.minimum(z, LOGIT_CLAMP, out=z)
    np.exp(np.negative(z, out=z), out=z)
    return np.divide(1.0, np.add(z, 1.0, out=z), out=z)


def select_even_segments(proposal: TimeInterval, meta: VideoMeta, k: int) -> List[int]:
    """K evenly spaced segment indices inside the proposal's range.

    linspace over [i, j-1] with half-up rounding, in numpy's arithmetic;
    indices repeat when the range is shorter than K.
    """
    check_count("k", k)
    i, j = segment_range(proposal, meta)
    if k == 1:
        return [i]
    step = (j - 1 - i) / (k - 1)
    return [math.floor(q * step + i + 0.5) for q in range(k - 1)] + [j - 1]


def _features(grid: SegmentGrid, dim: int) -> np.ndarray:
    """The grid's feature rows; a ValueError names the video if they are not `dim` wide."""
    if grid.dim != dim:
        raise ValueError(f"{grid.meta.video_id}: feature dim {grid.dim}, expected {dim}")
    return grid.features


def predict_proposal(model: LinearConceptModel, grid: SegmentGrid,
                     proposal: TimeInterval) -> np.ndarray:
    """Max-pooled per-concept probabilities over the model's K selected segments."""
    picks = select_even_segments(proposal, grid.meta, model.k_segments)
    logits = _features(grid, model.dim)[picks] @ model.W.T  # (k, C)
    logits += model.b
    return np.maximum.reduce(_sigmoid(logits), axis=0)


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row BCE averaged over the last (concept) axis, with probability clamping."""
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_CLAMP, 1 - PROB_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p), axis=-1)


def _sum_over_bags(terms: np.ndarray, total=0.0):
    """`total` plus the terms along the leading (bag) axis, added one bag
    after another as the per-bag definition does.

    numpy reduces rows in that order, but pairs terms up where the bag axis
    is the only one left (per-bag losses, or C = 1), which rounds differently.
    """
    if terms.size > len(terms):
        return np.add.reduce(terms, axis=0, initial=total)
    for term in terms:
        total += term
    return total


def objective_and_gradient(W: np.ndarray, b: np.ndarray,
                           feature_bags: Sequence[np.ndarray],
                           labels: np.ndarray):
    """Batch BCE objective and its analytic (sub)gradient.

    `feature_bags` is a sequence of (K, D) arrays, one per example, or the
    same bags stacked as one (n, K, D) array. The loss is the mean over
    examples of the mean over concepts of BCE on the max-pooled
    probabilities; the gradient of each max flows through the first argmax
    segment of that concept. All bags go through one vectorized step that
    does the arithmetic of a per-bag loop in the same order, so results
    are bit-identical to it.
    """
    W = np.asarray(W, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    bags = np.asarray(feature_bags, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    (n, k, d), c = bags.shape, W.shape[0]
    logits = bags @ W.T + b  # (n, K, C)
    first = np.argmax(np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP), axis=1)  # per bag, concept
    top = np.take_along_axis(logits, first[:, None, :], axis=1)[:, 0]
    pooled = _sigmoid(top)
    # d(BCE)/d(logit) at the pooled probability; clamps and the BCE
    # probability clip kill the gradient outside their linear region
    p_clip = np.clip(pooled, PROB_CLAMP, 1 - PROB_CLAMP)
    active = (pooled == p_clip) & (np.abs(top) < LOGIT_CLAMP)
    g = (pooled - labels) / (c * n) * active  # (n, C)
    # per bag and concept: the argmax segment's features times g
    at = first + k * np.arange(n)[:, None]  # rows of the (n * K, D) view
    rows = np.take(bags.reshape(n * k, d), at, axis=0)
    rows *= g[:, :, None]  # (n, C, D)
    return (float(_sum_over_bags(bce_loss(pooled, labels))) / n, _sum_over_bags(rows),
            _sum_over_bags(g))


def _gather(grids: Sequence[np.ndarray], picks: np.ndarray, idx, stacked: np.ndarray):
    """The bags of examples `idx`, each taken from its own grid, in `stacked`'s first slots."""
    out = stacked[:len(idx)]
    for slot, i in enumerate(idx):
        grids[i].take(picks[i], axis=0, out=out[slot], mode="clip")
    return out


def _dataset_loss(W: np.ndarray, b: np.ndarray, grids: Sequence[np.ndarray],
                  picks: np.ndarray, labels: np.ndarray, stacked: np.ndarray) -> float:
    """Mean BCE over all bags, gathered a chunk at a time into `stacked`."""
    total = 0.0
    chunk = len(stacked)
    for lo in range(0, len(picks), chunk):
        bags = _gather(grids, picks, range(lo, min(lo + chunk, len(picks))), stacked)
        # the clamp is monotone, so the clamped max logit is the clamped logit at the
        # first clamped argmax that `objective_and_gradient` takes: bit-identical, past
        # +-LOGIT_CLAMP, for ties after clamping, +-inf and NaN
        pooled = _sigmoid(np.maximum.reduce(bags @ W.T + b, axis=1))
        total = _sum_over_bags(bce_loss(pooled, labels[lo:lo + chunk]), total)
    return float(total) / len(picks)


def _check_labels(examples: Sequence[MimlExample], c: int) -> None:
    """A ValueError naming the first example whose labels are not `c` long."""
    for i, ex in enumerate(examples):
        if ex.labels.shape != (c,):
            raise ValueError(f"{ex.grid.meta.video_id}: example {i} has "
                             f"{ex.labels.size} labels, expected {c}")


def train(examples: Sequence[MimlExample], cfg: Optional[TrainConfig] = None,
          vocabulary: Optional[ConceptVocabulary] = None):
    """Mini-batch gradient descent on proposal-level BCE.

    Deterministic for a fixed seed. Returns (model, per-epoch loss trace);
    the trace holds the full-dataset loss after each epoch.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    if not examples:
        raise ValueError("no training examples")
    c = len(examples[0].labels)
    _check_labels(examples, c)
    picks = np.array([select_even_segments(ex.proposal, ex.grid.meta, cfg.k_segments)
                      for ex in examples])
    dim = examples[0].grid.dim
    grids = [_features(ex.grid, dim) for ex in examples]
    labels = np.stack([ex.labels for ex in examples])
    if vocabulary is None:
        vocabulary = ConceptVocabulary([f"concept_{i}" for i in range(c)])

    rng = np.random.default_rng(cfg.seed)
    W = rng.normal(scale=WEIGHT_INIT_SCALE, size=(c, dim))
    b = np.zeros(c)

    # one batch-sized buffer, filled in place from the grids, serves every mini-batch and
    # loss chunk (mode "raise" would buffer): a fresh (n, K, D) stack per step makes the
    # heap hand its pages back and fault them in again on every step
    stacked = np.empty((min(cfg.batch_size, len(examples)), cfg.k_segments, dim))
    trace = []
    order = np.arange(len(examples))
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            batch = _gather(grids, picks, idx, stacked)
            _, dW, db = objective_and_gradient(W, b, batch, labels[idx])
            W -= cfg.learning_rate * dW
            b -= cfg.learning_rate * db
        loss = _dataset_loss(W, b, grids, picks, labels, stacked)
        if not math.isfinite(loss):
            raise TrainingDiverged(epoch)
        trace.append(loss)
    return LinearConceptModel(W, b, vocabulary, cfg.k_segments), trace


def top_concepts(probs: np.ndarray, vocabulary: ConceptVocabulary,
                 k: int) -> List[Tuple[str, float]]:
    """The k most probable concepts with their probabilities; ties go to
    the earlier vocabulary entry."""
    check_count("k", k)
    top = np.argsort(-np.asarray(probs, dtype=np.float64), kind="stable")[:k]
    return [(vocabulary.concepts[i], float(probs[i])) for i in top.tolist()]


def predict_report(model: LinearConceptModel, grid: SegmentGrid,
                   proposals: Sequence[TimeInterval], top: int = 10) -> List[dict]:
    """Per proposal, its `top` concepts by `predict_proposal`, as JSON-ready rows."""
    check_count("top", top)
    for p in proposals:  # a span past the features is refused, as `load_labels` does
        if p.end_s > grid.meta.duration_s + DURATION_SLOP_S:
            raise ValueError(f"span [{p.start_s}, {p.end_s}] ends past duration "
                             f"{grid.meta.duration_s}")
    return [{"timestamp": [p.start_s, p.end_s],
             "top_concepts": [{"concept": c, "probability": v} for c, v in
                              top_concepts(predict_proposal(model, grid, p),
                                           model.vocabulary, top)]}
            for p in proposals]


def proposal_accuracy(model: LinearConceptModel, examples: Sequence[MimlExample]) -> float:
    """Fraction of (proposal, concept) pairs predicted correctly at POSITIVE_AT."""
    if not examples:
        raise ValueError("no examples")
    _check_labels(examples, model.n_concepts)
    hits = np.concatenate([(predict_proposal(model, ex.grid, ex.proposal) >= POSITIVE_AT)
                           == (ex.labels >= POSITIVE_AT) for ex in examples])
    return float(hits.mean())


# ---------------------------------------------------------------------------
# Labels files: {"vocabulary": [concept, ...], "examples": {video_id:
# [{"timestamp": [s, e], "concepts": [concept, ...]}, ...]}}.

def load_labels(path, grids: Dict[str, SegmentGrid]):
    """Read a labels file into (vocabulary, training examples).

    Examples of videos without a grid in `grids` are skipped, as are
    concepts outside the vocabulary. Timestamps are read against the grid's
    duration, as groundtruth timestamps are.
    """
    doc = read_json(path)
    words = read_items(doc, "vocabulary", str, path)
    try:
        vocab = ConceptVocabulary(words)
    except ValueError as exc:  # an empty or repeating vocabulary
        raise CorpusFormatError(f"{path}: {exc}") from exc
    examples = []
    by_video = read_field(doc, "examples", dict, path)
    for vid in sorted(set(by_video) & set(grids)):
        for i, row in enumerate(read_field(by_video, vid, list, path)):
            where = f"{vid}[{i}]"
            labels = np.zeros(len(vocab))
            for word in read_items(read_object(row, where), "concepts", str, where):
                if word in vocab.lookup:
                    labels[vocab.lookup[word]] = 1.0
            span = read_interval(row.get("timestamp"), grids[vid].meta.duration_s, where)
            examples.append(MimlExample(TimeInterval(*span), grids[vid], labels))
    return vocab, examples


# ---------------------------------------------------------------------------
# Model files: binary float64 container plus a JSON export for inspection.

def save_model(model: LinearConceptModel, path, binary: bool = True) -> None:
    header = {
        "n_concepts": model.n_concepts,
        "dim": model.dim,
        "k_segments": model.k_segments,
        "vocabulary": model.vocabulary.concepts,
    }
    write_container(path, _MODEL_MAGIC, header, {"W": model.W, "b": model.b}, "<f8", binary)


def load_model(path) -> LinearConceptModel:
    header, data = read_container(path, _MODEL_MAGIC, "<f8")
    vocabulary = read_items(header, "vocabulary", str, path)
    k = read_field(header, "k_segments", int, path)
    if data is not None:
        c = read_field(header, "n_concepts", int, path)
        d = read_field(header, "dim", int, path)
        if c < 1 or d < 0 or data.size != c * d + c:
            raise CorpusFormatError(
                f"{path}: {data.size} model values for {c} x {d} weights and {c} biases")
        W = data[:c * d].reshape(c, d).copy()
        b = data[c * d:].copy()
    else:
        W = read_rows(header, "W", path)
        b = np.array(read_items(header, "b", (int, float), path), dtype=np.float64)
    try:
        return LinearConceptModel(W, b, ConceptVocabulary(vocabulary), k)
    except ValueError as exc:  # shapes, K or a vocabulary that do not fit together
        raise CorpusFormatError(f"{path}: {exc}") from exc
