"""Linear multi-instance multi-label concept predictor.

A proposal is a bag of segments: segment-level probabilities come from a
linear-sigmoid layer, the proposal-level prediction is the element-wise max
over K evenly selected segments, and training minimizes binary cross
entropy with the subgradient of the max routed to the (first) argmax
segment per concept.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (CorpusFormatError, SegmentGrid, TimeInterval, VideoMeta, read_field,
                   read_header, segment_range)

LOGIT_CLAMP = 30.0
PROB_CLAMP = 1e-7

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


def build_vocabulary(token_counts: Dict[str, int], lexicon: Sequence[str],
                     min_count: int = 1) -> ConceptVocabulary:
    """Frequent lexicon words, ordered by descending count then alphabetically."""
    lexicon = set(lexicon)
    kept = [(tok, n) for tok, n in token_counts.items()
            if tok in lexicon and n >= min_count]
    if not kept:
        raise ValueError("no lexicon token reaches min_count")
    kept.sort(key=lambda kv: (-kv[1], kv[0]))
    return ConceptVocabulary([tok for tok, _ in kept])


@dataclass
class LinearConceptModel:
    W: np.ndarray  # (C, D)
    b: np.ndarray  # (C,)
    vocabulary: ConceptVocabulary

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError("W must be (C, D) with b of length C")
        if self.W.shape[0] != len(self.vocabulary):
            raise ValueError("weight rows must match vocabulary size")
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValueError("model parameters must be finite")

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
    weight_init_scale: float = 0.01

    def __post_init__(self):
        # written so that NaN fails every check
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if not self.epochs >= 1:
            raise ValueError("epochs must be >= 1")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be >= 1")
        if not self.k_segments >= 1:
            raise ValueError("k_segments must be >= 1")
        if not (math.isfinite(self.weight_init_scale) and self.weight_init_scale >= 0):
            raise ValueError("weight_init_scale must be finite and >= 0")


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)))


def predict_segment(model: LinearConceptModel, feature: np.ndarray) -> np.ndarray:
    """Per-concept probabilities for one segment feature vector."""
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape != (model.dim,):
        raise ValueError(f"feature dim {feature.shape} != model dim {model.dim}")
    return _sigmoid(model.W @ feature + model.b)


def select_even_segments(proposal: TimeInterval, meta: VideoMeta, k: int) -> List[int]:
    """K evenly spaced segment indices inside the proposal's range.

    linspace over [i, j-1] with half-up rounding; indices repeat when the
    range is shorter than K.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    i, j = segment_range(proposal, meta)
    points = np.linspace(i, j - 1, num=k)
    return [int(math.floor(p + 0.5)) for p in points]


def _gather_features(example: MimlExample, k: int) -> np.ndarray:
    if example.grid.features is None:
        raise ValueError(f"{example.grid.meta.video_id}: grid has no features")
    idx = select_even_segments(example.proposal, example.grid.meta, k)
    return example.grid.features[idx]  # (k, D)


def predict_proposal(model: LinearConceptModel, grid: SegmentGrid,
                     proposal: TimeInterval, k: int = 20) -> np.ndarray:
    """Max-pooled per-concept probabilities over K selected segments."""
    feats = _gather_features(MimlExample(proposal, grid, np.zeros(model.n_concepts)), k)
    logits = feats @ model.W.T + model.b  # (k, C)
    return _sigmoid(logits).max(axis=0)


def _bce_rows(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """BCE averaged over the last (concept) axis, with probability clamping."""
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_CLAMP, 1 - PROB_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p), axis=-1)


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross entropy over concepts, with probability clamping."""
    return float(_bce_rows(probs, labels))


def _pooled_forward(W: np.ndarray, b: np.ndarray, bags: np.ndarray,
                    labels: np.ndarray):
    """Forward pass over stacked (n, K, D) bags.

    Returns the per-bag BCE losses (n,), the first argmax segment of the
    clamped logits per bag and concept (n, C), the logits there (n, C) and
    the max-pooled probabilities (n, C).
    """
    logits = bags @ W.T + b  # (n, K, C)
    first = np.argmax(np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP), axis=1)
    top = np.take_along_axis(logits, first[:, None, :], axis=1)[:, 0]
    pooled = _sigmoid(top)
    return _bce_rows(pooled, labels), first, top, pooled


def _sum_over_bags(terms: np.ndarray, total=0.0):
    """`total` plus the terms along the leading (bag) axis, added one bag
    after another as the per-bag definition does.

    numpy's own sum pairs terms up where the bag axis is the only one left
    (per-bag losses, or C = 1), which rounds differently.
    """
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
    losses, first, top, pooled = _pooled_forward(W, b, bags, labels)
    # d(BCE)/d(logit) at the pooled probability; clamps and the BCE
    # probability clip kill the gradient outside their linear region
    p_clip = np.clip(pooled, PROB_CLAMP, 1 - PROB_CLAMP)
    active = (pooled == p_clip) & (np.abs(top) < LOGIT_CLAMP)
    g = (pooled - labels) / (c * n) * active  # (n, C)
    # per bag and concept: the argmax segment's features times g
    at = first + k * np.arange(n)[:, None]  # rows of the (n * K, D) view
    rows = np.take(bags.reshape(n * k, d), at, axis=0)
    rows *= g[:, :, None]  # (n, C, D)
    return float(_sum_over_bags(losses)) / n, _sum_over_bags(rows), _sum_over_bags(g)


def _dataset_loss(W: np.ndarray, b: np.ndarray, bags: Sequence[np.ndarray],
                  labels: np.ndarray, stacked: np.ndarray) -> float:
    """Mean BCE over all bags, stacked a chunk at a time into `stacked`."""
    total = 0.0
    chunk = len(stacked)
    for lo in range(0, len(bags), chunk):
        part = bags[lo:lo + chunk]
        losses = _pooled_forward(W, b, np.stack(part, out=stacked[:len(part)]),
                                 labels[lo:lo + chunk])[0]
        total = _sum_over_bags(losses, total)
    return float(total) / len(bags)


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
    bags = [_gather_features(ex, cfg.k_segments) for ex in examples]
    d = bags[0].shape[1]
    labels = np.stack([ex.labels for ex in examples])
    if vocabulary is None:
        vocabulary = ConceptVocabulary([f"concept_{i}" for i in range(c)])

    rng = np.random.default_rng(cfg.seed)
    W = rng.normal(scale=cfg.weight_init_scale, size=(c, d))
    b = np.zeros(c)

    # one batch-sized buffer serves every mini-batch and loss chunk: a fresh
    # (n, K, D) stack per step, beside the (n, C, D) gradient rows, makes the
    # heap hand its pages back and fault them in again on every step
    stacked = np.empty((min(cfg.batch_size, len(bags)),) + bags[0].shape)
    trace = []
    order = np.arange(len(examples))
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            batch = np.stack([bags[i] for i in idx], out=stacked[:len(idx)])
            _, dW, db = objective_and_gradient(W, b, batch, labels[idx])
            W -= cfg.learning_rate * dW
            b -= cfg.learning_rate * db
        loss = _dataset_loss(W, b, bags, labels, stacked)
        if not math.isfinite(loss):
            raise TrainingDiverged(epoch)
        trace.append(loss)
    return LinearConceptModel(W, b, vocabulary), trace


def proposal_accuracy(model: LinearConceptModel, examples: Sequence[MimlExample],
                      k: int = 20, threshold: float = 0.5) -> float:
    """Fraction of (proposal, concept) pairs predicted correctly at 0.5."""
    correct = 0
    total = 0
    for ex in examples:
        probs = predict_proposal(model, ex.grid, ex.proposal, k)
        correct += int(np.sum((probs >= threshold) == (ex.labels >= 0.5)))
        total += len(ex.labels)
    return correct / total


def assign_segment_labels(proposals: Sequence[TimeInterval],
                          proposal_labels: Sequence[np.ndarray],
                          meta: VideoMeta) -> np.ndarray:
    """Per-segment label matrix: each proposal stamps its labels onto its
    segment range; overlaps take the element-wise OR; uncovered segments
    stay all-zero."""
    if len(proposals) != len(proposal_labels):
        raise ValueError("proposals and labels must align")
    c = len(proposal_labels[0]) if proposal_labels else 0
    out = np.zeros((meta.segment_count, c))
    for proposal, labels in zip(proposals, proposal_labels):
        i, j = segment_range(proposal, meta)
        out[i:j] = np.maximum(out[i:j], np.asarray(labels, dtype=np.float64))
    return out


# ---------------------------------------------------------------------------
# Model files: binary float64 container plus a JSON export for inspection.

def save_model(model: LinearConceptModel, path, binary: bool = True) -> None:
    header = {
        "n_concepts": model.n_concepts,
        "dim": model.dim,
        "vocabulary": model.vocabulary.concepts,
    }
    if binary:
        payload = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as f:
            f.write(_MODEL_MAGIC)
            f.write(struct.pack("<I", len(payload)))
            f.write(payload)
            f.write(np.ascontiguousarray(model.W, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(model.b, dtype="<f8").tobytes())
    else:
        header["W"] = model.W.tolist()
        header["b"] = model.b.tolist()
        with open(path, "w") as f:
            json.dump(header, f, sort_keys=True)


def load_model(path) -> LinearConceptModel:
    with open(path, "rb") as f:
        header, binary = read_header(f, _MODEL_MAGIC, path)
        vocabulary = read_field(header, "vocabulary", list, path)
        if binary:
            c = read_field(header, "n_concepts", int, path)
            d = read_field(header, "dim", int, path)
            payload = f.read()
            if len(payload) % 8:
                raise CorpusFormatError(f"{path}: truncated model payload")
            data = np.frombuffer(payload, dtype="<f8")
            if c < 1 or d < 0 or data.size != c * d + c:
                raise CorpusFormatError(
                    f"{path}: {data.size} model values for {c} x {d} weights and {c} biases")
            W = data[:c * d].reshape(c, d).copy()
            b = data[c * d:].copy()
        else:
            W = np.asarray(read_field(header, "W", list, path), dtype=np.float64)
            b = np.asarray(read_field(header, "b", list, path), dtype=np.float64)
    return LinearConceptModel(W, b, ConceptVocabulary(vocabulary))
