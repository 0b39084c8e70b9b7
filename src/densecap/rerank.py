"""Proposal and caption re-ranking, and proposal-based training augmentation.

Proposal re-ranking fuses four per-candidate factors (quality,
describability, position, length) after z-normalizing each across the
video's candidates, so the ordering is invariant to affine rescaling of any
raw factor. Caption re-ranking scores hypotheses by unique-word ratio and
overlap with the top predicted concepts. Augmentation pairs predicted
proposals with the caption of their best-matched groundtruth event when the
match exceeds tIoU 0.3 (strictly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .concepts import ConceptVocabulary
from .core import AnnotationSet, PredictionEntry, TimeInterval, VideoMeta
from .intervals import match_all
from .metrics import tokenize

AUGMENT_TIOU = 0.3


@dataclass
class RerankWeights:
    quality: float = 1.0
    describability: float = 1.0
    position: float = 1.0
    length: float = 1.0
    top_n: int = 5

    def __post_init__(self):
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


@dataclass(frozen=True)
class AugmentedPair:
    interval: TimeInterval
    gt_index: int
    tiou: float
    caption: str


def _znorm(values: np.ndarray) -> np.ndarray:
    std = values.std()
    if std == 0:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def proposal_rerank(candidates: Sequence[PredictionEntry], meta: VideoMeta,
                    weights: RerankWeights = RerankWeights()):
    """Top-N candidates by the weighted sum of z-normalized factors.

    Factors: proposal_score, length-normalized caption log-probability,
    proposal center / duration, proposal length / duration. Candidates
    without a caption log-probability get factor value 0 after
    normalization and are counted in the returned flag. Ties break toward
    the earlier start. Returns (ranked candidates, missing-describability
    count).
    """
    if not candidates:
        raise ValueError("no candidates to rerank")
    for i, cand in enumerate(candidates):
        if cand.proposal_score is None:
            raise ValueError(f"candidate {i} is missing proposal_score")

    quality = _znorm(np.array([c.proposal_score for c in candidates]))

    desc_raw = np.zeros(len(candidates))
    have_desc = np.zeros(len(candidates), dtype=bool)
    for i, c in enumerate(candidates):
        if c.caption_logprob is not None:
            n_tok = max(1, len(tokenize(c.sentence)) if c.sentence else 1)
            desc_raw[i] = c.caption_logprob / n_tok
            have_desc[i] = True
    desc = np.zeros(len(candidates))
    if have_desc.any():
        desc[have_desc] = _znorm(desc_raw[have_desc])
    missing = int((~have_desc).sum())

    position = _znorm(np.array([c.interval.center_s / meta.duration_s
                                for c in candidates]))
    length = _znorm(np.array([c.interval.length_s / meta.duration_s
                              for c in candidates]))

    fused = (weights.quality * quality + weights.describability * desc
             + weights.position * position + weights.length * length)
    order = sorted(range(len(candidates)),
                   key=lambda i: (-fused[i], candidates[i].interval.start_s, i))
    return [candidates[i] for i in order[:weights.top_n]], missing


@dataclass
class CaptionRerankParams:
    alpha: float = 0.5  # unique-word ratio weight
    beta: float = 0.5   # concept-match weight
    top_concepts: int = 20


def caption_rerank(hypotheses: Sequence[str], concept_probs: np.ndarray,
                   vocabulary: ConceptVocabulary,
                   params: CaptionRerankParams = CaptionRerankParams()) -> str:
    """Pick the best caption hypothesis for one proposal.

    score = alpha * (unique tokens / total tokens)
          + beta * (fraction of the caption's vocabulary words that are
                    among the top predicted concepts).
    Ties (including duplicates) resolve to the earliest hypothesis.
    """
    if not hypotheses:
        raise ValueError("no caption hypotheses")
    concept_probs = np.asarray(concept_probs, dtype=np.float64)
    k = min(params.top_concepts, len(concept_probs))
    top_idx = np.argsort(-concept_probs, kind="stable")[:k]
    top_words = {vocabulary.concepts[i] for i in top_idx}

    best, best_score = hypotheses[0], -np.inf
    for hyp in hypotheses:
        tokens = tokenize(hyp)
        if tokens:
            unique_ratio = len(set(tokens)) / len(tokens)
            content = [t for t in tokens if t in vocabulary.lookup]
            concept_frac = (sum(1 for t in content if t in top_words) / len(content)
                            if content else 0.0)
        else:
            unique_ratio = 0.0
            concept_frac = 0.0
        score = params.alpha * unique_ratio + params.beta * concept_frac
        if score > best_score:
            best, best_score = hyp, score
    return best


def augment(predictions: Sequence[TimeInterval],
            annotation_set: AnnotationSet,
            min_tiou: float = AUGMENT_TIOU) -> List[AugmentedPair]:
    """Training pairs from predicted proposals overlapping the groundtruth.

    Each prediction is matched to its best groundtruth interval and kept
    only when tIoU is strictly greater than `min_tiou`; its caption is the
    matched groundtruth sentence.
    """
    return [AugmentedPair(predictions[m.pred_index], m.gt_index, m.tiou,
                          annotation_set.sentences[m.gt_index])
            for m in match_all(predictions, annotation_set.intervals)
            if m.gt_index is not None and m.tiou > min_tiou]
