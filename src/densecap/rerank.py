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

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .concepts import ConceptVocabulary, LinearConceptModel, predict_proposal, top_concepts
from .core import (AnnotationSet, Corpus, CorpusFormatError, PredictionEntry, SegmentGrid,
                   TimeInterval, VideoMeta, as_bounds, check_count)
from .intervals import tiou_matrix
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
        if not np.isfinite([self.quality, self.describability, self.position, self.length]).all():
            raise ValueError("re-rank weights must be finite")
        check_count("top_n", self.top_n)


@dataclass(frozen=True, slots=True)
class AugmentedPair:
    interval: TimeInterval
    gt_index: int
    tiou: float
    caption: str

    def to_dict(self) -> dict:
        return {"timestamp": [self.interval.start_s, self.interval.end_s],
                "gt_index": self.gt_index, "tiou": self.tiou, "caption": self.caption}


def _znorm(values: np.ndarray) -> np.ndarray:
    """(values - mean) / std, or zeros if std is 0: numpy's std arithmetic, inlined."""
    dev = values - values.sum() / len(values)
    std = np.sqrt(np.square(dev).sum() / len(values))
    return dev / std if std else np.zeros_like(values)


def proposal_rerank(candidates: Sequence[PredictionEntry], meta: VideoMeta,
                    weights: Optional[RerankWeights] = None):
    """Top-N candidates by the weighted sum of z-normalized factors.

    Factors: proposal_score, length-normalized caption log-probability,
    proposal center / duration, proposal length / duration. Candidates
    without a caption log-probability get factor value 0 after
    normalization and are counted in the returned flag. Ties break toward
    the earlier start, then the earlier candidate. `weights` defaults to
    `RerankWeights()`. Returns (ranked candidates, missing-describability
    count).
    """
    if not candidates:
        raise ValueError("no candidates to rerank")
    weights = weights if weights is not None else RerankWeights()
    scores = [c.proposal_score for c in candidates]
    if None in scores:
        raise ValueError(f"candidate {scores.index(None)} is missing proposal_score")
    n = len(candidates)
    quality = _znorm(np.fromiter(scores, float, n))

    desc_raw = np.zeros(n)
    have_desc = np.zeros(n, dtype=bool)
    for i, c in enumerate(candidates):
        if c.caption_logprob is not None:
            n_tok = max(1, len(tokenize(c.sentence)) if c.sentence else 1)
            desc_raw[i] = c.caption_logprob / n_tok
            have_desc[i] = True
    desc = np.zeros(n)
    if have_desc.any():
        desc[have_desc] = _znorm(desc_raw[have_desc])
    missing = int((~have_desc).sum())

    bounds = as_bounds([c.interval for c in candidates])
    position = _znorm(0.5 * (bounds[:, 0] + bounds[:, 1]) / meta.duration_s)
    length = _znorm((bounds[:, 1] - bounds[:, 0]) / meta.duration_s)

    fused = (weights.quality * quality + weights.describability * desc
             + weights.position * position + weights.length * length)
    order = np.lexsort((bounds[:, 0], -fused))[:weights.top_n]  # stable: index breaks ties
    return [candidates[i] for i in order.tolist()], missing


def rerank_proposals(predictions: Dict[str, List[PredictionEntry]],
                     metas: Dict[str, VideoMeta], weights: Optional[RerankWeights] = None):
    """`proposal_rerank` for every video that has a meta; a video without
    candidates keeps an empty list.

    Returns ({video_id: ranked candidates}, candidates missing a caption
    log-probability, summed over videos).
    """
    out, missing = {}, 0
    for vid in sorted(predictions):
        if vid in metas:
            out[vid], flagged = (proposal_rerank(predictions[vid], metas[vid], weights)
                                 if predictions[vid] else ([], 0))
            missing += flagged
    return out, missing


@dataclass
class CaptionRerankParams:
    alpha: float = 0.5  # unique-word ratio weight
    beta: float = 0.5   # concept-match weight
    top_concepts: int = 20

    def __post_init__(self):
        if not np.isfinite([self.alpha, self.beta]).all():
            raise ValueError("alpha and beta must be finite")
        check_count("top_concepts", self.top_concepts)


def caption_rerank(hypotheses: Sequence[str], concept_probs: np.ndarray,
                   vocabulary: ConceptVocabulary,
                   params: Optional[CaptionRerankParams] = None) -> str:
    """Pick the best caption hypothesis for one proposal.

    score = alpha * (unique tokens / total tokens)
          + beta * (fraction of the caption's vocabulary words that are
                    among the top predicted concepts).
    Ties (including duplicates) resolve to the earliest hypothesis. `params`
    defaults to `CaptionRerankParams()`.
    """
    if not hypotheses:
        raise ValueError("no caption hypotheses")
    params = params if params is not None else CaptionRerankParams()
    top_words = {c for c, _ in top_concepts(concept_probs, vocabulary, params.top_concepts)}

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
            annotation_set: AnnotationSet) -> List[AugmentedPair]:
    """Training pairs from predicted proposals overlapping the groundtruth.

    Each prediction is matched to its best groundtruth interval (the first of
    a tie) and kept only when tIoU is strictly greater than AUGMENT_TIOU; its
    caption is the matched groundtruth sentence.
    """
    m = tiou_matrix(as_bounds(predictions), annotation_set.intervals.bounds)
    return [AugmentedPair(predictions[p], g, v, annotation_set.sentences[g])
            for p, (g, v) in enumerate(zip(m.argmax(axis=1).tolist(), m.max(axis=1).tolist()))
            if v > AUGMENT_TIOU]


def merge_captions(hypothesis_files: Sequence[Dict[str, List[PredictionEntry]]],
                   params: Optional[CaptionRerankParams] = None,
                   model: Optional[LinearConceptModel] = None,
                   grids: Optional[Dict[str, SegmentGrid]] = None
                   ) -> Dict[str, List[PredictionEntry]]:
    """One caption per proposal from several captioners' prediction maps.

    The files that list a video list the same proposals in the same order; a
    count or interval that differs from the first file's is a CorpusFormatError.
    The i-th entries are the i-th proposal's hypotheses; `caption_rerank` picks
    among the sentences, with `model`'s concepts where `grids` has the
    video's features. Proposals without any sentence pass through.
    """
    grids = grids if model is not None and grids else {}
    no_concepts = (np.zeros(1), ConceptVocabulary(["_none"]))
    out = {}
    for vid in sorted(set().union(*hypothesis_files)):
        files = [p[vid] for p in hypothesis_files if vid in p]
        for entries in files:
            if len(entries) != len(files[0]):
                raise CorpusFormatError(f"{vid}: hypothesis files list {len(files[0])} "
                                        f"and {len(entries)} proposals")
        merged = []
        for i, entry in enumerate(files[0]):
            at_i = [entries[i] for entries in files]
            for other in at_i[1:]:
                if other.interval != entry.interval:
                    raise CorpusFormatError(
                        f"{vid}[{i}]: hypothesis files disagree on the interval "
                        f"({entry.interval} vs {other.interval})")
            hyps = [e.sentence for e in at_i if e.sentence is not None]
            if not hyps:
                merged.append(entry)
                continue
            probs, vocab = ((predict_proposal(model, grids[vid], entry.interval),
                             model.vocabulary) if vid in grids else no_concepts)
            merged.append(replace(entry, sentence=caption_rerank(hyps, probs, vocab, params)))
        out[vid] = merged
    return out


def augment_corpus(corpus: Corpus,
                   predictions: Dict[str, List[PredictionEntry]]) -> Dict[str, List[dict]]:
    """`augment` per predicted video against its first annotation set, as
    JSON-ready rows."""
    return {vid: [pair.to_dict() for pair in augment(
                [p.interval for p in predictions[vid]], corpus.videos[vid].annotation_sets[0])]
            for vid in sorted(predictions)}
