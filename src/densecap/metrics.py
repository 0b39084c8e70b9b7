"""Caption accuracy and diversity metrics.

Accuracy: BLEU-4 (smoothed and unsmoothed) and CIDEr-D under the
tIoU-thresholded dense evaluation protocol, where a prediction's references
are the groundtruth sentences whose intervals overlap it at or above the
threshold and unmatched predictions score zero.

Diversity: per-video Self-BLEU and n-gram repetition, with per-set and
combined-set variants (the combined variants pool both annotation sets of a
video before scoring).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import Corpus
from .intervals import check_thresholds, report_dict, video_matches

_STRIP = re.compile(r"^[^a-z0-9]+|[^a-z0-9]+$")

DENSE_EVAL_THRESHOLDS = (0.3, 0.5, 0.7, 0.9)
CIDER_SIGMA = 6.0
MAX_N = 4


def tokenize(sentence: str) -> List[str]:
    """Lowercase, split on whitespace, strip edges outside [a-z0-9]; a token
    that is all ASCII letters and digits has no such edge."""
    tokens = []
    for raw in sentence.lower().split():
        tok = raw if raw.isascii() and raw.isalnum() else _STRIP.sub("", raw)
        if tok:
            tokens.append(tok)
    return tokens


class _Sentence(NamedTuple):
    """A tokenized sentence's length and its n-gram counts for n = 1..MAX_N,
    each a dict in first-occurrence order (CIDEr-D sums in that order)."""

    length: int
    grams: Tuple[Dict[tuple, int], ...]


def _sentence(tokens: Sequence[str]) -> _Sentence:
    """The record of `tokens`: its length and its 1- to `MAX_N`-gram counts."""
    tails = [tokens[k:] for k in range(MAX_N)]
    grams = []
    for n in range(1, MAX_N + 1):
        counts = {}
        for gram in zip(*tails[:n]):
            counts[gram] = counts.get(gram, 0) + 1
        grams.append(counts)
    return _Sentence(len(tokens), tuple(grams))


def _lengths(cand: _Sentence, r: int):
    """Per-n n-gram totals, candidate length and reference length `r`."""
    return [max(cand.length - n, 0) for n in range(MAX_N)], cand.length, r


def _bleu_counts(cand: _Sentence, refs: Sequence[_Sentence]):
    """Per-n clipped and total n-gram counts, candidate and closest reference length."""
    clipped = []
    for n in range(MAX_N):
        ref_max = {}
        for ref in refs:
            for gram, count in ref.grams[n].items():
                if count > ref_max.get(gram, 0):
                    ref_max[gram] = count
        hits = 0
        for gram, count in cand.grams[n].items():
            best = ref_max.get(gram, 0)
            hits += count if count < best else best
        clipped.append(hits)
    c = cand.length  # closest reference length, ties toward the shorter
    return (clipped, *_lengths(cand, min((abs(ref.length - c), ref.length) for ref in refs)[1]))


def _bleu_from_counts(clipped, total, c: int, r: int, smoothing: bool) -> float:
    """BLEU-4 from n-gram counts; a zero precision or no candidate n-gram scores 0."""
    log_p_sum = 0.0
    for n in range(MAX_N):
        m, t = clipped[n], total[n]
        if smoothing and n >= 1:
            m += 1
            t += 1
        if t == 0 or m == 0:
            return 0.0
        log_p_sum += math.log(m / t)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_p_sum / MAX_N)


def bleu4(candidate: Sequence[str], references: Sequence[Sequence[str]],
          smoothing: bool = True) -> float:
    """Sentence BLEU-4 with brevity penalty.

    Smoothing adds one to the clipped-match numerator and the denominator
    for n >= 2. The brevity penalty uses the reference length closest to
    the candidate length (ties toward the shorter reference).
    """
    if not references:
        raise ValueError("references must be non-empty")
    counts = _bleu_counts(_sentence(list(candidate)), [_sentence(r) for r in references])
    return _bleu_from_counts(*counts, smoothing)


_NO_COUNTS = ((0,) * MAX_N, (0,) * MAX_N, 0, 0)  # `_bleu_counts` summed over no pairs


def _add_counts(a, b):
    """Two `_bleu_counts` results summed term by term (ints, so exactly)."""
    return ([x + y for x, y in zip(a[0], b[0])], [x + y for x, y in zip(a[1], b[1])],
            a[2] + b[2], a[3] + b[3])


# ---------------------------------------------------------------------------
# CIDEr-D

def _idf(df: Dict, n_docs: int):
    """({gram: log(documents) - log(max(document frequency, 1))}, log(documents)),
    the second being the idf of a gram the table lacks."""
    log_n = math.log(max(n_docs, 1))
    return {gram: log_n - math.log(max(d, 1.0)) for gram, d in df.items()}, log_n


def _cider_vector(sent: _Sentence, idf: Dict, log_n: float):
    """Per-n TF-IDF vectors, their norms, and the token length."""
    vecs = [{gram: count * idf.get(gram, log_n) for gram, count in grams.items()}
            for grams in sent.grams]
    return vecs, [math.sqrt(sum(v * v for v in vec.values())) for vec in vecs], sent.length


def build_document_frequency(reference_docs):
    """Document frequencies over a reference corpus, any iterable of documents.

    One document is one event's reference sentence set, as token lists; an
    n-gram of order 1..MAX_N counts once per document it appears in. Returns
    (df, number of documents).
    """
    df, n_docs = {}, 0
    for n_docs, doc in enumerate(reference_docs, 1):
        seen = set()
        for tokens in doc:
            tails = [tokens[k:] for k in range(MAX_N)]
            for n in range(1, MAX_N + 1):
                seen.update(zip(*tails[:n]))
        for gram in seen:
            df[gram] = df.get(gram, 0.0) + 1.0
    return df, n_docs


def _cider(cand_vec, ref_vecs) -> float:
    """CIDEr-D of one candidate vector against a non-empty list of reference vectors."""
    cand_vecs, cand_norms, cand_len = cand_vec
    scores = [0.0] * MAX_N
    for ref_vecs_n, ref_norms, ref_len in ref_vecs:
        penalty = math.exp(-((cand_len - ref_len) ** 2) / (2.0 * CIDER_SIGMA ** 2))
        for n in range(MAX_N):
            num = 0.0
            for gram, cv in cand_vecs[n].items():
                rv = ref_vecs_n[n].get(gram, 0.0)
                num += min(cv, rv) * rv
            if cand_norms[n] > 0 and ref_norms[n] > 0:
                num /= cand_norms[n] * ref_norms[n]
            scores[n] += num * penalty
    return 10.0 * _mean([score / len(ref_vecs) for score in scores])


def cider_d_pair(candidate: Sequence[str], references: Sequence[Sequence[str]],
                 df: Dict, n_docs: int) -> float:
    """CIDEr-D of one candidate against one event's reference set."""
    if not references:
        raise ValueError("references must be non-empty")
    idf, log_n = _idf(df, n_docs)
    return _cider(_cider_vector(_sentence(candidate), idf, log_n),
                  [_cider_vector(_sentence(ref), idf, log_n) for ref in references])


# ---------------------------------------------------------------------------
# Dense evaluation protocol

@dataclass
class DenseEvalReport:
    thresholds: List[float]
    bleu4_smoothed: Dict[float, float]
    bleu4_unsmoothed: Dict[float, float]
    bleu4_corpus: Dict[float, float]
    cider: Dict[float, float]
    matched: Dict[float, int]
    unmatched: Dict[float, int]
    zero_prediction_videos: int = 0  # with groundtruth but no predictions; left out

    @property
    def avg_bleu4_smoothed(self) -> float:
        return _mean([self.bleu4_smoothed[t] for t in self.thresholds])

    @property
    def avg_bleu4_unsmoothed(self) -> float:
        return _mean([self.bleu4_unsmoothed[t] for t in self.thresholds])

    @property
    def avg_cider(self) -> float:
        return _mean([self.cider[t] for t in self.thresholds])

    def to_dict(self) -> dict:
        return {**report_dict(self), "avg_bleu4_smoothed": self.avg_bleu4_smoothed,
                "avg_bleu4_unsmoothed": self.avg_bleu4_unsmoothed, "avg_cider": self.avg_cider}


def dense_eval(corpus: Corpus,
               thresholds: Sequence[float] = DENSE_EVAL_THRESHOLDS) -> DenseEvalReport:
    """tIoU-thresholded caption evaluation.

    Per threshold: each prediction is scored against the groundtruth
    sentences (across all annotation sets) whose intervals reach the
    threshold; unmatched predictions score zero. Scores average over a video's
    predictions, then over the videos with both (`zero_prediction_videos`
    counts those with groundtruth alone)."""
    thresholds = check_thresholds(thresholds)
    # document frequencies over all groundtruth events, one doc per event; a
    # video's records are built only when it is scored, and dropped after
    idf, log_n = _idf(*build_document_frequency(
        [tokenize(s)] for record in corpus.videos.values()
        for ann in record.annotation_sets for s in ann.sentences))

    # (3, T) means of each scored video: smoothed, unsmoothed BLEU-4 and CIDEr-D
    per_video = np.empty((3, len(thresholds), len(corpus.videos)))
    pooled = [_NO_COUNTS] * len(thresholds)  # BLEU counts summed over the predictions matched at t
    matched = [0] * len(thresholds)
    scored_videos = n_preds = zero_pred = 0
    for vid in sorted(corpus.videos):
        record = corpus.videos[vid]
        preds = record.predictions
        sents = [s for ann in record.annotation_sets for s in ann.sentences]
        if not preds:
            zero_pred += bool(sents)
            continue
        if any(pred.sentence is None for pred in preds):
            raise ValueError(f"{vid}: prediction without sentence")
        if not sents:
            continue
        gt = [_sentence(tokenize(sent)) for sent in sents]
        n_preds += len(preds)
        hits = video_matches(record, thresholds)
        # only matched predictions are scored; the idf comes from groundtruth alone
        scores = np.zeros((3, len(thresholds), len(preds)))
        gt_vecs = [None] * len(gt)  # built when a matched prediction first refers to one
        for p in np.flatnonzero(hits.any(axis=(1, 2))).tolist():
            cand = _sentence(tokenize(preds[p].sentence))
            cand_vec = _cider_vector(cand, idf, log_n)
            scored = {}  # a prediction's reference sets repeat across thresholds
            for t, row in enumerate(hits[p].T.tolist()):
                refs = tuple(j for j, hit in enumerate(row) if hit)
                if not refs:
                    continue
                if refs not in scored:
                    for j in refs:
                        if gt_vecs[j] is None:
                            gt_vecs[j] = _cider_vector(gt[j], idf, log_n)
                    counts = _bleu_counts(cand, [gt[j] for j in refs])
                    scored[refs] = counts, (_bleu_from_counts(*counts, smoothing=True),
                                            _bleu_from_counts(*counts, smoothing=False),
                                            _cider(cand_vec, [gt_vecs[j] for j in refs]))
                counts, scores[:, t, p] = scored[refs]
                pooled[t] = _add_counts(pooled[t], counts)
                matched[t] += 1
        per_video[..., scored_videos] = scores.mean(axis=2)
        scored_videos += 1

    means = (per_video[..., :scored_videos].mean(axis=-1) if scored_videos
             else np.zeros((3, len(thresholds)))).tolist()
    return DenseEvalReport(
        thresholds=thresholds,
        bleu4_smoothed=dict(zip(thresholds, means[0])),
        bleu4_unsmoothed=dict(zip(thresholds, means[1])),
        bleu4_corpus={t: _bleu_from_counts(*c, False) for t, c in zip(thresholds, pooled)},
        cider=dict(zip(thresholds, means[2])),
        matched=dict(zip(thresholds, matched)),
        unmatched={t: n_preds - m for t, m in zip(thresholds, matched)},
        zero_prediction_videos=zero_pred,
    )


# ---------------------------------------------------------------------------
# Diversity metrics

@dataclass
class DiversityReport:
    self_bleu: float
    repetition: float
    self_bleu_combined: float
    repetition_combined: float
    per_video: Dict[str, dict] = field(default_factory=dict)
    excluded_self_bleu_videos: int = 0  # (video, caption set) pairs with < 2 captions

    def to_dict(self) -> dict:
        return {
            "SelfB": self.self_bleu,
            "RE": self.repetition,
            "SelfB2": self.self_bleu_combined,
            "RE2": self.repetition_combined,
            "excluded_self_bleu_videos": self.excluded_self_bleu_videos,
            "per_video": self.per_video,
        }


def _video_self_bleu(sents: Sequence[_Sentence]) -> Optional[float]:
    """Mean smoothed BLEU-4 of each caption against the rest, times 100.

    One table per n maps each gram to [top count, its owner, runner-up count]
    (a tie makes the runner-up equal the top). Caption i's reference maximum
    is the runner-up where i owns the top, and the top elsewhere."""
    if len(sents) < 2:
        return None
    clipped = [[] for _ in sents]
    for n in range(MAX_N):
        table = {}
        for i, sent in enumerate(sents):
            for gram, count in sent.grams[n].items():
                entry = table.get(gram)
                if entry is None:
                    table[gram] = [count, i, 0]
                elif count > entry[0]:
                    entry[:] = count, i, entry[0]
                elif count > entry[2]:
                    entry[2] = count
        for i, sent in enumerate(sents):
            hits = 0
            for gram, count in sent.grams[n].items():
                top, owner, second = table[gram]
                best = second if owner == i else top
                hits += count if count < best else best
            clipped[i].append(hits)
    order = sorted(sent.length for sent in sents)
    scores = []
    for i, sent in enumerate(sents):
        # closest other length, ties toward the shorter: a neighbour of this
        # caption's slot in `order` (a repeated length is its own neighbour)
        c, k = sent.length, bisect_left(order, sent.length)
        below = order[k - 1] if k else None
        above = order[k + 1] if k + 1 < len(order) else None
        r = above if below is None or (above is not None and above - c < c - below) else below
        scores.append(_bleu_from_counts(clipped[i], *_lengths(sent, r), smoothing=True))
    return 100.0 * _mean(scores)


def _video_repetition(sents: Sequence[_Sentence]) -> Optional[float]:
    """Repeated-occurrence fraction of the video's pooled 4-grams, times 100."""
    counts = Counter()
    for sent in sents:
        counts.update(sent.grams[MAX_N - 1])
    total = sum(counts.values())
    if total == 0:
        return None
    repeats = sum(c - 1 for c in counts.values() if c > 1)
    return 100.0 * repeats / total


def _mean(values) -> float:
    """`float(np.mean(values))` without its wrapper: the same pairwise sum and division."""
    return float(np.add.reduce(np.asarray(values, dtype=float)) / len(values)) if values else 0.0


def _corpus_values(rows):
    """(per-set, combined) corpus value of one metric's per-video rows.

    Per set index: the mean over the videos with a value, then the mean over
    the set indices that have one. Combined: the mean over videos."""
    rows = list(rows)
    keys = [f"set{s}" for s in range(max(map(len, rows), default=1) - 1)]
    per_set = [[row[key] for row in rows if row.get(key) is not None] for key in keys]
    return (_mean([_mean(values) for values in per_set if values]),
            _mean([row["combined"] for row in rows if row["combined"] is not None]))


def self_bleu(captions_by_set_by_video) -> float:
    """Corpus Self-BLEU in [0, 100]; lower means more diverse captions."""
    return diversity_report(captions_by_set_by_video).self_bleu


def repetition(captions_by_set_by_video) -> float:
    """Corpus 4-gram repetition score in [0, 100]."""
    return diversity_report(captions_by_set_by_video).repetition


def captions_by_set(prediction_sets: Sequence[dict]) -> Dict[str, List[List[str]]]:
    """`diversity_report` input from prediction maps: every video gets one
    caption set per map, empty where the map lacks the video; entries without
    a sentence are left out."""
    by_video: Dict[str, List[List[str]]] = {}
    for i, preds in enumerate(prediction_sets):
        for vid, entries in preds.items():
            by_video.setdefault(vid, [[] for _ in prediction_sets])[i] = [
                e.sentence for e in entries if e.sentence is not None]
    return by_video


def diversity_report(captions_by_set_by_video) -> DiversityReport:
    """SelfB/RE per annotation set and with a video's sets pooled, from one
    per-video table of both metrics. Captions are strings or token lists."""
    scorers = (("self_bleu", _video_self_bleu), ("repetition", _video_repetition))
    per_video = {}
    for vid, sets in sorted(captions_by_set_by_video.items()):
        sets = [[_sentence(tokenize(c) if isinstance(c, str) else list(c))
                 for c in one_set] for one_set in sets]
        pooled = [sent for one_set in sets for sent in one_set]
        per_video[vid] = {
            name: {**{f"set{s}": metric(one_set) for s, one_set in enumerate(sets)},
                   "combined": metric(pooled)}
            for name, metric in scorers}
    sb, sb2 = _corpus_values(row["self_bleu"] for row in per_video.values())
    re_, re2 = _corpus_values(row["repetition"] for row in per_video.values())
    excluded = sum(v is None for row in per_video.values()
                   for v in list(row["self_bleu"].values())[:-1])
    return DiversityReport(sb, re_, sb2, re2, per_video, excluded)
