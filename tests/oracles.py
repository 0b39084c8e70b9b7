"""Independent brute-force oracles used to cross-check the library.

Everything here is written from first principles with plain loops and
dicts, deliberately not sharing code paths with the package. The exceptions
are the exactness references for the n-gram statistics and the proposal
re-ranking, which reuse the package's record type and float helpers so that
results compare with ==.
"""

import math
import re
from collections import Counter

import numpy as np

from densecap.metrics import DenseEvalReport, _bleu_from_counts, _cider, _Sentence, tokenize
from densecap.rerank import _znorm


# ---------------------------------------------------------------------------
# interval matching

def oracle_overlap(a, b):
    lo = a[0] if a[0] > b[0] else b[0]
    hi = a[1] if a[1] < b[1] else b[1]
    return hi - lo if hi > lo else 0.0


def oracle_tiou(a, b):
    inter = oracle_overlap(a, b)
    if inter == 0.0:
        return 0.0
    span = max(a[1], b[1]) - min(a[0], b[0])
    return inter / span


def oracle_pr_counts(preds, gts, threshold):
    """O(n*m) hit counts: (predictions matched, groundtruths matched)."""
    pred_hits = 0
    for p in preds:
        if any(oracle_tiou(p, g) >= threshold for g in gts):
            pred_hits += 1
    gt_hits = 0
    for g in gts:
        if any(oracle_tiou(g, p) >= threshold for p in preds):
            gt_hits += 1
    return pred_hits, gt_hits


def oracle_best_match(pred, gts):
    best_idx = None
    best_val = -1.0
    for idx, g in enumerate(gts):
        val = oracle_tiou(pred, g)
        if val > best_val:
            best_idx, best_val = idx, val
    return best_idx, best_val


def oracle_dedup(spans, tol):
    """Greedy dedup of (start, end) pairs, in order.

    A span is dropped when both its ends lie within `tol` of a span kept
    earlier; spans compared only to dropped ones survive.
    """
    kept = []
    for s in spans:
        if not any(abs(s[0] - o[0]) <= tol and abs(s[1] - o[1]) <= tol for o in kept):
            kept.append(s)
    return kept


# ---------------------------------------------------------------------------
# fused selection (step-by-step re-simulation of the selection algorithm)

def oracle_heuristic_distribution(prefix, candidates, attractors, cover_tiou,
                                  eos_weight_open):
    """The attractor-driven sequential distribution, one pair at a time.

    An attractor is covered once a prefix member reaches `cover_tiou` with
    it. Each remaining candidate weighs its best tIoU to an uncovered
    attractor; EOS weighs `eos_weight_open` while any attractor is open and
    1 otherwise. Returns ({candidate index: prob}, eos prob).
    """
    uncovered = []
    for a in attractors:
        if not any(oracle_tiou(candidates[p], a) >= cover_tiou for p in prefix):
            uncovered.append(a)
    weights = {}
    for i in range(len(candidates)):
        if i in prefix:
            continue
        best = 0.0
        for a in uncovered:
            v = oracle_tiou(candidates[i], a)
            if v > best:
                best = v
        weights[i] = best
    eos = eos_weight_open if uncovered else 1.0
    total = sum(weights.values()) + eos
    return {i: w / total for i, w in weights.items()}, eos / total


def resimulate_selection(f_s_values, f_e_step_tables, k=1, max_steps=20):
    """Replay the fused selection loop on explicit score tables.

    `f_s_values[i]` is the pointwise score of candidate i;
    `f_e_step_tables[t]` maps candidate index -> raw sequential weight at
    step t plus an "eos" key. Weights are normalized over the candidates
    still available plus EOS. Returns the list of selected indices.
    """
    m = len(f_s_values)
    chosen_prefix = []
    output = []
    step = 0
    while step < max_steps:
        available = [i for i in range(m) if i not in chosen_prefix]
        if not available:
            break
        table = f_e_step_tables[step] if step < len(f_e_step_tables) else {"eos": 1.0}
        raw = {i: table.get(i, 0.0) for i in available}
        raw_eos = table.get("eos", 0.0)
        z = sum(raw.values()) + raw_eos
        probs = {i: w / z for i, w in raw.items()}
        eos = raw_eos / z
        # stopping rule on the raw sequential distribution; candidate wins ties
        top = None
        for i in available:
            if top is None or probs[i] > probs[top]:
                top = i
        if eos > probs[top]:
            break
        fused = {i: f_s_values[i] * probs[i] for i in available}
        ordered = sorted(available, key=lambda i: (-fused[i], i))
        chosen_prefix.append(ordered[0])
        for i in ordered[:k]:
            if i not in output:
                output.append(i)
        step += 1
    return output


# ---------------------------------------------------------------------------
# proposal re-ranking

def oracle_proposal_rerank(candidates, meta, weights):
    """The four-factor re-ranking with per-candidate factor lists and one
    Python sort on (-fused, start, index). Returns (ranked, missing)."""
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
    position = _znorm(np.array([0.5 * (c.interval.start_s + c.interval.end_s) / meta.duration_s
                                for c in candidates]))
    length = _znorm(np.array([c.interval.length_s / meta.duration_s for c in candidates]))
    fused = (weights.quality * quality + weights.describability * desc
             + weights.position * position + weights.length * length)
    order = sorted(range(len(candidates)),
                   key=lambda i: (-fused[i], candidates[i].interval.start_s, i))
    return [candidates[i] for i in order[:weights.top_n]], int((~have_desc).sum())


# ---------------------------------------------------------------------------
# n-gram metrics

def _gram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i:i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def oracle_bleu4(candidate, references, smoothed):
    if len(candidate) == 0:
        return 0.0
    precisions = []
    for n in (1, 2, 3, 4):
        cand = _gram_counts(candidate, n)
        ref_tables = [_gram_counts(r, n) for r in references]
        hits = 0
        for g, c in cand.items():
            best = 0
            for table in ref_tables:
                if table.get(g, 0) > best:
                    best = table[g]
            hits += c if c < best else best
        denom = sum(cand.values())
        if smoothed and n >= 2:
            hits += 1
            denom += 1
        if denom == 0 or hits == 0:
            return 0.0
        precisions.append(hits / denom)
    geo = 1.0
    for p in precisions:
        geo *= p
    geo = geo ** 0.25
    c_len = len(candidate)
    # closest reference length, ties toward the shorter one
    r_len = sorted((abs(len(r) - c_len), len(r)) for r in references)[0][1]
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
    return bp * geo


def oracle_corpus_bleu4(pairs):
    """Unsmoothed BLEU-4 with counts pooled over (candidate, references) pairs.

    Pairs without references are skipped; an empty candidate adds its
    shortest reference length to the reference total.
    """
    clipped = [0, 0, 0, 0]
    total = [0, 0, 0, 0]
    c_len = 0
    r_len = 0
    for candidate, references in pairs:
        if not references:
            continue
        c_len += len(candidate)
        if candidate:
            r_len += sorted((abs(len(r) - len(candidate)), len(r)) for r in references)[0][1]
        else:
            r_len += min(len(r) for r in references)
        for n in (1, 2, 3, 4):
            cand = _gram_counts(candidate, n)
            ref_tables = [_gram_counts(r, n) for r in references]
            total[n - 1] += sum(cand.values())
            for g, c in cand.items():
                best = max(table.get(g, 0) for table in ref_tables)
                clipped[n - 1] += c if c < best else best
    if any(t == 0 for t in total) or any(m == 0 for m in clipped):
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(clipped, total)) / 4
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_p)


def oracle_document_frequency(gram, all_documents):
    """Number of documents (lists of token lists) with a sentence holding `gram`."""
    df = 0
    for doc in all_documents:
        present = False
        for ref in doc:
            if gram in _gram_counts(ref, len(gram)):
                present = True
                break
        if present:
            df += 1
    return df


def oracle_cider_d(candidate, references, all_documents, sigma=6.0):
    """Step-by-step CIDEr-D for one candidate against one reference set.

    `all_documents` is the list of every event's reference sentence list
    (tokenized); it defines the document frequencies.
    """
    n_docs = len(all_documents)

    def tfidf_vector(tokens, n):
        vec = {}
        for gram, count in _gram_counts(tokens, n).items():
            idf = (math.log(max(n_docs, 1))
                   - math.log(max(oracle_document_frequency(gram, all_documents), 1.0)))
            vec[gram] = count * idf
        return vec

    total = 0.0
    for n in (1, 2, 3, 4):
        cand_vec = tfidf_vector(candidate, n)
        cand_norm = math.sqrt(sum(v * v for v in cand_vec.values()))
        acc = 0.0
        for ref in references:
            ref_vec = tfidf_vector(ref, n)
            ref_norm = math.sqrt(sum(v * v for v in ref_vec.values()))
            dot = 0.0
            for gram, cv in cand_vec.items():
                rv = ref_vec.get(gram, 0.0)
                dot += (cv if cv < rv else rv) * rv
            if cand_norm > 0 and ref_norm > 0:
                dot /= cand_norm * ref_norm
            delta = len(candidate) - len(ref)
            dot *= math.exp(-(delta * delta) / (2.0 * sigma * sigma))
            acc += dot
        total += acc / len(references)
    return 10.0 * total / 4.0


def oracle_self_bleu_video(captions):
    """Mean smoothed BLEU-4 of each caption vs the rest, x100; None if <2."""
    if len(captions) < 2:
        return None
    vals = []
    for i in range(len(captions)):
        rest = captions[:i] + captions[i + 1:]
        vals.append(oracle_bleu4(captions[i], rest, smoothed=True))
    return 100.0 * sum(vals) / len(vals)


def oracle_repetition_video(captions, n=4):
    """Repeated n-gram occurrence fraction of the pooled captions, x100."""
    counts = {}
    for cap in captions:
        for i in range(len(cap) - n + 1):
            g = tuple(cap[i:i + n])
            counts[g] = counts.get(g, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return None
    repeats = sum(c - 1 for c in counts.values() if c > 1)
    return 100.0 * repeats / total


def oracle_diversity_report(captions_by_set_by_video, n=4):
    """`DiversityReport.to_dict()` of token-list captions, two passes per metric:
    each set index over the videos that have it, then each video with its
    sets pooled."""
    per_video = {vid: {"self_bleu": {}, "repetition": {}}
                 for vid in sorted(captions_by_set_by_video)}
    report, excluded = {}, 0
    for kind, key, metric in (("self_bleu", "SelfB", oracle_self_bleu_video),
                              ("repetition", "RE",
                               lambda caps: oracle_repetition_video(caps, n))):
        n_sets = max((len(sets) for sets in captions_by_set_by_video.values()), default=0)
        set_means = []
        for s in range(n_sets):
            values = []
            for vid, sets in sorted(captions_by_set_by_video.items()):
                if s < len(sets):
                    v = per_video[vid][kind][f"set{s}"] = metric(sets[s])
                    if v is not None:
                        values.append(v)
                    elif kind == "self_bleu":
                        excluded += 1
            if values:
                set_means.append(sum(values) / len(values))
        pooled = []
        for vid, sets in sorted(captions_by_set_by_video.items()):
            v = per_video[vid][kind]["combined"] = metric([c for one in sets for c in one])
            if v is not None:
                pooled.append(v)
        report[key] = sum(set_means) / len(set_means) if set_means else 0.0
        report[key + "2"] = sum(pooled) / len(pooled) if pooled else 0.0
    return {**{key: report[key] for key in ("SelfB", "RE", "SelfB2", "RE2")},
            "excluded_self_bleu_videos": excluded, "per_video": per_video}


# ---------------------------------------------------------------------------
# exactness references for the per-caption kernels: the regex on every token,
# `Counter` records and `np.mean`

def oracle_tokenize(sentence):
    """Lowercase, split on whitespace, strip edges outside [a-z0-9] with a regex."""
    tokens = [re.sub(r"^[^a-z0-9]+|[^a-z0-9]+$", "", raw) for raw in sentence.lower().split()]
    return [tok for tok in tokens if tok]


def oracle_counter_grams(tokens, top_n=4):
    """`_sentence(tokens, top_n).grams` as one `Counter(zip(...))` per order."""
    top_n = max(4, min(top_n, len(tokens)))
    return tuple(Counter(zip(*(tokens[k:] for k in range(n)))) for n in range(1, top_n + 1))


def oracle_mean(values):
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# exactness references for the shared n-gram statistics: the per-caption
# union SelfB and the per-threshold dense evaluation loop, which score every
# (caption, reference set) pair afresh

def _union_record(tokens):
    return _Sentence(len(tokens), tuple(Counter(_gram_counts(tokens, n)) for n in (1, 2, 3, 4)))


def oracle_union_bleu_counts(cand, refs):
    """`_bleu_counts` with the reference maximum built by `Counter |=` per call."""
    clipped, total = [], []
    for n in range(4):
        ref_max = Counter()
        for ref in refs:
            ref_max |= ref.grams[n]
        clipped.append(sum(min(count, ref_max[gram]) for gram, count in cand.grams[n].items()))
        total.append(sum(cand.grams[n].values()))
    r = min((ref.length for ref in refs), key=lambda L: (abs(L - cand.length), L))
    return clipped, total, cand.length, r


def oracle_union_self_bleu_video(captions):
    """Self-BLEU of one caption list, each caption against a fresh union of the rest."""
    if len(captions) < 2:
        return None
    sents = [_union_record(cap) for cap in captions]
    scores = [_bleu_from_counts(*oracle_union_bleu_counts(cand, sents[:i] + sents[i + 1:]),
                                smoothing=True)
              for i, cand in enumerate(sents)]
    return 100.0 * float(np.mean(scores))


def oracle_cider_vector(sent, df, log_n):
    """Per-n TF-IDF vectors with each idf computed in place, their norms, the length."""
    vecs = []
    for grams in sent.grams:
        vecs.append({gram: count * (log_n - math.log(max(df.get(gram, 0.0), 1.0)))
                     for gram, count in grams.items()})
    return vecs, [math.sqrt(sum(v * v for v in vec.values())) for vec in vecs], sent.length


def oracle_pooled_bleu(counts):
    """Unsmoothed BLEU-4 of bleu-count tuples, each term summed over the list."""
    clipped = [sum(m[n] for m, _, _, _ in counts) for n in range(4)]
    total = [sum(t[n] for _, t, _, _ in counts) for n in range(4)]
    return _bleu_from_counts(clipped, total, sum(c for _, _, c, _ in counts),
                             sum(r for _, _, _, r in counts), smoothing=False)


def oracle_dense_eval_loop(corpus, thresholds):
    """`dense_eval(corpus, thresholds).to_dict()`, every matched (prediction,
    threshold) pair scored on its own."""
    gt = {vid: [(iv, _union_record(tokenize(s))) for ann in rec.annotation_sets
                for iv, s in zip(ann.intervals, ann.sentences)]
          for vid, rec in sorted(corpus.videos.items())}
    # one document per groundtruth event; each gram's count by brute force
    docs = [[tokenize(s)] for rec in corpus.videos.values()
            for ann in rec.annotation_sets for s in ann.sentences]
    grams = {gram for doc in docs for n in (1, 2, 3, 4) for gram in _gram_counts(doc[0], n)}
    df = {gram: oracle_document_frequency(gram, docs) for gram in grams}
    log_n = math.log(max(len(docs), 1))
    per_video = {key: {t: [] for t in thresholds} for key in ("bs", "bu", "cid")}
    counts_at = {t: [] for t in thresholds}
    matched = {t: 0 for t in thresholds}
    zero_prediction_videos = 0
    for vid, events in gt.items():
        preds = corpus.videos[vid].predictions
        if not preds:
            zero_prediction_videos += len(events) > 0
            continue
        for t in thresholds:
            rows = []
            for pred in preds:
                cand = _union_record(tokenize(pred.sentence))
                refs = [s for iv, s in events
                        if oracle_tiou((pred.interval.start_s, pred.interval.end_s),
                                       (iv.start_s, iv.end_s)) >= t]
                if not refs:
                    rows.append((0.0, 0.0, 0.0))
                    continue
                matched[t] += 1
                counts = oracle_union_bleu_counts(cand, refs)
                counts_at[t].append(counts)
                rows.append((_bleu_from_counts(*counts, smoothing=True),
                             _bleu_from_counts(*counts, smoothing=False),
                             _cider(oracle_cider_vector(cand, df, log_n),
                                    [oracle_cider_vector(s, df, log_n) for s in refs])))
            for key, column in zip(("bs", "bu", "cid"), zip(*rows)):
                per_video[key][t].append(float(np.mean(column)))
    n_preds = sum(len(corpus.videos[vid].predictions) for vid in gt)

    def avg(key):
        return {t: float(np.mean(v)) if v else 0.0 for t, v in per_video[key].items()}

    return DenseEvalReport(
        thresholds=list(thresholds), bleu4_smoothed=avg("bs"), bleu4_unsmoothed=avg("bu"),
        bleu4_corpus={t: oracle_pooled_bleu(counts_at[t]) for t in thresholds}, cider=avg("cid"),
        matched=matched, unmatched={t: n_preds - matched[t] for t in thresholds},
        zero_prediction_videos=zero_prediction_videos).to_dict()


# ---------------------------------------------------------------------------
# MIML concept training (the per-bag loop the vectorized trainer replaced)

LOGIT_CLAMP = 30.0
PROB_CLAMP = 1e-7


def oracle_bce_loss(probs, labels):
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_CLAMP, 1 - PROB_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def oracle_objective_and_gradient(W, b, feature_bags, labels):
    """Batch BCE objective and its (sub)gradient, one bag at a time."""
    W = np.asarray(W, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n, c = len(feature_bags), W.shape[0]
    dW = np.zeros_like(W)
    db = np.zeros_like(b)
    total = 0.0
    for bag, y in zip(feature_bags, labels):
        logits = bag @ W.T + b  # (K, C)
        clamped = np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)
        probs = 1.0 / (1.0 + np.exp(-clamped))
        k_star = np.argmax(clamped, axis=0)  # first argmax per concept
        pooled = probs[k_star, np.arange(c)]
        total += oracle_bce_loss(pooled, y)
        # d(BCE)/d(logit) at the pooled probability; clamps and the BCE
        # probability clip kill the gradient outside their linear region
        p_clip = np.clip(pooled, PROB_CLAMP, 1 - PROB_CLAMP)
        active = ((pooled == p_clip)
                  & (np.abs(logits[k_star, np.arange(c)]) < LOGIT_CLAMP))
        g = (pooled - y) / (c * n) * active
        dW += g[:, None] * bag[k_star]  # (C, D)
        db += g
    return total / n, dW, db


def oracle_train(bags, labels, learning_rate, epochs, batch_size, seed,
                 weight_init_scale):
    """Mini-batch gradient descent over (K, D) bags with the per-bag objective.

    Returns (W, b, per-epoch full-dataset loss trace).
    """
    c, d = labels.shape[1], bags[0].shape[1]
    rng = np.random.default_rng(seed)
    W = rng.normal(scale=weight_init_scale, size=(c, d))
    b = np.zeros(c)
    trace = []
    order = np.arange(len(bags))
    for _ in range(epochs):
        rng.shuffle(order)
        for lo in range(0, len(order), batch_size):
            idx = order[lo:lo + batch_size]
            _, dW, db = oracle_objective_and_gradient(W, b, [bags[i] for i in idx],
                                                      labels[idx])
            W -= learning_rate * dW
            b -= learning_rate * db
        loss, _, _ = oracle_objective_and_gradient(W, b, bags, labels)
        trace.append(loss)
    return W, b, trace
