"""The benchmark's three workloads: set-up, one pass, and output checks.

Each workload is a closed loop driven by one caller: every library call is
issued after the previous one returns. Set-up generates the inputs with
``densecap.synthetic`` and writes them to files; a pass reads them back,
runs the pipeline and writes its outputs; ``check`` then compares the
outputs against the brute-force oracles in ``tests/oracles.py``, report
invariants and, for the default seed and sizes, recorded reference values.
A failed check marks the operation that produced the output as failed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from densecap import (concepts, contexts, core, fusion, intervals, metrics,
                      rerank, synthetic)
import oracles

from spans import LayerError

THRESHOLDS = (0.3, 0.5, 0.7, 0.9)
SAMPLE_VIDEOS = 16     # videos per pass compared against the oracles
DENSE_SAMPLE = 3       # videos re-evaluated by the dense-eval oracle (slow)
POOL_CAP = 80
N_CONCEPTS = 20
DIM = 128
RERANK_PARAMS = rerank.CaptionRerankParams(top_concepts=5)
REFERENCE_SEED = 7
REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: Input sizes per workload. Reference values hold for these sizes only.
SIZES = {
    "propose": {"videos": 1000},
    "evaluate": {"videos": 500},
    "concepts": {"videos": 1000, "bags": 2000, "epochs": 10},
}


# ---------------------------------------------------------------------------
# Pass bookkeeping


@dataclass
class PassResult:
    """Timings, outputs and failed operations of one pass."""

    seconds: float = 0.0
    attempted: int = 0
    video_seconds: dict = field(default_factory=dict)  # video id -> seconds
    failures: dict = field(default_factory=dict)  # op -> {layer: message}
    outputs: dict = field(default_factory=dict)
    videos: dict = field(default_factory=dict)    # video id -> loop output
    counts: dict = field(default_factory=dict)    # per-layer work counts
    summary: dict = field(default_factory=dict)   # field -> (op, layer, value)

    def fail(self, op, layer, message):
        self.failures.setdefault(op, {}).setdefault(layer, str(message))

    def expect(self, ok, op, layer, message):
        if not ok:
            self.fail(op, layer, message)
        return ok


class PassAborted(Exception):
    """A corpus-level call failed, so the steps after it cannot run."""


def corpus_op(res, t, name, fn, *args, op=None, **kwargs):
    res.attempted += 1
    try:
        return t.call(name, fn, *args, **kwargs)
    except LayerError as exc:
        res.fail(op or name, exc.layer, repr(exc.__cause__))
        raise PassAborted from exc


def video_loop(res, t, video_ids, body):
    """One operation per video; its latency excludes the checks."""
    for vid in video_ids:
        res.attempted += 1
        start = perf_counter()
        try:
            with t.span("bench.video", vid):
                out = body(vid)
        except LayerError as exc:
            res.fail(vid, exc.layer, repr(exc.__cause__))
            continue
        res.video_seconds[vid] = perf_counter() - start
        res.videos[vid] = out


def timed_pass(t, body) -> PassResult:
    res = PassResult()
    start = perf_counter()
    try:
        with t.span("bench.pass"):
            body(res)
    except PassAborted:
        pass
    res.seconds = perf_counter() - start
    return res


def close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_reference(res, name, seed, sizes):
    """Compare the pass summary with the recorded default-seed values."""
    if seed != REFERENCE_SEED or sizes != SIZES[name]:
        return
    reference = json.loads(REFERENCE_FILE.read_text())[name]
    for key, (op, layer, value) in res.summary.items():
        res.expect(key in reference and close(value, reference[key]), op, layer,
                   f"{key} = {value!r}, reference {reference.get(key)!r}")


def sample_ids(video_ids, seed, k=SAMPLE_VIDEOS):
    rng = np.random.default_rng([seed, 2])
    k = min(k, len(video_ids))
    return sorted(rng.choice(sorted(video_ids), size=k, replace=False).tolist())


def _trim(corpus, limit):
    if limit is not None:
        corpus.videos = {v: corpus.videos[v] for v in corpus.video_ids()[:limit]}


def _pair(interval):
    return (interval.start_s, interval.end_s)


_EDGE = re.compile(r"^[^a-z0-9]+|[^a-z0-9]+$")


def oracle_tokens(sentence):
    """Tokenizer for the oracles: lowercase, split, strip punctuation edges."""
    return [w for w in (_EDGE.sub("", raw) for raw in sentence.lower().split()) if w]


def oracle_pr_table(corpus, thresholds):
    """Per-video precision/recall from ``oracle_pr_counts``, averaged."""
    prec = {t: 0.0 for t in thresholds}
    rec = {t: 0.0 for t in thresholds}
    n = 0
    for vid in sorted(corpus.videos):
        record = corpus.videos[vid]
        gts = [_pair(iv) for ann in record.annotation_sets for iv in ann.intervals]
        preds = [_pair(p.interval) for p in record.predictions]
        n += 1
        if not preds:
            continue
        for t in thresholds:
            p_hits, g_hits = oracles.oracle_pr_counts(preds, gts, t)
            prec[t] += p_hits / len(preds)
            rec[t] += g_hits / len(gts)
    return {t: prec[t] / n for t in thresholds}, {t: rec[t] / n for t in thresholds}


def check_pr(res, corpus, table, op="intervals.precision_recall"):
    """PR table vs the oracle, plus range invariants."""
    prec, rec = oracle_pr_table(corpus, THRESHOLDS)
    for t in THRESHOLDS:
        for kind, got, want in (("precision", table.precision, prec),
                                ("recall", table.recall, rec)):
            res.expect(0.0 <= got[t] <= 1.0 and close(got[t], want[t]), op,
                       "intervals", f"{kind}@{t} = {got[t]!r}, oracle {want[t]!r}")
            res.summary[f"{kind}@{t}"] = (op, "intervals", got[t])
    n_preds = sum(len(r.predictions) for r in corpus.videos.values())
    res.expect(close(table.avg_proposals_per_video, n_preds / len(corpus.videos)),
               op, "intervals", "avg_proposals_per_video disagrees with the corpus")
    res.counts["intervals.tiou_pairs"] = sum(
        2 * len(r.predictions) * sum(len(a.intervals) for a in r.annotation_sets)
        for r in corpus.videos.values())


# ---------------------------------------------------------------------------
# propose: windows -> pool -> fused selection -> re-rank -> augment


@dataclass
class ProposeInputs:
    gt_paths: tuple
    out_path: Path
    sample: list


class Propose:
    """Proposal selection over ``gen_synthetic(1000, seed)``.

    Fusion and tIoU do most of the work and ``metrics``/``concepts`` none;
    it is also the workload where ``core`` writes JSON.
    """

    name = "propose"

    def setup(self, seed, sizes, workdir, t):
        corpus = t.call("synthetic.gen_synthetic", synthetic.gen_synthetic,
                        sizes["videos"], seed=seed)
        gt_paths = (workdir / "gt_set0.json", workdir / "gt_set1.json")
        for i, path in enumerate(gt_paths):
            core.save_ground_truth(corpus, path, set_index=i)
        return ProposeInputs(gt_paths, workdir / "proposals.json",
                             sample_ids(corpus.video_ids(), seed))

    def run_pass(self, inp, t, limit=None):
        def body(res):
            corpus = corpus_op(res, t, "core.load_ground_truth",
                               core.load_ground_truth, inp.gt_paths[0],
                               op="core.load_ground_truth[0]")
            corpus_op(res, t, "core.load_ground_truth", core.load_ground_truth,
                      inp.gt_paths[1], corpus=corpus, op="core.load_ground_truth[1]")
            _trim(corpus, limit)
            res.outputs["corpus"] = corpus
            video_loop(res, t, corpus.video_ids(),
                       lambda vid: self.video(t, corpus.videos[vid]))
            res.outputs["pr"] = corpus_op(res, t, "intervals.precision_recall",
                                          intervals.precision_recall, corpus,
                                          THRESHOLDS)
            corpus_op(res, t, "core.save_predictions", core.save_predictions,
                      corpus, inp.out_path)
            res.outputs["saved"] = True
        return timed_pass(t, body)

    @staticmethod
    def video(t, record):
        annotations = record.annotation_sets[0]
        f_s = fusion.HeuristicPointwiseScorer(annotations.intervals)
        f_e = fusion.HeuristicSequentialScorer(annotations.intervals)
        windows = t.call("fusion.enumerate_sliding_windows",
                         fusion.enumerate_sliding_windows, record.meta)
        pool = t.call("fusion.from_windows", fusion.CandidatePool.from_windows,
                      windows, f_s, cap=POOL_CAP)
        fused = t.call("fusion.fuse_select", fusion.fuse_select, pool, f_s, f_e)
        entries = [core.PredictionEntry(c, proposal_score=min(1.0, float(s)))
                   for c, s in zip(pool.candidates, pool.scores)]
        ranked, _ = t.call("rerank.proposal_rerank", rerank.proposal_rerank,
                           entries, record.meta)
        pairs = t.call("rerank.augment", rerank.augment,
                       [p.interval for p in fused], annotations)
        record.predictions = [
            core.PredictionEntry(p.interval, proposal_score=min(1.0, float(p.score)))
            for p in fused]
        return windows, pool, fused, ranked, pairs

    def check(self, inp, res, first, seed, sizes):
        corpus = res.outputs.get("corpus")
        if corpus is None:
            return
        totals = dict(windows=0, pool=0, selected=0, ranked=0, kept=0)
        score_sum = 0.0
        for vid, (windows, pool, fused, ranked, pairs) in sorted(res.videos.items()):
            record = corpus.videos[vid]
            self.check_video(res, vid, record, windows, pool, fused, ranked, pairs,
                             oracle_scores=first and vid in inp.sample)
            totals["windows"] += len(windows)
            totals["pool"] += len(pool)
            totals["selected"] += len(fused)
            totals["ranked"] += len(ranked)
            totals["kept"] += len(pairs)
            score_sum += sum(p.score for p in fused)
        if "pr" in res.outputs:
            check_pr(res, corpus, res.outputs["pr"])
        if "saved" in res.outputs:
            self.check_saved(res, inp.out_path, corpus)
        first_video = min(res.videos, default="pass")
        for key, value in totals.items():
            res.summary[key] = (first_video,
                                "rerank" if key in ("ranked", "kept") else "fusion", value)
        res.summary["fused_score_sum"] = (first_video, "fusion", score_sum)
        res.counts.update({
            "fusion.windows": totals["windows"],
            "fusion.pool_candidates": totals["pool"],
            "fusion.selected": totals["selected"],
            "fusion.selected_per_candidate": totals["selected"] / max(1, totals["pool"]),
            "rerank.augment_kept_ratio": totals["kept"] / max(1, totals["selected"]),
            "core.bytes_read": sum(p.stat().st_size for p in inp.gt_paths),
            "core.bytes_written": (inp.out_path.stat().st_size
                                   if inp.out_path.exists() else 0),
        })
        check_reference(res, self.name, seed, sizes)

    @staticmethod
    def check_video(res, vid, record, windows, pool, fused, ranked, pairs,
                    oracle_scores):
        duration = record.meta.duration_s
        annotations = record.annotation_sets[0]
        gts = [_pair(iv) for iv in annotations.intervals]
        keys = [(w.start_s, w.length_s) for w in windows]
        res.expect(windows and keys == sorted(keys) and len(set(keys)) == len(keys)
                   and all(0 <= w.start_s < w.end_s <= duration for w in windows),
                   vid, "fusion", "windows not sorted, distinct and inside the video")
        window_set = set(windows)
        scores = np.asarray(pool.scores, dtype=float)
        res.expect(len(pool) == min(POOL_CAP, len(windows))
                   and set(pool.candidates) <= window_set
                   and np.all(np.isfinite(scores)) and np.all(scores > 0)
                   and np.all(scores <= 1.0),
                   vid, "fusion", "pool is not the top windows with scores in (0, 1]")
        if oracle_scores:
            want = [max(1e-3, max(oracles.oracle_tiou(_pair(c), g) for g in gts))
                    for c in pool.candidates]
            res.expect(all(close(a, b) for a, b in zip(scores, want)), vid, "fusion",
                       "pool scores disagree with the tIoU oracle")
        pool_set = set(pool.candidates)
        picked = [p.interval for p in fused]
        res.expect(fused and len(set(picked)) == len(picked)
                   and set(picked) <= pool_set
                   and all(0.0 < p.score <= 1.0 for p in fused)
                   and [p.step for p in fused] == list(range(len(fused))),
                   vid, "fusion", "fused selection is not distinct pool members "
                   "with scores in (0, 1], one per step")
        res.expect(len(ranked) == min(5, len(pool))
                   and {r.interval for r in ranked} <= pool_set,
                   vid, "rerank", "proposal re-rank did not return min(5, n) pool members")
        want_pairs = []
        for iv in picked:
            idx, v = oracles.oracle_best_match(_pair(iv), gts)
            if v > rerank.AUGMENT_TIOU:
                want_pairs.append((iv, idx, v, annotations.sentences[idx]))
        res.expect(len(pairs) == len(want_pairs) and all(
            p.interval == w[0] and p.gt_index == w[1] and close(p.tiou, w[2])
            and p.caption == w[3] for p, w in zip(pairs, want_pairs)),
            vid, "rerank", "augmented pairs disagree with the best-match oracle")

    @staticmethod
    def check_saved(res, path, corpus):
        try:
            saved = json.loads(path.read_text())["results"]
        except (OSError, ValueError, KeyError) as exc:
            res.fail("core.save_predictions", "core", f"unreadable output: {exc}")
            return
        want = {vid: [[p.interval.start_s, p.interval.end_s] for p in r.predictions]
                for vid, r in corpus.videos.items() if r.predictions}
        got = {vid: [row["timestamp"] for row in rows] for vid, rows in saved.items()}
        res.expect(got == want, "core.save_predictions", "core",
                   "saved predictions differ from the selected proposals")


# ---------------------------------------------------------------------------
# evaluate: load -> precision/recall -> dense_eval -> per-video diversity


@dataclass
class EvaluateInputs:
    gt_paths: tuple
    pred_path: Path
    report_path: Path
    expected: core.Corpus   # generated groundtruth with generated predictions
    sample: list


def decoy_sentence(rng):
    return "a {} {} near the {} {}".format(
        rng.choice(synthetic.SUBJECTS), rng.choice(synthetic.VERBS),
        rng.choice(synthetic.OBJECTS), rng.choice(synthetic.ADVERBS))


def mixed_predictions(record, rng):
    """Matched proposals plus unmatched decoys for one video.

    Matched: each second-set interval with both ends jittered by up to 8% of
    its length (tIoU >= 0.72 against it, so some reach 0.9 and some do not)
    and its paraphrased sentence. Decoys: 1-3 intervals of 1% of the
    duration, under tIoU 0.21 with any event, with template sentences.
    """
    duration = record.meta.duration_s
    second = record.annotation_sets[1]
    out = []
    for iv, sentence in zip(second.intervals, second.sentences):
        w = 0.08 * iv.length_s
        start = float(np.clip(iv.start_s + rng.uniform(-w, w), 0.0, duration))
        end = float(np.clip(iv.end_s + rng.uniform(-w, w), 0.0, duration))
        if end <= start:
            start, end = iv.start_s, iv.end_s
        out.append(core.PredictionEntry(core.TimeInterval(start, end), sentence,
                                        proposal_score=float(rng.uniform(0.5, 1.0))))
    for _ in range(int(rng.integers(1, 4))):
        length = 0.01 * duration
        start = float(rng.uniform(0.0, duration - length))
        out.append(core.PredictionEntry(core.TimeInterval(start, start + length),
                                        decoy_sentence(rng),
                                        proposal_score=float(rng.uniform(0.0, 0.5))))
    return out


def caption_sets(record):
    """Predicted captions and the first groundtruth set, for the diversity report."""
    return [[p.sentence for p in record.predictions],
            list(record.annotation_sets[0].sentences)]


class Evaluate:
    """Caption evaluation over ``gen_synthetic(500, seed)``.

    ``metrics`` does nearly all the work and ``fusion`` none; it is also the
    workload where ``core`` reads JSON. The diversity report runs once per
    video, which gives the per-video latency.
    """

    name = "evaluate"

    def setup(self, seed, sizes, workdir, t):
        corpus = t.call("synthetic.gen_synthetic", synthetic.gen_synthetic,
                        sizes["videos"], seed=seed)
        rng = np.random.default_rng([seed, 1])
        for vid in corpus.video_ids():
            corpus.videos[vid].predictions = mixed_predictions(corpus.videos[vid], rng)
        gt_paths = (workdir / "gt_set0.json", workdir / "gt_set1.json")
        for i, path in enumerate(gt_paths):
            core.save_ground_truth(corpus, path, set_index=i)
        pred_path = workdir / "predictions.json"
        core.save_predictions(corpus, pred_path)
        return EvaluateInputs(gt_paths, pred_path, workdir / "report.json", corpus,
                              sample_ids(corpus.video_ids(), seed))

    def run_pass(self, inp, t, limit=None):
        def body(res):
            corpus = corpus_op(res, t, "core.load_ground_truth",
                               core.load_ground_truth, inp.gt_paths[0],
                               op="core.load_ground_truth[0]")
            corpus_op(res, t, "core.load_ground_truth", core.load_ground_truth,
                      inp.gt_paths[1], corpus=corpus, op="core.load_ground_truth[1]")
            _, skipped = corpus_op(res, t, "core.load_predictions",
                                   core.load_predictions, inp.pred_path, corpus=corpus)
            _trim(corpus, limit)
            res.outputs.update(corpus=corpus, skipped=skipped)
            pr = corpus_op(res, t, "intervals.precision_recall",
                           intervals.precision_recall, corpus, THRESHOLDS)
            res.outputs["pr"] = pr
            dense = corpus_op(res, t, "metrics.dense_eval", metrics.dense_eval,
                              corpus, THRESHOLDS)
            res.outputs["dense"] = dense
            video_loop(res, t, corpus.video_ids(), lambda vid: t.call(
                "metrics.diversity_report", metrics.diversity_report,
                {vid: caption_sets(corpus.videos[vid])}).per_video[vid])
            with open(inp.report_path, "w") as f:
                json.dump({"precision_recall": [list(r) for r in pr.rows()],
                           "dense_eval": dense.to_dict(),
                           "diversity": res.videos}, f)
        return timed_pass(t, body)

    def check(self, inp, res, first, seed, sizes):
        corpus = res.outputs.get("corpus")
        if corpus is None:
            return
        expected = inp.expected.videos
        for vid, record in corpus.videos.items():
            want = expected.get(vid)
            res.expect(
                want is not None and record.meta.duration_s == want.meta.duration_s
                and [(a.intervals, a.sentences) for a in record.annotation_sets]
                == [(a.intervals, a.sentences) for a in want.annotation_sets],
                "core.load_ground_truth[1]", "core",
                f"{vid}: loaded groundtruth differs from the file written")
            res.expect(
                want is not None and [(p.interval, p.sentence) for p in record.predictions]
                == [(p.interval, p.sentence) for p in want.predictions],
                "core.load_predictions", "core",
                f"{vid}: loaded predictions differ from the file written")
        res.expect(res.outputs["skipped"] == 0, "core.load_predictions", "core",
                   "predictions were skipped")
        n_preds = sum(len(r.predictions) for r in corpus.videos.values())
        if "pr" in res.outputs:
            check_pr(res, corpus, res.outputs["pr"])
        if "dense" in res.outputs:
            self.check_dense(res, corpus, res.outputs["dense"], n_preds)
            if first:
                self.check_dense_oracle(res, corpus, inp.sample[:DENSE_SAMPLE])
        self.check_diversity(res, corpus, inp.sample if first else ())
        res.counts.update({
            "core.bytes_read": sum(p.stat().st_size
                                   for p in (*inp.gt_paths, inp.pred_path)),
            "core.bytes_written": 0,
        })
        check_reference(res, self.name, seed, sizes)

    @staticmethod
    def check_dense(res, corpus, dense, n_preds):
        op = "metrics.dense_eval"
        best = []
        for record in corpus.videos.values():
            gts = [_pair(iv) for a in record.annotation_sets for iv in a.intervals]
            best += [max(oracles.oracle_tiou(_pair(p.interval), g) for g in gts)
                     for p in record.predictions]
        for t in THRESHOLDS:
            values = (dense.bleu4_smoothed[t], dense.bleu4_unsmoothed[t],
                      dense.bleu4_corpus[t])
            res.expect(all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)
                       and math.isfinite(dense.cider[t]) and 0.0 <= dense.cider[t] <= 10.0,
                       op, "metrics", f"scores at tIoU {t} out of range")
            matched = sum(1 for v in best if v >= t)
            res.expect(dense.matched[t] + dense.unmatched[t] == n_preds
                       and dense.matched[t] == matched
                       and 0 < matched < n_preds, op, "metrics",
                       f"tIoU {t}: matched {dense.matched[t]} + unmatched "
                       f"{dense.unmatched[t]} vs {n_preds} predictions, oracle "
                       f"matched {matched}")
            for key in ("bleu4_smoothed", "bleu4_unsmoothed", "bleu4_corpus", "cider",
                        "matched", "unmatched"):
                res.summary[f"{key}@{t}"] = (op, "metrics", getattr(dense, key)[t])
        matched = sum(dense.matched.values())
        res.counts.update({
            "metrics.matched": matched,
            "metrics.unmatched": sum(dense.unmatched.values()),
            "metrics.match_ratio": matched / max(1, len(THRESHOLDS) * n_preds),
        })

    @staticmethod
    def check_dense_oracle(res, corpus, sample):
        """Re-run ``dense_eval`` on a few videos and score them with the oracles."""
        sub = core.Corpus({vid: corpus.videos[vid] for vid in sample})
        try:
            report = metrics.dense_eval(sub, THRESHOLDS)
        except Exception as exc:  # a library failure is a failed check here
            res.fail("metrics.dense_eval", "metrics", f"sample re-run raised {exc!r}")
            return
        docs = [[oracle_tokens(s)] for vid in sub.video_ids()
                for a in sub.videos[vid].annotation_sets for s in a.sentences]
        for t in THRESHOLDS:
            per_video = {"bleu4_smoothed": [], "bleu4_unsmoothed": [], "cider": []}
            for vid in sub.video_ids():
                record = sub.videos[vid]
                gts = [(_pair(iv), s) for a in record.annotation_sets
                       for iv, s in zip(a.intervals, a.sentences)]
                scores = {key: [] for key in per_video}
                for p in record.predictions:
                    refs = [oracle_tokens(s) for g, s in gts
                            if oracles.oracle_tiou(_pair(p.interval), g) >= t]
                    cand = oracle_tokens(p.sentence)
                    found = bool(refs)
                    scores["bleu4_smoothed"].append(
                        oracles.oracle_bleu4(cand, refs, True) if found else 0.0)
                    scores["bleu4_unsmoothed"].append(
                        oracles.oracle_bleu4(cand, refs, False) if found else 0.0)
                    scores["cider"].append(
                        oracles.oracle_cider_d(cand, refs, docs) if found else 0.0)
                for key, values in scores.items():
                    per_video[key].append(sum(values) / len(values))
            for key, values in per_video.items():
                want = sum(values) / len(values)
                got = getattr(report, key)[t]
                res.expect(close(got, want), "metrics.dense_eval", "metrics",
                           f"sample {key}@{t} = {got!r}, oracle {want!r}")

    @staticmethod
    def check_diversity(res, corpus, sample):
        means = {}
        for vid, detail in sorted(res.videos.items()):
            values = [v for kind in ("self_bleu", "repetition")
                      for v in detail[kind].values()]
            res.expect(all(v is None or (math.isfinite(v) and 0.0 <= v <= 100.0)
                           for v in values), vid, "metrics",
                       "diversity value outside [0, 100]")
            for kind in ("self_bleu", "repetition"):
                for key, v in detail[kind].items():
                    if v is not None:
                        means.setdefault(f"{kind}.{key}", []).append(v)
            if vid not in sample:
                continue
            sets = [[oracle_tokens(c) for c in one] for one in
                    caption_sets(corpus.videos[vid])]
            pooled = [c for one in sets for c in one]
            want = {"self_bleu": {"set0": oracles.oracle_self_bleu_video(sets[0]),
                                  "set1": oracles.oracle_self_bleu_video(sets[1]),
                                  "combined": oracles.oracle_self_bleu_video(pooled)},
                    "repetition": {"set0": oracles.oracle_repetition_video(sets[0]),
                                   "set1": oracles.oracle_repetition_video(sets[1]),
                                   "combined": oracles.oracle_repetition_video(pooled)}}
            agree = all(
                (detail[kind].get(key) is None) == (w is None)
                and (w is None or close(detail[kind][key], w))
                for kind in want for key, w in want[kind].items())
            res.expect(agree, vid, "metrics",
                       f"diversity {detail} disagrees with the oracles {want}")
        first_video = min(res.videos, default="pass")
        for key, values in means.items():
            res.summary[f"diversity.{key}"] = (first_video, "metrics",
                                               sum(values) / len(values))
        res.counts["metrics.self_bleu_pairs"] = sum(
            m * (m - 1) for r in corpus.videos.values()
            for m in [len(s) for s in caption_sets(r)] + [sum(map(len, caption_sets(r)))])


# ---------------------------------------------------------------------------
# concepts: train -> save/load model -> per-video contexts, predict, re-rank


@dataclass
class ConceptsInputs:
    seed: int
    examples: list
    epochs: int
    corpus: core.Corpus
    feature_paths: dict
    model_path: Path
    vocabulary: concepts.ConceptVocabulary
    sample: list
    sample_features: dict   # video id -> features as written (float32 values)


def caption_vocabulary():
    """20 words of the synthetic captions, so concept overlap does real work."""
    words = (synthetic.SUBJECTS + synthetic.VERBS + synthetic.OBJECTS
             + synthetic.ADVERBS)[:N_CONCEPTS]
    return concepts.ConceptVocabulary(list(words))


def pool_view(t, grid, selection):
    """Pooled view, or None when the view is empty (``EmptyContext``)."""
    try:
        return t.call("contexts.pool_features", contexts.pool_features, grid, selection)
    except LayerError as exc:
        if isinstance(exc.__cause__, contexts.EmptyContext):
            return None
        raise


class Concepts:
    """Concept training, then contexts, prediction and caption re-ranking.

    The only workload where ``concepts``, ``contexts`` and the binary
    feature loader do work; text metrics and fusion do none.
    """

    name = "concepts"

    def setup(self, seed, sizes, workdir, t):
        examples = t.call("synthetic.make_separable_miml",
                          synthetic.make_separable_miml, sizes["bags"], N_CONCEPTS,
                          DIM, seed)
        corpus = t.call("synthetic.gen_synthetic", synthetic.gen_synthetic,
                        sizes["videos"], seed=seed)
        video_ids = corpus.video_ids()
        sample = sample_ids(video_ids, seed)
        feature_dir = workdir / "features"
        feature_dir.mkdir(exist_ok=True)
        paths, written = {}, {}
        for i, vid in enumerate(video_ids):
            grid = t.call("synthetic.synthetic_grid", synthetic.synthetic_grid,
                          corpus.videos[vid].meta, DIM, seed=seed * 100_003 + i)
            paths[vid] = feature_dir / f"{vid}.seg"
            core.save_features(grid, paths[vid])
            if vid in sample:
                written[vid] = grid.features.astype("<f4").astype(np.float64)
        return ConceptsInputs(seed, examples, sizes["epochs"], corpus, paths,
                              workdir / "model.bin", caption_vocabulary(), sample,
                              written)

    def run_pass(self, inp, t, limit=None):
        def body(res):
            examples = inp.examples if limit is None else inp.examples[:8 * limit]
            cfg = concepts.TrainConfig(epochs=inp.epochs, seed=inp.seed)
            model, trace = corpus_op(res, t, "concepts.train", concepts.train,
                                     examples, cfg, inp.vocabulary)
            res.outputs.update(model=model, trace=trace, bags=len(examples))
            corpus_op(res, t, "concepts.save_model", concepts.save_model, model,
                      inp.model_path)
            loaded = corpus_op(res, t, "concepts.load_model", concepts.load_model,
                               inp.model_path)
            res.outputs["loaded"] = loaded
            video_ids = inp.corpus.video_ids()[:limit]
            video_loop(res, t, video_ids, lambda vid: self.video(t, inp, loaded, vid))
        return timed_pass(t, body)

    @staticmethod
    def video(t, inp, model, vid):
        grid = t.call("core.load_features", core.load_features, inp.feature_paths[vid])
        record = inp.corpus.videos[vid]
        events = record.annotation_sets[0].intervals
        captions = record.annotation_sets[0].sentences
        alternates = record.annotation_sets[1].sentences
        out = []
        for target, event in enumerate(events):
            bundle = t.call("contexts.build_bundle", contexts.build_bundle, events,
                            target, grid.meta, captions)
            views = [pool_view(t, grid, selection) for selection in
                     (bundle.event_range, bundle.local_before, bundle.local_after,
                      bundle.global_mask)]
            probs = t.call("concepts.predict_proposal", concepts.predict_proposal,
                           model, grid, event)
            hypotheses = [captions[target], alternates[target]]
            chosen = t.call("rerank.caption_rerank", rerank.caption_rerank,
                            hypotheses, probs, model.vocabulary, RERANK_PARAMS)
            out.append((bundle, views, probs, hypotheses, chosen))
        return grid if vid in inp.sample else None, grid.meta, grid.features.shape, out

    def check(self, inp, res, first, seed, sizes):
        model, trace = res.outputs.get("model"), res.outputs.get("trace")
        if model is None:
            return
        res.expect(len(trace) == inp.epochs and all(map(math.isfinite, trace))
                   and (inp.epochs < 2 or trace[-1] < trace[0])
                   and model.W.shape == (N_CONCEPTS, DIM)
                   and np.isfinite(model.W).all() and np.isfinite(model.b).all(),
                   "concepts.train", "concepts",
                   f"training did not reduce a finite loss: {trace}")
        for epoch, loss in enumerate(trace):
            res.summary[f"train.loss[{epoch}]"] = ("concepts.train", "concepts", loss)
        loaded = res.outputs.get("loaded")
        if loaded is None:
            return
        res.expect(np.array_equal(loaded.W, model.W) and np.array_equal(loaded.b, model.b)
                   and loaded.vocabulary.concepts == model.vocabulary.concepts,
                   "concepts.load_model", "concepts",
                   "model changed across save_model -> load_model")
        totals = dict(bundles=0, empty_views=0, first_choice=0, rows=0)
        prob_sum = pooled_sum = 0.0
        for vid, (grid, meta, shape, events) in sorted(res.videos.items()):
            record = inp.corpus.videos[vid]
            res.expect(meta.video_id == vid and shape == (meta.segment_count, DIM)
                       and meta.duration_s == record.meta.duration_s,
                       vid, "core", "feature file header does not match the video")
            if grid is not None:
                res.expect(np.array_equal(grid.features, inp.sample_features[vid]),
                           vid, "core", "loaded features differ from the file written")
            totals["rows"] += shape[0]
            for target, (bundle, views, probs, hypotheses, chosen) in enumerate(events):
                self.check_event(res, vid, record, meta, target, bundle, views, probs,
                                 hypotheses, chosen, loaded,
                                 grid if first else None)
                totals["bundles"] += 1
                totals["empty_views"] += sum(v is None for v in views)
                totals["first_choice"] += chosen == hypotheses[0]
                prob_sum += float(np.sum(probs))
                pooled_sum += sum(float(np.sum(v)) for v in views if v is not None)
        first_video = min(res.videos, default="pass")
        for key, value in totals.items():
            layer = {"rows": "core", "first_choice": "rerank"}.get(key, "contexts")
            res.summary[key] = (first_video, layer, value)
        res.summary["prob_sum"] = (first_video, "concepts", prob_sum)
        res.summary["pooled_sum"] = (first_video, "contexts", pooled_sum)
        bags = res.outputs["bags"]
        res.counts.update({
            "concepts.bag_passes": 2 * bags * inp.epochs,
            "contexts.bundles": totals["bundles"],
            "contexts.empty_views": totals["empty_views"],
            "core.bytes_read": sum(inp.feature_paths[v].stat().st_size
                                   for v in res.videos),
            "core.bytes_written": 0,
        })
        check_reference(res, self.name, seed, sizes)

    @staticmethod
    def check_event(res, vid, record, meta, target, bundle, views, probs,
                    hypotheses, chosen, model, grid):
        i, j = segment_range(record.annotation_sets[0].intervals[target], meta)
        before, after = bundle.local_before, bundle.local_after
        mask = np.asarray(bundle.global_mask)
        res.expect(bundle.event_range == (i, j)
                   and 0 <= before[0] <= before[1] <= i and j <= after[0] <= after[1]
                   <= meta.segment_count
                   and mask.shape == (meta.segment_count,)
                   and int(mask.sum()) == meta.segment_count - (j - i)
                   and not mask[i:j].any(),
                   vid, "contexts", f"event {target}: context ranges are inconsistent")
        sizes = (j - i, before[1] - before[0], after[1] - after[0], int(mask.sum()))
        res.expect(all((v is None) == (n == 0) for v, n in zip(views, sizes))
                   and all(v.shape == (DIM,) and np.isfinite(v).all()
                           for v in views if v is not None),
                   vid, "contexts", f"event {target}: pooled views have wrong shape")
        probs = np.asarray(probs)
        res.expect(probs.shape == (N_CONCEPTS,) and np.isfinite(probs).all()
                   and (probs >= 0).all() and (probs <= 1).all(),
                   vid, "concepts", f"event {target}: probabilities out of range")
        res.expect(chosen in hypotheses, vid, "rerank",
                   f"event {target}: chosen caption is not a hypothesis")
        if grid is None:
            return
        rows = [list(range(i, j)), list(range(*before)), list(range(*after)),
                [s for s in range(meta.segment_count) if mask[s]]]
        res.expect(all(v is None or np.allclose(v, grid.features[r].sum(axis=0) / len(r),
                                                rtol=1e-12, atol=1e-12)
                       for v, r in zip(views, rows)),
                   vid, "contexts", f"event {target}: pooled views disagree with the mean")
        want = oracle_concept_probs(model, grid.features, (i, j))
        res.expect(np.allclose(probs, want, rtol=1e-12, atol=1e-12), vid, "concepts",
                   f"event {target}: probabilities disagree with the oracle")
        res.expect(chosen == oracle_caption(hypotheses, probs, model.vocabulary),
                   vid, "rerank", f"event {target}: caption re-rank disagrees")


def segment_range(interval, meta):
    """Half-open segment range of an interval, as ``core.segment_range`` documents it."""
    seg = meta.segment_duration_s
    count = meta.segment_count
    i = min(int(math.floor(interval.start_s / seg)), count - 1)
    j = min(max(i + 1, int(math.ceil(interval.end_s / seg))), count)
    return (j - 1, j) if j <= i else (i, j)


def oracle_concept_probs(model, features, seg_range, k=20):
    """Max over K evenly spaced segments of per-segment sigmoid probabilities."""
    i, j = seg_range
    picks = [int(math.floor(i + (j - 1 - i) * q / (k - 1) + 0.5)) for q in range(k)]
    best = np.zeros(model.n_concepts)
    for s in picks:
        logits = np.clip(model.W @ features[s] + model.b, -concepts.LOGIT_CLAMP,
                         concepts.LOGIT_CLAMP)
        best = np.maximum(best, 1.0 / (1.0 + np.exp(-logits)))
    return best


def oracle_caption(hypotheses, probs, vocabulary, params=RERANK_PARAMS):
    order = sorted(range(len(probs)), key=lambda c: (-probs[c], c))
    top = {vocabulary.concepts[c] for c in order[:params.top_concepts]}
    best, best_score = None, -math.inf
    for hyp in hypotheses:
        tokens = oracle_tokens(hyp)
        content = [w for w in tokens if w in vocabulary.lookup]
        unique = len(set(tokens)) / len(tokens) if tokens else 0.0
        overlap = sum(w in top for w in content) / len(content) if content else 0.0
        score = params.alpha * unique + params.beta * overlap
        if score > best_score:
            best, best_score = hyp, score
    return best


WORKLOADS = {w.name: w for w in (Propose(), Evaluate(), Concepts())}
