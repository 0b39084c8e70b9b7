"""Command-line interface: one executable, one subcommand per pipeline stage.

Every subcommand is a thin shell over the library; identical results are
obtainable through direct calls. Exit codes: 0 success, 1 validation error,
2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import concepts as concepts_mod
from . import contexts as contexts_mod
from . import core, fusion, intervals, metrics, rerank, synthetic
from .core import Corpus, CorpusFormatError, PredictionEntry, TimeInterval, VideoMeta


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(name):
    def convert(value):
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1")
        return n
    return convert


def _float_list(value):
    return [float(x) for x in value.split(",") if x]


def _load_corpus(gt_paths, meta_path=None) -> Corpus:
    corpus = None
    for path in gt_paths:
        corpus = core.load_ground_truth(path, meta_source=meta_path, corpus=corpus)
    return corpus


def _load_meta_map(path) -> Dict[str, VideoMeta]:
    """Read video metadata from a meta JSON or a groundtruth file."""
    with open(path) as f:
        raw = json.load(f)
    metas = {}
    for vid, entry in raw.items():
        metas[vid] = VideoMeta(
            vid, float(entry["duration"]),
            fps=float(entry.get("fps", 25.0)),
            frames_per_segment=int(entry.get("frames_per_segment", 64)),
        )
    return metas


def _load_features_dir(path) -> Dict[str, core.SegmentGrid]:
    """Every feature file in a directory, keyed by the video id in its header."""
    grids = (core.load_features(os.path.join(path, name)) for name in os.listdir(path))
    return {grid.meta.video_id: grid for grid in grids}


def _write_json(payload, path):
    if path:
        with open(path, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_gen_synthetic(args) -> int:
    corpus = synthetic.gen_synthetic(
        args.videos, events_range=(args.events_min, args.events_max),
        seed=args.seed, two_sets=not args.single_set)
    os.makedirs(args.out_dir, exist_ok=True)
    core.save_ground_truth(corpus, os.path.join(args.out_dir, "gt_set1.json"), 0)
    if not args.single_set:
        core.save_ground_truth(corpus, os.path.join(args.out_dir, "gt_set2.json"), 1)
    meta = {vid: {"duration": rec.meta.duration_s, "fps": rec.meta.fps,
                  "frames_per_segment": rec.meta.frames_per_segment}
            for vid, rec in sorted(corpus.videos.items())}
    with open(os.path.join(args.out_dir, "meta.json"), "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    print(f"wrote {args.videos} videos to {args.out_dir}")
    return 0


def _cmd_eval_proposals(args) -> int:
    corpus = _load_corpus(args.gt)
    _, skipped = core.load_predictions(args.pred, corpus=corpus)
    table = intervals.precision_recall(corpus, args.tiou)
    header = f"{'tIoU':>6} {'precision':>10} {'recall':>10}"
    print(header)
    for t, p, r in table.rows():
        print(f"{t:>6.2f} {p:>10.4f} {r:>10.4f}")
    print(f"avg proposals/video: {table.avg_proposals_per_video:.2f}")
    if table.zero_prediction_videos:
        print(f"videos without predictions (precision counted as 0): "
              f"{table.zero_prediction_videos}")
    if skipped:
        print(f"skipped predictions for {skipped} unknown videos")
    _write_json({
        "thresholds": table.thresholds,
        "precision": {str(t): table.precision[t] for t in table.thresholds},
        "recall": {str(t): table.recall[t] for t in table.thresholds},
        "avg_proposals_per_video": table.avg_proposals_per_video,
        "videos": table.videos,
        "zero_prediction_videos": table.zero_prediction_videos,
    }, args.out)
    return 0


def _cmd_eval_captions(args) -> int:
    corpus = _load_corpus(args.gt)
    core.load_predictions(args.pred, corpus=corpus)
    report = metrics.dense_eval(corpus, args.tiou)
    print(f"{'tIoU':>6} {'BLEU4':>8} {'BLEU4raw':>9} {'CIDEr':>8} "
          f"{'matched':>8} {'unmatched':>10}")
    for t in report.thresholds:
        print(f"{t:>6.2f} {report.bleu4_smoothed[t]:>8.4f} "
              f"{report.bleu4_unsmoothed[t]:>9.4f} {report.cider[t]:>8.4f} "
              f"{report.matched[t]:>8} {report.unmatched[t]:>10}")
    print(f"average BLEU4 (smoothed): {report.avg_bleu4_smoothed:.4f}")
    print(f"average CIDEr: {report.avg_cider:.4f}")
    _write_json(report.to_dict(), args.out)
    return 0


def _captions_by_set(pred_paths) -> Dict[str, List[List[str]]]:
    by_video: Dict[str, List[List[str]]] = {}
    for path in pred_paths:
        preds, _ = core.load_predictions(path)
        for vid, entries in preds.items():
            caps = [e.sentence for e in entries if e.sentence is not None]
            by_video.setdefault(vid, []).append(caps)
    return by_video


def _cmd_eval_diversity(args) -> int:
    paths = [args.pred] + (args.pred2 or [])
    report = metrics.diversity_report(_captions_by_set(paths), n=args.n)
    print(f"SelfB:  {report.self_bleu:8.4f}")
    print(f"RE:     {report.repetition:8.4f}")
    print(f"SelfB2: {report.self_bleu_combined:8.4f}")
    print(f"RE2:    {report.repetition_combined:8.4f}")
    if report.excluded_self_bleu_videos:
        print(f"videos excluded from SelfB (<2 captions): "
              f"{report.excluded_self_bleu_videos}")
    _write_json(report.to_dict(), args.out)
    return 0


def _cmd_fuse(args) -> int:
    metas = _load_meta_map(args.meta)
    with open(args.scores) as f:
        scores = json.load(f)
    cfg = fusion.FusionConfig(k=args.k, max_steps=args.max_steps,
                              candidate_cap=args.cap)
    selected: Dict[str, List[fusion.FusedProposal]] = {}
    mode = scores.get("mode")
    if mode == "heuristic":
        for vid, pairs in sorted(scores["attractors"].items()):
            if vid not in metas:
                continue
            attractors = [TimeInterval(s, e) for s, e in pairs]
            f_s = fusion.HeuristicPointwiseScorer(attractors)
            f_e = fusion.HeuristicSequentialScorer(attractors)
            windows = fusion.enumerate_sliding_windows(metas[vid])
            pool = fusion.CandidatePool.from_windows(windows, f_s, cap=cfg.candidate_cap)
            selected[vid] = fusion.fuse_select(pool, f_s, f_e, cfg)
    elif mode == "tables":
        for vid, table in sorted(scores["videos"].items()):
            candidates = [TimeInterval(s, e) for s, e in table["candidates"]]
            pool = fusion.CandidatePool(candidates, np.asarray(table["f_s"], float))
            steps = [({int(i): p for i, p in step["probs"].items()}, step["eos"])
                     for step in table["f_e_steps"]]
            f_e = fusion.TableSequentialScorer(steps)
            selected[vid] = fusion.fuse_select(pool, None, f_e, cfg)
    else:
        print(f"error: scores file mode must be 'heuristic' or 'tables', "
              f"got {mode!r}", file=sys.stderr)
        return 1
    predictions = {vid: [PredictionEntry(p.interval, proposal_score=min(1.0, p.score))
                         for p in fused] for vid, fused in selected.items()}
    core.save_predictions(predictions, args.out)
    total = sum(len(v) for v in predictions.values())
    print(f"selected {total} proposals over {len(predictions)} videos")
    return 0


def _cmd_rerank_proposals(args) -> int:
    metas = _load_meta_map(args.meta)
    preds, _ = core.load_predictions(args.pred)
    if len(args.weights) != 4:
        raise ValueError("--weights needs four values: "
                         "quality,describability,position,length")
    wq, wd, wp, wl = args.weights
    weights = rerank.RerankWeights(wq, wd, wp, wl, top_n=args.top)
    out: Dict[str, List[PredictionEntry]] = {}
    flagged = 0
    for vid in sorted(preds):
        if vid not in metas:
            continue
        ranked, missing = rerank.proposal_rerank(preds[vid], metas[vid], weights)
        flagged += missing
        out[vid] = ranked
    core.save_predictions(out, args.out)
    if flagged:
        print(f"candidates missing caption_logprob (factor set to 0): {flagged}")
    print(f"kept top {args.top} proposals for {len(out)} videos")
    return 0


def _cmd_rerank_captions(args) -> int:
    pred_files = [p for p in args.pred_multi.split(",") if p]
    all_preds = [core.load_predictions(p)[0] for p in pred_files]
    model = concepts_mod.load_model(args.concept_model) if args.concept_model else None
    params = rerank.CaptionRerankParams(args.alpha,
                                        args.beta if model else 0.0,
                                        args.top_concepts)
    grids = (_load_features_dir(args.features_dir)
             if model is not None and args.features_dir else {})

    out: Dict[str, List[PredictionEntry]] = {}
    vids = sorted(set().union(*[set(p) for p in all_preds])) if all_preds else []
    for vid in vids:
        base = next((p[vid] for p in all_preds if vid in p), [])
        merged = []
        for i, entry in enumerate(base):
            hyps = []
            for preds in all_preds:
                if vid in preds and i < len(preds[vid]):
                    cand = preds[vid][i]
                    if cand.sentence is not None:
                        hyps.append(cand.sentence)
            if not hyps:
                merged.append(entry)
                continue
            if model is not None and vid in grids:
                probs = concepts_mod.predict_proposal(model, grids[vid],
                                                      entry.interval)
                vocab = model.vocabulary
            else:
                probs = np.zeros(1)
                vocab = concepts_mod.ConceptVocabulary(["_none"])
            best = rerank.caption_rerank(hyps, probs, vocab, params)
            merged.append(PredictionEntry(entry.interval, sentence=best,
                                          proposal_score=entry.proposal_score,
                                          caption_logprob=entry.caption_logprob))
        out[vid] = merged
    core.save_predictions(out, args.out)
    print(f"re-ranked captions for {len(out)} videos "
          f"from {len(pred_files)} hypothesis files")
    return 0


def _cmd_augment(args) -> int:
    corpus = _load_corpus([args.gt])
    preds, _ = core.load_predictions(args.pred, corpus=corpus)
    payload = {}
    total = 0
    for vid in sorted(preds):
        ann = corpus.videos[vid].annotation_sets[0]
        pairs = rerank.augment([p.interval for p in preds[vid]], ann)
        payload[vid] = [{
            "timestamp": [p.interval.start_s, p.interval.end_s],
            "gt_index": p.gt_index,
            "tiou": p.tiou,
            "caption": p.caption,
        } for p in pairs]
        total += len(pairs)
    _write_json(payload, args.out)
    print(f"emitted {total} augmented pairs for {len(payload)} videos")
    return 0


def _cmd_concepts_train(args) -> int:
    with open(args.labels) as f:
        labels_doc = json.load(f)
    vocab = concepts_mod.ConceptVocabulary(labels_doc["vocabulary"])
    grids = _load_features_dir(args.features_dir)
    examples = []
    for vid, rows in sorted(labels_doc["examples"].items()):
        if vid not in grids:
            continue
        for row in rows:
            labels = np.zeros(len(vocab))
            for word in row["concepts"]:
                if word in vocab.lookup:
                    labels[vocab.lookup[word]] = 1.0
            s, e = row["timestamp"]
            examples.append(concepts_mod.MimlExample(
                TimeInterval(s, e), grids[vid], labels))
    cfg = concepts_mod.TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch,
        k_segments=args.k, seed=args.seed)
    model, trace = concepts_mod.train(examples, cfg, vocabulary=vocab)
    concepts_mod.save_model(model, args.out)
    print(f"trained on {len(examples)} proposals; "
          f"final loss {trace[-1]:.6f}")
    return 0


def _cmd_concepts_predict(args) -> int:
    model = concepts_mod.load_model(args.model)
    grid = core.load_features(args.features)
    payload = []
    for span in args.timestamps.split(";"):
        s, e = (float(x) for x in span.split(","))
        probs = concepts_mod.predict_proposal(model, grid, TimeInterval(s, e),
                                              k=args.k)
        top = np.argsort(-probs, kind="stable")[:args.top]
        ranked = [{"concept": model.vocabulary.concepts[i],
                   "probability": float(probs[i])} for i in top]
        payload.append({"timestamp": [s, e], "top_concepts": ranked})
        head = ", ".join(f"{r['concept']}:{r['probability']:.3f}"
                         for r in ranked[:5])
        print(f"[{s:.1f}, {e:.1f}] {head}")
    _write_json(payload, args.out)
    return 0


def _cmd_contexts(args) -> int:
    corpus = _load_corpus([args.events], meta_path=args.meta)
    grids = _load_features_dir(args.features_dir) if args.features_dir else {}
    payload = {}
    for vid in corpus.video_ids():
        record = corpus.videos[vid]
        ann = record.annotation_sets[0]
        order = sorted(range(len(ann.intervals)),
                       key=lambda i: ann.intervals[i].start_s)
        events = [ann.intervals[i] for i in order]
        captions = [ann.sentences[i] for i in order]
        bundles = []
        for target in range(len(events)):
            bundle = contexts_mod.build_bundle(
                events, target, record.meta, captions=captions,
                window_ratio=args.window_ratio, direction=args.direction)
            row = {
                "event_range": list(bundle.event_range),
                "local_before": list(bundle.local_before),
                "local_after": list(bundle.local_after),
                "global_mask": [int(x) for x in bundle.global_mask],
                "neighbor_events": bundle.neighbor_events,
                "sentence_history": bundle.sentence_history,
            }
            if vid in grids:
                grid = grids[vid]
                dim = grid.dim
                def pooled(sel):
                    try:
                        return contexts_mod.pool_features(grid, sel, args.pool).tolist()
                    except contexts_mod.EmptyContext:
                        return [0.0] * dim
                row["event_vector"] = pooled(bundle.event_range)
                row["local_before_vector"] = pooled(bundle.local_before)
                row["local_after_vector"] = pooled(bundle.local_after)
                row["global_vector"] = pooled(bundle.global_mask)
            bundles.append(row)
        payload[vid] = bundles
    _write_json(payload, args.out)
    total = sum(len(v) for v in payload.values())
    print(f"wrote {total} context bundles for {len(payload)} videos")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="densecap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", parents=[], help="generate a synthetic corpus")
    p.add_argument("--videos", type=_positive_int("videos"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events-min", type=_positive_int("events-min"), default=2)
    p.add_argument("--events-max", type=_positive_int("events-max"), default=5)
    p.add_argument("--single-set", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("eval-proposals", help="proposal precision/recall at tIoU thresholds")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", action="append", required=True,
                   help="groundtruth file; repeat for a second annotation set")
    p.add_argument("--tiou", type=_float_list, default=[0.3, 0.5, 0.7, 0.9])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_proposals)

    p = sub.add_parser("eval-captions", help="tIoU-thresholded BLEU/CIDEr evaluation")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", action="append", required=True)
    p.add_argument("--tiou", type=_float_list, default=[0.3, 0.5, 0.7, 0.9])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_captions)

    p = sub.add_parser("eval-diversity", help="SelfB/RE diversity metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--pred2", action="append",
                   help="second caption set; repeat for more")
    p.add_argument("--n", type=_positive_int("n"), default=4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_diversity)

    p = sub.add_parser("fuse", help="fused proposal selection over a candidate pool")
    p.add_argument("--meta", required=True, help="video metadata JSON")
    p.add_argument("--scores", required=True,
                   help="heuristic attractors or precomputed score tables (JSON)")
    p.add_argument("--k", type=_positive_int("k"), default=1)
    p.add_argument("--cap", type=_positive_int("cap"), default=80)
    p.add_argument("--max-steps", type=_positive_int("max-steps"), default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("rerank-proposals", help="four-factor proposal re-ranking")
    p.add_argument("--pred", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--weights", type=_float_list, default=[1.0, 1.0, 1.0, 1.0],
                   help="quality,describability,position,length")
    p.add_argument("--top", type=_positive_int("top"), default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rerank_proposals)

    p = sub.add_parser("rerank-captions", help="pick the best caption per proposal")
    p.add_argument("--pred-multi", required=True,
                   help="comma-separated prediction files, one per captioner")
    p.add_argument("--concept-model")
    p.add_argument("--features-dir")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--top-concepts", type=_positive_int("top-concepts"), default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rerank_captions)

    p = sub.add_parser("augment", help="training pairs from proposals with tIoU > 0.3")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("concepts", help="train or apply the concept predictor")
    csub = p.add_subparsers(dest="concepts_command", required=True)
    pt = csub.add_parser("train")
    pt.add_argument("--features-dir", required=True)
    pt.add_argument("--labels", required=True,
                    help='JSON {"vocabulary": [...], "examples": {vid: [...]}}')
    pt.add_argument("--lr", type=float, default=0.05)
    pt.add_argument("--epochs", type=_positive_int("epochs"), default=100)
    pt.add_argument("--batch", type=_positive_int("batch"), default=32)
    pt.add_argument("--k", type=_positive_int("k"), default=20)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=_cmd_concepts_train)
    pp = csub.add_parser("predict")
    pp.add_argument("--model", required=True)
    pp.add_argument("--features", required=True)
    pp.add_argument("--timestamps", required=True,
                    help='semicolon-separated "start,end" spans')
    pp.add_argument("--k", type=_positive_int("k"), default=20)
    pp.add_argument("--top", type=_positive_int("top"), default=10)
    pp.add_argument("--out")
    pp.set_defaults(func=_cmd_concepts_predict)

    p = sub.add_parser("contexts", help="extract per-event context bundles")
    p.add_argument("--meta", help="optional fps/frames sidecar JSON")
    p.add_argument("--events", required=True, help="groundtruth-format event file")
    p.add_argument("--features-dir")
    p.add_argument("--window-ratio", type=float, default=0.5)
    p.add_argument("--direction", choices=["uni", "bi"], default="bi")
    p.add_argument("--pool", choices=["mean", "max"], default="mean")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contexts)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, PermissionError, IsADirectoryError,
            CorpusFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, fusion.FusionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
