"""Command-line interface: one executable, one subcommand per pipeline stage.

Every subcommand is a thin shell over the library; identical results are
obtainable through direct calls. Exit codes: 0 success, 1 validation error,
2 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import concepts as concepts_mod
from . import contexts as contexts_mod
from . import core, fusion, intervals, metrics, rerank, synthetic
from .core import CorpusFormatError, TimeInterval


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _float_list(value):
    try:  # argparse shows an ArgumentTypeError's text, but not a ValueError's
        return [float(x) for x in value.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {value!r}") from None


def _spans(value):
    spans = [_float_list(span) for span in value.split(";")]
    if any(len(span) != 2 for span in spans):
        raise argparse.ArgumentTypeError("each span needs a start and an end")
    try:
        return [TimeInterval(*span) for span in spans]
    except CorpusFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_corpus(gt_paths, metas=None) -> core.Corpus:
    corpus = None
    for path in gt_paths:
        corpus = core.load_ground_truth(path, meta_source=metas, corpus=corpus)
    return corpus


def _write_json(payload, path):
    if path:
        core.write_json(payload, path)


def _finish_eval(result, left_out, skipped, out):
    if result.zero_prediction_videos:
        print(f"videos without predictions ({left_out}): {result.zero_prediction_videos}")
    if skipped:
        print(f"skipped predictions for {skipped} unknown videos")
    _write_json(result.to_dict(), out)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_gen_synthetic(args):
    corpus = synthetic.gen_synthetic(
        args.videos, events_range=(args.events_min, args.events_max),
        seed=args.seed, two_sets=not args.single_set)
    os.makedirs(args.out_dir, exist_ok=True)
    core.save_ground_truth(corpus, os.path.join(args.out_dir, "gt_set1.json"), 0)
    if not args.single_set:
        core.save_ground_truth(corpus, os.path.join(args.out_dir, "gt_set2.json"), 1)
    core.save_meta(corpus, os.path.join(args.out_dir, "meta.json"))
    print(f"wrote {args.videos} videos to {args.out_dir}")


def _cmd_eval_proposals(args):
    thresholds = intervals.check_thresholds(args.tiou)
    corpus = _load_corpus(args.gt)
    _, skipped = core.load_predictions(args.pred, corpus=corpus)
    table = intervals.precision_recall(corpus, thresholds)
    header = f"{'tIoU':>6} {'precision':>10} {'recall':>10}"
    print(header)
    for t, p, r in table.rows():
        print(f"{t:>6.2f} {p:>10.4f} {r:>10.4f}")
    print(f"avg proposals/video: {table.avg_proposals_per_video:.2f}")
    _finish_eval(table, "precision counted as 0", skipped, args.out)


def _cmd_eval_captions(args):
    thresholds = intervals.check_thresholds(args.tiou)
    corpus = _load_corpus(args.gt)
    _, skipped = core.load_predictions(args.pred, corpus=corpus)
    report = metrics.dense_eval(corpus, thresholds)
    print(f"{'tIoU':>6} {'BLEU4':>8} {'BLEU4raw':>9} {'CIDEr':>8} "
          f"{'matched':>8} {'unmatched':>10}")
    for t in report.thresholds:
        print(f"{t:>6.2f} {report.bleu4_smoothed[t]:>8.4f} "
              f"{report.bleu4_unsmoothed[t]:>9.4f} {report.cider[t]:>8.4f} "
              f"{report.matched[t]:>8} {report.unmatched[t]:>10}")
    print(f"average BLEU4 (smoothed): {report.avg_bleu4_smoothed:.4f}")
    print(f"average CIDEr: {report.avg_cider:.4f}")
    _finish_eval(report, "left out of the averages", skipped, args.out)


def _cmd_eval_diversity(args):
    core.check_count("n", args.n)
    sets = [core.load_predictions(path)[0] for path in [args.pred] + (args.pred2 or [])]
    report = metrics.diversity_report(metrics.captions_by_set(sets), n=args.n)
    print(f"SelfB:  {report.self_bleu:8.4f}")
    print(f"RE:     {report.repetition:8.4f}")
    print(f"SelfB2: {report.self_bleu_combined:8.4f}")
    print(f"RE2:    {report.repetition_combined:8.4f}")
    if report.excluded_self_bleu_videos:
        print(f"videos excluded from SelfB (<2 captions): "
              f"{report.excluded_self_bleu_videos}")
    _write_json(report.to_dict(), args.out)


def _cmd_fuse(args):
    cfg = fusion.FusionConfig(k=args.k, max_steps=args.max_steps, candidate_cap=args.cap)
    metas = core.load_meta(args.meta)
    scorers = fusion.load_scores(args.scores)
    predictions = fusion.select_proposals(scorers, metas, cfg)
    core.save_predictions(predictions, args.out)
    print(f"selected {sum(map(len, predictions.values()))} proposals "
          f"over {len(predictions)} videos")


def _cmd_rerank_proposals(args):
    if len(args.weights) != 4:
        raise ValueError("--weights needs four values: "
                         "quality,describability,position,length")
    weights = rerank.RerankWeights(*args.weights, top_n=args.top)
    metas = core.load_meta(args.meta)
    preds, _ = core.load_predictions(args.pred)
    out, flagged = rerank.rerank_proposals(preds, metas, weights)
    core.save_predictions(out, args.out)
    if flagged:
        print(f"candidates missing caption_logprob (factor set to 0): {flagged}")
    print(f"kept top {args.top} proposals for {len(out)} videos")


def _cmd_rerank_captions(args):
    if bool(args.concept_model) != bool(args.features_dir):
        missing = "--features-dir" if args.concept_model else "--concept-model"
        raise ValueError(f"--concept-model and --features-dir go together: {missing} is missing")
    params = rerank.CaptionRerankParams(args.alpha, args.beta, args.top_concepts)
    pred_files = [p for p in args.pred_multi.split(",") if p]
    all_preds = [core.load_predictions(p)[0] for p in pred_files]
    model = concepts_mod.load_model(args.concept_model) if args.concept_model else None
    grids = core.load_features_dir(args.features_dir) if model is not None else {}
    out = rerank.merge_captions(all_preds, params, model, grids)
    core.save_predictions(out, args.out)
    print(f"re-ranked captions for {len(out)} videos "
          f"from {len(pred_files)} hypothesis files")


def _cmd_augment(args):
    corpus = _load_corpus([args.gt])
    preds, _ = core.load_predictions(args.pred, corpus=corpus)
    payload = rerank.augment_corpus(corpus, preds)
    _write_json(payload, args.out)
    print(f"emitted {sum(map(len, payload.values()))} augmented pairs "
          f"for {len(payload)} videos")


def _cmd_concepts_train(args):
    cfg = concepts_mod.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                                   batch_size=args.batch, k_segments=args.k, seed=args.seed)
    vocab, examples = concepts_mod.load_labels(
        args.labels, core.load_features_dir(args.features_dir))
    model, trace = concepts_mod.train(examples, cfg, vocabulary=vocab)
    concepts_mod.save_model(model, args.out)
    print(f"trained on {len(examples)} proposals; "
          f"final loss {trace[-1]:.6f}")


def _cmd_concepts_predict(args):
    core.check_count("top", args.top)
    model = concepts_mod.load_model(args.model)
    grid = core.load_features(args.features)
    rows = concepts_mod.predict_report(model, grid, args.timestamps, args.top)
    for row in rows:
        head = ", ".join(f"{r['concept']}:{r['probability']:.3f}"
                         for r in row["top_concepts"][:5])
        print("[{:.1f}, {:.1f}] {}".format(*row["timestamp"], head))
    _write_json(rows, args.out)


def _cmd_contexts(args):
    contexts_mod.check_window_ratio(args.window_ratio)
    metas = core.load_meta(args.meta) if args.meta else None
    corpus = _load_corpus([args.events], metas)
    grids = core.load_features_dir(args.features_dir) if args.features_dir else {}
    payload = contexts_mod.corpus_bundles(corpus, grids, args.window_ratio,
                                          args.direction, args.pool)
    _write_json(payload, args.out)
    print(f"wrote {sum(map(len, payload.values()))} context bundles "
          f"for {len(payload)} videos")


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="densecap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic corpus")
    p.add_argument("--videos", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events-min", type=int, default=2)
    p.add_argument("--events-max", type=int, default=5)
    p.add_argument("--single-set", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("eval-proposals", help="proposal precision/recall at tIoU thresholds")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", action="append", required=True,
                   help="groundtruth file; repeat for a second annotation set")
    p.add_argument("--tiou", type=_float_list, default=metrics.DENSE_EVAL_THRESHOLDS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_proposals)

    p = sub.add_parser("eval-captions", help="tIoU-thresholded BLEU/CIDEr evaluation")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", action="append", required=True)
    p.add_argument("--tiou", type=_float_list, default=metrics.DENSE_EVAL_THRESHOLDS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_captions)

    p = sub.add_parser("eval-diversity", help="SelfB/RE diversity metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--pred2", action="append",
                   help="second caption set; repeat for more")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_diversity)

    p = sub.add_parser("fuse", help="fused proposal selection over a candidate pool")
    p.add_argument("--meta", required=True, help="video metadata JSON")
    p.add_argument("--scores", required=True,
                   help="heuristic attractors or precomputed score tables (JSON)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--cap", type=int, default=80)
    p.add_argument("--max-steps", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("rerank-proposals", help="four-factor proposal re-ranking")
    p.add_argument("--pred", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--weights", type=_float_list, default=[1.0, 1.0, 1.0, 1.0],
                   help="quality,describability,position,length")
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rerank_proposals)

    p = sub.add_parser("rerank-captions", help="pick the best caption per proposal")
    p.add_argument("--pred-multi", required=True,
                   help="comma-separated prediction files, one per captioner")
    p.add_argument("--concept-model")
    p.add_argument("--features-dir")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--top-concepts", type=int, default=20)
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
    pt.add_argument("--epochs", type=int, default=100)
    pt.add_argument("--batch", type=int, default=32)
    pt.add_argument("--k", type=int, default=20,
                    help="segments pooled per proposal; the model keeps it for prediction")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=_cmd_concepts_train)
    pp = csub.add_parser("predict")
    pp.add_argument("--model", required=True)
    pp.add_argument("--features", required=True)
    pp.add_argument("--timestamps", required=True, type=_spans,
                    help='semicolon-separated "start,end" spans')
    pp.add_argument("--top", type=int, default=10)
    pp.add_argument("--out")
    pp.set_defaults(func=_cmd_concepts_predict)

    p = sub.add_parser("contexts", help="extract per-event context bundles")
    p.add_argument("--meta", help="optional meta file, as gen-synthetic writes it; "
                   "its fps and frames_per_segment set the segment grid")
    p.add_argument("--events", required=True, help="groundtruth-format event file")
    p.add_argument("--features-dir")
    p.add_argument("--window-ratio", type=float, default=0.5)
    p.add_argument("--direction", choices=["uni", "bi"], default="bi")
    p.add_argument("--pool", choices=list(contexts_mod.POOLS), default="mean")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contexts)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (FileNotFoundError, PermissionError, IsADirectoryError,
            CorpusFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, fusion.FusionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
