import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from densecap import (PredictionEntry, SegmentGrid, VideoMeta,
                      load_ground_truth, load_predictions, save_features,
                      save_predictions)
from densecap import cli
from densecap.cli import dispatch
from densecap.concepts import ConceptVocabulary, LinearConceptModel, save_model


@pytest.fixture
def synthetic_dir(tmp_path):
    out = tmp_path / "corpus"
    assert dispatch(["gen-synthetic", "--videos", "6", "--seed", "7",
                     "--out-dir", str(out)]) == 0
    return out


def identity_pred_file(synthetic_dir, tmp_path, with_scores=True):
    corpus = load_ground_truth(synthetic_dir / "gt_set1.json")
    preds = {}
    for vid, rec in corpus.videos.items():
        ann = rec.annotation_sets[0]
        rows = []
        for iv, sent in zip(ann.intervals, ann.sentences):
            rows.append(PredictionEntry(
                iv, sentence=sent,
                proposal_score=0.9 if with_scores else None,
                caption_logprob=-2.5 if with_scores else None))
        preds[vid] = rows
    path = tmp_path / "pred.json"
    save_predictions(preds, path)
    return path


FUSE = ["fuse", "--meta", "{meta.json}", "--scores", "{scores.json}", "--out", "{out.json}"]
CONTEXTS = ["contexts", "--events", "{gt.json}", "--meta", "{meta.json}",
            "--out", "{out.json}"]
DEFAULT_FILES = {
    "meta.json": {"v1": {"duration": 30}},
    "scores.json": {"mode": "heuristic", "attractors": {"v1": [[0, 10]]}},
    "gt.json": {"v1": {"duration": 30, "timestamps": [[0, 10]], "sentences": ["a man runs"]}},
}


def with_files(tmp_path, argv, files):
    """`argv` with each "{name}" replaced by the path of a file holding
    files[name] (a string as it is, anything else as JSON)."""
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]


class TestDispatchBasics:
    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_k_exits_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["fuse", "--meta", "m", "--scores", "s", "--out", "o",
                      "--k", "0"])
        assert exc.value.code == 1
        assert "k must be >= 1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert dispatch(["eval-proposals", "--pred", str(tmp_path / "nope.json"),
                         "--gt", str(tmp_path / "nope2.json")]) == 2


    @pytest.mark.parametrize("payload", [
        [{"results": {}}],
        {"results": {"v1": [[0, 5]]}},
        {"results": {"v1": [{"timestamp": [0, 5], "proposal_score": "high"}]}},
        {"results": {"v1": [{"timestamp": [0, 5], "caption_logprob": "low"}]}},
        {"results": {"v1": [{"timestamp": [0, 5], "caption_logprob": math.nan}]}},
        {"results": {"v1": [{"timestamp": [0, math.inf]}]}},
    ])
    def test_malformed_predictions_exit_2(self, tmp_path, payload):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps(payload))
        assert dispatch(["eval-diversity", "--pred", str(path)]) == 2

    def test_truncated_feature_file_exits_2(self, tmp_path):
        model, feat = one_concept_files(tmp_path)
        feat.write_bytes(feat.read_bytes()[:-6])
        assert dispatch(predict_args(model, feat)) == 2

    @pytest.mark.parametrize("entry", [
        {"duration": 30, "timestamps": 5, "sentences": ["s"]},
        {"duration": 30, "timestamps": [[0, 10]], "sentences": 5},
    ])
    def test_non_list_groundtruth_fields_exit_2(self, tmp_path, entry):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"v1": entry}))
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"results": {}}))
        assert dispatch(["eval-captions", "--pred", str(pred), "--gt", str(gt)]) == 2

    @pytest.mark.parametrize("files, argv", [
        pytest.param({"meta.json": [{"v1": {"duration": 30}}]}, FUSE, id="fuse-meta-list"),
        pytest.param({"meta.json": {"v1": {"fps": 25}}}, FUSE, id="meta-without-duration"),
        pytest.param({"meta.json": "not json"}, FUSE, id="meta-not-json"),
        pytest.param({"meta.json": {"v1": {"duration": math.nan}}}, FUSE,
                     id="meta-nan-duration"),
        pytest.param({"scores.json": {"mode": "heuristic"}}, FUSE,
                     id="heuristic-without-attractors"),
        pytest.param({"scores.json": {"mode": "tables", "videos": {"v1": {
            "candidates": [[0, 10]], "f_e_steps": []}}}}, FUSE, id="tables-without-f_s"),
        pytest.param({"scores.json": {"mode": "tables", "videos": {"v1": {
            "candidates": [[0, 10], [10, 20]], "f_s": [0.5], "f_e_steps": []}}}}, FUSE,
            id="tables-f_s-per-candidate"),
        pytest.param({"scores.json": {"mode": "oracle"}}, FUSE, id="unknown-mode"),
        pytest.param({"meta.json": [{"v1": {"duration": 30}}]}, CONTEXTS,
                     id="contexts-meta-list"),
        pytest.param({"meta.json": {"v1": {"duration": 12}}}, CONTEXTS,
                     id="contexts-meta-duration-mismatch"),
    ])
    def test_malformed_input_exits_2(self, tmp_path, capsys, files, argv):
        code = dispatch(with_files(tmp_path, argv, {**DEFAULT_FILES, **files}))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_nan_caption_logprob_exits_2(self, tmp_path, capsys):
        argv = ["rerank-proposals", "--pred", "{pred.json}", "--meta", "{meta.json}",
                "--out", "{out.json}"]
        pred = {"results": {"v1": [{"timestamp": [0, 5], "proposal_score": 0.5,
                                    "caption_logprob": math.nan}]}}
        assert dispatch(with_files(tmp_path, argv, {**DEFAULT_FILES, "pred.json": pred})) == 2
        assert "non-finite caption_logprob" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


def test_cli_imports_neither_json_nor_numpy():
    """File formats live in the library modules and arrays stay behind
    library calls, so the CLI needs neither."""
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not imported & {"json", "numpy"}


class TestGenSynthetic:
    def test_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert dispatch(["gen-synthetic", "--videos", "50", "--seed", "7",
                             "--out-dir", str(out)]) == 0
        for name in ("gt_set1.json", "gt_set2.json", "meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestEvalProposals:
    def test_identity_corpus(self, synthetic_dir, tmp_path, capsys):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "pr.json"
        code = dispatch(["eval-proposals", "--pred", str(pred),
                         "--gt", str(synthetic_dir / "gt_set1.json"),
                         "--tiou", "0.5", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["precision"]["0.5"] == pytest.approx(1.0)
        assert report["recall"]["0.5"] == pytest.approx(1.0)

    def test_two_gt_sets(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "pr.json"
        code = dispatch(["eval-proposals", "--pred", str(pred),
                         "--gt", str(synthetic_dir / "gt_set1.json"),
                         "--gt", str(synthetic_dir / "gt_set2.json"),
                         "--tiou", "0.3,0.9", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["precision"]["0.3"] == pytest.approx(1.0)


class TestEvalCaptions:
    def test_identity(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "cap.json"
        code = dispatch(["eval-captions", "--pred", str(pred),
                         "--gt", str(synthetic_dir / "gt_set1.json"),
                         "--tiou", "0.9", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["bleu4_smoothed"]["0.9"] == pytest.approx(1.0)


class TestEvalDiversity:
    def test_report_fields(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "div.json"
        code = dispatch(["eval-diversity", "--pred", str(pred),
                         "--n", "4", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        for key in ("SelfB", "RE", "SelfB2", "RE2"):
            assert key in report
            assert 0.0 <= report[key] <= 100.0


class TestFuse:
    def test_heuristic_mode(self, synthetic_dir, tmp_path):
        gt = json.loads((synthetic_dir / "gt_set1.json").read_text())
        scores = {"mode": "heuristic",
                  "attractors": {vid: entry["timestamps"]
                                 for vid, entry in gt.items()}}
        scores_path = tmp_path / "scores.json"
        scores_path.write_text(json.dumps(scores))
        out = tmp_path / "fused.json"
        code = dispatch(["fuse", "--meta", str(synthetic_dir / "meta.json"),
                         "--scores", str(scores_path), "--k", "1",
                         "--cap", "80", "--out", str(out)])
        assert code == 0
        preds, _ = load_predictions(out)
        assert set(preds) == set(gt)
        for vid, rows in preds.items():
            assert 1 <= len(rows) <= 20

    def test_tables_mode(self, tmp_path):
        meta = {"v1": {"duration": 30.0}}
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        scores = {"mode": "tables", "videos": {"v1": {
            "candidates": [[0, 10], [10, 20], [20, 30]],
            "f_s": [0.9, 0.5, 0.4],
            "f_e_steps": [
                {"probs": {"0": 0.2, "1": 0.5, "2": 0.2}, "eos": 0.1},
                {"probs": {"0": 0.3, "2": 0.1}, "eos": 0.6},
            ]}}}
        (tmp_path / "scores.json").write_text(json.dumps(scores))
        out = tmp_path / "fused.json"
        code = dispatch(["fuse", "--meta", str(tmp_path / "meta.json"),
                         "--scores", str(tmp_path / "scores.json"),
                         "--out", str(out)])
        assert code == 0
        preds, _ = load_predictions(out)
        assert [(p.interval.start_s, p.interval.end_s) for p in preds["v1"]] == \
            [(10.0, 20.0)]


class TestRerankCli:
    def test_rerank_proposals(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "top.json"
        code = dispatch(["rerank-proposals", "--pred", str(pred),
                         "--meta", str(synthetic_dir / "meta.json"),
                         "--top", "2", "--out", str(out)])
        assert code == 0
        preds, _ = load_predictions(out)
        for rows in preds.values():
            assert len(rows) <= 2

    def test_rerank_captions_diversity_only(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "best.json"
        code = dispatch(["rerank-captions", "--pred-multi", f"{pred},{pred}",
                         "--out", str(out)])
        assert code == 0
        preds, _ = load_predictions(out)
        assert preds

    def test_rerank_captions_rejects_disagreeing_files(self, synthetic_dir, tmp_path, capsys):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        preds, _ = load_predictions(pred)
        shuffled = tmp_path / "shuffled.json"
        save_predictions({vid: rows[::-1] for vid, rows in preds.items()}, shuffled)
        code = dispatch(["rerank-captions", "--pred-multi", f"{pred},{shuffled}",
                         "--out", str(tmp_path / "best.json")])
        assert code == 2
        assert "disagree on the interval" in capsys.readouterr().err

    def test_augment(self, synthetic_dir, tmp_path):
        pred = identity_pred_file(synthetic_dir, tmp_path)
        out = tmp_path / "pairs.json"
        code = dispatch(["augment", "--pred", str(pred),
                         "--gt", str(synthetic_dir / "gt_set1.json"),
                         "--out", str(out)])
        assert code == 0
        pairs = json.loads(out.read_text())
        for rows in pairs.values():
            for row in rows:
                assert row["tiou"] > 0.3


def concept_training_args(tmp_path, features):
    """`concepts train` arguments for one 16-segment video, "run" in its
    first half and "jump" in its second."""
    feat_dir = tmp_path / "feats"
    feat_dir.mkdir()
    meta = VideoMeta("v1", 64.0, fps=16.0)  # 16 segments
    save_features(SegmentGrid(meta, features), feat_dir / "v1.feat")
    labels = {
        "vocabulary": ["run", "jump"],
        "examples": {"v1": [
            {"timestamp": [0, 32], "concepts": ["run"]},
            {"timestamp": [32, 64], "concepts": ["jump"]},
        ]},
    }
    (tmp_path / "labels.json").write_text(json.dumps(labels))
    return ["concepts", "train", "--features-dir", str(feat_dir),
            "--labels", str(tmp_path / "labels.json"), "--k", "8"]


def one_concept_files(tmp_path):
    """A one-concept binary model and a matching 3-d binary feature file."""
    meta = VideoMeta("v1", 16.0, fps=16.0)
    feat = tmp_path / "v1.feat"
    save_features(SegmentGrid(meta, np.ones((meta.segment_count, 3))), feat)
    model = tmp_path / "model.bin"
    save_model(LinearConceptModel(np.zeros((1, 3)), np.zeros(1),
                                  ConceptVocabulary(["run"])), model)
    return model, feat


def predict_args(model, feat):
    return ["concepts", "predict", "--model", str(model), "--features", str(feat),
            "--timestamps", "0,8"]


class TestConceptsCli:
    def test_train_and_predict(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((16, 8))
        features[:8, 0] += 3.0  # first half correlates with concept "run"
        feat_dir = tmp_path / "feats"
        model_path = tmp_path / "model.bin"
        code = dispatch(concept_training_args(tmp_path, features)
                        + ["--epochs", "20", "--out", str(model_path)])
        assert code == 0
        out = tmp_path / "probs.json"
        code = dispatch(["concepts", "predict", "--model", str(model_path),
                         "--features", str(feat_dir / "v1.feat"),
                         "--timestamps", "0,32;32,64", "--k", "8",
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        assert payload[0]["top_concepts"][0]["concept"] in ("run", "jump")

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.5"])
    def test_bad_learning_rate_exits_1(self, tmp_path, capsys, lr):
        code = dispatch(concept_training_args(tmp_path, np.ones((16, 8)))
                        + ["--lr", lr, "--out", str(tmp_path / "model.bin")])
        assert code == 1
        assert "error: learning_rate must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_exits_1(self, tmp_path, capsys):
        # one step at lr 1e308 makes a weight infinite; times the zero
        # feature of the second half's segments, that is a NaN logit
        features = np.zeros((16, 8))
        features[:8, 0] = 20.0
        code = dispatch(concept_training_args(tmp_path, features)
                        + ["--lr", "1e308", "--epochs", "3",
                           "--out", str(tmp_path / "model.bin")])
        assert code == 1
        assert "error: loss became non-finite at epoch 0" in capsys.readouterr().err
        assert not (tmp_path / "model.bin").exists()

    def test_truncated_model_exits_2(self, tmp_path):
        model, feat = one_concept_files(tmp_path)
        model.write_bytes(model.read_bytes()[:-6])
        assert dispatch(predict_args(model, feat)) == 2

    @pytest.mark.parametrize("key", ["n_concepts", "dim", "vocabulary"])
    def test_model_header_field_missing_exits_2(self, tmp_path, rewrite_header, key):
        model, feat = one_concept_files(tmp_path)
        rewrite_header(model, lambda header: header.pop(key))
        assert dispatch(predict_args(model, feat)) == 2

    @pytest.mark.parametrize("key", ["video_id", "duration", "segment_count", "dim"])
    def test_feature_header_field_missing_exits_2(self, tmp_path, rewrite_header, key):
        model, feat = one_concept_files(tmp_path)
        rewrite_header(feat, lambda header: header.pop(key))
        assert dispatch(predict_args(model, feat)) == 2

    def test_labels_without_vocabulary_exits_2(self, tmp_path, capsys):
        argv = concept_training_args(tmp_path, np.ones((16, 8)))
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"examples": json.loads(labels.read_text())["examples"]}))
        assert dispatch(argv + ["--out", str(tmp_path / "model.bin")]) == 2
        assert "missing vocabulary" in capsys.readouterr().err


class TestContextsCli:
    def test_bundles(self, synthetic_dir, tmp_path):
        out = tmp_path / "bundles.json"
        code = dispatch(["contexts", "--events",
                         str(synthetic_dir / "gt_set1.json"),
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        for vid, bundles in payload.items():
            for k, row in enumerate(bundles):
                i, j = row["event_range"]
                assert 0 <= i < j <= len(row["global_mask"])
                assert len(row["sentence_history"]) == k

    def test_feature_grid_must_match_meta(self, synthetic_dir, tmp_path, capsys):
        gt = load_ground_truth(synthetic_dir / "gt_set1.json")
        vid, record = next(iter(gt.videos.items()))
        feat_dir = tmp_path / "feats"
        feat_dir.mkdir()
        meta = VideoMeta(vid, record.meta.duration_s, fps=50.0)  # twice the segments
        save_features(SegmentGrid(meta, np.ones((meta.segment_count, 2))),
                      feat_dir / "one.feat")
        code = dispatch(["contexts", "--events", str(synthetic_dir / "gt_set1.json"),
                         "--meta", str(synthetic_dir / "meta.json"),
                         "--features-dir", str(feat_dir), "--out", str(tmp_path / "b.json")])
        assert code == 2
        assert "feature segments" in capsys.readouterr().err

    @pytest.mark.parametrize("binary, edit", [
        (True, lambda rows: rows[0].__setitem__(0, math.nan)),
        (True, lambda rows: rows[1].__setitem__(1, -math.inf)),
        (False, lambda rows: rows[0].__setitem__(0, math.nan)),
        (False, lambda rows: rows[1].__setitem__(1, math.inf)),
        (False, lambda rows: rows[0].__setitem__(0, "high")),
        (False, lambda rows: rows[1].pop()),
    ], ids=["binary-nan", "binary-inf", "json-nan", "json-inf", "json-non-numeric",
            "json-ragged"])
    def test_bad_feature_values_exit_2(self, synthetic_dir, tmp_path, capsys, binary, edit):
        gt = load_ground_truth(synthetic_dir / "gt_set1.json")
        record = next(iter(gt.videos.values()))
        grid = SegmentGrid(record.meta, np.ones((record.meta.segment_count, 2)))
        path = tmp_path / "feats" / "one.feat"
        path.parent.mkdir()
        if binary:
            edit(grid.features)
            save_features(grid, path)
        else:
            save_features(grid, path, binary=False)
            doc = json.loads(path.read_text())
            edit(doc["features"])
            path.write_text(json.dumps(doc))
        code = dispatch(["contexts", "--events", str(synthetic_dir / "gt_set1.json"),
                         "--features-dir", str(path.parent),
                         "--out", str(tmp_path / "b.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "b.json").exists()
