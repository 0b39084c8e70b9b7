import json
import shutil

import numpy as np
import pytest

from densecap import (SegmentGrid, VideoMeta, load_features, load_ground_truth,
                      load_predictions, save_features, save_predictions)
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
        from densecap import PredictionEntry
        for iv, sent in zip(ann.intervals, ann.sentences):
            rows.append(PredictionEntry(
                iv, sentence=sent,
                proposal_score=0.9 if with_scores else None,
                caption_logprob=-2.5 if with_scores else None))
        preds[vid] = rows
    path = tmp_path / "pred.json"
    save_predictions(preds, path)
    return path


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
    ])
    def test_malformed_predictions_exit_2(self, tmp_path, payload):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps(payload))
        assert dispatch(["eval-diversity", "--pred", str(path)]) == 2

    def test_truncated_feature_file_exits_2(self, tmp_path):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        feat = tmp_path / "v1.feat"
        save_features(SegmentGrid(meta, np.ones((meta.segment_count, 3))), feat)
        feat.write_bytes(feat.read_bytes()[:-6])
        model = tmp_path / "model.bin"
        save_model(LinearConceptModel(np.zeros((1, 3)), np.zeros(1),
                                      ConceptVocabulary(["run"])), model)
        assert dispatch(["concepts", "predict", "--model", str(model),
                         "--features", str(feat), "--timestamps", "0,8"]) == 2


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


class TestConceptsCli:
    def test_train_and_predict(self, tmp_path):
        feat_dir = tmp_path / "feats"
        feat_dir.mkdir()
        rng = np.random.default_rng(0)
        meta = VideoMeta("v1", 64.0, fps=16.0)  # 16 segments
        features = rng.standard_normal((meta.segment_count, 8))
        features[:8, 0] += 3.0  # first half correlates with concept "run"
        save_features(SegmentGrid(meta, features), feat_dir / "v1.feat")
        labels = {
            "vocabulary": ["run", "jump"],
            "examples": {"v1": [
                {"timestamp": [0, 32], "concepts": ["run"]},
                {"timestamp": [32, 64], "concepts": ["jump"]},
            ]},
        }
        (tmp_path / "labels.json").write_text(json.dumps(labels))
        model_path = tmp_path / "model.bin"
        code = dispatch(["concepts", "train", "--features-dir", str(feat_dir),
                         "--labels", str(tmp_path / "labels.json"),
                         "--epochs", "20", "--k", "8",
                         "--out", str(model_path)])
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
