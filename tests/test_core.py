import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from densecap import (Corpus, CorpusFormatError, PredictionEntry, SegmentGrid,
                      TimeInterval, VideoMeta, load_features, load_ground_truth,
                      load_meta, load_predictions, save_features, save_ground_truth,
                      save_meta, save_predictions, segment_range)
from densecap.synthetic import gen_synthetic


def write_gt(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestGroundTruthLoading:
    def test_direct_load(self, tmp_path):
        path = write_gt(tmp_path, "gt.json", {
            "v1": {"duration": 30, "timestamps": [[0, 10], [12, 28]],
                   "sentences": ["a man runs", "he stops"]}})
        corpus = load_ground_truth(path)
        assert list(corpus.videos) == ["v1"]
        record = corpus.videos["v1"]
        assert len(record.annotation_sets) == 1
        assert len(record.annotation_sets[0].intervals) == 2
        assert record.annotation_sets[0].intervals[1].end_s == 28

    def test_inverted_interval_rejected_with_location(self, tmp_path):
        path = write_gt(tmp_path, "gt.json", {
            "v1": {"duration": 30, "timestamps": [[10, 5]], "sentences": ["x"]}})
        with pytest.raises(CorpusFormatError, match=r"v1\[0\]"):
            load_ground_truth(path)

    def test_two_files_attach_two_sets(self, tmp_path):
        p1 = write_gt(tmp_path, "a.json", {
            "v1": {"duration": 30, "timestamps": [[0, 10]], "sentences": ["s1"]}})
        p2 = write_gt(tmp_path, "b.json", {
            "v1": {"duration": 30, "timestamps": [[1, 11]], "sentences": ["s2"]}})
        corpus = load_ground_truth(p1)
        corpus = load_ground_truth(p2, corpus=corpus)
        assert len(corpus.videos["v1"].annotation_sets) == 2

    def test_length_mismatch_rejected(self, tmp_path):
        path = write_gt(tmp_path, "gt.json", {
            "v1": {"duration": 30, "timestamps": [[0, 10]], "sentences": []}})
        with pytest.raises(CorpusFormatError):
            load_ground_truth(path)

    def test_small_overshoot_clamped_large_rejected(self, tmp_path):
        path = write_gt(tmp_path, "gt.json", {
            "v1": {"duration": 30, "timestamps": [[0, 30 + 5e-7]],
                   "sentences": ["s"]}})
        corpus = load_ground_truth(path)
        assert corpus.videos["v1"].annotation_sets[0].intervals[0].end_s == 30
        bad = write_gt(tmp_path, "bad.json", {
            "v1": {"duration": 30, "timestamps": [[0, 31]], "sentences": ["s"]}})
        with pytest.raises(CorpusFormatError):
            load_ground_truth(bad)

    @pytest.mark.parametrize("entry", [
        {"duration": 30, "timestamps": 5, "sentences": ["s"]},
        {"duration": 30, "timestamps": [[0, 10]], "sentences": 5},
        {"duration": 30, "timestamps": [[0, 10], [2, 8]], "sentences": "ab"},
        {"duration": 30, "timestamps": [[0, 10]], "sentences": [None]},
        {"duration": 30, "timestamps": [[0, 10]], "sentences": [5]},
        {"duration": 30, "sentences": ["s"]},
        {"duration": "long", "timestamps": [[0, 10]], "sentences": ["s"]},
        {"duration": math.inf, "timestamps": [[0, 10]], "sentences": ["s"]},
        ["not", "an", "object"],
    ])
    def test_malformed_entry_raises_format_error(self, tmp_path, entry):
        path = write_gt(tmp_path, "gt.json", {"v1": entry})
        with pytest.raises(CorpusFormatError):
            load_ground_truth(path)

    def test_fps_sidecar(self, tmp_path):
        path = write_gt(tmp_path, "gt.json", {
            "v1": {"duration": 30, "timestamps": [[0, 10]], "sentences": ["s"]}})
        corpus = load_ground_truth(path, meta_source={"v1": VideoMeta("v1", 30.2, fps=16)})
        assert corpus.videos["v1"].meta == VideoMeta("v1", 30, fps=16)

    def test_meta_duration_must_agree(self, tmp_path):
        path = write_gt(tmp_path, "gt.json", {
            "v1": {"duration": 30, "timestamps": [[0, 10]], "sentences": ["s"]}})
        with pytest.raises(CorpusFormatError, match="duration mismatch"):
            load_ground_truth(path, meta_source={"v1": VideoMeta("v1", 30.6)})


class TestMetaFiles:
    def test_round_trip(self, tmp_path):
        corpus = gen_synthetic(5, seed=3)
        save_meta(corpus, tmp_path / "meta.json")
        assert load_meta(tmp_path / "meta.json") == {
            vid: rec.meta for vid, rec in corpus.videos.items()}

    def test_grid_fields_default_to_video_meta(self, tmp_path):
        path = write_gt(tmp_path, "meta.json", {"v1": {"duration": 30},
                                                "v2": {"duration": 9.5, "fps": 16}})
        assert load_meta(path) == {"v1": VideoMeta("v1", 30.0),
                                   "v2": VideoMeta("v2", 9.5, fps=16.0)}

    @pytest.mark.parametrize("payload", [
        [{"v1": {"duration": 30}}],                      # top level is a list
        {"v1": [30]},                                     # entry is a list
        {"v1": {"fps": 25}},                              # no duration
        {"v1": {"duration": "30"}},
        {"v1": {"duration": math.nan}},
        {"v1": {"duration": 30, "fps": math.inf}},
        {"v1": {"duration": 30, "fps": True}},
        {"v1": {"duration": 30, "frames_per_segment": 64.0}},
        {"v1": {"duration": 30, "frames_per_segment": 0}},
        "{not json",
        {"v1": {"duration": 1e308}},                      # segment count overflows
        {"v1": {"duration": 10 ** 400}},                  # past the float range
    ])
    def test_malformed_raises_format_error(self, tmp_path, payload):
        path = tmp_path / "meta.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        with pytest.raises(CorpusFormatError):
            load_meta(path)


class TestPredictionLoading:
    def test_basic(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps({"version": "VERSION 1.0", "results": {
            "v1": [{"sentence": "a man runs", "timestamp": [0, 10]}]}}))
        preds, skipped = load_predictions(path)
        assert skipped == 0
        assert len(preds["v1"]) == 1
        entry = preds["v1"][0]
        assert entry.sentence == "a man runs"
        assert entry.proposal_score is None  # absent, not zero

    def test_zero_length_rejected(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps({"results": {
            "v1": [{"timestamp": [5, 5]}]}}))
        with pytest.raises(CorpusFormatError):
            load_predictions(path)

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps({"results": {
            "v1": [{"timestamp": [0, 5], "proposal_score": 1.2}]}}))
        with pytest.raises(CorpusFormatError, match="score out of range"):
            load_predictions(path)

    @pytest.mark.parametrize("payload", [
        [{"results": {}}],                                       # top level is a list
        {"results": {"v1": [[0, 5]]}},                           # row is a list
        {"results": {"v1": {"timestamp": [0, 5]}}},              # rows are not a list
        {"results": {"v1": [{"timestamp": [0, 5], "proposal_score": "high"}]}},
        {"results": {"v1": [{"timestamp": [0, 5], "proposal_score": True}]}},
        {"results": {"v1": [{"timestamp": [0, 5], "caption_logprob": "low"}]}},
        {"results": {"v1": [{"timestamp": [0, 5], "sentence": 5}]}},
        {"results": {"v1": [{"timestamp": {"start": 0, "end": 5}}]}},
        {"results": {"v1": [{"timestamp": 5}]}},
        {"results": {"v1": [{"timestamp": [0, 5, 9]}]}},
        {"results": {"v1": [{"timestamp": ["a", 5]}]}},
        {"results": {"v1": [{"sentence": "no timestamp"}]}},
        {"results": {"v1": [{"timestamp": [0, 5], "caption_logprob": math.nan}]}},
        {"results": {"v1": [{"timestamp": [0, 5], "caption_logprob": -math.inf}]}},
        {"results": {"v1": [{"timestamp": [0, math.inf]}]}},
    ])
    def test_malformed_rows_raise_format_error(self, tmp_path, payload):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError):
            load_predictions(path)

    def test_unknown_video_skipped(self, tmp_path):
        gt = write_gt(tmp_path, "gt.json", {
            "v1": {"duration": 30, "timestamps": [[0, 10]], "sentences": ["s"]}})
        corpus = load_ground_truth(gt)
        path = tmp_path / "pred.json"
        path.write_text(json.dumps({"results": {
            "v1": [{"timestamp": [0, 5]}],
            "ghost": [{"timestamp": [0, 5]}]}}))
        preds, skipped = load_predictions(path, corpus=corpus)
        assert skipped == 1 and "ghost" not in preds


    def test_non_finite_values_are_not_written(self, tmp_path):
        good = PredictionEntry(TimeInterval(0, 5), caption_logprob=-1.0)
        bad = PredictionEntry(TimeInterval(0, 5), caption_logprob=math.nan)
        with pytest.raises(ValueError):
            save_predictions({"v1": [good] * 500, "v2": [bad]}, tmp_path / "pred.json")
        assert not (tmp_path / "pred.json").exists()


class TestSegmentRange:
    def test_exact_division(self):
        meta = VideoMeta("v", 16.0, fps=16.0)  # seg_dur 4 s
        assert segment_range(TimeInterval(0, 8), meta) == (0, 2)

    def test_degenerate_clamp(self):
        meta = VideoMeta("v", 16.0, fps=16.0)
        assert segment_range(TimeInterval(0.1, 0.2), meta) == (0, 1)

    def test_floor_ceil(self):
        meta = VideoMeta("v", 16.0, fps=16.0)
        assert segment_range(TimeInterval(3.9, 8.1), meta) == (0, 3)

    def test_bounds(self):
        meta = VideoMeta("v", 17.0, fps=16.0)  # 5 segments, last partial
        i, j = segment_range(TimeInterval(16.5, 17.0), meta)
        assert 0 <= i < j <= meta.segment_count

    @given(st.floats(1.0, 500.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_under_containment(self, duration, a, b, c, d):
        # b-interval from (a, b) fractions; nested interval from (c, d)
        lo, hi = sorted([a * duration, b * duration])
        if hi - lo < 1e-6:
            return
        inner_lo = lo + c * (hi - lo)
        inner_hi = inner_lo + max(1e-9, d * (hi - inner_lo))
        if inner_hi - inner_lo < 1e-9 or inner_hi > hi:
            return
        meta = VideoMeta("v", duration)
        oi, oj = segment_range(TimeInterval(lo, hi), meta)
        ii, ij = segment_range(TimeInterval(inner_lo, inner_hi), meta)
        assert oi <= ii and ij <= oj

    def test_full_coverage_union(self):
        meta = VideoMeta("v", 100.0)  # 40 segments of 2.56 s
        cuts = [0.0, 13.7, 30.0, 55.5, 81.2, 100.0]
        covered = set()
        for a, b in zip(cuts, cuts[1:]):
            i, j = segment_range(TimeInterval(a, b), meta)
            covered.update(range(i, j))
        assert covered == set(range(meta.segment_count))


class TestRoundTrip:
    def test_ground_truth(self, tmp_path):
        path = write_gt(tmp_path, "gt.json", {
            "v1": {"duration": 30.5, "timestamps": [[0.25, 10.75], [12, 28]],
                   "sentences": ["a man runs", "he stops"]},
            "v2": {"duration": 60, "timestamps": [[5, 20]], "sentences": ["x"]}})
        corpus = load_ground_truth(path)
        out = tmp_path / "copy.json"
        save_ground_truth(corpus, out)
        reloaded = load_ground_truth(out)
        for vid, rec in corpus.videos.items():
            other = reloaded.videos[vid]
            assert abs(rec.meta.duration_s - other.meta.duration_s) < 1e-9
            for a, b in zip(rec.annotation_sets[0].intervals,
                            other.annotation_sets[0].intervals):
                assert abs(a.start_s - b.start_s) < 1e-9
                assert abs(a.end_s - b.end_s) < 1e-9
            assert rec.annotation_sets[0].sentences == other.annotation_sets[0].sentences

    def test_predictions(self, tmp_path):
        preds = {"v1": [
            PredictionEntry(TimeInterval(0.5, 9.5), sentence="a man runs",
                            proposal_score=0.75, caption_logprob=-3.25),
            PredictionEntry(TimeInterval(10, 20)),
        ]}
        path = tmp_path / "pred.json"
        save_predictions(preds, path)
        loaded, _ = load_predictions(path)
        assert loaded["v1"][0].proposal_score == 0.75
        assert loaded["v1"][0].caption_logprob == -3.25
        assert loaded["v1"][1].sentence is None
        assert loaded["v1"][1].proposal_score is None

    @pytest.mark.parametrize("binary", [True, False])
    def test_features(self, tmp_path, binary):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((meta.segment_count, 6)).astype(np.float32)
        grid = SegmentGrid(meta, feats, feature_tag="context")
        path = tmp_path / "v1.feat"
        save_features(grid, path, binary=binary)
        loaded = load_features(path)
        assert loaded.meta.video_id == "v1"
        assert loaded.feature_tag == "context"
        np.testing.assert_allclose(loaded.features, feats, atol=1e-9)
        # save -> load is stable once values are representable
        save_features(loaded, path, binary=binary)
        again = load_features(path)
        np.testing.assert_array_equal(again.features, loaded.features)

    @pytest.mark.parametrize("cut", [6, 8])
    def test_truncated_binary_features_rejected(self, tmp_path, cut):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        path = tmp_path / "v1.feat"
        save_features(SegmentGrid(meta, np.ones((meta.segment_count, 3))), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(CorpusFormatError):
            load_features(path)

    @pytest.mark.parametrize("key", ["video_id", "duration", "segment_count", "dim"])
    def test_feature_header_field_required(self, tmp_path, rewrite_header, key):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        path = tmp_path / "v1.feat"
        save_features(SegmentGrid(meta, np.ones((meta.segment_count, 3))), path)
        rewrite_header(path, lambda header: header.pop(key))
        with pytest.raises(CorpusFormatError, match=key):
            load_features(path)

    @pytest.mark.parametrize("key, value", [
        ("dim", "3"), ("segment_count", 4.0), ("duration", None), ("fps", "fast"),
        ("frames_per_segment", True), ("feature_tag", 7), ("video_id", 1),
    ])
    def test_feature_header_field_type_checked(self, tmp_path, rewrite_header,
                                               key, value):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        path = tmp_path / "v1.feat"
        save_features(SegmentGrid(meta, np.ones((meta.segment_count, 3))), path)
        rewrite_header(path, lambda header: header.update({key: value}))
        with pytest.raises(CorpusFormatError):
            load_features(path)

    @pytest.mark.parametrize("content", [b"SEGF", b"SEGF\x40\x00", b"SEGF\x40\x00\x00\x00{",
                                         b"SEGF\x02\x00\x00\x00[]", b"[1, 2]", b"\xff\xfe"])
    def test_bad_feature_header_rejected(self, tmp_path, content):
        path = tmp_path / "v1.feat"
        path.write_bytes(content)
        with pytest.raises(CorpusFormatError):
            load_features(path)

    def test_json_features_required(self, tmp_path):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        path = tmp_path / "v1.json"
        save_features(SegmentGrid(meta, np.ones((meta.segment_count, 3))), path,
                      binary=False)
        payload = json.loads(path.read_text())
        del payload["features"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError, match="features"):
            load_features(path)

    def test_feature_row_count_enforced(self):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        with pytest.raises(CorpusFormatError):
            SegmentGrid(meta, np.zeros((2, 4)))
