import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from densecap import (AnnotationSet, CandidatePool, CaptionRerankParams, ConceptVocabulary,
                      CorpusFormatError, FusionConfig, HeuristicPointwiseScorer,
                      LinearConceptModel, PredictionEntry, RerankWeights, SegmentGrid,
                      TimeInterval, TrainConfig, VideoMeta, load_features,
                      load_ground_truth, load_meta, load_predictions, save_features,
                      save_ground_truth, save_meta, save_predictions, segment_range,
                      select_even_segments)
from densecap.concepts import predict_report, top_concepts
from densecap.core import (IntervalArray, check_count, load_features_dir, read_interval,
                           read_intervals, write_json)
from densecap.synthetic import gen_synthetic


def write_gt(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


TWO_WINDOWS = [TimeInterval(0, 8), TimeInterval(4, 12)]
ONE_CONCEPT = LinearConceptModel(np.zeros((1, 2)), np.zeros(1), ConceptVocabulary(["run"]), 2)
GRID_16S = SegmentGrid(VideoMeta("v1", 16.0, fps=16.0), np.ones((4, 2)))  # four 4 s segments
COUNT_ARGUMENTS = {
    "check_count": lambda v: check_count("n", v),
    "FusionConfig.k": lambda v: FusionConfig(k=v),
    "FusionConfig.max_steps": lambda v: FusionConfig(max_steps=v),
    "FusionConfig.candidate_cap": lambda v: FusionConfig(candidate_cap=v),
    "CandidatePool.from_windows.cap": lambda v: CandidatePool.from_windows(
        TWO_WINDOWS, HeuristicPointwiseScorer(TWO_WINDOWS), cap=v),
    "TrainConfig.epochs": lambda v: TrainConfig(epochs=v),
    "TrainConfig.batch_size": lambda v: TrainConfig(batch_size=v),
    "TrainConfig.k_segments": lambda v: TrainConfig(k_segments=v),
    "LinearConceptModel.k_segments": lambda v: LinearConceptModel(
        ONE_CONCEPT.W, ONE_CONCEPT.b, ONE_CONCEPT.vocabulary, v),
    "select_even_segments.k": lambda v: select_even_segments(
        TimeInterval(0, 8), GRID_16S.meta, v),
    "top_concepts.k": lambda v: top_concepts(np.array([0.5]), ONE_CONCEPT.vocabulary, v),
    "predict_report.top": lambda v: predict_report(ONE_CONCEPT, GRID_16S, [], top=v),
    "RerankWeights.top_n": lambda v: RerankWeights(top_n=v),
    "CaptionRerankParams.top_concepts": lambda v: CaptionRerankParams(top_concepts=v),
    "gen_synthetic.n_videos": lambda v: gen_synthetic(v),
    "gen_synthetic.events_range[0]": lambda v: gen_synthetic(1, events_range=(v, 5)),
    "gen_synthetic.events_range[1]": lambda v: gen_synthetic(1, events_range=(1, v)),
}


class TestCheckCount:
    """Every count the library takes goes through `check_count`: an int or
    numpy integer, not a bool, of at least 1."""

    @pytest.mark.parametrize("call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS.keys())
    @pytest.mark.parametrize("value", [0, -1, 1.5, True, math.nan, 4.0, "4"],
                             ids=["0", "-1", "1.5", "True", "nan", "4.0", "str"])
    def test_rejected(self, call, value):
        with pytest.raises(ValueError, match=r"must be >= 1 and an int, got "):
            call(value)

    @pytest.mark.parametrize("call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS.keys())
    def test_numpy_integer_accepted(self, call):
        call(np.int64(3))


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
        {"duration": 30, "timestamps": [[False, "10"]], "sentences": ["s"]},
        {"duration": 30, "timestamps": [[0, "10"]], "sentences": ["s"]},
        {"duration": 30, "timestamps": [[True, 5]], "sentences": ["s"]},
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


class TestReadInterval:
    @pytest.mark.parametrize("pair, duration, message", [
        ([40.0, 40.0000005], 40.0, r"inverted interval [40.0, 40.0] at v1[3]"),
        ([5, 2], 40.0, r"inverted interval [5.0, 2.0] at v1[3]"),
        ([-1, 2], 40.0, r"negative start -1.0 at v1[3]"),
        ([0, 41], 40.0, r"interval end 41.0 exceeds duration 40.0 at v1[3]"),
    ])
    def test_every_error_names_the_location(self, pair, duration, message):
        with pytest.raises(CorpusFormatError) as err:
            read_interval(pair, duration, "v1[3]")
        assert str(err.value) == message


class TestReadIntervals:
    def test_read_interval_returns_the_checked_floats(self):
        assert read_interval([0, 30.0000004], 30.0, "v1[0]") == (0.0, 30.0)
        assert read_interval([1, 2.5], math.inf, "v1[0]") == (1.0, 2.5)

    def test_ground_truth_builds_no_time_interval(self, tmp_path, monkeypatch):
        """Each pair is read once, as two floats: the rows are checked as one
        IntervalArray, with no TimeInterval per pair."""
        path = write_gt(tmp_path, "gt.json", {
            "v1": {"duration": 30, "timestamps": [[0, 10], [12, 28], [5, 30.0000004]],
                   "sentences": ["a", "b", "c"]},
            "v2": {"duration": 9, "timestamps": [[1, 2]], "sentences": ["d"]}})
        calls = []
        checked = TimeInterval.__post_init__
        monkeypatch.setattr(TimeInterval, "__post_init__",
                            lambda self: calls.append(self) or checked(self))
        corpus = load_ground_truth(path)
        assert corpus.videos["v1"].annotation_sets[0].intervals.bounds.tolist() == [
            [0.0, 10.0], [12.0, 28.0], [5.0, 30.0]]
        assert calls == []
        TimeInterval(0, 1)  # the counter sees the objects that are built
        assert len(calls) == 1

    def test_returns_one_interval_array(self):
        got = read_intervals({"ts": [[0, 10], [12, 30.0000004], [1.5, 2]]}, "ts", 30.0, "v1")
        assert isinstance(got, IntervalArray)
        assert got.bounds.tolist() == [[0.0, 10.0], [12.0, 30.0], [1.5, 2.0]]
        assert read_intervals({"ts": []}, "ts", 30.0, "v1").bounds.shape == (0, 2)

    @pytest.mark.parametrize("pair", [
        [40.0, 40.0000005], [5, 2], [-1, 2], [0, 41], [0, math.nan], [0], "0,1",
        [True, 2], [0, "2"], [0, 1e400],
    ])
    def test_each_error_names_the_pair_index(self, pair):
        """Every message is the one `read_interval` gives, at the pair's index."""
        with pytest.raises(CorpusFormatError) as want:
            read_interval(pair, 40.0, "v1[1]")
        with pytest.raises(CorpusFormatError) as got:
            read_intervals({"ts": [[0, 1], pair, [3, 2]]}, "ts", 40.0, "v1")
        assert str(got.value) == str(want.value)

    def test_first_bad_pair_in_file_order_is_reported(self):
        """With several bad pairs, the first in the file is reported, whatever its error."""
        with pytest.raises(CorpusFormatError,
                           match=r"^inverted interval \[5.0, 2.0\] at v1\[0\]$"):
            read_intervals({"ts": [[5, 2], [0, "x"]]}, "ts", 40.0, "v1")
        with pytest.raises(CorpusFormatError, match=r"^v1\[0\]: bad end 'x'$"):
            read_intervals({"ts": [[0, "x"], [5, 2]]}, "ts", 40.0, "v1")


class TestAnnotationSet:
    def test_list_is_converted_to_the_same_array(self):
        events = [TimeInterval(0.0, 10.0), TimeInterval(5.5, 7.25)]
        from_list = AnnotationSet(events, ["a", "b"])
        assert isinstance(from_list.intervals, IntervalArray)
        assert from_list == AnnotationSet(IntervalArray([[0.0, 10.0], [5.5, 7.25]]), ["a", "b"])
        assert list(from_list.intervals) == events

    def test_bounds_are_read_only(self):
        ann = AnnotationSet([TimeInterval(0.0, 10.0)], ["a"])
        with pytest.raises(ValueError, match="read-only"):
            ann.intervals.bounds[0, 1] = 20.0

    def test_bad_row_raises_as_time_interval(self):
        with pytest.raises(CorpusFormatError, match=r"^inverted interval \[5.0, 2.0\]$"):
            AnnotationSet(IntervalArray([[0, 1], [5, 2]]), ["a", "b"])

    @pytest.mark.parametrize("intervals, sentences, message", [
        ([], [], "annotation set must contain at least one event"),
        (IntervalArray([[0, 1]]), ["a", "b"], "1 intervals vs 2 sentences"),
    ])
    def test_size_errors(self, intervals, sentences, message):
        with pytest.raises(CorpusFormatError, match=message):
            AnnotationSet(intervals, sentences)


class TestTimeInterval:
    @pytest.mark.parametrize("start, end, message", [
        (5, 2, "inverted interval [5, 2]"),
        (math.nan, 2, "inverted interval [nan, 2]"),
        (0, math.nan, "inverted interval [0, nan]"),
        (-1, 2, "negative start -1"),
        (-math.inf, 2, "negative start -inf"),
        (0, math.inf, "non-finite end inf"),
        (0, float("1e400"), "non-finite end inf"),
    ])
    def test_rejected_with_the_value(self, start, end, message):
        with pytest.raises(CorpusFormatError) as err:
            TimeInterval(start, end)
        assert str(err.value) == message


class TestWriteJson:
    @pytest.mark.parametrize("value", [math.nan, np.int64(2), {1, 2}])
    def test_unwritable_value_leaves_no_file(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises((ValueError, TypeError)):
            write_json({"a": 1, "b": value}, path)
        assert not path.exists()


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

    def test_second_load_replaces_every_video(self, tmp_path):
        """A video the second file lacks keeps no prediction of the first."""
        corpus = load_ground_truth(write_gt(tmp_path, "gt.json", {
            vid: {"duration": 30, "timestamps": [[0, 10]], "sentences": ["s"]}
            for vid in ("v1", "v2", "v3")}))
        for name, vids in (("a", ["v1", "v2", "v3"]), ("b", ["v2"])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"results": {
                vid: [{"timestamp": [0, 5], "sentence": f"file {name}"}] for vid in vids}}))
            load_predictions(path, corpus=corpus)
        assert {vid: [p.sentence for p in record.predictions]
                for vid, record in corpus.videos.items()} == {
            "v1": [], "v2": ["file b"], "v3": []}


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

    def test_predictions_from_a_corpus(self, tmp_path):
        """A corpus writes the predictions its records hold, as the map of its
        videos with predictions would; a video without any is left out."""
        preds = [PredictionEntry(TimeInterval(0.5, 9.5), sentence="a man runs")]
        corpus = gen_synthetic(3, seed=1)
        first = corpus.video_ids()[0]
        corpus.videos[first].predictions = preds
        save_predictions(corpus, tmp_path / "corpus.json")
        save_predictions({first: preds}, tmp_path / "map.json")
        assert (tmp_path / "corpus.json").read_bytes() == (tmp_path / "map.json").read_bytes()
        assert load_predictions(tmp_path / "corpus.json")[0] == {first: preds}

    @pytest.mark.parametrize("binary", [True, False])
    def test_features(self, tmp_path, binary):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((meta.segment_count, 6)).astype(np.float32)
        grid = SegmentGrid(meta, feats)
        path = tmp_path / "v1.feat"
        save_features(grid, path, binary=binary)
        loaded = load_features(path)
        assert loaded.meta.video_id == "v1"
        np.testing.assert_allclose(loaded.features, feats, atol=1e-9)
        # save -> load is stable once values are representable
        save_features(loaded, path, binary=binary)
        again = load_features(path)
        np.testing.assert_array_equal(again.features, loaded.features)

    def test_feature_header_unknown_keys_ignored(self, tmp_path, rewrite_header):
        # files written with the former `feature_tag` key still load
        meta = VideoMeta("v1", 16.0, fps=16.0)
        path = tmp_path / "v1.feat"
        save_features(SegmentGrid(meta, np.ones((meta.segment_count, 3))), path)
        rewrite_header(path, lambda header: header.update({"feature_tag": "context"}))
        loaded = load_features(path)
        assert loaded.meta == meta
        np.testing.assert_array_equal(loaded.features, np.ones((meta.segment_count, 3)))

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
        ("frames_per_segment", True), ("video_id", 1),
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

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e39])
    def test_values_not_finite_as_float32_are_refused(self, tmp_path, binary, value):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        features = np.ones((meta.segment_count, 3))
        features[1, 2] = value
        path = tmp_path / "v1.feat"
        with pytest.raises(ValueError, match="not finite as float32"):
            save_features(SegmentGrid(meta, features), path, binary=binary)
        assert not path.exists()

    def test_features_dir_keys_by_header_video_id(self, tmp_path):
        for name, vid in (("a.bin", "v2"), ("b.bin", "v1")):
            meta = VideoMeta(vid, 16.0, fps=16.0)
            save_features(SegmentGrid(meta, np.ones((meta.segment_count, 3))), tmp_path / name)
        assert sorted(load_features_dir(tmp_path)) == ["v1", "v2"]

    @pytest.mark.parametrize("binary", [True, False])
    def test_features_dir_refuses_a_repeated_video_id(self, tmp_path, binary):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        for name, value in (("b.bin", 2.0), ("a.bin", 1.0)):
            save_features(SegmentGrid(meta, np.full((meta.segment_count, 3), value)),
                          tmp_path / name, binary=binary)
        with pytest.raises(CorpusFormatError) as err:
            load_features_dir(tmp_path)
        assert str(err.value) == f"{tmp_path}: video v1 in both a.bin and b.bin"

    def test_json_features_are_in_the_write_json_layout(self, tmp_path):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        grid = SegmentGrid(meta, np.random.default_rng(4).standard_normal((4, 3)))
        path, plain = tmp_path / "v1.json", tmp_path / "plain.json"
        save_features(grid, path, binary=False)
        doc = json.loads(path.read_text())
        write_json(doc, plain)
        assert path.read_bytes() == plain.read_bytes()
        assert doc["features"] == grid.features.tolist()
        assert load_features(path).features.tolist() == doc["features"]

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

    @pytest.mark.parametrize("features", [np.ones(4), np.ones((4, 2, 1))], ids=["1-D", "3-D"])
    def test_features_must_be_2d(self, features):
        with pytest.raises(CorpusFormatError, match="features must be a 2-D array"):
            SegmentGrid(VideoMeta("v1", 16.0, fps=16.0), features)

    def test_feature_row_count_enforced(self):
        meta = VideoMeta("v1", 16.0, fps=16.0)
        with pytest.raises(CorpusFormatError):
            SegmentGrid(meta, np.zeros((2, 4)))
