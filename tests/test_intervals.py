import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from densecap import (PredictionEntry, TimeInterval, dense_eval, gen_synthetic,
                      identity_predictions, precision_recall, tiou, tiou_matrix)
from densecap.core import as_bounds
from densecap.intervals import video_matches
from conftest import interval_lists, make_corpus, make_video
from oracles import oracle_pr_counts, oracle_tiou


def iv(a, b):
    return TimeInterval(a, b)


class TestTiou:
    def test_identity(self):
        assert tiou(iv(0, 10), iv(0, 10)) == 1.0

    def test_disjoint(self):
        assert tiou(iv(0, 10), iv(20, 30)) == 0.0

    def test_partial(self):
        assert tiou(iv(0, 10), iv(5, 15)) == pytest.approx(1 / 3, abs=1e-6)

    def test_touching_is_zero(self):
        assert tiou(iv(0, 10), iv(10, 20)) == 0.0

    @given(st.lists(st.floats(0, 1000), min_size=4, max_size=4))
    def test_symmetric_and_bounded(self, xs):
        a0, a1, b0, b1 = xs
        if not (a0 < a1 and b0 < b1):
            return
        a, b = iv(a0, a1), iv(b0, b1)
        v = tiou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == tiou(b, a)
        assert v == pytest.approx(oracle_tiou((a0, a1), (b0, b1)), abs=1e-12)


class TestTiouMatrix:
    def test_hand_values(self):
        m = tiou_matrix(as_bounds([iv(0, 10), iv(5, 15)]),
                        as_bounds([iv(0, 10), iv(10, 20), iv(5, 15)]))
        assert m.shape == (2, 3)
        assert m.tolist() == [[1.0, 0.0, 5 / 15], [5 / 15, 5 / 15, 1.0]]

    def test_empty_sides(self):
        assert tiou_matrix(as_bounds([]), as_bounds([iv(0, 1)])).shape == (0, 1)
        assert tiou_matrix(as_bounds([iv(0, 1)]), as_bounds([])).shape == (1, 0)

    @given(interval_lists(), interval_lists())
    def test_bit_identical_to_scalar(self, a, b):
        m = tiou_matrix(as_bounds(a), as_bounds(b))
        want = np.array([[oracle_tiou((x.start_s, x.end_s), (y.start_s, y.end_s))
                          for y in b] for x in a], dtype=float)
        assert m.shape == (len(a), len(b))
        assert m.tobytes() == want.reshape(len(a), len(b)).tobytes()


def pred(a, b):
    return PredictionEntry(iv(a, b))


class TestVideoMatches:
    def test_events_in_set_order_and_levels_on_the_last_axis(self):
        record = make_video("v1", 40, [([[0, 10]], ["a"]), ([[20, 30], [0, 5]], ["b", "c"])],
                            predictions=[pred(0, 10), pred(20, 25)])
        hits = video_matches(record, [0.5, 0.0, 0.6])
        assert hits.shape == (2, 3, 3)
        # tIoU rows: [1, 0, 0.5] and [0, 0.5, 0]
        assert hits[:, :, 0].tolist() == [[True, False, True], [False, True, False]]
        assert hits[:, :, 1].all()
        assert hits[:, :, 2].tolist() == [[True, False, False], [False, False, False]]

    def test_empty_sides(self):
        no_preds = make_video("v1", 40, [([[0, 10]], ["a"])])
        no_events = make_video("v2", 40, [], predictions=[pred(0, 10)])
        assert video_matches(no_preds, [0.5, 0.9]).shape == (0, 1, 2)
        assert video_matches(no_events, [0.5]).shape == (1, 0, 1)


def test_evaluators_build_no_time_interval(monkeypatch):
    """Both evaluators read every event and prediction as bounds rows: none
    goes through a TimeInterval on the way."""
    corpus = identity_predictions(gen_synthetic(20, seed=7))
    built = []
    monkeypatch.setattr(TimeInterval, "__post_init__", lambda self: built.append(self))
    assert precision_recall(corpus, [0.5, 0.9]).precision[0.9] == 1.0
    assert dense_eval(corpus, [0.5, 0.9]).unmatched == {0.5: 0, 0.9: 0}
    assert built == []
    TimeInterval(0.0, 1.0)  # and the counter does count
    assert len(built) == 1


class TestPrecisionRecall:
    def test_half_recall(self):
        corpus = make_corpus(v1=make_video(
            "v1", 40, [([[0, 10], [20, 30]], ["a", "b"])],
            predictions=[pred(0, 10)]))
        table = precision_recall(corpus, [0.5])
        assert table.precision[0.5] == 1.0
        assert table.recall[0.5] == 0.5
        assert table.to_dict() == {
            "thresholds": [0.5], "precision": {"0.5": 1.0}, "recall": {"0.5": 0.5},
            "avg_proposals_per_video": 1.0, "videos": 1, "zero_prediction_videos": 0}

    def test_dict_keys(self):
        corpus = make_corpus(v1=make_video(
            "v1", 40, [([[0, 10]], ["a"])], predictions=[pred(0, 10)]))
        d = precision_recall(corpus, [0.9, 0.25]).to_dict()
        assert set(d) == {"thresholds", "precision", "recall", "avg_proposals_per_video",
                          "videos", "zero_prediction_videos"}
        assert d["thresholds"] == [0.9, 0.25]
        assert list(d["precision"]) == list(d["recall"]) == ["0.9", "0.25"]

    def test_identity(self):
        corpus = make_corpus(v1=make_video(
            "v1", 40, [([[0, 10], [20, 30]], ["a", "b"])],
            predictions=[pred(0, 10), pred(20, 30)]))
        table = precision_recall(corpus, [0.3, 0.5, 0.7, 0.9])
        for t in table.thresholds:
            assert table.precision[t] == 1.0
            assert table.recall[t] == 1.0

    def test_low_overlap(self):
        corpus = make_corpus(v1=make_video(
            "v1", 40, [([[0, 10]], ["a"])], predictions=[pred(0, 1)]))
        table = precision_recall(corpus, [0.3])
        assert table.precision[0.3] == 0.0
        assert table.recall[0.3] == 0.0

    def test_gt_union_of_two_sets(self):
        corpus = make_corpus(v1=make_video(
            "v1", 40, [([[0, 10]], ["a"]), ([[20, 30]], ["b"])],
            predictions=[pred(20, 30)]))
        table = precision_recall(corpus, [0.9])
        assert table.precision[0.9] == 1.0
        assert table.recall[0.9] == 0.5  # union has two intervals, one matched

    def test_zero_prediction_video_flagged(self):
        corpus = make_corpus(
            v1=make_video("v1", 40, [([[0, 10]], ["a"])],
                          predictions=[pred(0, 10)]),
            v2=make_video("v2", 40, [([[0, 10]], ["a"])]))
        table = precision_recall(corpus, [0.5])
        assert table.zero_prediction_videos == 1
        assert table.precision[0.5] == 0.5  # second video counted as 0

    @pytest.mark.parametrize("videos", [{}, {"v1": make_video("v1", 40, [],
                                                              predictions=[pred(0, 10)])}],
                             ids=["no-videos", "no-annotation-sets"])
    def test_corpus_without_groundtruth_raises(self, videos):
        with pytest.raises(ValueError, match="corpus has no videos with groundtruth"):
            precision_recall(make_corpus(**videos), [0.5])

    @pytest.mark.parametrize("thresholds", [[], [math.nan], [-math.inf], [1.01], [-0.5],
                                            [0.5, 0.5], [0.0, 1.0, -0.0]])
    def test_bad_thresholds_rejected(self, thresholds):
        corpus = make_corpus(v1=make_video(
            "v1", 40, [([[0, 10]], ["a"])], predictions=[pred(0, 10)]))
        with pytest.raises(ValueError, match="threshold"):
            precision_recall(corpus, thresholds)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(11)
        corpus = _random_corpus(rng, n_videos=20)
        table = precision_recall(corpus, [0.1, 0.3, 0.5, 0.7, 0.9])
        for lo, hi in zip(table.thresholds, table.thresholds[1:]):
            assert table.precision[hi] <= table.precision[lo] + 1e-12
            assert table.recall[hi] <= table.recall[lo] + 1e-12

    def test_matches_brute_force_oracle(self):
        thresholds = [0.3, 0.5, 0.7, 0.9]
        for seed in range(50):
            rng = np.random.default_rng(seed)
            corpus = _random_corpus(rng, n_videos=4)
            table = precision_recall(corpus, thresholds)
            for t in thresholds:
                p_sum = r_sum = 0.0
                n = 0
                for vid, rec in corpus.videos.items():
                    gts = [(g.start_s, g.end_s)
                           for ann in rec.annotation_sets for g in ann.intervals]
                    preds = [(p.interval.start_s, p.interval.end_s)
                             for p in rec.predictions]
                    n += 1
                    if not preds:
                        continue
                    ph, gh = oracle_pr_counts(preds, gts, t)
                    p_sum += ph / len(preds)
                    r_sum += gh / len(gts)
                assert table.precision[t] == pytest.approx(p_sum / n, abs=1e-12)
                assert table.recall[t] == pytest.approx(r_sum / n, abs=1e-12)


def _random_corpus(rng, n_videos=5, max_preds=20, max_gt=10):
    videos = {}
    for v in range(n_videos):
        vid = f"v{v}"
        duration = float(rng.uniform(20, 200))
        n_gt = int(rng.integers(1, max_gt + 1))
        gts = []
        for _ in range(n_gt):
            s = rng.uniform(0, duration * 0.95)
            e = rng.uniform(s + 0.5, min(duration, s + duration * 0.4))
            gts.append([s, min(e, duration)])
        n_pred = int(rng.integers(0, max_preds + 1))
        preds = []
        for _ in range(n_pred):
            s = rng.uniform(0, duration * 0.95)
            e = rng.uniform(s + 0.5, min(duration, s + duration * 0.4))
            preds.append(pred(s, min(e, duration)))
        videos[vid] = make_video(vid, duration, [(gts, ["s"] * n_gt)],
                                 predictions=preds)
    return make_corpus(**videos)
