import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densecap import (CorpusFormatError, EmptyContext, SegmentGrid, TimeInterval,
                      VideoMeta, build_bundle, pool_features, segment_range)
from densecap.contexts import corpus_bundles
from densecap.core import IntervalArray, as_bounds
from conftest import make_corpus, make_video
from oracles import oracle_local_context


def iv(a, b):
    return TimeInterval(a, b)


def local_context(event, meta, window_ratio):
    """`build_bundle`'s (local_before, local_after) for a one-event video."""
    bundle = build_bundle([event], 0, meta, ["c"], window_ratio)
    return bundle.local_before, bundle.local_after


@st.composite
def local_cases(draw):
    """(event, meta, ratio) over fps 1 to 30, four segment sizes, durations
    from 1e-6 to 400 s or on the segment grid, and ratios from 5e-324 to
    1e308; event ends fall anywhere, on the segment grid, or on 0 and the
    duration, and two equal ends make an event one ulp long."""
    fps = draw(st.sampled_from([1.0, 16.0, 23.976, 25.0, 29.97, 30.0]) | st.floats(1.0, 30.0))
    per_segment = draw(st.sampled_from([1, 8, 16, 64]))
    seg = per_segment / fps
    duration = draw(st.floats(1e-6, 400.0)
                    | st.integers(1, max(1, int(400 / seg))).map(lambda k: k * seg))
    meta = VideoMeta("v", duration, fps=fps, frames_per_segment=per_segment)
    ends = (st.floats(0.0, duration) | st.sampled_from([0.0, duration])
            | st.integers(0, meta.segment_count).map(lambda k: min(k * seg, duration)))
    start, end = sorted((draw(ends), draw(ends)))
    if start == end:
        start, end = ((start, math.nextafter(start, math.inf)) if start < duration
                      else (math.nextafter(end, 0.0), end))
    ratio = draw(st.sampled_from([5e-324, 1e-9, 0.5, 1.7, 40.0, 1e308])
                 | st.floats(5e-324, 1e308, allow_subnormal=True))
    return iv(start, end), meta, ratio


class TestLocalContext:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(local_cases())
    # an event one ulp before the end of a video 1055 segments long, whose
    # start divides out to segment 1055 and must be clamped to the last one
    @example((iv(44.002335669002335, 44.00233566900234),
              VideoMeta("v", 44.00233566900234, fps=23.976, frames_per_segment=1), 1e-9))
    # an after window one ulp long past an end on the grid: end / seg and
    # (end + w) / seg both round to 37.0, yet the window claims segment 37
    @example((iv(38.64906526502101, 63.12690978566947),
              VideoMeta("v", 291.9676008311732, fps=9.377934101478713, frames_per_segment=16),
              2.5683782018395703e-16))
    def test_closed_form_matches_the_window_mapping(self, case):
        event, meta, ratio = case
        assert local_context(event, meta, ratio) == oracle_local_context(event, meta, ratio)

    def test_whole_video_event(self, simple_meta):
        before, after = local_context(iv(0, 16), simple_meta, 1.0)
        assert before[0] == before[1]
        assert after[0] == after[1]

    def test_interior_event(self, simple_meta):
        # event [4, 8) occupies segment 1; 4 s windows sit on segments 0 and 2
        before, after = local_context(iv(4, 8), simple_meta, 1.0)
        assert before == (0, 1)
        assert after == (2, 3)

    def test_event_at_start(self, simple_meta):
        before, _ = local_context(iv(0, 8), simple_meta, 1.0)
        assert before[0] == before[1]

    def test_never_overlaps_event(self, simple_meta):
        for a, b in [(0.5, 3.0), (5.0, 7.0), (4.1, 11.9), (13.0, 16.0)]:
            ev = iv(a, b)
            ev_range = segment_range(ev, simple_meta)
            before, after = local_context(ev, simple_meta, 0.75)
            assert before[1] <= ev_range[0]
            assert after[0] >= ev_range[1]

    def test_ratio_must_be_positive(self, simple_meta):
        with pytest.raises(ValueError):
            local_context(iv(4, 8), simple_meta, 0.0)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    def test_ratio_must_be_finite(self, simple_meta, ratio):
        with pytest.raises(ValueError, match=f"window_ratio must be finite and > 0, not {ratio}"):
            local_context(iv(4, 8), simple_meta, ratio)


def bundle(events, target, meta=VideoMeta("v", 16.0, fps=16.0), direction="bi",
           captions=None):
    """`build_bundle` with a placeholder caption per event unless given."""
    if captions is None:
        captions = [f"c{k}" for k in range(len(events))]
    return build_bundle(events, target, meta, captions, direction=direction)


class TestGlobalContext:
    def test_whole_video_event(self, simple_meta):
        mask = bundle([iv(0, 16)], 0, simple_meta).global_mask
        assert not mask.any()

    def test_complement(self):
        meta = VideoMeta("v", 16.0, fps=16.0)  # 4 segments
        mask = bundle([iv(4, 12)], 0, meta).global_mask  # segments [1, 3)
        assert mask.tolist() == [True, False, False, True]

    def test_partition(self):
        meta = VideoMeta("v", 24.0, fps=16.0)  # 6 segments
        for a, b in [(0, 4), (3, 11), (20, 24), (0.1, 23.9)]:
            ev = iv(a, b)
            i, j = segment_range(ev, meta)
            mask = bundle([ev], 0, meta).global_mask
            covered = set(np.nonzero(mask)[0]) | set(range(i, j))
            assert covered == set(range(meta.segment_count))
            assert not mask[i:j].any()

    def test_adjacent_events_complement_on_union(self):
        meta = VideoMeta("v", 24.0, fps=16.0)  # 6 segments
        events = [iv(0, 8), iv(8, 24)]  # segments [0, 2) and [2, 6)
        m1, m2 = (bundle(events, t, meta).global_mask for t in (0, 1))
        assert (~m1 | ~m2).all()
        assert not (~m1 & ~m2).any()


class TestEventNeighbors:
    EVENTS = [iv(0, 1), iv(2, 3), iv(4, 5), iv(6, 7)]

    def test_first_event_uni_empty(self):
        assert bundle(self.EVENTS, 0, direction="uni").neighbor_events == []

    def test_uni(self):
        assert bundle(self.EVENTS, 2, direction="uni").neighbor_events == [0, 1]

    def test_bi(self):
        assert bundle(self.EVENTS, 2, direction="bi").neighbor_events == [0, 1, 3]

    def test_bi_extends_uni_disjointly(self):
        events = [iv(i, i + 1) for i in range(0, 12, 2)]
        for target in range(len(events)):
            uni = set(bundle(events, target, direction="uni").neighbor_events)
            bi = set(bundle(events, target, direction="bi").neighbor_events)
            future = bi - uni
            assert uni <= bi
            assert all(f > target for f in future)

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="unknown direction 'sideways'"):
            bundle([iv(0, 1)], 0, direction="sideways")


class TestSentenceHistory:
    EVENTS = [iv(0, 1), iv(2, 3), iv(4, 5)]

    def test_first(self):
        assert bundle(self.EVENTS, 0, captions=["a", "b", "c"]).sentence_history == []

    def test_prefix(self):
        assert bundle(self.EVENTS, 2, captions=["a", "b", "c"]).sentence_history == ["a", "b"]

    def test_order_preserved(self):
        events = [iv(i, i + 1) for i in range(0, 12, 2)]
        caps = [f"s{i}" for i in range(6)]
        for t in range(len(caps)):
            assert bundle(events, t, captions=caps).sentence_history == caps[:t]


class TestPoolFeatures:
    def grid(self):
        meta = VideoMeta("v", 16.0, fps=16.0)
        return SegmentGrid(meta, np.array([[0.0, 2.0], [2.0, 0.0],
                                           [1.0, 1.0], [5.0, 5.0]]))

    def test_single_segment(self):
        out = pool_features(self.grid(), (2, 3), "mean")
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_mean(self):
        out = pool_features(self.grid(), (0, 2), "mean")
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_max(self):
        out = pool_features(self.grid(), (0, 2), "max")
        np.testing.assert_array_equal(out, [2.0, 2.0])

    def test_mask_selection(self):
        out = pool_features(self.grid(), np.array([True, True, False, False]), "max")
        np.testing.assert_array_equal(out, [2.0, 2.0])

    def test_empty_selection_raises(self):
        for i in (0, 1, 4):
            with pytest.raises(EmptyContext):
                pool_features(self.grid(), (i, i), "mean")

    @pytest.mark.parametrize("selection", [(0, 2), (1, 1), np.zeros(4, dtype=bool)],
                             ids=["range", "empty-range", "empty-mask"])
    def test_unknown_mode_raises_before_the_selection_is_read(self, selection):
        with pytest.raises(ValueError, match="unknown pooling mode 'median'"):
            pool_features(self.grid(), selection, "median")

    @pytest.mark.parametrize("selection", [
        [0, 3], np.array([0, 3]), np.array([0.0, 3.0]), (0, 1, 2),
        np.array([True, False, True]), [True, False, False, True],
    ], ids=["index-list", "index-array", "float-array", "triple", "short-mask", "list-mask"])
    def test_other_selections_raise(self, selection):
        with pytest.raises(ValueError, match="neither a"):
            pool_features(self.grid(), selection, "mean")

    @pytest.mark.parametrize("selection", [
        (-1, 4), (2, 9), (3, 2), (0, 5), (True, 3), (0, True), (0.5, 3), (0, 3.0),
        (None, 3), ("0", 3), (np.float64(1.0), 3),
    ])
    def test_range_outside_the_grid_raises(self, selection):
        with pytest.raises(ValueError, match=r"segment range .* is not within 0\.\.4"):
            pool_features(self.grid(), selection, "mean")

    @pytest.mark.parametrize("selection", [(0, 4), (np.int64(1), np.int32(3))])
    def test_integer_range_may_reach_the_grid_end(self, selection):
        grid = self.grid()
        np.testing.assert_array_equal(pool_features(grid, selection, "mean"),
                                      grid.features[selection[0]:selection[1]].mean(axis=0))

    @given(st.permutations([0, 1, 2, 3]), st.lists(st.booleans(), min_size=4, max_size=4))
    def test_mean_permutation_invariant_and_bounded(self, perm, picks):
        """Reordering the segments and the mask together leaves the mean
        unchanged, and it lies within the selected rows' range."""
        grid, mask = self.grid(), np.array(picks)
        if not mask.any():
            return
        base = pool_features(grid, mask, "mean")
        shuffled = SegmentGrid(grid.meta, grid.features[perm])
        permuted = pool_features(shuffled, mask[perm], "mean")
        np.testing.assert_allclose(base, permuted)
        rows = grid.features[mask]
        assert (permuted >= rows.min(axis=0) - 1e-12).all()
        assert (permuted <= rows.max(axis=0) + 1e-12).all()


class TestBundle:
    def test_assembly(self, simple_meta):
        events = [iv(0, 4), iv(4, 8), iv(10, 16)]
        caps = ["one", "two", "three"]
        bundle = build_bundle(events, 1, simple_meta, captions=caps,
                              direction="bi")
        assert bundle.event_range == (1, 2)
        assert bundle.neighbor_events == [0, 2]
        assert bundle.sentence_history == ["one"]
        assert not bundle.global_mask[1]

    @pytest.mark.parametrize("caps", [[], ["one"], ["one", "two", "three", "four"]],
                             ids=["none", "fewer", "more"])
    def test_captions_must_be_one_per_event(self, simple_meta, caps):
        events = [iv(0, 4), iv(4, 8), iv(10, 16)]
        with pytest.raises(ValueError, match=f"{len(caps)} captions for 3 events"):
            build_bundle(events, 0, simple_meta, caps)

    @pytest.mark.parametrize("target", [-1, 3])
    def test_target_out_of_range(self, simple_meta, target):
        with pytest.raises(IndexError, match=f"target {target} out of range"):
            build_bundle([iv(0, 4), iv(4, 8), iv(10, 16)], target, simple_meta,
                         ["a", "b", "c"])

    @pytest.mark.parametrize("array", [False, True], ids=["list", "interval-array"])
    @pytest.mark.parametrize("spans, message", [
        ([(8, 16), (0, 8)], "event 1 starts before event 0: 0.0 < 8.0"),
        ([(0, 4), (8, 12), (4, 8), (2, 3)], "event 2 starts before event 1: 4.0 < 8.0"),
    ], ids=["swapped", "first-pair-named"])
    def test_events_out_of_start_order_raise(self, spans, message, array):
        events = [iv(*span) for span in spans]
        if array:
            events = IntervalArray(as_bounds(events))
        with pytest.raises(ValueError, match=re.escape(message)):
            bundle(events, len(spans) - 1, direction="uni")

    def test_equal_starts_are_in_order(self):
        events = [iv(0, 8), iv(0, 4), iv(4, 16)]
        assert bundle(events, 1, direction="uni").neighbor_events == [0]


class TestSerialisedBundles:
    META = VideoMeta("v1", 16.0, fps=16.0)  # four 4 s segments
    GRID = SegmentGrid(META, np.arange(8.0).reshape(4, 2))

    def test_fields_and_pooled_views(self):
        bundle = build_bundle([iv(0, 8), iv(8, 16)], 1, self.META, captions=["a", "b"])
        row = bundle.to_dict(self.GRID, "max")
        assert json.loads(json.dumps(row)) == {
            "event_range": [2, 4], "local_before": [1, 2], "local_after": [4, 4],
            "global_mask": [1, 1, 0, 0], "neighbor_events": [0],
            "sentence_history": ["a"],
            "event_vector": [6.0, 7.0], "local_before_vector": [2.0, 3.0],
            "local_after_vector": [0.0, 0.0],  # empty view at the video's end
            "global_vector": [2.0, 3.0]}
        assert "event_vector" not in bundle.to_dict()

    def test_corpus_bundles_in_start_order(self):
        corpus = make_corpus(v1=make_video(
            "v1", 16.0, [([[8, 16], [0, 8]], ["second", "first"])], fps=16.0))
        rows = corpus_bundles(corpus, {"v1": self.GRID})["v1"]
        assert [r["event_range"] for r in rows] == [[0, 2], [2, 4]]
        assert [r["sentence_history"] for r in rows] == [[], ["first"]]
        assert rows[1]["event_vector"] == [5.0, 6.0]

    def test_unknown_mode_raises_without_a_grid(self):
        corpus = make_corpus(v1=make_video("v1", 16.0, [([[0, 8]], ["a"])], fps=16.0))
        with pytest.raises(ValueError, match="unknown pooling mode 'median'"):
            corpus_bundles(corpus, {}, mode="median")
        with pytest.raises(ValueError, match="unknown pooling mode 'median'"):
            build_bundle([iv(0, 8)], 0, self.META, ["a"]).to_dict(mode="median")

    def test_grid_must_have_the_meta_segment_count(self):
        corpus = make_corpus(v1=make_video("v1", 16.0, [([[0, 8]], ["a"])]))  # 25 fps
        with pytest.raises(CorpusFormatError, match="feature segments"):
            corpus_bundles(corpus, {"v1": self.GRID})
