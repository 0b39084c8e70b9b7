import gc
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import interval_lists
from densecap import (CandidatePool, CorpusFormatError, FusionConfig,
                      HeuristicPointwiseScorer, HeuristicSequentialScorer, TimeInterval,
                      VideoMeta, enumerate_sliding_windows, fuse_select, tiou)
from densecap import fusion
from densecap.fusion import (COVER_TIOU, DEDUP_TOL_S, DEFAULT_SCALES, EOS_WEIGHT_OPEN,
                             SCORE_FLOOR, FusionError, TableSequentialScorer, _dedup,
                             load_scores, select_proposals)
from densecap.core import DURATION_SLOP_S, IntervalArray, as_bounds
from densecap.synthetic import gen_synthetic
from oracles import (oracle_dedup, oracle_heuristic_distribution, oracle_sliding_windows,
                     oracle_tiou, resimulate_selection)


def iv(a, b):
    return TimeInterval(a, b)


class TestSlidingWindows:
    def test_full_scale_only(self):
        meta = VideoMeta("v", 10.0)
        wins = enumerate_sliding_windows(meta, scales=[1.0])
        assert [(w.start_s, w.end_s) for w in wins] == [(0.0, 10.0)]

    def test_half_scale(self):
        meta = VideoMeta("v", 10.0)
        wins = enumerate_sliding_windows(meta, scales=[0.5], stride_ratio=0.5)
        assert [(w.start_s, w.end_s) for w in wins] == [
            (0.0, 5.0), (2.5, 7.5), (5.0, 10.0)]

    def test_two_scales_dedup(self):
        meta = VideoMeta("v", 10.0)
        wins = enumerate_sliding_windows(meta, scales=[0.5, 1.0], stride_ratio=0.5)
        assert len(wins) == 4

    def test_sorted_and_deterministic(self):
        meta = VideoMeta("v", 123.4)
        a = enumerate_sliding_windows(meta)
        b = enumerate_sliding_windows(meta)
        assert a == b
        keys = [(w.start_s, w.length_s) for w in a]
        assert keys == sorted(keys)

    def test_clamped_tail_window(self):
        meta = VideoMeta("v", 10.0)
        wins = enumerate_sliding_windows(meta, scales=[0.4], stride_ratio=0.5)
        assert wins[-1].end_s == pytest.approx(10.0)

    def test_bad_args(self):
        meta = VideoMeta("v", 10.0)
        with pytest.raises(ValueError):
            enumerate_sliding_windows(meta, scales=[1.5])
        with pytest.raises(ValueError):
            enumerate_sliding_windows(meta, stride_ratio=0.0)


def table_scorer_pair(pool, f_s_vals, steps):
    class _FS:
        def scores(self, bounds):
            rows = pool.candidates.bounds.tolist()
            return np.array([f_s_vals[rows.index(b)] for b in bounds.tolist()])
    return _FS(), TableSequentialScorer(steps)


class TestFuseSelect:
    def test_empty_pool_raises(self):
        pool = CandidatePool([], np.array([]))
        with pytest.raises(ValueError, match="candidate pool is empty"):
            fuse_select(pool, None, TableSequentialScorer([]))

    def test_immediate_eos(self):
        pool = CandidatePool([iv(0, 10)], np.array([0.9]))
        f_s, f_e = table_scorer_pair(pool, [0.9], [[0.1, 0.9]])
        assert fuse_select(pool, f_s, f_e) == []

    def test_hand_trace_k1(self):
        pool = CandidatePool([iv(0, 1), iv(1, 2), iv(2, 3)],
                             np.array([0.9, 0.5, 0.4]))
        steps = [[0.2, 0.5, 0.2, 0.1],
                 [0.3, 0.0, 0.1, 0.6]]
        f_s, f_e = table_scorer_pair(pool, [0.9, 0.5, 0.4], steps)
        selected = fuse_select(pool, f_s, f_e, FusionConfig(k=1))
        assert [s.interval for s in selected] == [iv(1, 2)]
        assert selected[0].score == pytest.approx(0.25)

    def test_hand_trace_k2(self):
        pool = CandidatePool([iv(0, 1), iv(1, 2), iv(2, 3)],
                             np.array([0.9, 0.5, 0.4]))
        steps = [[0.2, 0.5, 0.2, 0.1],
                 [0.3, 0.0, 0.1, 0.6]]
        f_s, f_e = table_scorer_pair(pool, [0.9, 0.5, 0.4], steps)
        selected = fuse_select(pool, f_s, f_e, FusionConfig(k=2))
        # step 0 appends the top-2 fused candidates; prefix gains only c2
        assert [s.interval for s in selected] == [iv(1, 2), iv(0, 1)]

    def test_scale_invariance_of_selection(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            cands = [iv(i, i + 1) for i in range(n)]
            f_s_vals = rng.uniform(0.01, 1.0, size=n)
            steps = []
            for _ in range(n + 1):
                w = rng.uniform(0.01, 1.0, size=n + 1)
                w /= w.sum()
                steps.append(w)
            pool = CandidatePool(cands, f_s_vals.copy())
            f_s, f_e = table_scorer_pair(pool, f_s_vals, steps)
            base = [s.interval for s in fuse_select(pool, f_s, f_e)]
            scaled_pool = CandidatePool(cands, f_s_vals * 7.3)
            f_s2, f_e2 = table_scorer_pair(scaled_pool, f_s_vals * 7.3, steps)
            scaled = [s.interval for s in fuse_select(scaled_pool, f_s2, f_e2)]
            assert base == scaled

    def test_non_distribution_is_hard_error(self):
        pool = CandidatePool([iv(0, 1)], np.array([0.5]))

        class BadScorer:
            def distribution(self, prefix, pool):
                return np.array([0.7]), 0.7

        f_s, _ = table_scorer_pair(pool, [0.5], [])
        with pytest.raises(FusionError):
            fuse_select(pool, f_s, BadScorer())

    @pytest.mark.parametrize("probs, eos", [
        ([math.nan], 0.1),
        ([math.nan, 0.5], 0.5),
        ([1.0], math.nan),
        ([0.5, math.inf], 0.0),
        ([1.1, 0.0], -0.1),
        ([-0.1, 0.6], 0.5),
    ])
    def test_non_finite_or_negative_mass_is_hard_error(self, probs, eos):
        pool = CandidatePool([iv(i, i + 1) for i in range(len(probs))],
                             np.full(len(probs), 0.5))

        class BadScorer:
            def distribution(self, prefix, pool):
                return np.array(probs), eos

        with pytest.raises(FusionError):
            fuse_select(pool, None, BadScorer())

    @pytest.mark.parametrize("n, probs", [
        (2, [0.9]),  # too short
        (1, [0.5, 0.4]),  # too long
        (2, [[0.5, 0.4]]),  # 2-D
        (1, 0.9),  # a scalar
    ])
    def test_misshapen_probabilities_are_hard_error(self, n, probs):
        pool = CandidatePool([iv(i, i + 1) for i in range(n)], np.full(n, 0.5))

        class BadScorer:  # each sums to 1 with EOS 0.1
            def distribution(self, prefix, pool):
                return np.array(probs), 0.1

        with pytest.raises(FusionError):
            fuse_select(pool, None, BadScorer())

    @pytest.mark.parametrize("row", [[0.6, 0.4], [0.5, 0.3, 0.1, 0.1]])
    def test_table_row_width_must_match_pool(self, row):
        pool = CandidatePool([iv(0, 1), iv(1, 2)], np.array([0.5, 0.5]))
        with pytest.raises(FusionError):
            fuse_select(pool, None, TableSequentialScorer([row]))

    @pytest.mark.parametrize("f_s_vals", [[math.nan, 0.5], [0.5, math.inf], [0.5]])
    def test_bad_pointwise_scores_are_hard_error(self, f_s_vals):
        pool = CandidatePool([iv(0, 1), iv(1, 2)], np.array(f_s_vals))
        f_e = TableSequentialScorer([[0.6, 0.3, 0.1]])
        with pytest.raises(FusionError):
            fuse_select(pool, None, f_e)

    def test_candidate_beats_eos_on_tie(self):
        pool = CandidatePool([iv(0, 1)], np.array([0.5]))
        f_e = TableSequentialScorer([[0.5, 0.5]])
        assert [p.interval for p in fuse_select(pool, None, f_e)] == [iv(0, 1)]

    def test_fused_ties_break_toward_smaller_index(self):
        n = 40
        f_s_vals = np.resize([0.25, 0.5, 0.75], n)  # three tied groups, interleaved
        pool = CandidatePool([iv(i, i + 1) for i in range(n)], f_s_vals)
        f_e = TableSequentialScorer([[1.0] * n + [0.0]])
        out = fuse_select(pool, None, f_e, FusionConfig(k=n, max_steps=1))
        want = sorted(range(n), key=lambda i: (-f_s_vals[i], i))
        assert [int(p.interval.start_s) for p in out] == want

    def test_scores_are_plain_floats(self):
        pool = CandidatePool([iv(0, 1), iv(1, 2)], np.array([0.9, 0.5]))
        f_e = TableSequentialScorer([[0.6, 0.3, 0.1]])
        out = fuse_select(pool, None, f_e, FusionConfig(k=2))
        assert [type(p.score) for p in out] == [float, float]
        assert [p.score for p in out] == pytest.approx([0.9 * 0.6, 0.5 * 0.3])

    def test_scores_fallback_when_pool_has_none(self):
        attractors = [iv(0, 10), iv(20, 30)]
        f_s = HeuristicPointwiseScorer(attractors)
        f_e = HeuristicSequentialScorer(attractors)
        cands = [iv(0, 10), iv(5, 15), iv(20, 30)]
        scored = CandidatePool(cands, f_s.scores(as_bounds(cands)))
        assert fuse_select(CandidatePool(cands), f_s, f_e) == fuse_select(scored, f_s, f_e)

    def test_terminates_and_no_duplicates(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            cands = [iv(i, i + 1) for i in range(n)]
            f_s_vals = rng.uniform(0.01, 1.0, size=n)
            steps = []
            for _ in range(n):
                w = rng.uniform(0.0, 1.0, size=n + 1)
                w[n] = rng.uniform(0.0, 0.5)
                w /= w.sum()
                steps.append(w)
            pool = CandidatePool(cands, f_s_vals)
            f_s, f_e = table_scorer_pair(pool, f_s_vals, steps)
            cfg = FusionConfig(k=k, max_steps=10)
            out = fuse_select(pool, f_s, f_e, cfg)
            intervals = [s.interval for s in out]
            assert len(intervals) == len(set(intervals))
            steps_used = max((s.step for s in out), default=-1) + 1
            assert steps_used <= cfg.max_steps
            assert len(out) <= k * max(steps_used, 1)

    def test_matches_resimulation_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            cands = [iv(i, i + 1) for i in range(n)]
            f_s_vals = rng.uniform(0.01, 1.0, size=n)
            raw_tables = []
            steps = []
            for _ in range(n + 2):
                w = rng.uniform(0.0, 1.0, size=n + 1)
                total = w.sum()
                steps.append(w / total)
                raw_tables.append({**{i: float(w[i]) for i in range(n)},
                                   "eos": float(w[n])})
            pool = CandidatePool(cands, f_s_vals)
            f_s, f_e = table_scorer_pair(pool, f_s_vals, steps)
            got = [pool.candidates.index(s.interval)
                   for s in fuse_select(pool, f_s, f_e, FusionConfig(k=1))]
            want = resimulate_selection(list(f_s_vals), raw_tables, k=1,
                                        max_steps=20)
            assert got == want


class TestHeuristicScorers:
    def test_pointwise_exact_match(self):
        scorer = HeuristicPointwiseScorer([iv(0, 10)])
        assert scorer.scores(as_bounds([iv(0, 10)])).tolist() == [1.0]

    def test_pointwise_floor(self):
        scorer = HeuristicPointwiseScorer([iv(0, 10)])
        assert scorer.scores(as_bounds([iv(20, 30)])).tolist() == [1e-3]

    def test_pointwise_partial(self):
        scorer = HeuristicPointwiseScorer([iv(5, 15)])
        assert scorer.scores(as_bounds([iv(0, 10)]))[0] == pytest.approx(1 / 3, abs=1e-6)

    def test_sequential_eos_when_covered(self):
        attractors = [iv(0, 10)]
        scorer = HeuristicSequentialScorer(attractors)
        pool = CandidatePool([iv(0, 10), iv(20, 30)], np.array([1.0, 0.001]))
        probs, eos = scorer.distribution([0], pool)
        assert eos > probs.max()

    def test_sequential_targets_uncovered(self):
        attractors = [iv(0, 10), iv(20, 30)]
        scorer = HeuristicSequentialScorer(attractors)
        pool = CandidatePool([iv(0, 10), iv(20, 30), iv(40, 50)],
                             np.array([1.0, 1.0, 0.001]))
        probs, eos = scorer.distribution([0], pool)
        assert [1, 2][probs.argmax()] == 1  # the uncovered attractor's twin

    def test_sequential_hand_normalization(self):
        attractors = [iv(0, 10), iv(20, 30)]
        scorer = HeuristicSequentialScorer(attractors)
        pool = CandidatePool([iv(0, 10), iv(20, 30), iv(5, 15)],
                             np.array([1.0, 1.0, 1 / 3]))
        probs, eos = scorer.distribution([], pool)
        # weights: 1.0, 1.0, 1/3 (tIoU of [5,15] vs [0,10]), eos 0.05
        z = 1.0 + 1.0 + 1 / 3 + 0.05
        assert probs[0] == pytest.approx(1.0 / z)
        assert probs[2] == pytest.approx((1 / 3) / z)
        assert eos == pytest.approx(0.05 / z)
        assert probs.sum() + eos == pytest.approx(1.0, abs=1e-9)

    def test_pool_cap(self):
        meta = VideoMeta("v", 100.0)
        windows = enumerate_sliding_windows(meta)
        scorer = HeuristicPointwiseScorer([iv(10, 25)])
        pool = CandidatePool.from_windows(windows, scorer, cap=10)
        assert len(pool) == 10
        kept_min = pool.scores.min()
        all_scores = sorted(scorer.scores(as_bounds(windows)).tolist(), reverse=True)
        assert kept_min >= all_scores[9] - 1e-12


def _pairs(intervals):
    return [(x.start_s, x.end_s) for x in intervals]


def _dedup_pairs(pairs):
    keep = _dedup(np.array(pairs, dtype=float).reshape(-1, 2)).tolist()
    return [p for p, k in zip(pairs, keep) if k]


class TestArrayKernelsMatchOracles:
    def test_dedup_keeps_chain_ends(self):
        # A ~ B and B ~ C, but A and C are 1.2 tolerances apart: greedy keeps A and C
        d = 0.6 * DEDUP_TOL_S
        chain = [(1.0, 2.0), (1.0 + d, 2.0 + d), (1.0 + 2 * d, 2.0 + 2 * d)]
        assert _dedup_pairs(chain) == [chain[0], chain[2]]

    @given(interval_lists(max_size=16))
    def test_dedup_matches_greedy_oracle(self, windows):
        assert _dedup_pairs(_pairs(windows)) == oracle_dedup(_pairs(windows), DEDUP_TOL_S)

    @given(interval_lists(max_size=16), st.integers(1, 40))
    def test_pool_keeps_given_windows_up_to_cap(self, windows, cap):
        """The enumerator dedups; `from_windows` scores every window it is
        given, exact and near duplicates too, and only `cap` drops any."""
        windows = windows + windows
        scorer = HeuristicPointwiseScorer(windows[:2])
        kept = _pairs(CandidatePool.from_windows(windows, scorer, cap=cap).candidates)
        assert len(kept) == min(cap, len(windows))
        given_order = iter(_pairs(windows))
        assert all(pair in given_order for pair in kept)  # a subsequence: window order
        if cap >= len(windows):
            assert kept == _pairs(windows)

    @given(interval_lists(), interval_lists(max_size=5))
    def test_pointwise_scores_match_oracle(self, cands, attractors):
        want = [max([SCORE_FLOOR] + [oracle_tiou(c, a) for a in _pairs(attractors)])
                for c in _pairs(cands)]
        assert HeuristicPointwiseScorer(attractors).scores(as_bounds(cands)).tolist() == want

    def test_sequential_distribution_matches_oracle_on_synthetic_pools(self):
        corpus = gen_synthetic(10, seed=3)
        for record in corpus.videos.values():
            attractors = record.annotation_sets[0].intervals
            scorer = HeuristicSequentialScorer(attractors)
            pool = CandidatePool.from_windows(enumerate_sliding_windows(record.meta),
                                              HeuristicPointwiseScorer(attractors))
            picked = [p.interval for p in fuse_select(pool, None, scorer)]
            prefixes = [[pool.candidates.index(x) for x in picked[:t]]
                        for t in range(len(picked) + 1)]
            for prefix in prefixes:
                want_probs, want_eos = oracle_heuristic_distribution(
                    prefix, _pairs(pool.candidates), _pairs(attractors),
                    COVER_TIOU, EOS_WEIGHT_OPEN)
                probs, eos = scorer.distribution(prefix, pool)
                assert probs.tolist() == list(want_probs.values())  # index order
                assert eos == want_eos

    @given(interval_lists(), interval_lists(max_size=5), st.data())
    def test_sequential_distribution_matches_oracle(self, cands, attractors, data):
        if not cands:
            return
        prefix = data.draw(st.lists(st.integers(0, len(cands) - 1), unique=True))
        scorer = HeuristicSequentialScorer(attractors)
        probs, eos = scorer.distribution(prefix, CandidatePool(cands))
        want_probs, want_eos = oracle_heuristic_distribution(
            prefix, _pairs(cands), _pairs(attractors), COVER_TIOU, EOS_WEIGHT_OPEN)
        assert probs.tolist() == list(want_probs.values())  # index order
        assert eos == want_eos


def _boundary(base):
    """The last float whose difference from `base` is within DEDUP_TOL_S, and
    the first one past it."""
    x = base + DEDUP_TOL_S
    while abs(x - base) > DEDUP_TOL_S:
        x = float(np.nextafter(x, -math.inf))
    while abs(float(np.nextafter(x, math.inf)) - base) <= DEDUP_TOL_S:
        x = float(np.nextafter(x, math.inf))
    return x, float(np.nextafter(x, math.inf))


class TestDedupBoundary:
    """Fixed pairs one ulp either side of DEDUP_TOL_S. From base 0 the
    difference is exact; from the other bases it rounds."""

    BASES = (0.0, 1.0, 3.0, 7.3, 1000.5)

    @staticmethod
    def check_one_end(base, pair):
        inside, outside = _boundary(base)
        first = pair(base)
        assert _dedup_pairs([first, pair(inside)]) == [first]
        assert _dedup_pairs([first, pair(outside)]) == [first, pair(outside)]
        assert _dedup_pairs([pair(inside), first]) == [pair(inside)]  # later row, smaller start

    @pytest.mark.parametrize("base", BASES)
    def test_start_at_the_tolerance(self, base):
        self.check_one_end(base, lambda x: (x, base + 20.0))

    @pytest.mark.parametrize("base", BASES[1:])
    def test_end_at_the_tolerance(self, base):
        self.check_one_end(base, lambda x: (0.0, x))

    @pytest.mark.parametrize("base", BASES)
    def test_both_ends_at_the_tolerance(self, base):
        inside, outside = _boundary(base)
        # shifting both ends keeps the length, so only (start, end) pairs differ
        shift = base + 4.0
        first = (base, shift)
        near = (inside, _boundary(shift)[0])
        far = (inside, _boundary(shift)[1])
        pairs = [first, near, far, (outside, shift)]
        assert _dedup_pairs(pairs) == [first, far, (outside, shift)]
        assert _dedup_pairs(pairs) == oracle_dedup(pairs, DEDUP_TOL_S)

    def test_windows_sharing_a_start(self):
        # every scale starts at 0, so these are the pairs the start sort cannot separate
        half = 0.5 * DEDUP_TOL_S
        pairs = [(0.0, 1.0), (0.0, 2.0), (0.0, 1.0 + half), (half, 2.0 - half), (0.0, 3.0),
                 (0.0, 3.0 + 2 * DEDUP_TOL_S), (0.0, 1.0)]
        assert _dedup_pairs(pairs) == [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0),
                                       (0.0, 3.0 + 2 * DEDUP_TOL_S)]
        assert _dedup_pairs(pairs) == oracle_dedup(pairs, DEDUP_TOL_S)

    def test_no_near_pair_keeps_everything(self):
        assert _dedup(np.zeros((0, 2))).tolist() == []
        spans = [(0.0, 1.0), (0.0, 2.0), (0.5, 1.0), (0.5 + 2 * DEDUP_TOL_S, 1.0)]
        assert _dedup_pairs(spans) == spans


def test_window_bounds_built_once(monkeypatch):
    """A heuristic pool goes from windows to fused selection with one bounds
    array for the windows and one pool x attractor tIoU matrix."""
    record = gen_synthetic(1, seed=7).videos["v_0007_00000"]
    attractors = record.annotation_sets[0].intervals
    f_s, f_e = HeuristicPointwiseScorer(attractors), HeuristicSequentialScorer(attractors)
    windows = enumerate_sliding_windows(record.meta)
    calls = {"as_bounds": [], "tiou_matrix": []}

    def counted(name):
        inner = getattr(fusion, name)

        def wrapper(*args):
            calls[name].append(args)
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(fusion, name, counted(name))
    pool = CandidatePool.from_windows(windows, f_s, cap=40)
    assert fuse_select(pool, f_s, f_e)
    # the windows once; the rest are the scorers' attractors, never the pool
    assert [args[0] is windows for args in calls["as_bounds"]].count(True) == 1
    assert all(args[0] is windows or args[0] is attractors for args in calls["as_bounds"])
    assert [args[0].shape for args in calls["tiou_matrix"]] == [(len(windows), 2),
                                                                (len(pool), 2)]


def _list_path_windows(meta, scales=DEFAULT_SCALES, stride_ratio=0.5):
    """Sliding windows as a list of checked TimeIntervals, one per row, as
    `enumerate_sliding_windows` built them before it returned an IntervalArray."""
    starts, ends = [], []
    for scale in scales:
        length = scale * meta.duration_s
        stride = stride_ratio * length
        k, last_end, tol = 0, 0.0, min(DEDUP_TOL_S, stride / 2)
        while (start := k * stride) + length <= meta.duration_s + tol:
            last_end = min(start + length, meta.duration_s)
            starts.append(start)
            ends.append(last_end)
            k += 1
        if last_end < meta.duration_s - tol:
            starts.append(meta.duration_s - length)
            ends.append(meta.duration_s)
    rows = np.array([starts, ends], dtype=float).T
    rows = rows[_dedup(rows)]
    rows = rows[np.lexsort((rows[:, 1] - rows[:, 0], rows[:, 0]))]
    return [TimeInterval(s, e) for s, e in rows.tolist()]


# from 1e-4 s up the windows keep clear of DEDUP_TOL_S; below it they crowd
# within it and dedup keeps few, so those durations are fixed examples
durations = st.floats(1e-4, 1e6)
attractor_fractions = st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                               min_size=1, max_size=4)


class TestIntervalArrayEquivalence:
    """Windows and pools held as one bounds array give what the old
    per-interval lists gave."""

    @staticmethod
    def check_windows(meta, **kwargs):
        want = _list_path_windows(meta, **kwargs)
        windows = enumerate_sliding_windows(meta, **kwargs)
        assert isinstance(windows, IntervalArray) and len(windows) == len(want)
        assert list(windows) == want and all(type(w) is TimeInterval for w in windows)
        assert windows.bounds.tolist() == [[w.start_s, w.end_s] for w in want]
        return windows, want

    @pytest.mark.parametrize("duration", [1e-7, 1e-6, 2.5e-6, 1e-5, 1e-3, 0.1, 1.0, 7.3,
                                          123.4, 3600.0, 1e6])
    def test_default_scales_at_each_magnitude(self, duration):
        self.check_windows(VideoMeta("v", duration))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(durations)
    def test_default_scales(self, duration):
        self.check_windows(VideoMeta("v", duration))

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(durations, st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
           st.floats(0.1, 1.0))
    @example(10.0, [0.4], 0.5)  # a clamped tail window
    @example(10.0, [0.5, 1.0, 0.5], 0.5)  # repeated scales, deduplicated
    @example(1e-7, [0.5, 1.0], 1.0)  # windows within DEDUP_TOL_S of each other
    @example(2.5e-6, [0.5, 1.0], 1.0)
    def test_custom_scales_and_strides(self, duration, scales, stride_ratio):
        self.check_windows(VideoMeta("v", duration), scales=scales, stride_ratio=stride_ratio)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(durations, attractor_fractions, st.integers(1, 100))
    def test_pool_and_selection(self, duration, fractions, cap):
        meta = VideoMeta("v", duration)
        spans = sorted((a * duration, b * duration) for a, b in map(sorted, fractions))
        attractors = [iv(a, b) for a, b in spans if a < b] or [iv(0, duration)]
        windows, listed = self.check_windows(meta)
        f_s, f_e = HeuristicPointwiseScorer(attractors), HeuristicSequentialScorer(attractors)
        pool = CandidatePool.from_windows(windows, f_s, cap=cap)
        old = CandidatePool.from_windows(listed, HeuristicPointwiseScorer(attractors), cap=cap)
        assert pool.candidates == old.candidates
        assert pool.scores.tolist() == old.scores.tolist()
        members = set(pool.candidates)
        assert list(pool.candidates) == [w for w in listed if w in members]  # window order
        for k in (1, 3):
            cfg = FusionConfig(k=k)
            want = fuse_select(CandidatePool(list(old.candidates), old.scores), None,
                               HeuristicSequentialScorer(attractors), cfg)
            assert fuse_select(pool, f_s, f_e, cfg) == want

    @pytest.mark.parametrize("bad", [(5.0, 2.0), (-1.0, 2.0), (1.0, math.inf),
                                     (1.0, math.nan), (math.nan, 1.0), (2.0, 2.0)])
    def test_bad_row_raises_as_time_interval(self, bad):
        with pytest.raises(CorpusFormatError) as want:
            TimeInterval(*bad)
        with pytest.raises(CorpusFormatError) as got:
            IntervalArray([(0.0, 1.0), bad, (-3.0, -4.0)])  # the first bad row is reported
        assert str(got.value) == str(want.value)

    def test_bounds_are_shared_and_read_only(self):
        windows = enumerate_sliding_windows(VideoMeta("v", 10.0))
        assert as_bounds(windows) is windows.bounds
        with pytest.raises(ValueError, match="read-only"):
            windows.bounds[0, 0] = 5.0
        assert windows[0] == TimeInterval(0.0, 0.5) and windows[-1] == TimeInterval(9.5, 10.0)
        assert windows.index(TimeInterval(0.0, 10.0)) == list(windows).index(TimeInterval(0, 10))
        for rows in (slice(1, 3), np.array([0, 1])):  # one interval per index, never several
            with pytest.raises(TypeError):
                windows[rows]

    @pytest.mark.parametrize("duration", [1e-9, 1e-7, 2.5e-6, 1e-5])
    def test_tiny_videos_get_windows_inside_them(self, duration):
        for scales, stride_ratio in ((DEFAULT_SCALES, 0.5), ((0.5, 1.0), 1.0)):
            windows = enumerate_sliding_windows(VideoMeta("v", duration), scales, stride_ratio)
            assert 0 < len(windows) <= 90
            assert all(0 <= w.start_s < w.end_s <= duration for w in windows)


class TestBitIdentity:
    """The enumerator's bounds are `oracle_sliding_windows`' to the bit, and the
    sequential scorer's per-pool cache answers any prefix of any pool."""

    @staticmethod
    def check_windows(duration, **kwargs):
        meta = VideoMeta("v", duration)
        got = enumerate_sliding_windows(meta, **kwargs).bounds
        want = oracle_sliding_windows(meta, **kwargs).bounds
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    def test_seed_7_durations(self):
        for record in gen_synthetic(1000, seed=7).videos.values():
            self.check_windows(record.meta.duration_s)

    def test_random_durations(self):
        for duration in 10.0 ** np.random.default_rng(0).uniform(-3, 4, 1000):
            self.check_windows(float(duration))

    @pytest.mark.parametrize("duration", [2 * DEDUP_TOL_S, DEDUP_TOL_S,
                                          float(np.nextafter(DEDUP_TOL_S, 0)),
                                          DEDUP_TOL_S / 2, 1e-7, 1e-9, 1e-12])
    def test_durations_at_and_below_the_dedup_tolerance(self, duration):
        self.check_windows(duration)
        self.check_windows(duration, scales=[0.5, 1.0], stride_ratio=1.0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(durations, st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
           st.floats(0.1, 1.0))
    def test_scales_and_strides(self, duration, scales, stride_ratio):
        self.check_windows(duration, scales=scales, stride_ratio=stride_ratio)

    def test_scorer_cache_answers_prefixes_out_of_order_and_pools_in_turn(self):
        (record,) = gen_synthetic(1, seed=3).videos.values()
        attractors = record.annotation_sets[0].intervals
        scorer = HeuristicSequentialScorer(attractors)
        windows = enumerate_sliding_windows(record.meta)
        f_s = HeuristicPointwiseScorer(attractors)
        pools = [CandidatePool.from_windows(windows, f_s, cap=40),
                 CandidatePool.from_windows(windows, f_s, cap=15),
                 CandidatePool(attractors)]  # all of it as the prefix covers every attractor
        rng = np.random.default_rng(5)
        asked = []
        for _ in range(20):
            for pool in pools + pools[:1]:
                order = rng.permutation(len(pool)).tolist()
                asked.append((pool, order[:rng.integers(0, len(pool) + 1)]))
        asked.append((pools[2], list(range(len(attractors)))[::-1]))
        for pool, prefix in asked:
            want_probs, want_eos = oracle_heuristic_distribution(
                prefix, _pairs(pool.candidates), _pairs(attractors),
                COVER_TIOU, EOS_WEIGHT_OPEN)
            probs, eos = scorer.distribution(prefix, pool)
            assert probs.tolist() == list(want_probs.values())  # index order
            assert eos == want_eos
        assert eos == 1.0  # the last prefix covered every attractor


def test_windows_and_pool_allocate_no_per_interval_objects():
    """Windows and the pool of one video stay a few arrays: the gen-0 count of
    objects the collector tracks grows by far less than one per window."""
    record = next(iter(gen_synthetic(5, seed=7).videos.values()))
    f_s = HeuristicPointwiseScorer(record.annotation_sets[0].intervals)
    gc.disable()
    try:
        before = gc.get_count()[0]
        windows = enumerate_sliding_windows(record.meta)
        pool = CandidatePool.from_windows(windows, f_s)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert len(windows) > 30 and len(pool) > 30
    assert grown < 30


def write_scores(tmp_path, payload):
    path = tmp_path / "scores.json"
    path.write_text(json.dumps(payload))
    return path


class TestScoresFiles:
    def test_heuristic_selection_replays_the_direct_calls(self, tmp_path):
        corpus = gen_synthetic(6, seed=5)
        metas = {vid: rec.meta for vid, rec in corpus.videos.items() if vid[-1] != "3"}
        path = write_scores(tmp_path, {"mode": "heuristic", "attractors": {
            vid: [[iv.start_s, iv.end_s] for iv in rec.annotation_sets[0].intervals]
            for vid, rec in corpus.videos.items()}})
        cfg = FusionConfig(k=2, candidate_cap=40)
        got, skipped = select_proposals(load_scores(path), metas, cfg)
        assert sorted(got) == sorted(metas) and skipped == 1  # a video without meta is left out
        for vid, meta in metas.items():
            planted = corpus.videos[vid].annotation_sets[0].intervals
            f_s = HeuristicPointwiseScorer(planted)
            pool = CandidatePool.from_windows(enumerate_sliding_windows(meta), f_s, cap=40)
            want = fuse_select(pool, f_s, HeuristicSequentialScorer(planted), cfg)
            assert [(e.interval, e.proposal_score) for e in got[vid]] == \
                [(p.interval, min(1.0, p.score)) for p in want]

    def test_tables_selection_needs_no_meta(self, tmp_path):
        path = write_scores(tmp_path, {"mode": "tables", "videos": {"v1": {
            "candidates": [[0, 10], [10, 20], [20, 30]], "f_s": [0.9, 0.5, 0.4],
            "f_e_steps": [{"probs": {"0": 0.2, "1": 0.5, "2": 0.2}, "eos": 0.1},
                          {"probs": {"0": 0.3, "2": 0.1}, "eos": 0.6}]}}})
        (got,) = select_proposals(load_scores(path), {})[0]["v1"]
        assert got.interval == iv(10.0, 20.0)
        assert got.proposal_score == pytest.approx(0.5 * 0.5)

    # a table candidate ends within the meta's duration, give or take
    # DURATION_SLOP_S, and an end past it is clamped to it, as `read_interval`
    # reads groundtruth and predictions
    @pytest.mark.parametrize("end, ok", [(30.0, True), (30.0 + DURATION_SLOP_S, True),
                                         (30.0 + 2 * DURATION_SLOP_S, False), (5000.0, False)])
    def test_tables_candidates_end_within_the_meta(self, tmp_path, end, ok):
        path = write_scores(tmp_path, {"mode": "tables", "videos": {"v1": {
            "candidates": [[0, 10], [20, end]], "f_s": [0.9, 0.5],
            "f_e_steps": [{"probs": {"1": 0.9}, "eos": 0.1}]}}})
        metas = {"v1": VideoMeta("v1", 30.0)}
        if ok:
            (got,) = select_proposals(load_scores(path), metas)[0]["v1"]
            assert got.interval == iv(20.0, 30.0)
        else:
            error = f"interval end {end} exceeds duration 30.0 at v1[1]"
            with pytest.raises(CorpusFormatError, match=re.escape(error)):
                select_proposals(load_scores(path), metas)

    @pytest.mark.parametrize("payload", [
        ["heuristic"],
        {"attractors": {}},
        {"mode": "heuristic"},
        {"mode": "heuristic", "attractors": [[0, 10]]},
        {"mode": "heuristic", "attractors": {"v1": [[10, 0]]}},
        {"mode": "heuristic", "attractors": {"v1": [[0, math.nan]]}},
        {"mode": "tables"},
        {"mode": "tables", "videos": {"v1": {"candidates": [[0, 10]], "f_e_steps": []}}},
        {"mode": "tables", "videos": {"v1": {"candidates": [[0, 10]], "f_s": ["high"],
                                             "f_e_steps": []}}},
        {"mode": "tables", "videos": {"v1": {"candidates": [[0, 10]], "f_s": [math.nan],
                                             "f_e_steps": []}}},
        {"mode": "tables", "videos": {"v1": {"f_s": [0.5], "f_e_steps": []}}},
        {"mode": "tables", "videos": {"v1": {"candidates": [[0, 10]], "f_s": [0.5]}}},
        {"mode": "tables", "videos": {"v1": {"candidates": [[0, 10]], "f_s": [0.5],
                                             "f_e_steps": [{"probs": {"a": 1.0}, "eos": 0}]}}},
        {"mode": "tables", "videos": {"v1": {"candidates": [[0, 10]], "f_s": [0.5],
                                             "f_e_steps": [{"probs": {"0": 1.0}}]}}},
        {"mode": "tables", "videos": {"v1": {"candidates": [[0, 10]], "f_s": [0.5],
                                             "f_e_steps": [[1.0, 0.0]]}}},
        {"mode": "tables", "videos": {"v1": {"candidates": [[0, 10], [10, 20]],
                                             "f_s": [0.5], "f_e_steps": []}}},
        {"mode": "tables", "videos": {"v1": {"candidates": [[0, 10]], "f_s": [0.5],
                                             "f_e_steps": [{"probs": {"1": 1.0}, "eos": 0}]}}},
        {"mode": "tables", "videos": {"v1": {"candidates": [[0, 10]], "f_s": [0.5],
                                             "f_e_steps": [{"probs": {"-1": 1.0}, "eos": 0}]}}},
        {"mode": "heuristic", "attractors": {"v1": [[False, "10"], [True, 5]]}},
        {"mode": "heuristic", "attractors": {"v1": [[0, "10"]]}},
        {"mode": "tables", "videos": {"v1": {"candidates": [[True, 10]], "f_s": [0.5],
                                             "f_e_steps": []}}},
    ])
    def test_malformed_raises_format_error(self, tmp_path, payload):
        with pytest.raises(CorpusFormatError):
            load_scores(write_scores(tmp_path, payload))
