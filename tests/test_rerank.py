import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from densecap import (AnnotationSet, CaptionRerankParams, ConceptVocabulary,
                      CorpusFormatError, PredictionEntry, RerankWeights, TimeInterval,
                      VideoMeta, augment, caption_rerank, proposal_rerank)
from densecap.rerank import _znorm, augment_corpus, merge_captions, rerank_proposals
from conftest import make_corpus, make_video
from oracles import oracle_best_match, oracle_proposal_rerank


def iv(a, b):
    return TimeInterval(a, b)


def cand(a, b, score, logprob=None, sentence=None):
    return PredictionEntry(iv(a, b), sentence=sentence, proposal_score=score,
                           caption_logprob=logprob)


META = VideoMeta("v", 100.0)


class TestProposalRerank:
    def test_single_candidate(self):
        ranked, _ = proposal_rerank([cand(0, 10, 0.2)], META)
        assert len(ranked) == 1

    def test_quality_monotonicity(self):
        a = cand(0, 10, 0.9, -5.0, "x y z")
        b = cand(0, 10, 0.1, -5.0, "x y z")
        ranked, _ = proposal_rerank([b, a], META,
                                    RerankWeights(1.0, 0.0, 0.0, 0.0))
        assert ranked[0].proposal_score == 0.9

    def test_hand_table_equal_weights(self):
        cands = [
            cand(0, 10, 0.9, -2.0, "a b"),
            cand(40, 60, 0.6, -1.0, "a b"),
            cand(20, 25, 0.3, -8.0, "a b"),
            cand(80, 100, 0.1, -4.0, "a b"),
        ]
        ranked, _ = proposal_rerank(cands, META, RerankWeights(top_n=4))
        # hand z-normalization of the four factors and summation
        q = np.array([0.9, 0.6, 0.3, 0.1])
        d = np.array([-1.0, -0.5, -4.0, -2.0])
        p = np.array([5.0, 50.0, 22.5, 90.0]) / 100.0
        ln = np.array([10.0, 20.0, 5.0, 20.0]) / 100.0
        z = lambda x: (x - x.mean()) / x.std()
        fused = z(q) + z(d) + z(p) + z(ln)
        want = [cands[i].interval for i in np.argsort(-fused)]
        assert [c.interval for c in ranked] == want

    def test_returns_min_topn_candidates(self):
        cands = [cand(i * 10, i * 10 + 5, 0.1 * (i + 1)) for i in range(3)]
        ranked, _ = proposal_rerank(cands, META, RerankWeights(top_n=5))
        assert len(ranked) == 3
        ranked, _ = proposal_rerank(cands * 3, META, RerankWeights(top_n=5))
        assert len(ranked) == 5

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(14)
        base_scores = rng.uniform(0.05, 0.95, size=8)
        logprobs = -rng.uniform(1, 10, size=8)
        cands = [cand(float(i * 10), float(i * 10 + 5 + i), base_scores[i],
                      logprobs[i], "w x y z") for i in range(8)]
        ranked, _ = proposal_rerank(cands, META)
        # affine rescaling of the quality factor leaves ordering unchanged
        scaled = [cand(c.interval.start_s, c.interval.end_s,
                       min(1.0, 0.5 * c.proposal_score + 0.01),
                       c.caption_logprob, c.sentence) for c in cands]
        ranked2, _ = proposal_rerank(scaled, META)
        assert [c.interval for c in ranked] == [c.interval for c in ranked2]

    def test_missing_describability_flagged(self):
        cands = [cand(0, 10, 0.5), cand(20, 30, 0.6, -2.0, "a b c")]
        _, missing = proposal_rerank(cands, META)
        assert missing == 1

    def test_missing_proposal_score_rejected(self):
        with pytest.raises(ValueError):
            proposal_rerank([PredictionEntry(iv(0, 10))], META)

    @given(st.data())
    def test_matches_sorted_key_oracle(self, data):
        # few distinct values, so fused values tie, starts repeat and whole
        # candidates recur
        distinct = data.draw(st.lists(st.builds(
            cand, st.sampled_from([0.0, 10.0, 25.0]), st.sampled_from([30.0, 40.0, 100.0]),
            st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([None, -2.0, -6.0]),
            st.sampled_from([None, "", "a b", "a b c d"])), min_size=1, max_size=6))
        picks = st.integers(0, len(distinct) - 1)
        cands = [distinct[i] for i in data.draw(st.lists(picks, min_size=1, max_size=12))]
        weight = st.sampled_from([0.0, 1.0, -0.5, 2.0])
        weights = RerankWeights(data.draw(weight), data.draw(weight), data.draw(weight),
                                data.draw(weight), top_n=data.draw(st.integers(1, 14)))
        ranked, missing = proposal_rerank(cands, META, weights)
        want, want_missing = oracle_proposal_rerank(cands, META, weights)
        assert ranked == want and missing == want_missing
        assert [id(c) for c in ranked] == [id(c) for c in want]


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=40))
def test_znorm_equals_the_numpy_formula(values):
    x = np.array(values)
    want = np.zeros_like(x) if x.std() == 0 else (x - x.mean()) / x.std()
    assert _znorm(x).tolist() == want.tolist()


@pytest.mark.parametrize("kwargs", [
    {"quality": math.nan}, {"describability": math.inf}, {"position": -math.inf},
    {"length": math.nan}, {"top_n": 0}])
def test_rerank_weights_reject_bad_settings(kwargs):
    with pytest.raises(ValueError):
        RerankWeights(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"alpha": math.nan}, {"alpha": math.inf}, {"beta": math.nan}, {"beta": -math.inf},
    {"top_concepts": 0}])
def test_caption_rerank_params_reject_bad_settings(kwargs):
    with pytest.raises(ValueError):
        CaptionRerankParams(**kwargs)


@pytest.mark.parametrize("fn, name", [
    (proposal_rerank, "weights"), (rerank_proposals, "weights"),
    (caption_rerank, "params"), (merge_captions, "params")])
def test_settings_default_to_none(fn, name):
    """No call shares one mutable default settings object with another."""
    assert inspect.signature(fn).parameters[name].default is None


class TestCaptionRerank:
    vocab = ConceptVocabulary(["guitar", "man", "runs"])

    def test_single_hypothesis(self):
        out = caption_rerank(["only one"], np.array([0.9, 0.1, 0.2]), self.vocab)
        assert out == "only one"

    def test_unique_word_factor(self):
        probs = np.zeros(3)
        out = caption_rerank(["a man a man a man", "a man runs fast"],
                             probs, self.vocab,
                             CaptionRerankParams(alpha=1.0, beta=0.0))
        assert out == "a man runs fast"

    def test_concept_match_factor(self):
        probs = np.array([0.95, 0.1, 0.1])  # "guitar" is the top concept
        out = caption_rerank(["he holds a guitar now", "he holds a stick now"],
                             probs, self.vocab,
                             CaptionRerankParams(alpha=0.0, beta=1.0,
                                                 top_concepts=1))
        assert out == "he holds a guitar now"

    @pytest.mark.parametrize("hypotheses, best", [
        (["", "a man runs"], "a man runs"),
        (["!!! ...", "a man runs"], "a man runs"),
        (["", "!!! ..."], ""),  # both score 0, so the first wins
    ])
    def test_hypothesis_without_tokens_scores_zero(self, hypotheses, best):
        params = CaptionRerankParams(alpha=1.0, beta=1.0)
        assert caption_rerank(hypotheses, np.zeros(3), self.vocab, params) == best

    def test_duplicate_hypotheses_first_wins(self):
        probs = np.zeros(3)
        out = caption_rerank(["same caption here", "same caption here"],
                             probs, self.vocab)
        assert out == "same caption here"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            caption_rerank([], np.zeros(3), self.vocab)


class TestMergeCaptions:
    def test_picks_per_proposal_and_passes_captionless_through(self):
        first = {"v1": [cand(0, 10, 0.5, -1.0, "a man a man"), cand(10, 20, 0.4)],
                 "v2": [cand(0, 5, 0.3, sentence="only here")]}
        second = {"v1": [PredictionEntry(iv(0, 10), sentence="a man runs"),
                         PredictionEntry(iv(10, 20))]}
        merged = merge_captions([first, second], CaptionRerankParams(beta=0.0))
        assert merged == {
            "v1": [cand(0, 10, 0.5, -1.0, "a man runs"), cand(10, 20, 0.4)],
            "v2": [cand(0, 5, 0.3, sentence="only here")]}

    def test_disagreeing_intervals_rejected(self):
        first = {"v1": [cand(0, 10, 0.5, sentence="a"), cand(10, 20, 0.5, sentence="b")]}
        second = {"v1": first["v1"][::-1]}
        with pytest.raises(CorpusFormatError, match=r"v1\[0\]"):
            merge_captions([first, second])

    @pytest.mark.parametrize("counts", [(2, 3), (3, 2)])
    def test_different_proposal_counts_rejected_in_either_order(self, counts):
        entries = [cand(a, a + 10, 0.5, sentence=s) for a, s in ((0, "a"), (10, "b"), (20, "c"))]
        with pytest.raises(CorpusFormatError,
                           match="v1: hypothesis files list {} and {} proposals".format(*counts)):
            merge_captions([{"v1": entries[:n]} for n in counts])


class TestCorpusLoops:
    def test_rerank_proposals_per_video_with_meta(self):
        preds = {"v1": [cand(0, 10, 0.2), cand(10, 20, 0.9, -1.0, "a b")],
                 "ghost": [cand(0, 10, 0.2)]}
        ranked, missing = rerank_proposals(preds, {"v1": META}, RerankWeights(top_n=1))
        assert ranked == {"v1": proposal_rerank(preds["v1"], META, RerankWeights(top_n=1))[0]}
        assert missing == 1

    def test_rerank_proposals_keeps_a_video_without_candidates(self):
        preds = {"v0": [], "v1": [cand(0, 10, 0.2)]}
        ranked, missing = rerank_proposals(preds, {"v0": META, "v1": META})
        assert ranked == {"v0": [], "v1": proposal_rerank(preds["v1"], META)[0]}
        assert missing == 1
        with pytest.raises(ValueError, match="no candidates"):
            proposal_rerank([], META)

    def test_augment_rows(self):
        corpus = make_corpus(v1=make_video("v1", 40, [([[0, 10], [20, 30]], ["a", "b"])]),
                             v2=make_video("v2", 40, [([[0, 10]], ["c"])]),
                             v3=make_video("v3", 40, [([[0, 10]], ["d"])]))
        rows = augment_corpus(corpus, {"v1": [cand(0, 10, 0.5), cand(12, 19, 0.5)],
                                       "v2": []})
        assert rows == {"v1": [{"timestamp": [0, 10], "gt_index": 0, "tiou": 1.0,
                                "caption": "a"}], "v2": []}


class TestAugment:
    ann = AnnotationSet([iv(0, 10), iv(20, 30)], ["first event", "second event"])

    def test_exact_match(self):
        pairs = augment([iv(0, 10)], self.ann)
        assert len(pairs) == 1
        assert pairs[0].caption == "first event"
        assert pairs[0].tiou == 1.0

    @pytest.mark.parametrize("gts, pred, pairs", [
        pytest.param([iv(0, 10), iv(20, 30)], iv(0, 10), [(0, 1.0)], id="exact"),
        pytest.param([iv(0, 10), iv(10, 20)], iv(5, 15), [(0, 1 / 3)], id="tie_low_index"),
        pytest.param([iv(0, 10), iv(20, 30)], iv(25, 30), [(1, 0.5)], id="second_wins"),
        pytest.param([iv(0, 10), iv(20, 30)], iv(50, 60), [], id="no_overlap"),
    ])
    def test_best_match(self, gts, pred, pairs):
        ann = AnnotationSet(gts, [f"gt {i}" for i in range(len(gts))])
        got = augment([pred], ann)
        assert [(p.interval, p.gt_index, p.tiou, p.caption) for p in got] == [
            (pred, g, v, f"gt {g}") for g, v in pairs]

    def test_low_overlap_excluded(self):
        # tIoU = 2/10 = 0.2 < 0.3
        assert augment([iv(8, 12)], self.ann) == []

    def test_exactly_threshold_excluded(self):
        # [0, 3] vs [0, 10]: tIoU exactly 0.3 is excluded (strict inequality)
        assert augment([iv(0, 3)], self.ann) == []

    def test_just_above_threshold_included(self):
        pairs = augment([iv(0, 3.1)], self.ann)
        assert len(pairs) == 1
        assert pairs[0].tiou == pytest.approx(0.31)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n_gt = int(rng.integers(1, 6))
            gts = []
            for _ in range(n_gt):
                s = rng.uniform(0, 90)
                gts.append(iv(s, s + rng.uniform(1, 10)))
            ann = AnnotationSet(gts, [f"gt {i}" for i in range(n_gt)])
            preds = []
            for _ in range(int(rng.integers(0, 10))):
                s = rng.uniform(0, 90)
                preds.append(iv(s, s + rng.uniform(1, 10)))
            pairs = augment(preds, ann)
            emitted = {(p.interval.start_s, p.interval.end_s): p for p in pairs}
            for p in preds:
                idx, v = oracle_best_match((p.start_s, p.end_s),
                                           [(g.start_s, g.end_s) for g in gts])
                key = (p.start_s, p.end_s)
                if v > 0.3:
                    assert key in emitted
                    assert emitted[key].gt_index == idx
                    assert emitted[key].caption == ann.sentences[idx]
                    assert emitted[key].tiou == pytest.approx(v, abs=1e-12)
                else:
                    assert key not in emitted
