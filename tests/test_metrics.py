import itertools
import math
import string
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densecap import (PredictionEntry, TimeInterval, bleu4, dense_eval,
                      diversity_report, precision_recall, repetition, self_bleu, tokenize)
from densecap.metrics import (MAX_N, _NO_COUNTS, _add_counts, _bleu_counts, _bleu_from_counts,
                              _mean, _sentence, _video_self_bleu, build_document_frequency,
                              captions_by_set, cider_d_pair)
from densecap.synthetic import gen_synthetic, identity_predictions
from conftest import make_corpus, make_video
from oracles import (oracle_bleu4, oracle_cider_d, oracle_corpus_bleu4, oracle_counter_grams,
                     oracle_dense_eval_loop, oracle_diversity_report, oracle_document_frequency,
                     oracle_mean, oracle_repetition_video, oracle_self_bleu_video, oracle_tiou,
                     oracle_tokenize, oracle_union_self_bleu_video)


class TestTokenize:
    def test_basic(self):
        assert tokenize("A man runs.") == ["a", "man", "runs"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation(self):
        assert tokenize("Hello, WORLD!!") == ["hello", "world"]

    def test_inner_punctuation_kept(self):
        assert tokenize("it's o-k") == ["it's", "o-k"]

    # ASCII letters, digits and punctuation; non-ASCII letters, the Kelvin sign
    # (it lowers to ASCII "k"), an Arabic-Indic digit (alphanumeric, not ASCII)
    # and mixed whitespace
    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(st.text(st.sampled_from(string.ascii_letters + string.digits + string.punctuation
                                   + "\u00c9\u00df\u0130\u212a\u0661" + " \t\n\u00a0\u3000"),
                   max_size=40))
    @example("Kelvin \u212a \u212aB \u0130stanbul STRASSE stra\u00dfe \u00c9t\u00c9 \u0661a a\u0661")
    def test_equals_regex_on_every_token(self, sentence):
        assert tokenize(sentence) == oracle_tokenize(sentence)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.sampled_from("abc"), max_size=9))
@example(["a", "b", "a", "b", "a"])
def test_sentence_records_equal_counter_records_in_order(tokens):
    sent = _sentence(tokens)
    want = oracle_counter_grams(tokens)
    assert sent.length == len(tokens)
    assert [list(d.items()) for d in sent.grams] == [list(d.items()) for d in want]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.one_of(st.floats(-1e300, 1e300), st.integers(-2 ** 60, 2 ** 60),
                          st.sampled_from([0, 0.0, -0.0])), min_size=1, max_size=40))
@example([0.1] * 40)
@example([1, 2, 4])
def test_mean_is_np_mean_bit_for_bit(values):
    assert _mean(values).hex() == oracle_mean(values).hex()


class TestBleu4:
    def test_identity(self):
        cand = "a man runs down the street".split()
        assert bleu4(cand, [cand], smoothing=False) == pytest.approx(1.0)
        assert bleu4(cand, [cand], smoothing=True) == pytest.approx(1.0)

    def test_no_shared_4gram_unsmoothed_zero(self):
        cand = "a b c d e".split()
        ref = "a b x d e".split()
        assert bleu4(cand, [ref], smoothing=False) == 0.0

    def test_hand_value(self):
        cand = list("abcde")
        ref = list("abcdf")
        expect = (0.8 * 0.75 * (2 / 3) * 0.5) ** 0.25
        assert bleu4(cand, [ref], smoothing=False) == pytest.approx(expect, abs=1e-6)
        assert expect == pytest.approx(0.668740, abs=1e-6)

    def test_empty_candidate(self):
        assert bleu4([], [list("abcd")]) == 0.0

    def test_brevity_penalty(self):
        cand = list("abcd")
        ref = list("abcdefgh")
        v = bleu4(cand, [ref], smoothing=False)
        assert v == pytest.approx(math.exp(1 - 8 / 4), abs=1e-9)

    def test_not_one_unless_equal(self):
        ref = "a man runs down the street".split()
        for cand in (ref[:-1], ref + ["fast"], ref[::-1]):
            assert bleu4(cand, [ref], smoothing=False) < 1.0

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(13)
        vocab = list("abcdef")
        for _ in range(300):
            cand = [vocab[i] for i in rng.integers(0, 6, rng.integers(1, 7))]
            refs = [[vocab[i] for i in rng.integers(0, 6, rng.integers(1, 7))]
                    for _ in range(int(rng.integers(1, 4)))]
            for smoothing in (False, True):
                assert bleu4(cand, refs, smoothing=smoothing) == pytest.approx(
                    oracle_bleu4(cand, refs, smoothing), abs=1e-9)


def corpus_bleu4(pairs):
    """Corpus BLEU-4 the way `dense_eval` pools it: `_bleu_counts` of each
    pair that has references, summed by `_add_counts`."""
    counts = [_bleu_counts(_sentence(cand), [_sentence(r) for r in refs])
              for cand, refs in pairs if refs]
    return _bleu_from_counts(*reduce(_add_counts, counts, _NO_COUNTS), smoothing=False)


class TestCorpusBleu4:
    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(29)
        vocab = list("abc")  # small vocabulary: n-grams repeat within sentences

        def sentence(lo):
            return [vocab[i] for i in rng.integers(0, 3, int(rng.integers(lo, 7)))]

        empties = ties = 0
        for _ in range(300):
            pairs = []
            for _ in range(int(rng.integers(1, 5))):
                cand = sentence(0)
                refs = [sentence(1) for _ in range(int(rng.integers(0, 4)))]
                lengths = [abs(len(r) - len(cand)) for r in refs]
                empties += not cand
                ties += len({len(r) for r in refs
                             if abs(len(r) - len(cand)) == min(lengths)}) > 1
                pairs.append((cand, refs))
            assert corpus_bleu4(pairs) == oracle_corpus_bleu4(pairs)
        assert empties > 0 and ties > 0


class TestCiderD:
    def test_identity_is_maximal(self):
        # one target event plus distinct-vocabulary distractor documents
        docs = [[tokenize("a man plays a guitar")],
                [tokenize("children swim in the pool")],
                [tokenize("the chef slices ripe tomatoes")]]
        df, n = build_document_frequency(docs)
        target = "a man plays a guitar"
        contenders = ["a man plays", "man a guitar plays a",
                      "children swim in the pool", target]
        scores = {cand: cider_d_pair(tokenize(cand), docs[0], df, n)
                  for cand in contenders}
        assert max(scores, key=scores.get) == target

    def test_disjoint_vocabulary_scores_zero(self):
        refs = [tokenize("a man plays a guitar")]
        df, n = build_document_frequency([refs])
        assert cider_d_pair(tokenize("purple elephants dance wildly"), refs, df, n) == 0.0


@pytest.mark.parametrize("score", [bleu4, lambda cand, refs: cider_d_pair(cand, refs, {}, 1)],
                         ids=["bleu4", "cider_d_pair"])
def test_no_references_raises(score):
    with pytest.raises(ValueError, match="references must be non-empty"):
        score(tokenize("a man runs"), [])


def brute_force_document_frequency(docs):
    grams = {tuple(tokens[i:i + n]) for doc in docs for tokens in doc
             for n in range(1, MAX_N + 1) for i in range(len(tokens) - n + 1)}
    return {gram: oracle_document_frequency(gram, docs) for gram in grams}, len(docs)


class TestDocumentFrequency:
    """`build_document_frequency` against a count of documents per gram."""

    def test_criterion_5_documents(self):
        refs_fixed = [["a", "b", "a", "b"], ["b", "a", "a"], ["a"] * 5]
        docs = [refs_fixed, [["b", "b", "a", "a", "b"]], [["a", "b"]]]
        df, n_docs = build_document_frequency(docs)
        assert (df, n_docs) == brute_force_document_frequency(docs)
        assert (df[("a", "b")], df[("b", "b")], df[("a",) * 4], n_docs) == (3.0, 1.0, 1.0, 3)

    def test_criterion_4_corpus_one_document_per_event(self):
        corpus = gen_synthetic(8, seed=11)
        docs = [[tokenize(s)] for vid in corpus.video_ids()
                for ann in corpus.videos[vid].annotation_sets for s in ann.sentences]
        assert build_document_frequency(docs) == brute_force_document_frequency(docs)
        assert build_document_frequency(iter(docs)) == build_document_frequency(docs)

    def test_empty_documents(self):
        assert build_document_frequency([]) == ({}, 0)
        assert build_document_frequency([[], [[]], [["a"]]]) == ({("a",): 1.0}, 3)


def pred(a, b, sentence):
    return PredictionEntry(TimeInterval(a, b), sentence=sentence)


def matched_and_decoy_corpus():
    """Jittered second-set events with their sentences, two short decoys per
    video, and an `edge` video whose predictions sit exactly at tIoU 0.3,
    0.5, 0.7 and 0.9."""
    corpus = gen_synthetic(4, seed=21)
    rng = np.random.default_rng(21)
    for record in corpus.videos.values():
        duration = record.meta.duration_s
        second = record.annotation_sets[1]
        preds = [PredictionEntry(second.intervals[0], second.sentences[0])]
        for iv, sentence in zip(second.intervals, second.sentences):
            w = 0.3 * iv.length_s
            start = max(0.0, iv.start_s + rng.uniform(-w, w))
            end = min(duration, iv.end_s + rng.uniform(-w, w))
            preds.append(PredictionEntry(TimeInterval(start, end), sentence))
        for sentence in ("a dog sleeps near the door", "the crowd cheers"):
            start = rng.uniform(0.0, 0.99 * duration)
            preds.append(PredictionEntry(
                TimeInterval(start, start + 0.01 * duration), sentence))
        record.predictions = preds
    # tIoU exactly 0.3, 0.5, 0.7 and 0.9 against [0, 10]
    corpus.videos["edge"] = make_video(
        "edge", 20, [([[0, 10]], ["a man runs down the street"])],
        predictions=[pred(0, k, "a man runs down a street") for k in (3, 5, 7, 9)])
    return corpus


def crowded_corpus():
    """16 synthetic videos, every other one with 16-24 predictions and the rest
    with 4-15: events of either set with jittered ends, carrying their own or
    another event's sentence, and short decoys. Per-video means over this
    many predictions tell numpy's pairwise sum from a running sum."""
    corpus = gen_synthetic(16, seed=5)
    rng = np.random.default_rng(5)
    for i, record in enumerate(corpus.videos.values()):
        duration = record.meta.duration_s
        events = [(iv, sentence) for ann in record.annotation_sets
                  for iv, sentence in zip(ann.intervals, ann.sentences)]
        preds = []
        for _ in range(int(rng.integers(16, 25) if i % 2 else rng.integers(4, 16))):
            if rng.random() < 0.25:
                start = rng.uniform(0.0, 0.99 * duration)
                preds.append(PredictionEntry(
                    TimeInterval(start, start + 0.01 * duration), "the crowd cheers"))
                continue
            iv = events[rng.integers(len(events))][0]
            sentence = events[rng.integers(len(events))][1]
            w = 0.4 * iv.length_s
            start = max(0.0, iv.start_s + rng.uniform(-w, w))
            end = min(duration, iv.end_s + rng.uniform(-w, w))
            if end <= start:
                start, end = iv.start_s, iv.end_s
            preds.append(PredictionEntry(TimeInterval(start, end), sentence))
        record.predictions = preds
    return corpus


class TestDenseEval:
    def test_identity_scores_one(self):
        corpus = identity_predictions(gen_synthetic(5, seed=3))
        report = dense_eval(corpus, [0.9])
        assert report.bleu4_smoothed[0.9] == pytest.approx(1.0, abs=1e-9)
        assert report.bleu4_unsmoothed[0.9] == pytest.approx(1.0, abs=1e-9)
        assert report.bleu4_corpus[0.9] == pytest.approx(1.0, abs=1e-9)

    def test_all_disjoint_scores_zero(self):
        corpus = make_corpus(v1=make_video(
            "v1", 100, [([[0, 10]], ["a man runs down the street"])],
            predictions=[pred(50, 60, "a man runs down the street")]))
        report = dense_eval(corpus, [0.3, 0.5])
        for t in report.thresholds:
            assert report.bleu4_smoothed[t] == 0.0
            assert report.cider[t] == 0.0
            assert report.unmatched[t] == 1

    def test_half_weighted_partial_match(self):
        sentence = "a man runs down the street"
        corpus = make_corpus(v1=make_video(
            "v1", 100, [([[0, 30]], [sentence])],
            predictions=[pred(0, 20, sentence), pred(60, 80, sentence)]))
        # first prediction: tIoU 2/3 matches at 0.3 and 0.5; second never
        report = dense_eval(corpus, [0.3, 0.5, 0.7])
        assert report.bleu4_smoothed[0.3] == pytest.approx(0.5, abs=1e-9)
        assert report.bleu4_smoothed[0.5] == pytest.approx(0.5, abs=1e-9)
        assert report.bleu4_smoothed[0.7] == 0.0
        assert report.matched[0.3] == 1 and report.unmatched[0.3] == 1

    def test_average_is_mean_of_thresholds(self):
        corpus = identity_predictions(gen_synthetic(4, seed=9))
        report = dense_eval(corpus)
        assert report.avg_bleu4_smoothed == pytest.approx(
            float(np.mean([report.bleu4_smoothed[t] for t in report.thresholds])))

    def test_matches_oracles_on_matched_and_decoy_predictions(self):
        corpus = matched_and_decoy_corpus()
        thresholds = [0.3, 0.5, 0.7, 0.9]
        report = dense_eval(corpus, thresholds)

        def span(iv):
            return (iv.start_s, iv.end_s)

        docs = [[tokenize(s)] for vid in corpus.video_ids()
                for ann in corpus.videos[vid].annotation_sets for s in ann.sentences]
        for t in thresholds:
            per_video = {"bleu4_smoothed": [], "bleu4_unsmoothed": [], "cider": []}
            pairs = []
            n_matched = n_unmatched = 0
            for vid in corpus.video_ids():
                record = corpus.videos[vid]
                gts = [(span(iv), s) for ann in record.annotation_sets
                       for iv, s in zip(ann.intervals, ann.sentences)]
                scores = {key: [] for key in per_video}
                for p in record.predictions:
                    cand = tokenize(p.sentence)
                    refs = [tokenize(s) for g, s in gts
                            if oracle_tiou(span(p.interval), g) >= t]
                    if refs:
                        n_matched += 1
                        pairs.append((cand, refs))
                    else:
                        n_unmatched += 1
                    scores["bleu4_smoothed"].append(
                        oracle_bleu4(cand, refs, True) if refs else 0.0)
                    scores["bleu4_unsmoothed"].append(
                        oracle_bleu4(cand, refs, False) if refs else 0.0)
                    scores["cider"].append(
                        oracle_cider_d(cand, refs, docs) if refs else 0.0)
                for key, values in scores.items():
                    per_video[key].append(sum(values) / len(values))
            assert n_matched > 0 and n_unmatched > 0
            assert (report.matched[t], report.unmatched[t]) == (n_matched, n_unmatched)
            for key, values in per_video.items():
                assert getattr(report, key)[t] == pytest.approx(
                    sum(values) / len(values), abs=1e-9)
            assert report.bleu4_corpus[t] == pytest.approx(
                oracle_corpus_bleu4(pairs), abs=1e-9)

    @pytest.mark.parametrize("thresholds", [[0.3, 0.5, 0.7, 0.9], [0.9, 0.1, 0.5, 0.3],
                                            [0.5]])
    def test_equals_per_threshold_loop(self, thresholds):
        corpus = matched_and_decoy_corpus()
        assert dense_eval(corpus, thresholds).to_dict() == oracle_dense_eval_loop(
            corpus, thresholds)

    @pytest.mark.parametrize("thresholds", [[0.3, 0.5, 0.7, 0.9], [0.0, 0.5, 1.0]])
    def test_equals_per_threshold_loop_on_many_predictions(self, thresholds):
        corpus = crowded_corpus()
        assert max(len(r.predictions) for r in corpus.videos.values()) >= 16
        assert dense_eval(corpus, thresholds).to_dict() == oracle_dense_eval_loop(
            corpus, thresholds)

    def test_event_no_prediction_matches_equals_per_threshold_loop(self):
        # v1's third event and v2's only event are never matched, yet their
        # sentences still count in the document frequencies; v1's first
        # prediction matches one event of each set
        corpus = make_corpus(
            v1=make_video("v1", 60, [([[0, 10], [20, 30], [40, 50]],
                                      ["a man runs down the street", "a dog barks at the mailman",
                                       "children play in the park"]),
                                     ([[0, 10.5]], ["a man jogs along the street"])],
                          predictions=[pred(0, 10, "a man runs down a street"),
                                       pred(21, 30, "the dog barks at a man")]),
            v2=make_video("v2", 60, [([[0, 10]], ["the crowd cheers in the park"])],
                          predictions=[pred(50, 60, "a crowd cheers")]))
        thresholds = [0.3, 0.5, 0.7, 0.9]
        report = dense_eval(corpus, thresholds)
        assert report.unmatched[0.3] == 1 and report.cider[0.3] > 0.0
        assert report.to_dict() == oracle_dense_eval_loop(corpus, thresholds)

    def test_video_without_groundtruth_is_skipped_as_in_precision_recall(self):
        corpus = identity_predictions(gen_synthetic(3, seed=3))
        without = dense_eval(corpus, [0.5]).to_dict()
        corpus.videos["nogt"] = make_video(
            "nogt", 40, [], predictions=[pred(0, 10, "a man runs down the street")])
        report = dense_eval(corpus, [0.5])
        assert report.to_dict() == without
        assert report.bleu4_smoothed[0.5] == pytest.approx(1.0, abs=1e-9)
        assert report.unmatched[0.5] == 0
        table = precision_recall(corpus, [0.5])
        assert (table.precision[0.5], table.videos) == (1.0, 3)

    def test_video_without_predictions_is_counted_not_averaged(self):
        corpus = identity_predictions(gen_synthetic(3, seed=3))
        corpus.videos[min(corpus.videos)].predictions = []
        corpus.videos["nogt"] = make_video("nogt", 40, [])  # neither side: not counted
        report = dense_eval(corpus, [0.5])
        assert report.zero_prediction_videos == 1
        assert report.bleu4_smoothed[0.5] == pytest.approx(1.0, abs=1e-9)
        assert report.to_dict() == oracle_dense_eval_loop(corpus, [0.5])
        assert precision_recall(corpus, [0.5]).zero_prediction_videos == 1

    def test_dict_keys(self):
        d = dense_eval(matched_and_decoy_corpus(), [0.9, 0.25]).to_dict()
        per_threshold = ["bleu4_smoothed", "bleu4_unsmoothed", "bleu4_corpus", "cider",
                         "matched", "unmatched"]
        assert set(d) == {"thresholds", *per_threshold, "avg_bleu4_smoothed",
                          "avg_bleu4_unsmoothed", "avg_cider", "zero_prediction_videos"}
        assert d["thresholds"] == [0.9, 0.25]
        for key in per_threshold:
            assert list(d[key]) == ["0.9", "0.25"]

    @pytest.mark.parametrize("thresholds", [[], [math.nan], [math.inf], [1.5], [-0.1],
                                            [0.5, 0.5], [0.3, 0.5, 0.3]])
    def test_bad_thresholds_rejected(self, thresholds):
        with pytest.raises(ValueError, match="threshold"):
            dense_eval(matched_and_decoy_corpus(), thresholds)

    def test_missing_sentence_rejected(self):
        corpus = make_corpus(v1=make_video(
            "v1", 100, [([[0, 10]], ["a"])],
            predictions=[PredictionEntry(TimeInterval(0, 10))]))
        with pytest.raises(ValueError):
            dense_eval(corpus, [0.5])

    def test_peak_memory_is_not_linear_in_the_corpus(self):
        # groundtruth records live one video at a time, so the peak follows the
        # vocabulary (the document frequencies), not the number of videos. An
        # untraced call first fills the object free lists, so that what ran
        # before does not move the two peaks.
        corpora = [identity_predictions(gen_synthetic(n, seed=7)) for n in (40, 320)]
        dense_eval(corpora[1], [0.5])
        peaks = []
        for corpus in corpora:
            tracemalloc.start()
            try:
                dense_eval(corpus, [0.5])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]  # about 1.2; 10 with every record held to the end


class TestSelfBleu:
    def test_identical_pair_is_100(self):
        caps = {"v1": [["a man runs down the street"] * 2]}
        assert self_bleu(caps) == pytest.approx(100.0, abs=1e-6)

    def test_disjoint_tokens_low(self):
        caps = {"v1": [["aa bb cc dd ee", "ff gg hh ii jj"]]}
        v = self_bleu(caps)
        assert 0.0 <= v < 5.0

    def test_single_caption_video_excluded(self):
        caps = {"v1": [["just one caption here"]],
                "v2": [["a man runs down the street"] * 2]}
        report = diversity_report(caps)
        assert report.excluded_self_bleu_videos == 1
        assert report.self_bleu == pytest.approx(100.0, abs=1e-6)

    def test_combined_at_least_per_set_for_duplicated_sets(self):
        sentences = ["a man runs down the street",
                     "a dog barks at the mailman",
                     "children play in the park"]
        caps = {"v1": [sentences, sentences]}
        report = diversity_report(caps)
        assert report.self_bleu_combined >= report.self_bleu - 1e-9

    def test_matches_oracle_exhaustive_small(self):
        vocab = ["a", "b", "c"]
        pools = [[list(p) for p in itertools.product(vocab, repeat=r)]
                 for r in (4, 5)]
        rng = np.random.default_rng(2)
        for _ in range(120):
            n_caps = int(rng.integers(2, 5))
            caps = []
            for _ in range(n_caps):
                pool = pools[int(rng.integers(0, len(pools)))]
                caps.append(pool[int(rng.integers(0, len(pool)))])
            got = self_bleu({"v": [caps]})
            want = oracle_self_bleu_video(caps)
            assert got == pytest.approx(want, abs=1e-9)

    # tie-heavy caption lists: 2-8 captions drawn from a few short captions
    # over a 3-token vocabulary, so duplicates and empty captions are common
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(st.lists(st.sampled_from("abc"), max_size=6), min_size=1, max_size=4)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=8)))
    @example([[], []])
    @example([["a", "b"], ["a", "b"], [], ["a", "b", "a", "b"]])
    @example([["a", "a", "a"], ["a", "a"], ["a", "a", "a"], ["a"]])
    # closest other length: a tie between 3 and 5 for the caption of 4, a
    # repeated length, two captions, an empty caption
    @example([list("abcd"), list("abc"), list("abcde")])
    @example([list("abcd"), list("bcda"), list("abcdef")])
    @example([list("abcde"), list("abc")])
    @example([[], list("ab"), list("abc")])
    def test_tables_equal_union_oracle(self, caps):
        assert (_video_self_bleu([_sentence(c) for c in caps])
                == oracle_union_self_bleu_video(caps))


class TestRepetition:
    def test_all_unique(self):
        caps = {"v1": [["a b c d e", "f g h i j"]]}
        assert repetition(caps) == 0.0

    def test_two_identical_captions(self):
        caps = {"v1": [["a b c d e f", "a b c d e f"]]}
        # u distinct 4-grams repeated once each: 100*u/(2u) = 50
        assert repetition(caps) == pytest.approx(50.0, abs=1e-9)

    def test_hand_enumeration(self):
        caps = {"v1": [["a b c d e", "b c d e f"]]}
        assert repetition(caps) == pytest.approx(25.0, abs=1e-9)

    def test_m_identical_copies(self):
        for m in (2, 3, 5):
            caps = {"v1": [["the man runs very fast today"] * m]}
            assert repetition(caps) == pytest.approx(100.0 * (m - 1) / m, abs=1e-9)

    def test_short_captions_excluded(self):
        caps = {"v1": [["a b", "c d"]],
                "v2": [["a b c d e", "a b c d e"]]}
        assert repetition(caps) == pytest.approx(50.0, abs=1e-9)

    def test_matches_oracle_exhaustive_small(self):
        rng = np.random.default_rng(17)
        vocab = ["a", "b", "c"]
        for _ in range(150):
            caps = []
            for _ in range(int(rng.integers(1, 5))):
                length = int(rng.integers(1, 7))
                caps.append([vocab[i] for i in rng.integers(0, 3, length)])
            want = oracle_repetition_video(caps)
            assert repetition({"v": [caps]}) == (0.0 if want is None else want)
            assert diversity_report({"v": [caps]}).per_video["v"][
                "repetition"]["set0"] == want


def test_sentence_records_hold_exactly_max_n_orders():
    for length in (0, 1, 9):
        sent = _sentence([str(i) for i in range(length)])
        assert len(sent.grams) == MAX_N
        assert [sum(grams.values()) for grams in sent.grams] == [
            max(length - n, 0) for n in range(MAX_N)]


def assert_report_close(got, want, tol=1e-9):
    """Equal keys in equal order, with floats within `tol`."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_report_close(got[key], want[key], tol)
    elif isinstance(want, float):
        assert got == pytest.approx(want, abs=tol)
    else:
        assert got == want


# multi-video inputs: uneven set counts, empty sets, single-caption sets and
# captions of 0-7 tokens over a 3-token vocabulary
CAPTION_SETS = st.dictionaries(
    st.sampled_from(["v1", "v2", "v3", "v4"]),
    st.lists(st.lists(st.lists(st.sampled_from("abc"), max_size=7), max_size=4),
             max_size=3),
    max_size=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(CAPTION_SETS)
@example({})
@example({"v1": [], "v2": [[]], "v3": [[["a"]]]})
@example({"v1": [[["a", "b"]], [["a", "b"], ["a", "b"]]], "v2": [[["c"] * 7] * 3]})
def test_diversity_report_matches_two_pass_oracle(captions):
    assert_report_close(diversity_report(captions).to_dict(),
                        oracle_diversity_report(captions))


def test_captions_by_set_keeps_file_order_and_skips_captionless():
    first = {"v1": [pred(0, 1, "a"), PredictionEntry(TimeInterval(1, 2))],
             "v2": [pred(0, 1, "b")]}
    second = {"v1": [pred(0, 1, "c")]}
    assert captions_by_set([first, second]) == {"v1": [["a"], ["c"]], "v2": [["b"], []]}


def test_captions_by_set_aligns_a_video_missing_from_the_first_file():
    first = {"v1": [pred(0, 1, "a b c d e"), pred(1, 2, "a b c d e")]}
    second = {"v1": [pred(0, 1, "a b c d e"), pred(1, 2, "f g h i j")],
              "v2": [pred(0, 1, "k l m n o"), pred(1, 2, "k l m n o")]}
    sets = captions_by_set([first, second])
    assert sets["v2"][0] == []
    report = diversity_report(sets)
    # set0 holds v1 alone (SelfB 100, RE 50); set1 averages v1 and v2
    assert report.self_bleu == pytest.approx(75.0, abs=1e-6)
    assert report.repetition == pytest.approx(37.5, abs=1e-9)
    assert report.excluded_self_bleu_videos == 1
    assert report.per_video["v2"]["self_bleu"]["set0"] is None


class TestDiversityModes:
    def test_per_set_averages_sets(self):
        set1 = ["a b c d e", "a b c d e"]          # RE 50
        set2 = ["a b c d e", "f g h i j"]          # RE 0
        report = diversity_report({"v1": [set1, set2]})
        assert report.repetition == pytest.approx(25.0, abs=1e-9)

    def test_combined_pools_sets(self):
        set1 = ["a b c d e"]
        set2 = ["a b c d e"]
        report = diversity_report({"v1": [set1, set2]})
        # each set alone has no repetition; pooled they repeat fully
        assert report.repetition == 0.0
        assert report.repetition_combined == pytest.approx(50.0, abs=1e-9)

    def test_permutation_invariance_over_videos(self):
        caps = {"v1": [["a b c d e", "a b c d f"]],
                "v2": [["g h i j k", "g h i j k"]]}
        swapped = {"v2": caps["v2"], "v1": caps["v1"]}
        assert self_bleu(caps) == self_bleu(swapped)
        assert repetition(caps) == repetition(swapped)
