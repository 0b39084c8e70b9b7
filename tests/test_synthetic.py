import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecap import TimeInterval, gen_synthetic, tiou
from densecap.synthetic import (ADVERBS, EVENT_LEN_FRAC, JITTER_FRAC, OBJECTS, SUBJECTS,
                                SYNONYMS, VERBS, _captions, _jitter, _plant_events,
                                make_separable_miml)


def loop_plant_events(duration, n_events, rng):
    """Events one TimeInterval at a time, as `_plant_events` built them before
    it returned one bounds array."""
    lengths = rng.uniform(*EVENT_LEN_FRAC, size=n_events) * duration
    slack = duration - lengths.sum()
    cuts = np.sort(rng.uniform(0, slack, size=n_events))
    gaps = np.diff(np.concatenate([[0.0], cuts]))
    events, cursor = [], 0.0
    for gap, length in zip(gaps, lengths):
        start = cursor + gap
        events.append(TimeInterval(start, start + length))
        cursor = start + length
    return events


def loop_jitter(interval, duration, rng):
    """One interval's jitter, as `_jitter` did it per interval."""
    w = JITTER_FRAC * interval.length_s
    start = float(np.clip(interval.start_s + rng.uniform(-w, w), 0.0, duration))
    end = float(np.clip(interval.end_s + rng.uniform(-w, w), 0.0, duration))
    if end <= start:
        return interval
    return TimeInterval(start, end)


def loop_template_sentence(rng):
    """One sentence, one `rng.choice` per word, as `_captions` drew them
    before it drew a video's word indices in one call."""
    return ("the {} {} with the {} {}"
            .format(rng.choice(SUBJECTS), rng.choice(VERBS),
                    rng.choice(OBJECTS), rng.choice(ADVERBS)))


def loop_paraphrase(sentence):
    """The synonym of each word, looked up token by token."""
    return " ".join(SYNONYMS.get(tok, tok) for tok in sentence.split())


def corpus_digest(corpus):
    """SHA-256 over each video's id, duration, bounds bytes and sentences."""
    h = hashlib.sha256()
    for vid, record in corpus.videos.items():
        h.update(vid.encode())
        h.update(np.float64(record.meta.duration_s).tobytes())
        for ann in record.annotation_sets:
            h.update(ann.intervals.bounds.tobytes())
            h.update("\n".join(ann.sentences).encode() + b"\0")
    return h.hexdigest()


class TestGenSynthetic:
    def test_single_video_single_event(self):
        corpus = gen_synthetic(1, events_range=(1, 1), seed=0)
        record = next(iter(corpus.videos.values()))
        assert len(record.annotation_sets) == 2
        assert len(record.annotation_sets[0].intervals) == 1

    def test_deterministic(self):
        a = gen_synthetic(5, seed=42)
        b = gen_synthetic(5, seed=42)
        for vid in a.videos:
            ra, rb = a.videos[vid], b.videos[vid]
            assert ra.meta.duration_s == rb.meta.duration_s
            for sa, sb in zip(ra.annotation_sets, rb.annotation_sets):
                assert sa.sentences == sb.sentences
                assert [(i.start_s, i.end_s) for i in sa.intervals] == \
                    [(i.start_s, i.end_s) for i in sb.intervals]

    def test_events_non_overlapping_and_in_bounds(self):
        corpus = gen_synthetic(20, seed=1)
        for record in corpus.videos.values():
            bounds = record.annotation_sets[0].intervals.bounds
            assert (bounds[:-1, 1] <= bounds[1:, 0] + 1e-9).all()
            assert bounds[-1, 1] <= record.meta.duration_s + 1e-9

    @pytest.mark.parametrize("n_events", [7, 8, 20, 50])
    def test_many_events_fit_the_video(self, n_events):
        # 7 lengths of up to 16 % of the duration could add up past it
        corpus = gen_synthetic(200, events_range=(n_events, n_events), seed=7)
        for record in corpus.videos.values():
            bounds = record.annotation_sets[0].intervals.bounds
            assert len(bounds) == n_events
            assert (bounds[:-1, 1] <= bounds[1:, 0] + 1e-9).all()
            assert bounds[-1, 1] <= record.meta.duration_s + 1e-9

    def test_mean_events_per_video(self):
        corpus = gen_synthetic(500, seed=3)
        counts = [len(r.annotation_sets[0].intervals)
                  for r in corpus.videos.values()]
        assert 3.2 <= float(np.mean(counts)) <= 4.2

    def test_second_set_stays_close(self):
        corpus = gen_synthetic(50, seed=5)
        for record in corpus.videos.values():
            first, second = record.annotation_sets
            for a, b in zip(first.intervals, second.intervals):
                assert tiou(a, b) >= 0.6

    def test_sentences_have_enough_tokens(self):
        corpus = gen_synthetic(10, seed=6)
        for record in corpus.videos.values():
            for ann in record.annotation_sets:
                for sent in ann.sentences:
                    assert len(sent.split()) >= 5


class TestWholeArrayGeneration:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6),
           st.floats(1e-3, 1e5), st.floats(0.5, 2.0))
    def test_matches_the_per_event_loops(self, seed, n_events, duration, clip_frac):
        """Same bounds as the loops, bit for bit, and the generator left at the
        same place; `clip_frac` < 1 clips jittered ends to a shorter video,
        so some rows cross and keep their place."""
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        want = loop_plant_events(duration, n_events, old)
        events = _plant_events(duration, n_events, new)
        assert events.tolist() == [[iv.start_s, iv.end_s] for iv in want]
        clip_to = duration * clip_frac
        want = [loop_jitter(iv, clip_to, old) for iv in want]
        assert _jitter(events, clip_to, new).tolist() == [[iv.start_s, iv.end_s] for iv in want]
        assert new.random() == old.random()


    @pytest.mark.parametrize("seed", range(24))
    def test_captions_match_one_choice_per_word(self, seed):
        """Same sentences and paraphrases as one `rng.choice` per word, and
        the generator left at the same place."""
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for n_events in range(1, 13):
            want = [loop_template_sentence(old) for _ in range(n_events)]
            assert _captions(n_events, new) == [want, [loop_paraphrase(s) for s in want]]
            assert new.random() == old.random()

    # digests of the benchmark's inputs, computed before the word draws were
    # batched; a change to the draw order or the formatting fails here
    @pytest.mark.parametrize("n_videos, digest", [
        (1000, "9c3fd15d269a69a4ffd14f7db1abc6c2a8b39bb5dc5bb950cefd309784b72cb6"),
        (500, "0db4778ff98ba0a281fe1702824ddc65ca58329f05738d3f362faaa22ccca803"),
    ])
    def test_seed_7_corpora_are_unchanged(self, n_videos, digest):
        assert corpus_digest(gen_synthetic(n_videos, seed=7)) == digest


class TestSeparableMiml:
    def test_shapes(self):
        examples = make_separable_miml(10, n_concepts=4, dim=16, seed=0)
        assert len(examples) == 10
        assert examples[0].labels.shape == (4,)
        assert examples[0].grid.features.shape[1] == 16

    def test_deterministic(self):
        a = make_separable_miml(10, seed=7)
        b = make_separable_miml(10, seed=7)
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.labels, eb.labels)
            np.testing.assert_array_equal(ea.grid.features, eb.grid.features)
