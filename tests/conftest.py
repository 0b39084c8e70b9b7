import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from densecap import AnnotationSet, Corpus, TimeInterval, VideoMeta, VideoRecord
from densecap.fusion import DEDUP_TOL_S

# offsets, in units of DEDUP_TOL_S, for near copies: 0.6 makes chains where
# A ~ B and B ~ C but A and C are 1.2 tolerances apart
_NUDGES = (-2.0, -1.0, -0.6, 0.0, 0.6, 1.0, 2.0)


@st.composite
def interval_lists(draw, max_size=12):
    """Intervals that touch, nest, repeat or sit within DEDUP_TOL_S of each other.

    Ends come from a coarse 0.5 s grid, so shared and nested ends are
    common; about half the draws instead nudge an earlier interval's ends
    by a few tolerances.
    """
    grid = st.integers(0, 20).map(lambda k: k * 0.5)
    spans = []
    for _ in range(draw(st.integers(0, max_size))):
        if spans and draw(st.booleans()):
            s, e = draw(st.sampled_from(spans))
            s += draw(st.sampled_from(_NUDGES)) * DEDUP_TOL_S
            e += draw(st.sampled_from(_NUDGES)) * DEDUP_TOL_S
        else:
            s, e = sorted((draw(grid), draw(grid)))
        if 0 <= s < e:
            spans.append((s, e))
    return [TimeInterval(s, e) for s, e in spans]


def make_video(video_id, duration, gt_sets, predictions=(), fps=25.0):
    """Assemble a VideoRecord from raw [start, end] pairs and sentences."""
    ann_sets = []
    for intervals, sentences in gt_sets:
        ann_sets.append(AnnotationSet([TimeInterval(*p) for p in intervals],
                                      list(sentences)))
    return VideoRecord(VideoMeta(video_id, duration, fps=fps), ann_sets,
                       list(predictions))


def make_corpus(**videos):
    return Corpus(videos=dict(videos))


def pytest_terminal_summary(terminalreporter):
    """Print one pass/fail line per release criterion after the test run."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULTS:
        terminalreporter.section("release criteria")
        for status, name in test_acceptance.RESULTS:
            terminalreporter.write_line(f"[{status}] {name}")


@pytest.fixture
def simple_meta():
    # 16 s at 16 fps with 64-frame segments: four 4 s segments
    return VideoMeta("v1", 16.0, fps=16.0, frames_per_segment=64)
