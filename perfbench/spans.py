"""Span recording for the benchmark's traced passes.

The benchmark times each layer from outside: every call it makes into a
``densecap`` module goes through ``tracer.call("<module>.<function>", fn,
...)``. An untraced pass uses :class:`NullTracer`, which reads no clock and
only tags a raised exception with the layer it came from. A traced pass uses
:class:`Tracer`, which keeps every span in memory until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class LayerError(Exception):
    """A library call raised; ``layer`` names the module it belongs to."""

    def __init__(self, name: str):
        super().__init__(f"{name} raised")
        self.layer = name.split(".", 1)[0]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "video")

    def __init__(self, id, name, start, end, parent, video):
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.video = parent, video

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "video": self.video}


class NullTracer:
    """Untraced calls: no clock reads and no records."""

    def call(self, name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise LayerError(name) from exc

    @contextmanager
    def span(self, name, video=None):
        yield


class Tracer:
    """Records a span around every call; spans nest through an open stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def _push(self, name, video):
        parent = self._open[-1] if self._open else None
        if video is None and parent is not None:
            video = parent.video
        span = Span(len(self.spans), name, perf_counter(), None,
                    None if parent is None else parent.id, video)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _pop(self, span):
        span.end = perf_counter()
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self._push(name, None)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise LayerError(name) from exc
        finally:
            self._pop(span)

    @contextmanager
    def span(self, name, video=None):
        span = self._push(name, video)
        try:
            yield span
        finally:
            self._pop(span)


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its children.

    Children are clipped to their parent and overlapping children are
    merged, so a covered instant is subtracted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = (s.end - s.start) - covered
    return out


def busy_seconds(spans) -> dict:
    """Summed self time per span name, per layer and for ``bench.unattributed``.

    Keys are ``<module>.<function>`` and ``<layer>``; spans named ``bench.*``
    (the pass and per-video roots) add their self time to
    ``bench.unattributed``, the part of a pass no layer span covers.
    """
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer == "bench":
            out["bench.unattributed"] += own[s.id]
        else:
            out[s.name] += own[s.id]
            out[layer] += own[s.id]
    return dict(out)
