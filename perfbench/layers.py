"""Per-layer wall attribution from a profile hook installed by the benchmark.

:class:`LayerProfiler` installs ``sys.setprofile`` around one traced
run.  Each time control enters code of a different ``repro.<package>``
(or the package-level modules ``repro.cluster``/``repro.config``/...),
it opens a *span* for that layer; the span closes when the frame that
opened it returns (a generator's ``yield`` counts as a return, its
resumption as a call).  Code outside the ``repro`` package -- builtins,
the standard library, networkx, this benchmark's own wrappers -- never
opens a span, so its time goes to the ``repro`` layer that called it.

A layer's self time is the time it sat on top of the span stack, i.e.
each span's duration minus the part its child spans cover.  Spans are
kept in memory as per-(parent layer, layer) aggregates plus the first
``KEEP_SPANS`` raw spans, and written out by the caller when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any

__all__ = ["LayerProfiler", "OUTSIDE", "layer_of_file"]

#: The pseudo-layer of everything below the first ``repro`` frame: the
#: benchmark's own code and the interpreter.
OUTSIDE = "bench"

#: Raw spans kept for the written record (aggregates cover all spans).
KEEP_SPANS = 20_000


def layer_of_file(filename: str, package_dir: str) -> str | None:
    """``repro`` layer of a source file, or ``None`` outside the package."""
    prefix = package_dir + os.sep
    if not filename.startswith(prefix):
        return None
    head = filename[len(prefix):].split(os.sep, 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return "repro" if head == "__init__" else head


class LayerProfiler:
    """Self time, span counts and selected call counts, by layer.

    ``count_calls`` maps a label to a code object whose calls are
    counted exactly (e.g. ``Process._resume`` for process resumptions).
    """

    def __init__(
        self,
        package_dir: str,
        count_calls: dict[str, Any] | None = None,
    ):
        self.package_dir = os.path.realpath(package_dir)
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.edges: dict[tuple[str, str], list[float]] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.call_counts = {label: 0 for label in (count_calls or {})}
        self._counted = {
            code: label for label, code in (count_calls or {}).items()
        }
        self.started = 0.0
        self.stopped = 0.0
        #: open span records: [layer, start, child_time, span_id, parent_id]
        self._open: list[list] = []

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Install the hook; the outside pseudo-layer opens the root span."""
        clock = time.perf_counter
        package_dir = self.package_dir
        layer_cache: dict[Any, str | None] = {}
        counted = self._counted
        call_counts = self.call_counts
        self_s = self.self_s
        calls = self.calls
        edges = self.edges
        spans = self.spans
        # One entry per live frame: the span record it opened, or None.
        frames: list[list | None] = []
        open_spans = self._open
        next_id = [1]

        def classify(code: Any) -> str | None:
            filename = os.path.realpath(code.co_filename)
            layer = layer_of_file(filename, package_dir)
            layer_cache[code] = layer
            return layer

        def hook(frame: Any, event: str, arg: Any) -> None:
            if event == "call":
                code = frame.f_code
                if code in counted:
                    call_counts[counted[code]] += 1
                try:
                    layer = layer_cache[code]
                except KeyError:
                    layer = classify(code)
                top = open_spans[-1]
                if layer is None or layer == top[0]:
                    frames.append(None)
                    return
                now = clock()
                span = [layer, now, 0.0, next_id[0], top[3]]
                next_id[0] += 1
                open_spans.append(span)
                frames.append(span)
                calls[layer] = calls.get(layer, 0) + 1
            elif event == "return":
                if not frames:
                    return
                span = frames.pop()
                if span is None:
                    return
                now = clock()
                open_spans.pop()
                layer, begin, child = span[0], span[1], span[2]
                duration = now - begin
                self_s[layer] = self_s.get(layer, 0.0) + duration - child
                parent = open_spans[-1]
                parent[2] += duration
                edge = edges.get((parent[0], layer))
                if edge is None:
                    edges[(parent[0], layer)] = [1, duration]
                else:
                    edge[0] += 1
                    edge[1] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append((span[3], span[4], layer, begin, now))

        self.started = clock()
        open_spans.append([OUTSIDE, self.started, 0.0, 0, -1])
        calls[OUTSIDE] = 1
        sys.setprofile(hook)

    def stop(self) -> None:
        """Remove the hook and close every span still open."""
        sys.setprofile(None)
        now = self.stopped = time.perf_counter()
        # Spans left open (the run's own frames are all closed by now,
        # but be exact about anything that is not) close at ``now``.
        while self._open:
            span = self._open.pop()
            duration = now - span[1]
            self.self_s[span[0]] = (
                self.self_s.get(span[0], 0.0) + duration - span[2]
            )
            if self._open:
                self._open[-1][2] += duration

    # -- results ----------------------------------------------------------
    @property
    def wall_s(self) -> float:
        return self.stopped - self.started

    def ranking(self) -> list[tuple[str, float]]:
        """Layers by self time, largest first (the outside layer excluded)."""
        return sorted(
            ((layer, s) for layer, s in self.self_s.items()
             if layer != OUTSIDE),
            key=lambda item: -item[1],
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "self_s": dict(sorted(self.self_s.items())),
            "calls": dict(sorted(self.calls.items())),
            "call_counts": dict(self.call_counts),
            "edges": [
                {"parent": p, "layer": c, "spans": int(n), "inclusive_s": s}
                for (p, c), (n, s) in sorted(self.edges.items())
            ],
            "spans_kept": len(self.spans),
            "spans": [
                {"id": i, "parent": p, "layer": layer,
                 "start": b - self.started, "end": e - self.started}
                for i, p, layer, b, e in self.spans
            ],
        }
