"""Spans recorded from outside the program, and the self-time sweep.

A :class:`Recorder` wraps callables; each call appends one tuple to a
list in memory (no I/O while a round runs).  :func:`sweep` turns the
spans of one op into per-layer self time.  One op is in flight at a
time, so across all threads *the innermost open span* is the one opened
last: a handler running on a dispatch thread is charged for its own
time while the client's ``net.tcp`` span, opened earlier, waits.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

#: Layer charged for op time that no span covers (the stub's own code
#: sits between the op's start and the first wrapped callable).
UNCOVERED = "complet.stub"


@dataclass(slots=True)
class Span:
    """One recorded call: layer name, start/end seconds, thread, op index."""

    layer: str
    start: float
    end: float
    thread: int = 0
    op: int = 0
    #: Index (within the same op's span list) of the span that was
    #: innermost when this one opened; filled in by :func:`sweep`.
    parent: int | None = None


class Recorder:
    """Collects spans from wrapped callables while ``op`` is >= 0."""

    def __init__(self) -> None:
        #: Index of the op being timed, or -1 outside timed ops (spans
        #: that open then are dropped: prepare and check are not traced).
        self.op = -1
        self.raw: list[tuple[str, float, float, int, int]] = []

    def wrap(self, layer: str, fn):
        """``fn`` with a span of ``layer`` recorded around every call."""
        recorder = self
        raw = self.raw
        clock = time.perf_counter
        ident = threading.get_ident

        def traced(*args, **kwargs):
            op = recorder.op
            if op < 0:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                raw.append((layer, start, clock(), ident(), op))

        traced.__wrapped__ = fn
        return traced

    def spans_by_op(self) -> dict[int, list[Span]]:
        grouped: dict[int, list[Span]] = {}
        for layer, start, end, thread, op in self.raw:
            grouped.setdefault(op, []).append(Span(layer, start, end, thread, op))
        return grouped


def sweep(spans: list[Span], op_start: float, op_end: float) -> dict[str, float]:
    """Self time per layer, in seconds, inside ``[op_start, op_end]``.

    At every instant the open span that started last is charged; time
    with no open span goes to :data:`UNCOVERED`.  Sets each span's
    ``parent`` to the span that was innermost when it opened.
    """
    events: list[tuple[float, int, int]] = []
    for index, span in enumerate(spans):
        if span.end > span.start:  # a zero-length span has no time to charge
            events.append((span.start, 1, index))
            events.append((span.end, 0, index))
    # At equal times close before opening, so a span that ends exactly
    # where its sibling starts is not taken for the sibling's parent.
    events.sort()
    charged: dict[str, float] = {}
    open_spans: list[int] = []
    previous = op_start
    for at, opening, index in events:
        clipped = min(max(at, op_start), op_end)
        if clipped > previous:
            layer = spans[open_spans[-1]].layer if open_spans else UNCOVERED
            charged[layer] = charged.get(layer, 0.0) + (clipped - previous)
            previous = clipped
        if opening:
            spans[index].parent = open_spans[-1] if open_spans else None
            open_spans.append(index)
        else:
            open_spans.remove(index)
    if op_end > previous:
        layer = spans[open_spans[-1]].layer if open_spans else UNCOVERED
        charged[layer] = charged.get(layer, 0.0) + (op_end - previous)
    return charged


@dataclass
class LayerTotals:
    """Per-layer self time and call counts summed over the ops of a round."""

    ops: int = 0
    op_seconds: float = 0.0
    self_seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    def add_op(self, spans: list[Span], op_start: float, op_end: float) -> None:
        self.ops += 1
        self.op_seconds += op_end - op_start
        for layer, seconds in sweep(spans, op_start, op_end).items():
            self.self_seconds[layer] = self.self_seconds.get(layer, 0.0) + seconds
        for span in spans:
            self.calls[span.layer] = self.calls.get(span.layer, 0) + 1

    def self_us(self, layer: str) -> float:
        """Mean self time of ``layer`` per op, in microseconds (0 without ops)."""
        return self.self_seconds.get(layer, 0.0) / max(self.ops, 1) * 1e6

    def calls_per_op(self, layer: str) -> float:
        return self.calls.get(layer, 0) / max(self.ops, 1)

    def coverage(self) -> float:
        """Share of op time charged to a recorded span."""
        covered = sum(
            seconds for layer, seconds in self.self_seconds.items() if layer != UNCOVERED
        )
        return covered / self.op_seconds if self.op_seconds else 0.0


def dump_spans(path, ops: list[tuple[int, float, float, list[Span]]]) -> None:
    """Write swept ops to ``path`` as JSON lines, one op per line."""
    with open(path, "w", encoding="utf-8") as out:
        for op, op_start, op_end, spans in ops:
            record = {
                "op": op,
                "start": op_start,
                "end": op_end,
                "spans": [
                    {
                        "name": span.layer,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "thread": span.thread,
                        "op": span.op,
                    }
                    for span in spans
                ],
            }
            out.write(json.dumps(record) + "\n")
