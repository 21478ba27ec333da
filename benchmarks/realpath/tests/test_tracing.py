import pytest

import tracing
from tracing import Span


def test_nested_spans_on_one_thread_are_charged_innermost_first():
    spans = [
        Span("outer", 1.0, 9.0),
        Span("inner", 2.0, 5.0),
        Span("leaf", 3.0, 4.0),
    ]
    charged = tracing.sweep(spans, 0.0, 10.0)
    assert charged == pytest.approx(
        {tracing.UNCOVERED: 2.0, "outer": 5.0, "inner": 2.0, "leaf": 1.0}
    )
    assert [span.parent for span in spans] == [None, 0, 1]


def test_a_handler_on_another_thread_gets_its_own_time():
    # The client's net.tcp span waits from 1 to 9 while a dispatch
    # thread runs the handler from 3 to 7 and, inside it, a marshal call.
    spans = [
        Span("net.tcp", 1.0, 9.0, thread=1),
        Span("core.invocation", 3.0, 7.0, thread=2),
        Span("complet.marshal", 4.0, 5.0, thread=2),
    ]
    charged = tracing.sweep(spans, 0.5, 9.5)
    assert charged == pytest.approx(
        {tracing.UNCOVERED: 1.0, "net.tcp": 4.0, "core.invocation": 3.0,
         "complet.marshal": 1.0}
    )
    assert spans[1].parent == 0 and spans[2].parent == 1


def test_overlapping_spans_that_do_not_nest_charge_the_latest_opened():
    # A one-way handler (thread 2) still runs when the sender goes on.
    spans = [
        Span("net.tcp", 1.0, 3.0, thread=1),
        Span("core.references", 2.0, 6.0, thread=2),
        Span("net.rpc", 4.0, 5.0, thread=1),
    ]
    charged = tracing.sweep(spans, 0.0, 6.0)
    assert charged == pytest.approx(
        {tracing.UNCOVERED: 1.0, "net.tcp": 1.0, "core.references": 3.0, "net.rpc": 1.0}
    )


def test_spans_are_clipped_to_the_op_window():
    charged = tracing.sweep([Span("late", 8.0, 20.0)], 5.0, 10.0)
    assert charged == pytest.approx({tracing.UNCOVERED: 3.0, "late": 2.0})


def test_self_times_sum_to_the_op_time():
    totals = tracing.LayerTotals()
    totals.add_op([Span("a", 1.0, 4.0), Span("b", 2.0, 3.0)], 0.0, 5.0)
    totals.add_op([Span("a", 11.0, 12.0)], 10.0, 13.0)
    assert sum(totals.self_seconds.values()) == pytest.approx(totals.op_seconds)
    assert totals.self_us("a") == pytest.approx(1.5e6)
    assert totals.calls_per_op("a") == 1.0 and totals.calls_per_op("b") == 0.5
    assert totals.coverage() == pytest.approx(4.0 / 8.0)


def test_recorder_records_only_inside_an_op_and_keeps_the_result():
    recorder = tracing.Recorder()
    double = recorder.wrap("layer", lambda value: value * 2)
    assert double(2) == 4
    assert recorder.raw == []
    recorder.op = 7
    assert double(3) == 6
    with pytest.raises(ZeroDivisionError):
        recorder.wrap("layer", lambda: 1 / 0)()
    assert [(layer, op) for layer, _, _, _, op in recorder.raw] == [("layer", 7)] * 2
    assert list(recorder.spans_by_op()) == [7]
