"""Tests of the benchmark's own helpers (no program run needed)."""

from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

import pytest

from pipebench import stats
from pipebench.hostspeed import NOMINAL_S, at_nominal_speed
from pipebench.ops import RECENT_SCANS, Templates, operation_sequence
from pipebench.probes import per_layer_catalog
from pipebench.tracer import Probe, Span, Tracer, install, ledger

TEMPLATES = Templates(
    scan=(("kind", "fleet_events"), ("where", "latency_ms>{u}")),
    lookup=(("kind", "fleet_events"), ("where", "user_id=={k}"),
            ("where", "time_s>={u}")),
    keys=tuple(range(7)),
    report="/v1/report/tail_latency",
)


# --------------------------------------------------------------------------- #
# Percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("samples, expected", [
    (5, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    (100000, 99.99),
])
def test_tail_percentile_needs_ten_samples_beyond(samples, expected):
    assert stats.tail_percentile(samples) == expected


def test_percentile_interpolates_linearly():
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 99.0) == \
        pytest.approx(4.96)
    assert stats.percentile([7.0], 99.0) == 7.0


def test_block_percentile_is_the_median_of_block_percentiles():
    values = [1.0] * 100 + [2.0] * 100 + [50.0] * 100
    assert stats.block_percentile(values, 50.0, 1) == 2.0
    # One slow block moves one block's percentile, not the median.
    assert stats.block_percentile(values, 99.0, 3) == 2.0
    assert stats.block_percentile([3.0, 1.0, 2.0], 50.0, 3) == 2.0
    with pytest.raises(ValueError):
        stats.block_percentile([1.0], 99.0, 2)


def test_nominal_speed_scales_times_and_rates_only():
    slow = 2 * NOMINAL_S
    assert at_nominal_speed(3.0, "s", slow) == pytest.approx(1.5)
    assert at_nominal_speed(3.0, "ms", slow) == pytest.approx(1.5)
    assert at_nominal_speed(100.0, "1/s", slow) == pytest.approx(200.0)
    assert at_nominal_speed(79.5, "B/row", slow) == 79.5


# --------------------------------------------------------------------------- #
# Self-time arithmetic
# --------------------------------------------------------------------------- #
def test_nested_self_times_and_region_closure():
    spans = [
        Span(1, None, 1, "a", 0.0, 10.0),
        Span(2, 1, 1, "b", 2.0, 5.0),
        Span(3, 2, 1, "c", 3.0, 4.0),
        Span(4, 1, 1, "b", 6.0, 7.0),
    ]
    book = ledger(spans, regions={1: 12.0})
    assert book.self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert book.threads[1] == (12.0, 10.0, 2.0)
    assert book.unattributed_s == 2.0


def test_cross_thread_child_is_not_subtracted():
    spans = [
        Span(1, None, 1, "pool", 0.0, 10.0),
        Span(2, 1, 2, "work", 1.0, 9.0),   # caused by span 1, other thread
        Span(3, 2, 2, "inner", 2.0, 3.0),
        Span(4, 1, 3, "work", 1.0, 4.0),
    ]
    book = ledger(spans, regions={1: 10.0})
    assert book.self_s == {"pool": 10.0, "work": 10.0, "inner": 1.0}
    # Threads without a region are charged their busy (root-span) time.
    assert book.threads[2] == (8.0, 8.0, 0.0)
    assert book.threads[3] == (3.0, 3.0, 0.0)
    assert book.threads[1] == (10.0, 10.0, 0.0)


def test_tracer_records_parents_across_threads():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.region():
        with tracer.span("outer"):
            parent = tracer.current()

            def worker():
                tracer.adopt(parent)
                with tracer.span("child"):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
    child = next(span for span in tracer.spans if span.name == "child")
    outer = next(span for span in tracer.spans if span.name == "outer")
    assert child.parent_id == outer.span_id
    assert child.thread != outer.thread
    book = ledger(tracer.spans, tracer.regions)
    assert book.self_s["outer"] == outer.end - outer.start
    for wall, attributed, unattributed in book.threads.values():
        assert wall == attributed + unattributed
        assert unattributed >= 0


def test_install_wraps_rebinds_and_uninstalls(monkeypatch):
    source = types.ModuleType("pbprobe_source")

    def double(x):
        return 2 * x

    def numbers(n):
        yield from range(n)

    class Box:
        def size(self):
            return double(3)

    source.double, source.numbers, source.Box = double, numbers, Box
    user = types.ModuleType("pbprobe_user")
    user.double = double  # as `from pbprobe_source import double` binds it
    monkeypatch.setitem(sys.modules, "pbprobe_source", source)
    monkeypatch.setitem(sys.modules, "pbprobe_user", user)

    tracer = Tracer()
    counted = lambda tr, args, kwargs, result: tr.count("doubled", result)
    undo = install(tracer, [
        Probe("layer.double", "pbprobe_source:double", counted),
        Probe("layer.numbers", "pbprobe_source:numbers"),
        Probe("layer.box", "pbprobe_source:Box.size"),
    ], rebind_prefix="pbprobe")
    try:
        assert user.double(4) == 8
        assert list(source.numbers(3)) == [0, 1, 2]
        assert Box().size() == 6
    finally:
        undo()
    assert source.double is double and user.double is double
    assert Box.size.__name__ == "size" and "size" in Box.__dict__
    names = [span.name for span in tracer.spans]
    assert names.count("layer.double") == 1
    assert names.count("layer.numbers") == 4  # three items + exhaustion
    assert names.count("layer.box") == 1
    assert tracer.counts == {"doubled": 8}


# --------------------------------------------------------------------------- #
# Operation sequences
# --------------------------------------------------------------------------- #
def test_same_seed_same_sequence_and_labels():
    first = operation_sequence(7, 4, 25, TEMPLATES)
    again = operation_sequence(7, 4, 25, TEMPLATES)
    assert first == again
    other = operation_sequence(8, 4, 25, TEMPLATES)
    assert [op.target for op in other] != [op.target for op in first]


def test_sequence_shape():
    ops = operation_sequence(3, 5, 300, TEMPLATES)
    assert len(ops) == 5 * 300
    assert [op.index for op in ops] == list(range(len(ops)))
    unique = set()
    for epoch in range(5):
        block = [op for op in ops if op.epoch == epoch]
        assert [op.cls for op in block[:3]] == ["write", "report", "scan"]
        assert block[1].target == TEMPLATES.report
        scans = []
        for op in block[2:]:
            assert op.cls in ("hit", "scan", "lookup")
            if op.cls == "hit":
                # A hit repeats a recent scan of the same generation.
                assert op.target in scans[-RECENT_SCANS:]
            else:
                assert op.target not in unique
                unique.add(op.target)
                if op.cls == "scan":
                    scans.append(op.target)


# --------------------------------------------------------------------------- #
# BENCHMARK.json agrees with what the benchmark prints
# --------------------------------------------------------------------------- #
def test_benchmark_json_lists_the_printed_per_layer_metrics():
    bench = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        per_layer_catalog()
    assert "setup_s" in [m["name"] for m in bench["end_to_end"]]

