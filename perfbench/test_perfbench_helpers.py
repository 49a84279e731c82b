"""Self-tests for the benchmark's own helpers.

Percentiles with their sample counts, span self time and the
unattributed remainder, and lag and latency from the open-loop
schedule.  Run with ``python -m pytest perfbench``.
"""

import http.server
import random
import threading
import time

import pytest

from wmbench import host, layers, loadgen, stats
from wmbench.spans import Span, Tracer, _Carrier


# -- percentiles --------------------------------------------------------------


def test_percentile_interpolates_like_numpy():
    values = [1.0, 2.0, 3.0, 4.0]
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 95) == pytest.approx(3.85)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_summary_reports_counts_behind_the_tail():
    values = [float(index) for index in range(1, 401)]
    summary = stats.summarize(values)
    assert summary["n"] == 400
    assert summary["p50"] == 200.5
    assert summary["beyond_p95"] == 20
    assert not summary["thin"]
    thin = stats.summarize(values[:100])
    assert thin["beyond_p95"] == 5 and thin["thin"]


def test_quartile_spread_is_a_share_of_the_median():
    summary = stats.quartiles([8.0, 9.0, 10.0, 11.0, 12.0])
    assert summary["median"] == 10.0
    assert summary["spread"] == pytest.approx(
        (summary["q3"] - summary["q1"]) / 10.0)


# -- spans --------------------------------------------------------------------


def span(sid, parent, name, start, end, rid=None, weight=1):
    return Span(sid, parent, name, start, end, rid, weight)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert layers.covered((0.0, 10.0), [(1, 3), (2, 5), (8, 12)]) == 6.0
    assert layers.covered((0.0, 10.0), []) == 0.0


def test_self_time_and_unattributed_remainder():
    spans = [span("a", None, "service.dispatch", 0.0, 0.010, "r1"),
             span("b", "a", "service.decode", 0.0, 0.002, "r1"),
             span("c", "a", "core.embed", 0.003, 0.008, "r1"),
             span("d", "c", "xmlmodel.copy", 0.003, 0.004, "r1")]
    index = layers.SpanIndex(spans)
    assert index.self_time(spans[0]) == pytest.approx(0.003)
    assert index.self_time(spans[2]) == pytest.approx(0.004)
    values = layers.compute(index, {}, {"r1": 0.012}, 1.0, 0.0)
    assert values["service.dispatch_self_ms"] == pytest.approx(3.0)
    assert values["core.embed_self_ms"] == pytest.approx(4.0)
    assert values["trace.unattributed_ratio"] == pytest.approx(0.3)
    assert values["service.transport_ms"] == pytest.approx(2.0)


def test_nested_spans_of_one_layer_count_once():
    spans = [span("a", None, "tenants.system", 0.0, 0.004),
             span("b", "a", "tenants.system", 0.001, 0.003),
             span("c", None, "xmlmodel.parse", 0.0, 0.006, weight=3)]
    index = layers.SpanIndex(spans)
    assert index.mean_ms("tenants.system") == pytest.approx(4.0)
    assert index.mean_ms("xmlmodel.parse") == pytest.approx(2.0)


def test_sweep_counts_detects_under_trace_spans():
    spans = [span("t", None, "registry.trace", 0.0, 1.0),
             span("s", "t", "tenants.system", 0.0, 0.1),
             span("d1", "t", "core.detect", 0.1, 0.2),
             span("d2", "t", "core.detect", 0.2, 0.3),
             span("d3", None, "core.detect", 2.0, 2.1)]
    values = layers.compute(layers.SpanIndex(spans), {}, {}, 1.0, 0.0)
    assert values["registry.swept_per_trace"] == 2.0


def test_silent_layers_name_heavy_spans_that_never_fired():
    index = layers.SpanIndex([span("a", None, "service.dispatch", 0, 1)])
    silent = layers.silent_layers(layers.OWNER, index, {})
    assert any(item.startswith("service.decode_ms") for item in silent)
    assert not any(item.startswith("service.dispatch_self_ms")
                   for item in silent)


def test_tracer_records_parents_request_ids_and_counts():
    tracer = Tracer()

    def inner():
        return 1

    def dispatch(service, method, path, body, headers):
        return wrapped_inner() + 1

    wrapped_inner = tracer.timed("core.embed", inner)
    wrapped = tracer.requesting(dispatch)
    counted = tracer.counted("core.prf_digests", lambda: None)
    assert wrapped(None, "POST", "/", b"", {"X-Request-Id": "r9"}) == 2
    assert tracer.spans == []  # disabled: pass-through only
    tracer.enabled = True
    wrapped(None, "POST", "/", b"", {"x-request-id": "r9"})
    counted()
    rows = {row[2]: row for row in tracer.spans}
    assert rows["core.embed"][1] == rows["service.dispatch"][0]
    assert rows["core.embed"][5] == "r9"
    assert tracer.counts() == {("core.prf_digests", None): 1}


def test_carrier_calls_through_in_the_parent():
    import os

    carrier = _Carrier(abs, os.getpid(), None)
    assert carrier(-3) == (3, None, None)


# -- open-loop schedule, lag and backlog --------------------------------------


def test_schedule_depends_only_on_the_seed():
    first = loadgen.poisson_schedule(50.0, 2.0, random.Random(7))
    second = loadgen.poisson_schedule(50.0, 2.0, random.Random(7))
    assert first == second
    assert all(b > a for a, b in zip(first, first[1:]))
    assert 40 < len(first) < 160


def test_latency_is_timed_from_the_due_time():
    outcome = loadgen.Outcome("embed", "o1", due=1.0, sent=1.25, done=1.5,
                              status=200)
    assert outcome.lag_ms == pytest.approx(250.0)
    assert outcome.latency_ms == pytest.approx(500.0)


class _SlowHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        time.sleep(0.1)
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        requests = [loadgen.Request("embed", "POST", "/", b"{}")
                    for _ in range(3)]
        outcomes = loadgen.open_loop(server.server_address[1],
                                     [0.0, 0.0, 0.0], requests, workers=1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert [outcome.status for outcome in outcomes] == [200, 200, 200]
    lags = [outcome.lag_ms for outcome in outcomes]
    assert lags[0] < 50.0
    assert lags[1] >= 90.0 and lags[2] >= 190.0
    assert outcomes[2].latency_ms >= 290.0


def _outcomes(backlog_at):
    """One request due every 10 ms; each answered after backlog_at(t)."""
    return [loadgen.Outcome("embed", f"o{i}", due=i * 0.01,
                            sent=i * 0.01, done=i * 0.01 + backlog_at(i),
                            status=200) for i in range(300)]


def test_backlog_growth_is_flagged():
    steady = loadgen.backlog_series(_outcomes(lambda i: 0.02))
    assert max(steady) <= 3
    assert not loadgen.backlog_grows(steady, 2)
    growing = loadgen.backlog_series(_outcomes(lambda i: 0.02 + i * 0.004))
    assert loadgen.backlog_grows(growing, 2)


# -- host fingerprint ---------------------------------------------------------


def test_comparison_across_hosts_is_refused():
    base = {"cpu": "X", "nproc": 2, "python": "3.11.7",
            "calibration_ms": 30.0}
    assert host.comparable(base, dict(base, calibration_ms=55.0))[0]
    assert not host.comparable(base, dict(base, nproc=4))[0]
    assert not host.comparable(base, dict(base, cpu="Y"))[0]
    assert not host.comparable(base, dict(base, calibration_ms=61.0))[0]
    assert not host.comparable(base, dict(base, calibration_ms=None))[0]


# -- the declared contract ---------------------------------------------------


def test_benchmark_json_declares_what_the_command_prints():
    import json
    import os

    import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] \
        == [(layer.name, layer.unit, layer.better)
            for layer in layers.LAYERS]
    assert {w["name"] for w in declared["workloads"]} \
        == {layers.OWNER, layers.PROVENANCE, layers.BATCH}
