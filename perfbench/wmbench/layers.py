"""The per-layer metrics of the traced run, computed from spans.

Each metric is named for a module under ``src/repro/``.  ``moves`` names
the end-to-end metric a change to that layer should move, as
``metric@workload``, where ``wall.`` marks a wall-clock figure of the
``wall`` line rather than a gated metric; ``heavy`` names the workloads
where the layer does most of its work, and on each of them its span or
counter must fire at least once or the traced run fails; ``light``
names one where it does little or none, the side on which a change to
the layer should leave the end-to-end numbers unchanged.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from wmbench.spans import CHUNK_SPAN, MAP_SPAN, Span
from wmbench.stats import percentile

OWNER, PROVENANCE, BATCH = "owner_http", "provenance_http", "batch_pool"


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    what: str
    moves: tuple
    heavy: tuple
    light: tuple
    #: Spans or counters that must fire on a heavy workload.
    fires: tuple = ()


LAYERS = (
    Layer("service.dispatch_self_ms", "ms", "lower",
          "WmXMLService.dispatch minus its child spans, per request",
          ("embed_cpu_ms@owner_http", "detect_cpu_ms@owner_http",
           "wall.embed_p50_ms@owner_http"),
          (OWNER,), (BATCH,), ("service.dispatch",)),
    Layer("service.decode_ms", "ms", "lower",
          "protocol.parse_request, per request",
          ("embed_cpu_ms@owner_http", "wall.embed_p50_ms@owner_http"),
          (OWNER,), (BATCH,), ("service.decode",)),
    Layer("service.transport_ms", "ms", "lower",
          "client round trip minus the dispatch span: HTTP, the thread "
          "per connection and the response JSON, per request",
          ("wall.embed_p95_ms@owner_http",
           "wall.embed_docs_per_s@owner_http"),
          (OWNER,), (BATCH,), ("service.dispatch",)),
    Layer("tenants.auth_ms", "ms", "lower",
          "TenantDirectory.authenticate, per call",
          ("embed_cpu_ms@provenance_http",
           "wall.embed_p50_ms@provenance_http"), (PROVENANCE,), (OWNER,),
          ("tenants.auth",)),
    Layer("tenants.quota_ms", "ms", "lower",
          "charge_request and charge_documents, per call",
          ("embed_cpu_ms@provenance_http",
           "wall.embed_p50_ms@provenance_http"), (PROVENANCE,), (OWNER,),
          ("tenants.quota",)),
    Layer("tenants.system_ms", "ms", "lower",
          "TenantDirectory.system and system_for_record, per outermost "
          "call",
          ("embed_cpu_ms@provenance_http", "detect_cpu_ms@provenance_http"),
          (PROVENANCE,), (OWNER,), ("tenants.system",)),
    Layer("api.pipeline_compiles", "count", "lower",
          "Pipeline.__init__ calls in the measured window",
          ("detect_cpu_ms@provenance_http", "embed_cpu_ms@provenance_http"),
          (PROVENANCE,), (OWNER,), ("api.pipeline_compiles",)),
    Layer("api.pipeline_hit_ratio", "ratio", "higher",
          "(WmXMLSystem.pipeline and recipient_pipeline calls - compiles)"
          " / those calls; 0 where no call is made",
          ("detect_cpu_ms@provenance_http",), (PROVENANCE,), (OWNER,),
          ("api.pipeline_lookups",)),
    Layer("xmlmodel.parse_ms", "ms", "lower",
          "parse and parse_many, per document",
          ("embed_cpu_ms@batch_pool", "detect_cpu_ms@batch_pool",
           "embed_cpu_ms@owner_http"), (BATCH,), (OWNER,),
          ("xmlmodel.parse",)),
    Layer("xmlmodel.serialize_ms", "ms", "lower",
          "serialize, per document",
          ("embed_cpu_ms@batch_pool", "embed_cpu_ms@owner_http"),
          (BATCH,), (OWNER,), ("xmlmodel.serialize",)),
    Layer("xmlmodel.copy_ms", "ms", "lower",
          "Document.copy, per embed (0 where embedding is in place)",
          ("embed_cpu_ms@owner_http", "embed_cpu_ms@provenance_http"),
          (OWNER,), (BATCH,), ("xmlmodel.copy",)),
    Layer("semantics.shred_ms", "ms", "lower",
          "DocumentShape.shred, per call",
          ("embed_cpu_ms@batch_pool",), (BATCH,), (OWNER,),
          ("semantics.shred",)),
    Layer("core.group_ms", "ms", "lower",
          "build_carrier_groups, per call",
          ("embed_cpu_ms@batch_pool",), (BATCH,), (OWNER,),
          ("core.group",)),
    Layer("core.select_ms", "ms", "lower", "select_groups, per call",
          ("embed_cpu_ms@batch_pool",), (BATCH,), (OWNER,),
          ("core.select",)),
    Layer("core.embed_self_ms", "ms", "lower",
          "WmXMLEncoder.embed minus its child spans, per call",
          ("embed_cpu_ms@batch_pool", "embed_cpu_ms@owner_http"),
          (BATCH,), (OWNER,), ("core.embed",)),
    Layer("core.detect_self_ms", "ms", "lower",
          "WmXMLDecoder.detect minus its child spans, per call",
          ("detect_cpu_ms@batch_pool", "detect_cpu_ms@provenance_http"),
          (BATCH, PROVENANCE), (OWNER,), ("core.detect",)),
    Layer("core.prf_digests", "count", "lower",
          "KeyedPRF.digest calls per embedded or verified document",
          ("embed_cpu_ms@batch_pool",), (BATCH,), (OWNER,),
          ("core.prf_digests",)),
    Layer("rewriting.index_ms", "ms", "lower",
          "LogicalExecutor.__init__, per call",
          ("detect_cpu_ms@batch_pool", "detect_cpu_ms@owner_http"),
          (BATCH,), (OWNER,), ("rewriting.index",)),
    Layer("rewriting.execute_ms", "ms", "lower",
          "LogicalExecutor.execute, per call",
          ("detect_cpu_ms@batch_pool",), (BATCH,), (OWNER,),
          ("rewriting.execute",)),
    Layer("registry.append_ms", "ms", "lower",
          "WatermarkRegistry.record_embed_many (seal and one SQLite "
          "transaction), per call",
          ("embed_cpu_ms@provenance_http",
           "wall.embed_p95_ms@owner_http"),
          (PROVENANCE,), (BATCH,), ("registry.append",)),
    Layer("registry.query_ms", "ms", "lower",
          "WatermarkRegistry.records and count, per call",
          ("detect_cpu_ms@provenance_http",), (PROVENANCE,), (OWNER,),
          ("registry.query",)),
    Layer("registry.swept_per_trace", "count", "lower",
          "WmXMLDecoder.detect calls inside one trace span, against the "
          "one verdict wanted",
          ("detect_cpu_ms@provenance_http",), (PROVENANCE,), (OWNER,),
          ("registry.trace",)),
    Layer("parallel.map_ms", "ms", "lower",
          "parallel.map_recovering wall time, per batch",
          ("wall.embed_docs_per_s@batch_pool",
           "wall.detect_docs_per_s@batch_pool"),
          (BATCH,), (OWNER,), (MAP_SPAN,)),
    Layer("parallel.payload_bytes", "bytes", "lower",
          "pickled bytes per chunk task",
          ("embed_cpu_ms@batch_pool",), (BATCH,), (OWNER,),
          ("parallel.tasks",)),
    Layer("parallel.worker_busy_ratio", "ratio", "higher",
          "summed worker chunk spans / (map wall time x workers)",
          ("wall.embed_docs_per_s@batch_pool",), (BATCH,), (OWNER,),
          (CHUNK_SPAN,)),
    Layer("parallel.fallbacks", "count", "lower",
          "parallel.discard_pool calls plus chunks re-run serially "
          "(expected 0)",
          ("ok_ratio@batch_pool",), (BATCH,), (OWNER,)),
    Layer("trace.unattributed_ratio", "ratio", "lower",
          "server time per request (dispatch, or pool chunk) not covered "
          "by any named span",
          (), (OWNER, PROVENANCE, BATCH), ()),
    Layer("trace.overhead_ratio", "ratio", "lower",
          "traced / untraced p50, the largest over the workload's timed "
          "operations",
          (), (OWNER, PROVENANCE, BATCH), ()),
    Layer("loadgen.lag_p99_ms", "ms", "lower",
          "p99 of how late the generator sent against its schedule "
          "(0 without an open loop)",
          (), (OWNER, PROVENANCE), (BATCH,)),
)


# -- span arithmetic ----------------------------------------------------------


def covered(interval: tuple[float, float],
            children: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    low, high = interval
    clipped = sorted((max(low, start), min(high, end))
                     for start, end in children)
    total = 0.0
    reach = low
    for start, end in clipped:
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanIndex:
    """Spans of one traced run, indexed for self time and ancestry."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.by_id = {span.sid: span for span in self.spans}
        self.children: dict = defaultdict(list)
        self.by_name: dict = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.children[span.parent].append(span)

    def self_time(self, span: Span) -> float:
        kids = [(child.start, child.end)
                for child in self.children.get(span.sid, ())]
        return span.duration - covered((span.start, span.end), kids)

    def outermost(self, name: str) -> list[Span]:
        """Spans of ``name`` not nested directly in a span of the same
        name (``system_for_record`` calls ``system``, say)."""
        outer = []
        for span in self.by_name.get(name, ()):
            parent = self.by_id.get(span.parent)
            if parent is None or parent.name != name:
                outer.append(span)
        return outer

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def mean_ms(self, name: str) -> float:
        spans = self.outermost(name)
        weight = sum(span.weight for span in spans)
        if not weight:
            return 0.0
        return sum(span.duration for span in spans) * 1000.0 / weight

    def mean_self_ms(self, name: str) -> float:
        spans = self.by_name.get(name, ())
        if not spans:
            return 0.0
        return (sum(self.self_time(span) for span in spans) * 1000.0
                / len(spans))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(index: SpanIndex, counts: dict, round_trips: dict,
            overhead: float, lag_p99_ms: float) -> dict:
    """Every per-layer metric, ``{name: value}``.

    ``counts`` is ``{counter name: total}``; ``round_trips`` maps a
    request ID to its client-side round trip in seconds.
    """
    total = defaultdict(int, counts)
    dispatch = index.by_name.get("service.dispatch", [])
    transport = [round_trips[span.rid] - span.duration
                 for span in dispatch if span.rid in round_trips]
    lookups = total["api.pipeline_lookups"]
    documents = (len(index.by_name.get("core.embed", ()))
                 + len(index.by_name.get("core.detect", ())))
    traces = index.by_name.get("registry.trace", [])
    swept = sum(1 for span in index.by_name.get("core.detect", ())
                if index.has_ancestor(span, "registry.trace"))
    maps = index.by_name.get(MAP_SPAN, [])
    chunks = index.by_name.get(CHUNK_SPAN, [])
    units = dispatch + chunks
    values = {
        "service.dispatch_self_ms": index.mean_self_ms("service.dispatch"),
        "service.decode_ms": index.mean_ms("service.decode"),
        "service.transport_ms": (statistics.fmean(transport) * 1000.0
                                 if transport else 0.0),
        "tenants.auth_ms": index.mean_ms("tenants.auth"),
        "tenants.quota_ms": index.mean_ms("tenants.quota"),
        "tenants.system_ms": index.mean_ms("tenants.system"),
        "api.pipeline_compiles": total["api.pipeline_compiles"],
        "api.pipeline_hit_ratio": _ratio(
            lookups - total["api.pipeline_compiles"], lookups),
        "xmlmodel.parse_ms": index.mean_ms("xmlmodel.parse"),
        "xmlmodel.serialize_ms": index.mean_ms("xmlmodel.serialize"),
        "xmlmodel.copy_ms": index.mean_ms("xmlmodel.copy"),
        "semantics.shred_ms": index.mean_ms("semantics.shred"),
        "core.group_ms": index.mean_ms("core.group"),
        "core.select_ms": index.mean_ms("core.select"),
        "core.embed_self_ms": index.mean_self_ms("core.embed"),
        "core.detect_self_ms": index.mean_self_ms("core.detect"),
        "core.prf_digests": _ratio(total["core.prf_digests"], documents),
        "rewriting.index_ms": index.mean_ms("rewriting.index"),
        "rewriting.execute_ms": index.mean_ms("rewriting.execute"),
        "registry.append_ms": index.mean_ms("registry.append"),
        "registry.query_ms": index.mean_ms("registry.query"),
        "registry.swept_per_trace": _ratio(swept, len(traces)),
        "parallel.map_ms": index.mean_ms(MAP_SPAN),
        "parallel.payload_bytes": _ratio(total["parallel.payload_bytes"],
                                         total["parallel.tasks"]),
        "parallel.worker_busy_ratio": _ratio(
            sum(span.duration for span in chunks),
            sum(span.duration * span.weight for span in maps)),
        "parallel.fallbacks": (total["parallel.discards"]
                               + total["parallel.serial_chunks"]),
        "trace.unattributed_ratio": _ratio(
            sum(index.self_time(span) for span in units),
            sum(span.duration for span in units)),
        "trace.overhead_ratio": overhead,
        "loadgen.lag_p99_ms": lag_p99_ms,
    }
    return values


def silent_layers(workload: str, index: SpanIndex, counts: dict) -> list:
    """Layers heavy on ``workload`` whose spans or counters never fired."""
    silent = []
    for layer in LAYERS:
        if workload not in layer.heavy:
            continue
        for name in layer.fires:
            if not index.by_name.get(name) and not counts.get(name):
                silent.append(f"{layer.name} ({name})")
    return silent


def lag_p99(lags_ms: Sequence[float]) -> float:
    return percentile(lags_ms, 99.0) if lags_ms else 0.0


def overhead_ratio(traced: dict, untraced: dict) -> float:
    """Largest traced / untraced p50 over the operations both timed."""
    ratios = [traced[kind] / untraced[kind] for kind in traced
              if kind in untraced and untraced[kind] > 0]
    return max(ratios) if ratios else 0.0
