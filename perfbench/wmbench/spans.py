"""Spans recorded from outside the program, around its public callables.

:func:`install` wraps each callable named in :data:`SPANS` and
:data:`COUNTS` for the life of the process.  A wrapper does nothing but
call through until :attr:`Tracer.enabled` is set; then it records a
span — name, start, end, parent span and request ID — or bumps a
counter.  State lives per thread, so the threaded daemon's concurrent
requests keep separate span stacks; the request ID comes from the
``X-Request-Id`` header the load generator sends, read where
``WmXMLService.dispatch`` receives the request headers.

Names bound by ``from ... import`` (``parse`` in the pipeline and the
service, say) are replaced in every ``repro`` module that holds them.

Pool workers inherit the wrappers because :func:`install` runs before
the pool forks.  While tracing, ``parallel.map_recovering`` hands the
pool a :class:`_Carrier` instead of the chunk function: it records the
worker's spans and counters and ships them back beside the result.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

#: (span name, module, attribute path) of every timed callable.
SPANS = (
    ("service.dispatch", "repro.service.app", "WmXMLService.dispatch"),
    ("service.decode", "repro.service.protocol", "parse_request"),
    ("tenants.auth", "repro.tenants.directory",
     "TenantDirectory.authenticate"),
    ("tenants.quota", "repro.tenants.directory",
     "TenantDirectory.charge_request"),
    ("tenants.quota", "repro.tenants.directory",
     "TenantDirectory.charge_documents"),
    ("tenants.system", "repro.tenants.directory", "TenantDirectory.system"),
    ("tenants.system", "repro.tenants.directory",
     "TenantDirectory.system_for_record"),
    ("api.embed_many", "repro.api.pipeline", "Pipeline.embed_many"),
    ("api.detect_many", "repro.api.pipeline", "Pipeline.detect_many"),
    ("xmlmodel.parse", "repro.xmlmodel.parser", "parse"),
    ("xmlmodel.parse", "repro.xmlmodel.parser", "parse_many"),
    ("xmlmodel.serialize", "repro.xmlmodel.serializer", "serialize"),
    ("xmlmodel.copy", "repro.xmlmodel.tree", "Document.copy"),
    ("semantics.shred", "repro.semantics.shape", "DocumentShape.shred"),
    ("core.group", "repro.core.identity", "build_carrier_groups"),
    ("core.select", "repro.core.selection", "select_groups"),
    ("core.embed", "repro.core.encoder", "WmXMLEncoder.embed"),
    ("core.detect", "repro.core.decoder", "WmXMLDecoder.detect"),
    ("rewriting.index", "repro.rewriting.executor",
     "LogicalExecutor.__init__"),
    ("rewriting.execute", "repro.rewriting.executor",
     "LogicalExecutor.execute"),
    ("registry.append", "repro.registry.registry",
     "WatermarkRegistry.record_embed_many"),
    ("registry.query", "repro.registry.registry", "WatermarkRegistry.records"),
    ("registry.query", "repro.registry.registry", "WatermarkRegistry.count"),
    ("registry.trace", "repro.api.system", "WmXMLSystem.trace"),
    ("registry.trace", "repro.tenants.directory", "TenantDirectory.trace"),
)

#: (counter name, module, attribute path) of every counted callable.
COUNTS = (
    ("api.pipeline_compiles", "repro.api.pipeline", "Pipeline.__init__"),
    ("api.pipeline_lookups", "repro.api.system", "WmXMLSystem.pipeline"),
    ("api.pipeline_lookups", "repro.api.system",
     "WmXMLSystem.recipient_pipeline"),
    ("core.prf_digests", "repro.core.crypto", "KeyedPRF.digest"),
    ("parallel.discards", "repro.parallel", "discard_pool"),
)

#: The span a pool worker records around one chunk task.
CHUNK_SPAN = "parallel.chunk"
MAP_SPAN = "parallel.map"

#: The tracer :func:`install` wired in; a forked pool worker reaches
#: its inherited copy through here.
_INSTALLED: Optional["Tracer"] = None


@dataclass(frozen=True)
class Span:
    sid: str
    parent: Optional[str]
    name: str
    start: float
    end: float
    rid: Optional[str]
    weight: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one process (and of its pool workers)."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._thread_counts: list[dict] = []
        self._merged_counts: dict = {}

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            local.counts = {}
            with self._lock:
                self._thread_counts.append(local.counts)
        return local

    def _sid(self) -> str:
        return f"{os.getpid()}.{next(self._ids)}"

    # -- recording ------------------------------------------------------------

    def timed(self, name: str, func: Callable,
              weigh: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            state = tracer._state()
            sid = tracer._sid()
            parent = state.stack[-1] if state.stack else None
            state.stack.append(sid)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                weight = weigh(args, kwargs) if weigh is not None else 1
                tracer.spans.append((sid, parent, name, start, end,
                                     state.rid, weight))
        return wrapper

    def counted(self, name: str, func: Callable) -> Callable:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.bump(name)
            return func(*args, **kwargs)
        return wrapper

    def bump(self, name: str, amount: int = 1) -> None:
        state = self._state()
        key = (name, state.rid)
        state.counts[key] = state.counts.get(key, 0) + amount

    def requesting(self, func: Callable) -> Callable:
        """Wrap ``dispatch``: the request ID comes from its headers."""
        timed = self.timed("service.dispatch", func)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            headers = kwargs.get("headers",
                                 args[4] if len(args) > 4 else None) or {}
            rid = next((value for key, value in headers.items()
                        if key.lower() == "x-request-id"), None)
            state = tracer._state()
            state.rid = rid
            try:
                return timed(*args, **kwargs)
            finally:
                state.rid = None
        return wrapper

    # -- results --------------------------------------------------------------

    def counts(self) -> dict:
        """Counter totals as ``{(name, rid): count}``."""
        total = dict(self._merged_counts)
        with self._lock:
            per_thread = list(self._thread_counts)
        for counts in per_thread:
            for key, value in list(counts.items()):
                total[key] = total.get(key, 0) + value
        return total

    def merge(self, spans: Iterable[tuple], counts: dict) -> None:
        self.spans.extend(spans)
        for key, value in counts.items():
            self._merged_counts[key] = (self._merged_counts.get(key, 0)
                                        + value)

    def reset(self) -> None:
        self.spans = []
        self._merged_counts = {}
        with self._lock:
            for counts in self._thread_counts:
                counts.clear()

    def dump(self, path: str) -> None:
        counts = [[name, rid, value]
                  for (name, rid), value in self.counts().items()]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": counts}, handle)


def as_spans(rows: Iterable[tuple]) -> list[Span]:
    return [Span(*row) for row in rows]


def load(path: str) -> tuple[list[Span], dict]:
    """Spans and counters a traced daemon wrote with :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    counts = {(name, rid): value for name, rid, value in data["counts"]}
    return as_spans(data["spans"]), counts


# -- the pool carrier ---------------------------------------------------------


class _Carrier:
    """Picklable stand-in for a chunk function while tracing.

    In a worker it records the chunk's spans and counters and returns
    them with the result; run in the parent (the serial fallback rung
    of ``map_recovering``) it just calls through.
    """

    def __init__(self, func: Callable, parent_pid: int,
                 rid: Optional[str]) -> None:
        self.func = func
        self.parent_pid = parent_pid
        self.rid = rid

    def __call__(self, task):
        tracer = _INSTALLED
        if os.getpid() == self.parent_pid or tracer is None:
            return self.func(task), None, None
        tracer.spans = []
        state = tracer._state()
        state.stack = []
        state.rid = self.rid
        state.counts = {}
        tracer.enabled = True
        try:
            result = tracer.timed(CHUNK_SPAN, self.func)(task)
        finally:
            tracer.enabled = False
        return result, tracer.spans, state.counts


def _traced_map(tracer: Tracer, original: Callable) -> Callable:
    # The span's weight is the worker count, for the busy ratio.
    timed = tracer.timed(MAP_SPAN, original, lambda args, _: args[0])

    @functools.wraps(original)
    def wrapper(processes, func, tasks, serial=None):
        if not tracer.enabled:
            return original(processes, func, tasks, serial)
        tasks = list(tasks)
        for task in tasks:
            tracer.bump("parallel.tasks")
            tracer.bump("parallel.payload_bytes", len(pickle.dumps(task)))
        rid = tracer._state().rid
        carried = timed(processes, _Carrier(func, os.getpid(), rid), tasks,
                        None if serial is None
                        else _Carrier(serial, os.getpid(), rid))
        results = []
        for result, spans, counts in carried:
            if spans is None:
                tracer.bump("parallel.serial_chunks")
            else:
                tracer.merge(spans, counts)
            results.append(result)
        return results
    return wrapper


# -- installation -------------------------------------------------------------


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    """Rebind every ``repro`` module global that is ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _weigh_parse_many(args, kwargs) -> int:
    texts = kwargs.get("texts", args[0] if args else ())
    return max(1, len(texts))


def install(tracer: Tracer) -> None:
    """Wrap every callable in :data:`SPANS` and :data:`COUNTS`.

    Call once per process, before any pool forks; tracing stays off
    until ``tracer.enabled`` is set.
    """
    global _INSTALLED
    if _INSTALLED is not None:
        raise RuntimeError("spans are already installed in this process")
    importlib.import_module("repro.cli")  # binds every from-import site
    for name, module_name, path in SPANS + COUNTS:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        if name == "service.dispatch":
            wrapped = tracer.requesting(original)
        elif (name, attr) == ("xmlmodel.parse", "parse_many"):
            wrapped = tracer.timed(name, original, _weigh_parse_many)
        elif (name, module_name, path) in COUNTS:
            wrapped = tracer.counted(name, original)
        else:
            wrapped = tracer.timed(name, original)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type(sys)):
            _replace_everywhere(original, wrapped)
    parallel = importlib.import_module("repro.parallel")
    original = parallel.map_recovering
    wrapped = _traced_map(tracer, original)
    parallel.map_recovering = wrapped
    _replace_everywhere(original, wrapped)
    _INSTALLED = tracer
