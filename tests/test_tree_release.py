"""Per-document trees die by refcount; pool workers freeze their heap.

A parsed tree is a reference cycle (``parent`` up, ``children`` and the
tag indexes down), so a tree dropped without :meth:`Document.release`
waits for a full cyclic collection.  The contracts locked here:

* **No cyclic garbage** — every tree the batch kernels, the single
  document APIs and the service create and do not hand back is
  released, so an embed, detect or trace leaves nothing for the
  cyclic collector (``gc.collect() == 0`` with automatic collection
  off).
* **Ownership** — a caller's ``Document``, an ``output="document"``
  result and ``parse_many`` output are never released: they serialise
  unchanged and stay usable.
* **Pool workers** run with their inherited heap frozen.
* **Depth** — release is iterative, so any parsed depth releases.
"""

import gc
import json

import pytest

from repro import faults, parallel
from repro.api import Pipeline, WmXMLSystem
from repro.api import pipeline as pipeline_module
from repro.datasets import bibliography
from repro.registry import WatermarkRegistry
from repro.registry.backend import MemoryBackend
from repro.service import REQUEST_FORMAT, WmXMLService
from repro.tenants import TenantDirectory, TenantsConfig
from repro.xmlmodel import parse, parse_many, serialize

KEY = "release-key"
MESSAGE = "(c) release"


def _texts(count: int = 3) -> list[str]:
    return [serialize(bibliography.generate_document(
        bibliography.BibliographyConfig(books=30, editors=5, seed=seed)))
        for seed in range(count)]


def _body(**fields) -> bytes:
    return json.dumps({"format": REQUEST_FORMAT, **fields}).encode()


@pytest.fixture()
def pipeline():
    return Pipeline(bibliography.default_scheme(2), KEY)


@pytest.fixture()
def gc_off():
    """Automatic collection off, so garbage waits for the assertion."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _assert_no_cyclic_garbage(operation) -> None:
    operation()  # warm the caches a first call fills
    gc.collect()
    operation()
    assert gc.collect() == 0


class TestNoCyclicGarbage:
    def test_serial_embed_many_to_xml(self, pipeline, gc_off):
        texts = _texts()
        documents = [parse(text, strip_whitespace=True) for text in texts]
        _assert_no_cyclic_garbage(
            lambda: pipeline.embed_many(texts, MESSAGE, output="xml"))
        _assert_no_cyclic_garbage(
            lambda: pipeline.embed_many(documents, MESSAGE, output="xml"))

    def test_serial_detect_many_over_raw_xml(self, pipeline, gc_off):
        marked = pipeline.embed_many(_texts(), MESSAGE, output="xml")
        items = [(result.xml, result.record) for result in marked]
        _assert_no_cyclic_garbage(
            lambda: pipeline.detect_many(items, expected=MESSAGE))

    def test_single_document_detect_over_raw_xml(self, pipeline, gc_off):
        marked = pipeline.embed_many(_texts(1), MESSAGE, output="xml")[0]
        _assert_no_cyclic_garbage(
            lambda: pipeline.detect(marked.xml, marked.record))

    def test_chunk_kernels_in_process(self, pipeline, gc_off):
        texts = _texts()
        fingerprint, payload = pipeline._payload()
        watermark = pipeline_module._as_watermark(MESSAGE)
        marked = pipeline.embed_many(texts, MESSAGE, output="xml")
        _assert_no_cyclic_garbage(lambda: pipeline_module._embed_chunk(
            (fingerprint, payload, texts, watermark, "xml")))
        _assert_no_cyclic_garbage(lambda: pipeline_module._detect_chunk(
            (fingerprint, payload, [result.xml for result in marked],
             ("each", [result.record for result in marked]),
             watermark, None, True)))

    def test_service_embed_detect_trace(self, gc_off):
        system = WmXMLSystem(
            KEY, registry=WatermarkRegistry(MemoryBackend()))
        system.register("books", bibliography.default_scheme(2))
        service = WmXMLService(system)
        self._dispatch_all(service, _texts(1)[0], {})

    def test_tenant_service_embed_detect_trace(self, gc_off):
        directory = TenantDirectory(
            TenantsConfig.from_dict({
                "format": "wmxml-tenants-v1",
                "keys": {"1": "release-master"},
                "tenants": {"acme": {}}}),
            registry=WatermarkRegistry(MemoryBackend()))
        directory.register_all("books", bibliography.default_scheme(2))
        service = WmXMLService(tenants=directory)
        headers = {"Authorization":
                   f"Bearer {directory.mint_token('acme')}"}
        self._dispatch_all(service, _texts(1)[0], headers)

    @staticmethod
    def _dispatch_all(service, text, headers):
        def embed():
            status, payload, _ = service.dispatch(
                "POST", "/v1/embed",
                _body(scheme="books", document=text, recipient="alice"),
                headers)
            assert status == 200
            return payload

        issued = embed()

        def detect():
            status, _, _ = service.dispatch(
                "POST", "/v1/detect",
                _body(scheme="books", document=issued["xml"],
                      record=issued["record"], expected="alice"),
                headers)
            assert status == 200

        def trace():
            status, payload, _ = service.dispatch(
                "POST", "/v1/trace",
                _body(scheme="books", document=issued["xml"]), headers)
            assert status == 200
            assert payload["trace"]["accused"] == ["alice"]

        for operation in (embed, detect, trace):
            _assert_no_cyclic_garbage(operation)


class TestOwnership:
    def test_caller_documents_are_never_released(self, pipeline):
        texts = _texts()
        documents = [parse(text, strip_whitespace=True) for text in texts]
        before = [serialize(document) for document in documents]
        marked = pipeline.embed_many(documents, MESSAGE, output="xml")
        kept = pipeline.embed_many(documents, MESSAGE)
        pipeline.detect_many(
            [(document, result.record)
             for document, result in zip(documents, marked)])
        assert [serialize(document) for document in documents] == before
        # still usable: embedding again reproduces the same marks
        again = pipeline.embed_many(documents, MESSAGE, output="xml")
        assert [result.xml for result in again] == \
            [result.xml for result in marked]
        assert [serialize(result.document) for result in kept] == \
            [result.xml for result in marked]

    def test_document_outputs_stay_intact(self, pipeline):
        texts = _texts()
        as_xml = pipeline.embed_many(texts, MESSAGE, output="xml")
        as_documents = pipeline.embed_many(texts, MESSAGE)
        assert [serialize(result.document) for result in as_documents] \
            == [result.xml for result in as_xml]
        outcomes = pipeline.detect_many(
            [(result.document, result.record) for result in as_documents],
            expected=MESSAGE)
        assert all(outcome.detected for outcome in outcomes)
        single = pipeline.embed(texts[0], MESSAGE)
        assert serialize(single.document) == as_xml[0].xml

    def test_parse_many_output_is_untouched(self, pipeline):
        texts = _texts()
        documents = parse_many(texts, strip_whitespace=True)
        before = [serialize(document) for document in documents]
        marked = pipeline.embed_many(documents, MESSAGE, output="xml")
        pipeline.detect_many(
            [(document, result.record)
             for document, result in zip(documents, marked)])
        assert [serialize(document) for document in documents] == before

    def test_pool_serial_ladder_copies_caller_documents(self, pipeline):
        # Every worker chunk raises, so each chunk ends on the serial
        # ladder in this process: it must mark copies, as a worker
        # would have, never the caller's trees.
        texts = _texts(4)
        documents = [parse(text, strip_whitespace=True) for text in texts]
        before = [serialize(document) for document in documents]
        serial = pipeline.embed_many(texts, MESSAGE, output="xml")
        parallel.discard_pool(2)  # fork fresh workers that see the fault
        try:
            with faults.injected("pool.chunk", scope="worker"):
                pooled = pipeline.embed_many(documents, MESSAGE,
                                             processes=2, output="xml")
        finally:
            parallel.discard_pool(2)
        assert [result.xml for result in pooled] == \
            [result.xml for result in serial]
        assert [serialize(document) for document in documents] == before


def test_pool_workers_run_with_a_frozen_heap():
    future = parallel.shared_pool(2).submit(gc.get_freeze_count)
    assert future.result(timeout=120) > 0


def test_a_deep_document_releases_and_frees(gc_off):
    depth = 200_000
    document = parse("<a>" * depth + "</a>" * depth)
    gc.collect()
    document.release()
    assert document.root.children == []
    del document
    assert gc.collect() == 0
