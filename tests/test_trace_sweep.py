"""The shared trace sweep: same verdicts as a per-record loop, one shred.

Every trace entry point (``WmXMLSystem.trace``, ``TenantDirectory.trace``
and ``Fingerprinter.trace``) runs :func:`repro.core.fingerprint.sweep`,
which indexes the suspected document once per distinct shape and
detects every issued record against that index.  These tests lock:

* **equivalence** — the serialised :class:`TraceResult` is
  byte-identical to a reference loop of per-record ``Pipeline.detect``
  calls (the pre-sweep implementation) for the scheme shape, a
  reorganised ``shape=``, a ``recipients=`` subset, a rotated-key
  tenant, ``strategy="scan"`` and collusion;
* **one index** — a trace constructs exactly one ``LogicalExecutor``
  per distinct shape, and none on the scan path;
* **the decoded-record memo** of :class:`SQLiteBackend` never serves a
  row that was rewritten, quarantined or unparsable;
* **filtered counts** answer without decoding any record;
* **warm keys** — a trace verifies under one long-lived decoder per
  recipient key, filled only from registry entries: it compiles no
  pipeline, leaves the issuance LRU untouched, stays byte-identical
  above ``CONTENT_CACHE_MAX`` recipients, and wire issuance cannot
  grow it;
* **the per-record cuts** — sparse ``VoteTally.reconstruct`` and the
  memoised ``binomial_pvalue`` equal their references exactly.
"""

import json
import sqlite3
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.api import CollusionAttack, WmXMLSystem
from repro.api.pipeline import Pipeline
from repro.api.system import CONTENT_CACHE_MAX
from repro.attacks import ReorganizationAttack, ValueAlterationAttack
from repro.core import Fingerprinter
from repro.core.crypto import KeyedPRF
from repro.core.decoder import WmXMLDecoder
from repro.core.fingerprint import TraceCandidate, TraceResult, sweep
from repro.core.watermark import VoteTally, binomial_pvalue
from repro.datasets import bibliography
from repro.datasets.bibliography import BibliographyConfig
from repro.registry import (
    ChainBrokenError,
    MemoryBackend,
    RegistryFormatError,
    UnknownRecipientError,
    WatermarkRegistry,
)
from repro.registry.backend import RegistryBackend
from repro.registry.records import RegistryRecord
from repro.registry.sqlite import SQLiteBackend
from repro.rewriting.executor import LogicalExecutor
from repro.service import REQUEST_FORMAT, WmXMLService
from repro.tenants import TenantDirectory, TenantsConfig
from repro.xmlmodel import parse, serialize

KEY = "sweep-key"
RECIPIENTS = ("alice", "bob", "carol", "dave")

TENANTS = {
    "format": "wmxml-tenants-v1",
    "keys": {"1": "sweep-master-one"},
    "tenants": {"acme": {}, "globex": {}},
}
ROTATED = {**TENANTS,
           "keys": {"1": "sweep-master-one", "2": "sweep-master-two"},
           "active_key_id": 2}


def _text(books: int, seed: int) -> str:
    return serialize(bibliography.generate_document(
        BibliographyConfig(books=books, editors=4, seed=seed)))


def _reference_trace(entries, pipeline_for, document, *, shape=None,
                     strategy="auto", recipients=None) -> TraceResult:
    """The per-record loop the sweep replaced: one detect per entry."""
    if recipients is not None:
        wanted = set(recipients)
        entries = [entry for entry in entries if entry.recipient in wanted]
    best = {}
    for entry in entries:
        verdict = pipeline_for(entry).detect(
            document, entry.record, expected=entry.recipient,
            shape=shape, strategy=strategy)
        rank = (verdict.p_value,
                entry.sequence if entry.sequence is not None else 0)
        current = best.get(entry.recipient)
        if current is None or rank < current[0]:
            best[entry.recipient] = (rank, verdict)
    return TraceResult(verdicts={name: verdict
                                 for name, (_, verdict) in best.items()})


def _dump(trace: TraceResult) -> str:
    return json.dumps(trace.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A SQLite-backed system: fingerprinted copies (alice twice) plus
    one plain owner embed, and the copies as issued."""
    path = str(tmp_path_factory.mktemp("sweep") / "registry.db")
    system = WmXMLSystem(KEY, registry=WatermarkRegistry.open(path))
    system.register("books", bibliography.default_scheme(2))
    text = _text(40, 21)
    copies = {name: system.issue("books", parse(text), name).document
              for name in RECIPIENTS}
    system.issue("books", parse(_text(40, 22)), "alice")
    system.embed("books", parse(text), "owner notice")
    yield system, copies
    system.registry.close()


def _leaks(copies):
    publisher = bibliography.publisher_shape()
    return {
        "verbatim": (copies["bob"], None),
        "altered": (ValueAlterationAttack(0.15, seed=4).apply(
            copies["carol"]).document, None),
        "colluded": (CollusionAttack(
            [copies["alice"], copies["carol"], copies["dave"]],
            strategy="majority", seed=7).apply(copies["alice"]).document,
            None),
        "reorganised": (ReorganizationAttack(
            bibliography.book_shape(), publisher).apply(
                copies["dave"]).document, publisher),
        "unrelated": (parse(_text(40, 99)), None),
    }


def _system_reference(system, document, **options):
    def pipeline_for(entry):
        if entry.keying == "recipient":
            return system.recipient_pipeline("books", entry.recipient)
        return system.pipeline("books")

    entries = system.registry.records(
        scheme_fingerprint=system.scheme_fingerprint("books"))
    return _reference_trace(entries, pipeline_for, document, **options)


class TestSystemEquivalence:
    @pytest.mark.parametrize("leak", ["verbatim", "altered", "colluded",
                                      "reorganised", "unrelated"])
    @pytest.mark.parametrize("strategy", ["auto", "scan"])
    def test_matches_per_record_loop(self, corpus, leak, strategy):
        system, copies = corpus
        document, shape = _leaks(copies)[leak]
        trace = system.trace("books", document, shape=shape,
                             strategy=strategy)
        reference = _system_reference(system, document, shape=shape,
                                      strategy=strategy)
        assert _dump(trace) == _dump(reference)
        assert set(trace.verdicts) == set(RECIPIENTS) | {"owner notice"}

    def test_recipient_subset(self, corpus):
        system, copies = corpus
        document, _ = _leaks(copies)["colluded"]
        subset = ["alice", "dave"]
        trace = system.trace("books", document, recipients=subset)
        assert set(trace.verdicts) == set(subset)
        assert _dump(trace) == _dump(_system_reference(
            system, document, recipients=subset))

    def test_true_recipients_accused(self, corpus):
        system, copies = corpus
        leaks = _leaks(copies)
        for leak, expected in (("verbatim", "bob"), ("altered", "carol"),
                               ("reorganised", "dave")):
            document, shape = leaks[leak]
            assert system.trace("books", document,
                                shape=shape).prime_suspect == expected
        document, _ = leaks["colluded"]
        assert system.trace("books", document).prime_suspect in (
            "alice", "carol", "dave")
        document, _ = leaks["unrelated"]
        assert system.trace("books", document).accused == []

    def test_unknown_recipient_still_refused(self, corpus):
        system, copies = corpus
        with pytest.raises(UnknownRecipientError):
            system.trace("books", copies["bob"], recipients=["mallory"])


class TestTenantEquivalence:
    @pytest.fixture(scope="class")
    def rotated(self):
        """acme issues under generation 1, rotates, issues under 2."""
        backend = MemoryBackend()
        text = _text(30, 31)
        directory = TenantDirectory(TenantsConfig.from_dict(TENANTS),
                                    registry=WatermarkRegistry(backend))
        directory.register_all("books", bibliography.default_scheme(2))
        copies = {name: directory.system("acme").issue(
            "books", parse(text), name).document
            for name in ("alice", "bob")}
        directory.system("globex").issue("books", parse(text), "mole")
        directory = TenantDirectory(TenantsConfig.from_dict(ROTATED),
                                    registry=WatermarkRegistry(backend))
        directory.register_all("books", bibliography.default_scheme(2))
        for name in ("carol", "bob"):
            copies[name] = directory.system("acme").issue(
                "books", parse(text), name).document
        return directory, copies

    def _reference(self, directory, document, **options):
        fingerprints = directory.scheme_fingerprints("acme", "books")
        entries = [entry for entry in directory.registry.records(
            tenant="acme") if entry.scheme_fingerprint in fingerprints]

        def pipeline_for(entry):
            system = directory.system("acme", entry.key_id)
            if entry.keying == "recipient":
                return system.recipient_pipeline("books", entry.recipient)
            return system.pipeline("books")

        return _reference_trace(entries, pipeline_for, document, **options)

    @pytest.mark.parametrize("strategy", ["auto", "scan"])
    @pytest.mark.parametrize("leaked", ["alice", "carol", "bob"])
    def test_matches_per_record_loop(self, rotated, leaked, strategy):
        directory, copies = rotated
        trace = directory.trace("acme", "books", copies[leaked],
                                strategy=strategy)
        assert _dump(trace) == _dump(self._reference(
            directory, copies[leaked], strategy=strategy))
        assert trace.prime_suspect == leaked
        assert set(trace.verdicts) == {"alice", "bob", "carol"}

    def test_reorganised_subset(self, rotated):
        directory, copies = rotated
        publisher = bibliography.publisher_shape()
        stolen = ReorganizationAttack(bibliography.book_shape(),
                                      publisher).apply(
            copies["alice"]).document
        trace = directory.trace("acme", "books", stolen, shape=publisher,
                                recipients=["alice", "carol"])
        assert set(trace.verdicts) == {"alice", "carol"}
        assert trace.prime_suspect == "alice"
        assert _dump(trace) == _dump(self._reference(
            directory, stolen, shape=publisher,
            recipients=["alice", "carol"]))


class TestOneIndexPerShape:
    @pytest.fixture()
    def built(self, monkeypatch):
        shapes = []
        original = LogicalExecutor.__init__

        def counting(self, document, shape):
            shapes.append(shape)
            original(self, document, shape)

        monkeypatch.setattr(LogicalExecutor, "__init__", counting)
        return shapes

    def test_system_trace(self, corpus, built):
        system, copies = corpus
        system.trace("books", copies["bob"])
        assert len(built) == 1
        document, shape = _leaks(copies)["reorganised"]
        system.trace("books", document, shape=shape)
        assert built[1:] == [shape]

    def test_scan_builds_no_index(self, corpus, built):
        system, copies = corpus
        system.trace("books", copies["bob"], strategy="scan")
        assert built == []

    def test_tenant_trace_across_generations(self, built):
        registry = WatermarkRegistry(MemoryBackend())
        text = _text(25, 41)
        for config, name in ((TENANTS, "alice"), (ROTATED, "bob")):
            directory = TenantDirectory(TenantsConfig.from_dict(config),
                                        registry=registry)
            directory.register_all("books", bibliography.default_scheme(2))
            leak = directory.system("acme").issue("books", parse(text),
                                                  name).document
        del built[:]
        trace = directory.trace("acme", "books", leak)
        assert trace.prime_suspect == "bob"
        assert len(trace.verdicts) == 2
        assert len(built) == 1

    def test_fingerprinter_trace(self, built):
        scheme = bibliography.default_scheme(2)
        tracer = Fingerprinter(scheme, "master-key")
        document = parse(_text(30, 51))
        copies = {name: tracer.issue(document, name).document
                  for name in ("alice", "bob", "carol")}
        del built[:]
        trace = tracer.trace(copies["carol"])
        assert trace.prime_suspect == "carol"
        assert len(built) == 1

    def test_equal_shapes_share_one_index(self, built):
        document = bibliography.generate_document(
            BibliographyConfig(books=20, editors=3, seed=61))
        marked = Fingerprinter(bibliography.default_scheme(2),
                               "k").issue(document, "x")
        decoder = WmXMLDecoder("k")
        candidates = [
            TraceCandidate("x", marked.record, decoder,
                           bibliography.book_shape(), 0),
            TraceCandidate("y", marked.record, decoder,
                           bibliography.book_shape(), 1),
            TraceCandidate("z", marked.record, decoder,
                           bibliography.publisher_shape(), 2),
        ]
        del built[:]
        sweep(marked.document, candidates)
        assert [shape.name for shape in built] == [
            bibliography.book_shape().name,
            bibliography.publisher_shape().name]


# ---------------------------------------------------------------------------
# The decoded-record memo of the SQLite backend
# ---------------------------------------------------------------------------

def _sqlite_system(path):
    system = WmXMLSystem(KEY, registry=WatermarkRegistry.open(path))
    system.register("books", bibliography.default_scheme(2))
    text = _text(15, 71)
    for name in ("alice", "bob", "carol"):
        system.issue("books", parse(text), name)
    return system


def _rewrite(path, sequence, payload, recipient=None):
    conn = sqlite3.connect(path)
    if recipient is None:
        conn.execute("UPDATE records SET payload = ? WHERE sequence = ?",
                     (payload, sequence))
    else:
        conn.execute("UPDATE records SET payload = ?, recipient = ? "
                     "WHERE sequence = ?", (payload, recipient, sequence))
    conn.commit()
    conn.close()


class TestDecodedRecordMemo:
    def test_repeat_reads_share_decoded_records(self, tmp_path):
        system = _sqlite_system(str(tmp_path / "r.db"))
        first = system.registry.records()
        again = system.registry.records()
        assert [a is b for a, b in zip(first, again)] == [True] * 3
        assert system.registry.backend.get_record(1) is first[1]
        system.registry.close()

    def test_rewritten_row_decodes_fresh(self, tmp_path):
        path = str(tmp_path / "r.db")
        system = _sqlite_system(path)
        registry = system.registry
        assert registry.verify_chain().intact
        payload = registry.records()[0].to_dict()
        payload["recipient"] = "mallory"
        _rewrite(path, 0, json.dumps(payload), recipient="mallory")
        entries = registry.records()
        assert entries[0].recipient == "mallory"
        assert registry.records(recipient="mallory")[0] is entries[0]
        verification = registry.verify_chain()
        assert not verification.intact
        with pytest.raises(ChainBrokenError) as excinfo:
            verification.raise_if_broken()
        assert excinfo.value.code == "chain-broken"
        registry.close()

    def test_quarantined_tail_is_not_served(self, tmp_path):
        system = _sqlite_system(str(tmp_path / "r.db"))
        registry = system.registry
        backend = registry.backend
        orphan = RegistryRecord.from_dict(registry.records()[0].to_dict())
        orphan.recipient = "orphan"
        sequence = backend.append_record(orphan)  # record, no block
        assert [e.recipient for e in registry.records()][-1] == "orphan"
        report = registry.recover()
        assert report.ok
        assert [action["ref"] for action in report.actions] == [sequence]
        assert "orphan" not in [e.recipient for e in registry.records()]
        assert backend.get_record(sequence) is None
        # The next append reuses the freed sequence with new content.
        system.issue("books", parse(_text(15, 72)), "dave")
        assert registry.records()[-1].sequence == sequence
        assert registry.records()[-1].recipient == "dave"
        assert registry.verify_chain().intact
        registry.close()

    @pytest.mark.parametrize("payload", ["not json at all",
                                         '{"format": "something-else"}',
                                         "[1, 2]"])
    def test_unparsable_payload_raises_format_error(self, tmp_path,
                                                    payload):
        path = str(tmp_path / "r.db")
        system = _sqlite_system(path)
        registry = system.registry
        registry.records()  # warm the memo
        _rewrite(path, 1, payload)
        with pytest.raises(RegistryFormatError):
            registry.records()
        with pytest.raises(RegistryFormatError):
            registry.backend.get_record(1)
        assert registry.backend.get_record(0).recipient == "alice"
        registry.close()


# ---------------------------------------------------------------------------
# Filtered counts
# ---------------------------------------------------------------------------

@pytest.fixture(params=["memory", "sqlite"])
def counted(request, tmp_path):
    backend = (MemoryBackend() if request.param == "memory"
               else SQLiteBackend(str(tmp_path / "count.db")))
    registry = WatermarkRegistry(backend)
    directory = TenantDirectory(TenantsConfig.from_dict(TENANTS),
                                registry=registry)
    directory.register_all("books", bibliography.default_scheme(2))
    text = _text(15, 81)
    for tenant, names in (("acme", ("alice", "bob", "alice")),
                          ("globex", ("alice",))):
        for name in names:
            directory.system(tenant).issue("books", parse(text), name)
    system = WmXMLSystem(KEY, registry=registry, seal_registry=False)
    system.register("books", bibliography.default_scheme(4))
    system.embed("books", parse(text), "owner")
    yield registry
    registry.close()


class TestFilteredCount:
    def test_count_matches_records_for_every_filter(self, counted):
        entries = counted.records()
        filters = [{}]
        for entry in entries:
            filters += [{"recipient": entry.recipient},
                        {"scheme_fingerprint": entry.scheme_fingerprint},
                        {"document_hash": entry.document_hash},
                        {"tenant": entry.tenant or ""},
                        {"recipient": entry.recipient,
                         "tenant": entry.tenant or ""}]
        filters += [{"recipient": "nobody"}, {"tenant": "initech"}]
        for query in filters:
            assert counted.count(**query) == len(counted.records(**query))
        assert counted.count(recipient="alice") == 3
        assert counted.count(recipient="alice", tenant="acme") == 2
        assert counted.count(tenant="") == 1

    def test_count_decodes_nothing(self, counted, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("count decoded the corpus")

        monkeypatch.setattr(counted.backend, "find_records", refuse)
        assert counted.count(recipient="alice", tenant="acme") == 2
        assert counted.count() == 5


def test_fallback_count_for_backends_without_one():
    """A backend that does not override ``count_records`` still counts."""

    class Minimal(MemoryBackend):
        count_records = RegistryBackend.count_records

    registry = WatermarkRegistry(Minimal(), sealer=KeyedPRF("seal"))
    system = WmXMLSystem(KEY, registry=registry, seal_registry=False)
    system.register("books", bibliography.default_scheme(2))
    system.issue("books", parse(_text(15, 91)), "alice")
    assert registry.count(recipient="alice") == 1
    assert registry.count(recipient="bob") == 0


# ---------------------------------------------------------------------------
# Warm keys: registry-bounded trace decoders
# ---------------------------------------------------------------------------

#: 60 recipients issued under key generation 1, 50 under generation 2
#: (10 of them under both): 100 recipients, above the issuance LRU.
WIDE_FIRST = [f"r-{index:03d}" for index in range(60)]
WIDE_SECOND = [f"r-{index:03d}" for index in range(50, 100)]


def _tenant_reference(directory, document, **options):
    fingerprints = directory.scheme_fingerprints("acme", "books")
    entries = [entry for entry in directory.registry.records(
        tenant="acme") if entry.scheme_fingerprint in fingerprints]

    def pipeline_for(entry):
        system = directory.system("acme", entry.key_id)
        if entry.keying == "recipient":
            return system.recipient_pipeline("books", entry.recipient)
        return system.pipeline("books")

    return _reference_trace(entries, pipeline_for, document, **options)


def _fresh_directory(backend):
    directory = TenantDirectory(TenantsConfig.from_dict(ROTATED),
                                registry=WatermarkRegistry(backend))
    directory.register_all("books", bibliography.default_scheme(2))
    return directory


@pytest.fixture(scope="module")
def wide():
    """A rotated-key tenant over 100 recipients, and their copies."""
    assert len(set(WIDE_FIRST) | set(WIDE_SECOND)) > CONTENT_CACHE_MAX
    backend = MemoryBackend()
    text = _text(15, 111)
    copies = {}
    for config, names in ((TENANTS, WIDE_FIRST), (ROTATED, WIDE_SECOND)):
        directory = TenantDirectory(TenantsConfig.from_dict(config),
                                    registry=WatermarkRegistry(backend))
        directory.register_all("books", bibliography.default_scheme(2))
        for name in names:
            copies[name] = directory.system("acme").issue(
                "books", parse(text), name).document
    return backend, copies


def _wide_leaks(copies):
    colluders = [copies["r-020"], copies["r-055"], copies["r-090"]]
    return {
        "verbatim-first": copies["r-010"],
        "verbatim-second": copies["r-070"],
        "altered": ValueAlterationAttack(0.15, seed=5).apply(
            copies["r-055"]).document,
        "colluded-majority": CollusionAttack(
            colluders, strategy="majority", seed=8).apply(
                colluders[0]).document,
        "colluded-random": CollusionAttack(
            colluders, strategy="random", seed=9).apply(
                colluders[0]).document,
    }


class _Constructions:
    """Secret keys of every decoder built, and every pipeline compiled."""

    def __init__(self, monkeypatch):
        self.decoder_keys = Counter()
        self.pipelines = 0
        decoder_init = WmXMLDecoder.__init__
        pipeline_init = Pipeline.__init__

        def counting_decoder(decoder, secret_key, *args, **kwargs):
            self.decoder_keys[secret_key] += 1
            decoder_init(decoder, secret_key, *args, **kwargs)

        def counting_pipeline(pipeline, *args, **kwargs):
            self.pipelines += 1
            pipeline_init(pipeline, *args, **kwargs)

        monkeypatch.setattr(WmXMLDecoder, "__init__", counting_decoder)
        monkeypatch.setattr(Pipeline, "__init__", counting_pipeline)


class TestWarmKeys:
    @pytest.mark.parametrize("leak", ["verbatim-first", "verbatim-second",
                                      "altered", "colluded-majority",
                                      "colluded-random"])
    def test_wide_rotated_corpus_matches_per_record_loop(self, wide, leak):
        backend, copies = wide
        directory = _fresh_directory(backend)
        document = _wide_leaks(copies)[leak]
        trace = directory.trace("acme", "books", document)
        assert set(trace.verdicts) == set(WIDE_FIRST) | set(WIDE_SECOND)
        assert _dump(trace) == _dump(_tenant_reference(directory, document))
        # A second trace runs on warm decoders and must not drift.
        assert _dump(directory.trace("acme", "books", document)) \
            == _dump(trace)

    def test_wide_trace_accuses_true_recipients(self, wide):
        backend, copies = wide
        directory = _fresh_directory(backend)
        leaks = _wide_leaks(copies)
        for leak, expected in (("verbatim-first", "r-010"),
                               ("verbatim-second", "r-070"),
                               ("altered", "r-055")):
            assert directory.trace("acme", "books",
                                   leaks[leak]).prime_suspect == expected
        assert directory.trace(
            "acme", "books", leaks["colluded-majority"]).prime_suspect \
            in ("r-020", "r-055", "r-090")

    def test_each_tenant_key_is_built_once(self, wide, monkeypatch):
        backend, copies = wide
        directory = _fresh_directory(backend)
        expected = {directory.system("acme", 1).recipient_key(name)
                    for name in WIDE_FIRST}
        expected |= {directory.system("acme", 2).recipient_key(name)
                     for name in WIDE_SECOND}
        built = _Constructions(monkeypatch)
        for _ in range(3):
            directory.trace("acme", "books", copies["r-070"])
        assert set(built.decoder_keys) == expected
        assert set(built.decoder_keys.values()) == {1}
        assert built.pipelines == 0

    def test_each_system_key_is_built_once(self, corpus, monkeypatch):
        system, copies = corpus
        fresh = WmXMLSystem(KEY, registry=system.registry,
                            seal_registry=False)
        fresh.register("books", bibliography.default_scheme(2))
        built = _Constructions(monkeypatch)
        for _ in range(3):
            fresh.trace("books", copies["carol"])
        assert set(built.decoder_keys) == {
            fresh.recipient_key(name) for name in RECIPIENTS} | {KEY}
        assert set(built.decoder_keys.values()) == {1}
        assert built.pipelines == 0

    def test_fingerprinter_keeps_one_decoder_per_recipient(
            self, monkeypatch):
        tracer = Fingerprinter(bibliography.default_scheme(2), "master")
        document = parse(_text(15, 121))
        copies = {name: tracer.issue(document, name).document
                  for name in ("alice", "bob")}
        built = _Constructions(monkeypatch)
        for _ in range(3):
            assert tracer.trace(copies["bob"]).prime_suspect == "bob"
        assert sorted(built.decoder_keys.values()) == [1, 1]

    def test_trace_leaves_the_issuance_lru_untouched(self, corpus, wide):
        system, copies = corpus
        before = list(system._recipient_pipelines.items())
        assert before
        system.trace("books", copies["dave"])
        assert list(system._recipient_pipelines.items()) == before

        backend, wide_copies = wide
        directory = _fresh_directory(backend)
        active = directory.system("acme")
        for name in WIDE_SECOND[:5]:
            active.recipient_pipeline("books", name)
        before = list(active._recipient_pipelines.items())
        directory.trace("acme", "books", wide_copies["r-070"])
        assert list(active._recipient_pipelines.items()) == before

    def test_concurrent_traces_share_one_decoder_per_key(self, corpus):
        system, copies = corpus
        fresh = WmXMLSystem(KEY, registry=system.registry,
                            seal_registry=False)
        fresh.register("books", bibliography.default_scheme(2))
        expected = _dump(system.trace("books", copies["carol"]))
        results, errors = [], []

        def worker():
            try:
                for _ in range(2):
                    results.append(_dump(fresh.trace("books",
                                                     copies["carol"])))
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [expected] * 12
        decoders = dict(fresh._trace_decoders)
        assert len(decoders) == len(RECIPIENTS) + 1
        fresh.trace("books", copies["carol"])
        assert fresh._trace_decoders == decoders

    def test_wire_issuance_cannot_grow_the_caches(self):
        system = WmXMLSystem(KEY)
        system.register("books", bibliography.default_scheme(2))
        service = WmXMLService(system)
        text = _text(15, 131)
        for index in range(200):
            status, _, _ = service.dispatch(
                "POST", "/v1/embed", json.dumps({
                    "format": REQUEST_FORMAT, "scheme": "books",
                    "document": text,
                    "recipient": f"wire-{index:03d}"}).encode())
            assert status == 200
        assert len(system._recipient_pipelines) <= CONTENT_CACHE_MAX
        assert system._trace_decoders == {}


# ---------------------------------------------------------------------------
# The per-record cuts: sparse reconstruct and the memoised p-value
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(votes=st.lists(st.tuples(st.integers(-4, 40), st.integers(0, 1)),
                      max_size=120),
       nbits=st.integers(0, 36))
def test_reconstruct_equals_per_index_majority(votes, nbits):
    tally = VoteTally()
    for index, bit in votes:
        tally.add(index, bit)
    assert tally.reconstruct(nbits) == [tally.majority(index)
                                        for index in range(nbits)]


def test_memoised_pvalue_is_bit_identical_on_a_grid():
    for _ in range(2):  # the second pass answers from the memo
        for total in range(0, 130):
            for matches in range(0, total + 1):
                expected = (1.0 if total == 0 else
                            float(stats.binom.sf(matches - 1, total, 0.5)))
                assert binomial_pvalue(matches, total) == expected


@given(total=st.integers(1, 500), excess=st.integers(1, 50),
       below=st.booleans())
def test_memoised_pvalue_still_refuses_out_of_range(total, excess, below):
    matches = -excess if below else total + excess
    with pytest.raises(ValueError):
        binomial_pvalue(matches, total)
