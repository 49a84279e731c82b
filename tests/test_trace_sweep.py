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
* **filtered counts** answer without decoding any record.
"""

import json
import sqlite3

import pytest

from repro.api import CollusionAttack, WmXMLSystem
from repro.attacks import ReorganizationAttack, ValueAlterationAttack
from repro.core import Fingerprinter
from repro.core.crypto import KeyedPRF
from repro.core.decoder import WmXMLDecoder
from repro.core.fingerprint import TraceCandidate, TraceResult, sweep
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
