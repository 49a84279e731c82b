"""`WatermarkRegistry` — the registry facade the rest of WmXML talks to.

It owns the invariant the backends cannot express alone: **every record
append also appends its sealed ledger block, atomically** — one lock
serialises appends, and the record/block pair goes to the backend as a
single :meth:`~repro.registry.backend.RegistryBackend.append_entry`
unit (one SQLite transaction on the durable backend), so the chain and
the record corpus can never drift apart inside the append path even
across a ``kill -9``.  Drift is what ``verify_chain`` exists to catch
when storage is tampered *outside* it, and what :meth:`recover` repairs
when a pre-atomic database (or a simulated torn write) left an orphan
trailing row behind.

The registry never sees plaintext keys beyond the :class:`KeyedPRF`
sealer handed in by the owning system; records store fingerprints only.
"""

from __future__ import annotations

import datetime
import json
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO, Union

from repro.core.crypto import KeyedPRF
from repro.core.record import WatermarkRecord
from repro.registry.backend import MemoryBackend, RegistryBackend
from repro.registry.errors import RegistryFormatError, UnknownRecipientError
from repro.registry.ledger import (ChainVerification, LedgerBlock,
                                   next_block, verify_chain)
from repro.registry.records import (REGISTRY_RECORD_FORMAT, RegistryRecord,
                                    hash_document)
from repro.registry.sqlite import SCHEMA_VERSION, SQLiteBackend

#: Header line of a ``wmxml records --export jsonl`` dump.
EXPORT_FORMAT = "wmxml-registry-export-v1"

#: How many torn trailing artefacts :meth:`WatermarkRegistry.recover`
#: will quarantine before concluding the damage is not a crash tail.
#: A single torn append leaves at most one orphan row; anything deeper
#: is tampering or bit rot, which recovery must report, not bury.
MAX_RECOVERY_PASSES = 4


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@dataclass
class RecoveryReport:
    """What :meth:`WatermarkRegistry.recover` found and did.

    ``ok`` means the registry ended in a verifiable state — either it
    already was, or quarantining a torn tail restored it.  ``actions``
    lists every quarantined artefact.  When ``ok`` is false the damage
    is mid-chain (tampering, not a crash), and ``verification`` carries
    the clean ``chain-broken`` diagnosis; nothing is quarantined in
    that case, because deleting interior history would destroy the
    evidence the ledger exists to preserve.
    """

    ok: bool
    records: int
    blocks: int
    actions: list = field(default_factory=list)
    verification: Optional[ChainVerification] = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "records": self.records,
            "blocks": self.blocks,
            "actions": self.actions,
            "verification": (self.verification.to_dict()
                             if self.verification is not None else None),
        }


class WatermarkRegistry:
    """Persistent issuance corpus + provenance ledger over one backend."""

    def __init__(self, backend: Optional[RegistryBackend] = None,
                 sealer: Optional[KeyedPRF] = None) -> None:
        self.backend = backend if backend is not None else MemoryBackend()
        self._sealer = sealer
        self._append_lock = threading.Lock()
        #: The :class:`RecoveryReport` of the open-time recovery pass,
        #: when the registry was opened through :meth:`open`.
        self.last_recovery: Optional[RecoveryReport] = None

    @classmethod
    def open(cls, path: str, sealer: Optional[KeyedPRF] = None,
             recover: bool = True) -> "WatermarkRegistry":
        """A registry over the SQLite file at ``path`` (created if new).

        By default the open runs :meth:`recover`, so a database a crash
        tore mid-append comes back structurally verifiable (the torn
        tail quarantined, never deleted).  The report is kept on
        ``last_recovery`` for callers that want to surface it.
        """
        registry = cls(SQLiteBackend(path), sealer=sealer)
        if recover:
            registry.last_recovery = registry.recover()
        return registry

    def attach_sealer(self, sealer: KeyedPRF) -> None:
        """Late-bind the sealing key (the system attaches itself here)."""
        self._sealer = sealer

    # -- append ------------------------------------------------------------

    def record_embed(self, recipient: str, record: WatermarkRecord,
                     document_xml: str, scheme_fingerprint: str,
                     key_fingerprint: str, keying: str,
                     issuer: str, tenant: Optional[str] = None,
                     key_id: Optional[int] = None) -> RegistryRecord:
        """Persist one embed: registry record + sealed ledger block."""
        entry = RegistryRecord(
            recipient=recipient,
            record=record,
            document_hash=hash_document(document_xml),
            scheme_fingerprint=scheme_fingerprint,
            key_fingerprint=key_fingerprint,
            keying=keying,
            issuer=issuer,
            created_at=_utcnow(),
            tenant=tenant,
            key_id=key_id,
        )
        self.append(entry)
        return entry

    def record_embed_many(self, embeds: Iterable[dict]
                          ) -> list[RegistryRecord]:
        """Persist a whole batch of embeds in **one** backend commit.

        ``embeds`` is an iterable of keyword dicts matching
        :meth:`record_embed`'s signature.  On SQLite the batch is a
        single transaction: one fsync instead of one per record, and a
        failure persists *nothing* — which is what makes a client
        retry after a 503 append-safe (no half-recorded batch to
        double-append onto).
        """
        entries = [RegistryRecord(
            recipient=embed["recipient"],
            record=embed["record"],
            document_hash=hash_document(embed["document_xml"]),
            scheme_fingerprint=embed["scheme_fingerprint"],
            key_fingerprint=embed["key_fingerprint"],
            keying=embed["keying"],
            issuer=embed["issuer"],
            created_at=_utcnow(),
            tenant=embed.get("tenant"),
            key_id=embed.get("key_id"),
        ) for embed in embeds]
        return self.append_many(entries)

    def append(self, entry: RegistryRecord) -> RegistryRecord:
        """Append a pre-built record and its ledger block atomically.

        The pair goes to the backend as one unit (one SQLite
        transaction), so a crash between the two inserts cannot leave
        an orphan record or a dangling block.
        """
        self._require_sealer()
        with self._append_lock:
            previous = self.backend.last_block()
            self.backend.append_entry(
                entry, next_block(previous, entry, self._sealer))
        return entry

    def append_many(self, entries: list[RegistryRecord]
                    ) -> list[RegistryRecord]:
        """Append pre-built records + chained blocks in one commit."""
        self._require_sealer()
        if not entries:
            return []
        with self._append_lock:
            previous = self.backend.last_block()
            pairs = []
            for entry in entries:
                block = next_block(previous, entry, self._sealer)
                pairs.append((entry, block))
                previous = block
            self.backend.append_entries(pairs)
        return entries

    def _require_sealer(self) -> None:
        if self._sealer is None:
            raise RegistryFormatError(
                "registry has no sealing key attached; construct it "
                "through WmXMLSystem(registry=...) or attach_sealer()")

    # -- queries ------------------------------------------------------------

    def records(self, recipient: Optional[str] = None,
                scheme_fingerprint: Optional[str] = None,
                document_hash: Optional[str] = None,
                tenant: Optional[str] = None,
                offset: int = 0,
                limit: Optional[int] = None) -> list[RegistryRecord]:
        """Filtered records in sequence order, with offset/limit paging."""
        found = self.backend.find_records(
            recipient=recipient, scheme_fingerprint=scheme_fingerprint,
            document_hash=document_hash, tenant=tenant)
        if offset:
            found = found[offset:]
        if limit is not None:
            found = found[:limit]
        return found

    def count(self, recipient: Optional[str] = None,
              scheme_fingerprint: Optional[str] = None,
              document_hash: Optional[str] = None,
              tenant: Optional[str] = None) -> int:
        """Total matching records, ignoring paging."""
        return self.backend.count_records(
            recipient=recipient, scheme_fingerprint=scheme_fingerprint,
            document_hash=document_hash, tenant=tenant)

    def recipients(self) -> list[str]:
        """Every distinct recipient identity, sorted."""
        return self.backend.recipients()

    def records_for(self, recipient: str) -> list[RegistryRecord]:
        """All records for one recipient; raises if there are none."""
        found = self.backend.find_records(recipient=recipient)
        if not found:
            raise UnknownRecipientError(recipient,
                                        known=self.backend.recipients())
        return found

    # -- ledger ------------------------------------------------------------

    def blocks(self) -> list[LedgerBlock]:
        return list(self.backend.iter_blocks())

    def verify_chain(self) -> ChainVerification:
        """Re-verify the whole chain against the persisted records."""
        with self._append_lock:
            blocks = list(self.backend.iter_blocks())
            records = self.backend.find_records()
        return verify_chain(blocks, records=records, sealer=self._sealer)

    # -- crash recovery ------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Reopen-after-crash repair: quarantine a torn tail, keep history.

        A crash inside a *pre-atomic* append (or a simulated torn
        write) can leave exactly one orphan trailing row — a record
        without its block, or vice versa.  Recovery quarantines that
        tail (preserved in the backend's quarantine area, never
        deleted) and re-verifies, repeating for at most
        :data:`MAX_RECOVERY_PASSES` tails.

        The guard that makes this safe: a tail is only quarantined
        when the chain *before* it verifies.  Damage anywhere interior
        means tampering, not a crash — recovery then reports the clean
        ``chain-broken`` diagnosis and touches nothing, because
        deleting interior history would destroy the evidence.
        """
        with self._append_lock:
            return self._recover_locked()

    def _recover_locked(self) -> RecoveryReport:
        actions: list = []

        def report(ok: bool,
                   verification: Optional[ChainVerification] = None
                   ) -> RecoveryReport:
            return RecoveryReport(
                ok=ok, records=self.backend.record_count(),
                blocks=self.backend.block_count(), actions=actions,
                verification=verification)

        for _ in range(MAX_RECOVERY_PASSES):
            try:
                blocks = list(self.backend.iter_blocks())
                records = self.backend.find_records()
            except RegistryFormatError as error:
                # An artefact that no longer parses is not a crash
                # tail SQLite could produce (transactions are
                # all-or-nothing) — it is bit rot or tampering.
                return report(False, ChainVerification(
                    intact=False, blocks=self.backend.block_count(),
                    records=self.backend.record_count(),
                    sealed=self._sealer is not None,
                    reason=f"unreadable persisted artefact: {error}"))
            nrec, nblk = len(records), len(blocks)

            if nrec == nblk + 1:
                # Torn append: the record landed, the block did not.
                # Only a *tail* may be quarantined — the chain before
                # it must verify, else this is interior damage.
                prefix = verify_chain(blocks, records=records[:nblk],
                                      sealer=self._sealer)
                if not prefix.intact:
                    return report(False, prefix)
                actions.append(self.backend.quarantine_trailing(
                    "record", "orphan trailing record: torn append "
                    "persisted the record without its ledger block"))
                continue

            if nblk == nrec + 1:
                prefix = verify_chain(blocks[:nrec], records=records,
                                      sealer=self._sealer)
                if not prefix.intact:
                    return report(False, prefix)
                actions.append(self.backend.quarantine_trailing(
                    "block", "orphan trailing block: ledger block "
                    "persisted without its registry record"))
                continue

            if nrec != nblk:
                # More than one row apart — no single crash does that.
                return report(False, verify_chain(
                    blocks, records=records, sealer=self._sealer))

            verification = verify_chain(blocks, records=records,
                                        sealer=self._sealer)
            if verification.intact:
                return report(True, verification)
            if nblk > 0 and verification.broken_index == nblk - 1:
                # Only the final pair is bad (e.g. a corrupted seal on
                # the newest block).  If everything before it
                # verifies, quarantine the pair together so the
                # registry stays record/block aligned.
                prefix = verify_chain(blocks[:-1], records=records[:-1],
                                      sealer=self._sealer)
                if prefix.intact:
                    why = (f"trailing pair fails verification: "
                           f"{verification.reason}")
                    actions.append(self.backend.quarantine_trailing(
                        "block", why))
                    actions.append(self.backend.quarantine_trailing(
                        "record", why))
                    continue
            # Interior damage: report chain-broken, touch nothing.
            return report(False, verification)

        # Still torn after the pass budget — not a crash tail.
        return report(False, verify_chain(
            list(self.backend.iter_blocks()),
            records=self.backend.find_records(), sealer=self._sealer))

    def quarantined(self) -> list[dict]:
        """Artefacts recovery moved aside, oldest first."""
        return self.backend.quarantined()

    # -- export / import ----------------------------------------------------

    def export_jsonl(self, stream: TextIO) -> int:
        """Dump the registry as JSON lines; returns lines written.

        Line 1 is a header naming the export format and the storage
        schema version; each following line is one record or block,
        tagged with ``kind``.  The dump restores bit-identically via
        :meth:`import_jsonl`, which is the schema-migration path.
        """
        header = {"format": EXPORT_FORMAT, "schema_version": SCHEMA_VERSION,
                  "record_format": REGISTRY_RECORD_FORMAT}
        lines = 1
        stream.write(json.dumps(header) + "\n")
        for record in self.backend.find_records():
            stream.write(json.dumps({"kind": "record",
                                     **record.to_dict()}) + "\n")
            lines += 1
        for block in self.backend.iter_blocks():
            stream.write(json.dumps({"kind": "block",
                                     **block.to_dict()}) + "\n")
            lines += 1
        return lines

    def import_jsonl(self, stream: Union[TextIO, Iterable[str]]) -> int:
        """Restore a dump into an **empty** registry; returns rows loaded.

        The persisted blocks are restored verbatim (not re-sealed), so
        the imported chain carries the original provenance and still
        verifies under the original system key.
        """
        if self.backend.record_count() or self.backend.block_count():
            raise RegistryFormatError(
                "refusing to import into a non-empty registry")
        lines = iter(stream)
        try:
            header = json.loads(next(lines))
        except StopIteration:
            raise RegistryFormatError("export stream is empty") from None
        except ValueError as error:
            raise RegistryFormatError(
                f"malformed export header: {error}") from error
        if header.get("format") != EXPORT_FORMAT:
            raise RegistryFormatError(
                f"not a {EXPORT_FORMAT} stream: "
                f"format={header.get('format')!r}")
        schema = header.get("schema_version")
        if not isinstance(schema, int) or schema > SCHEMA_VERSION:
            raise RegistryFormatError(
                f"export uses schema version {schema!r}, newer than the "
                f"supported version {SCHEMA_VERSION}")
        loaded = 0
        with self._append_lock:
            for number, line in enumerate(lines, start=2):
                if not line.strip():
                    continue
                try:
                    data = json.loads(line)
                except ValueError as error:
                    raise RegistryFormatError(
                        f"malformed export line {number}: {error}"
                    ) from error
                kind = data.pop("kind", None)
                if kind == "record":
                    self.backend.append_record(RegistryRecord.from_dict(data))
                elif kind == "block":
                    self.backend.append_block(LedgerBlock.from_dict(data))
                else:
                    raise RegistryFormatError(
                        f"export line {number} has unknown kind {kind!r}")
                loaded += 1
        return loaded

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "WatermarkRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
