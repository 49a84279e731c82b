"""Pluggable registry storage: the backend interface + in-memory impl.

A :class:`RegistryBackend` persists two append-only sequences — the
``wmxml-registry-record-v1`` artefacts and their ledger blocks — and
answers the three indexed lookups issuance workflows need: by
recipient identity, by scheme fingerprint, and by document content
hash.  :class:`MemoryBackend` is the reference implementation (and the
equivalence baseline the SQLite backend is tested against);
:class:`~repro.registry.sqlite.SQLiteBackend` is the durable one.

Backends are deliberately dumb: hashing, sealing, chain building and
filtering semantics all live in :class:`~repro.registry.registry.
WatermarkRegistry`, so a new backend only implements storage.
"""

from __future__ import annotations

import abc
import threading
from typing import Iterator, Optional

from repro.faults import fault_point
from repro.registry.errors import RegistryError
from repro.registry.ledger import LedgerBlock
from repro.registry.records import RegistryRecord


class RegistryBackend(abc.ABC):
    """Append-only storage for registry records and ledger blocks."""

    # -- records ------------------------------------------------------------

    @abc.abstractmethod
    def append_record(self, record: RegistryRecord) -> int:
        """Persist ``record``, assigning and returning its sequence."""

    @abc.abstractmethod
    def record_count(self) -> int:
        """How many records are persisted."""

    @abc.abstractmethod
    def get_record(self, sequence: int) -> Optional[RegistryRecord]:
        """The record at ``sequence``, or ``None``."""

    @abc.abstractmethod
    def find_records(self, recipient: Optional[str] = None,
                     scheme_fingerprint: Optional[str] = None,
                     document_hash: Optional[str] = None,
                     tenant: Optional[str] = None
                     ) -> list[RegistryRecord]:
        """All records matching every given filter, in sequence order.

        ``tenant`` is the namespace filter multi-tenant daemons rely
        on: passing a tenant name returns only that tenant's records —
        a record with no tenant stamp belongs to the "" namespace, so
        pre-tenancy rows never leak into any named tenant's view.
        ``None`` (the default) disables the filter entirely.
        """

    def count_records(self, recipient: Optional[str] = None,
                      scheme_fingerprint: Optional[str] = None,
                      document_hash: Optional[str] = None,
                      tenant: Optional[str] = None) -> int:
        """How many records :meth:`find_records` would return.

        The fallback decodes the matches to count them; the bundled
        backends count without decoding anything.
        """
        return len(self.find_records(
            recipient=recipient, scheme_fingerprint=scheme_fingerprint,
            document_hash=document_hash, tenant=tenant))

    @abc.abstractmethod
    def recipients(self) -> list[str]:
        """Distinct recipient identities, sorted."""

    # -- atomic entries ------------------------------------------------------------

    def append_entry(self, record: RegistryRecord,
                     block: LedgerBlock) -> int:
        """Persist a record and its ledger block as one unit.

        The base implementation chains the two appends and undoes the
        record if the block append fails; backends with real
        transactions (SQLite) override with a single commit so a crash
        can never tear the pair apart.
        """
        sequence = self.append_record(record)
        try:
            self.append_block(block)
        except Exception:
            self._discard_trailing_record(sequence)
            raise
        return sequence

    def append_entries(self, entries) -> list[int]:
        """Persist many ``(record, block)`` pairs as one unit.

        ``entries`` is a sequence of pairs whose blocks are already
        chained in order.  Backends with transactions override this
        with a single commit — the ``embed_many`` batched-append path.
        """
        sequences = []
        for record, block in entries:
            sequences.append(self.append_entry(record, block))
        return sequences

    def _discard_trailing_record(self, sequence: int) -> None:
        """Best-effort undo of a just-appended record (rollback shim
        for backends without transactions).  Default: no-op."""

    # -- ledger ------------------------------------------------------------

    @abc.abstractmethod
    def append_block(self, block: LedgerBlock) -> None:
        """Persist the next ledger block."""

    @abc.abstractmethod
    def block_count(self) -> int:
        """How many ledger blocks are persisted."""

    @abc.abstractmethod
    def last_block(self) -> Optional[LedgerBlock]:
        """The newest block, or ``None`` on an empty chain."""

    @abc.abstractmethod
    def iter_blocks(self) -> Iterator[LedgerBlock]:
        """Every block in chain order."""

    # -- quarantine ------------------------------------------------------------

    def quarantine_trailing(self, kind: str,
                            reason: str) -> Optional[dict]:
        """Move the newest record (``kind="record"``) or ledger block
        (``kind="block"``) into a quarantine area, preserving it for
        forensics while the live tables return to a verifiable state.
        Returns a description of what was quarantined, or ``None`` when
        there was nothing to move.  Crash recovery's tool."""
        raise RegistryError(
            f"{type(self).__name__} does not support quarantine")

    def quarantined(self) -> list[dict]:
        """Every quarantined artefact, oldest first (default: none)."""
        return []

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release storage resources (no-op by default)."""


def matches(record: RegistryRecord, recipient: Optional[str],
            scheme_fingerprint: Optional[str],
            document_hash: Optional[str],
            tenant: Optional[str] = None) -> bool:
    """The one filter predicate both backends implement.

    SQLite pushes these into indexed ``WHERE`` clauses; the test suite
    asserts both give identical answers, so this function is the
    semantic contract.  The tenant filter normalises an unstamped
    record (``record.tenant is None``) to the ``""`` namespace.
    """
    if recipient is not None and record.recipient != recipient:
        return False
    if (scheme_fingerprint is not None
            and record.scheme_fingerprint != scheme_fingerprint):
        return False
    if document_hash is not None and record.document_hash != document_hash:
        return False
    if tenant is not None and (record.tenant or "") != tenant:
        return False
    return True


class MemoryBackend(RegistryBackend):
    """Process-memory storage: fast, ephemeral, the reference semantics."""

    def __init__(self) -> None:
        self._records: list[RegistryRecord] = []
        self._blocks: list[LedgerBlock] = []
        self._quarantine: list[dict] = []
        self._lock = threading.Lock()

    def append_record(self, record: RegistryRecord) -> int:
        with self._lock:
            sequence = len(self._records)
            record.sequence = sequence
            self._records.append(record)
            return sequence

    def record_count(self) -> int:
        with self._lock:
            return len(self._records)

    def get_record(self, sequence: int) -> Optional[RegistryRecord]:
        with self._lock:
            if 0 <= sequence < len(self._records):
                return self._records[sequence]
            return None

    def find_records(self, recipient: Optional[str] = None,
                     scheme_fingerprint: Optional[str] = None,
                     document_hash: Optional[str] = None,
                     tenant: Optional[str] = None
                     ) -> list[RegistryRecord]:
        with self._lock:
            return [record for record in self._records
                    if matches(record, recipient, scheme_fingerprint,
                               document_hash, tenant)]

    def count_records(self, recipient: Optional[str] = None,
                      scheme_fingerprint: Optional[str] = None,
                      document_hash: Optional[str] = None,
                      tenant: Optional[str] = None) -> int:
        with self._lock:
            return sum(1 for record in self._records
                       if matches(record, recipient, scheme_fingerprint,
                                  document_hash, tenant))

    def recipients(self) -> list[str]:
        with self._lock:
            return sorted({record.recipient for record in self._records})

    def append_entry(self, record: RegistryRecord,
                     block: LedgerBlock) -> int:
        # Both appends under one lock acquisition: concurrent readers
        # never observe a record without its block, matching the
        # SQLite backend's single-transaction semantics.
        with self._lock:
            if block.index != len(self._blocks):
                raise RegistryError(
                    f"ledger append out of order: block {block.index} "
                    f"onto a {len(self._blocks)}-block chain")
            sequence = len(self._records)
            record.sequence = sequence
            undo = len(self._records)
            self._records.append(record)
            try:
                # Same seam the SQLite backend exposes between its two
                # inserts; here the fault rolls back the record append.
                fault_point("registry.append.torn")
                self._blocks.append(block)
            except Exception:
                del self._records[undo:]
                raise
            return sequence

    def append_entries(self, entries) -> list[int]:
        with self._lock:
            undo_records = len(self._records)
            undo_blocks = len(self._blocks)
            try:
                sequences = []
                for record, block in entries:
                    if block.index != len(self._blocks):
                        raise RegistryError(
                            f"ledger append out of order: block "
                            f"{block.index} onto a "
                            f"{len(self._blocks)}-block chain")
                    record.sequence = len(self._records)
                    sequences.append(record.sequence)
                    self._records.append(record)
                    fault_point("registry.append.torn")
                    self._blocks.append(block)
                return sequences
            except Exception:
                # All-or-nothing, like the SQLite transaction.
                del self._records[undo_records:]
                del self._blocks[undo_blocks:]
                raise

    def append_block(self, block: LedgerBlock) -> None:
        with self._lock:
            if block.index != len(self._blocks):
                raise RegistryError(
                    f"ledger append out of order: block {block.index} "
                    f"onto a {len(self._blocks)}-block chain")
            self._blocks.append(block)

    def block_count(self) -> int:
        with self._lock:
            return len(self._blocks)

    def last_block(self) -> Optional[LedgerBlock]:
        with self._lock:
            return self._blocks[-1] if self._blocks else None

    def iter_blocks(self) -> Iterator[LedgerBlock]:
        with self._lock:
            snapshot = list(self._blocks)
        return iter(snapshot)

    def quarantine_trailing(self, kind: str,
                            reason: str) -> Optional[dict]:
        with self._lock:
            source = self._records if kind == "record" else self._blocks
            if not source:
                return None
            artefact = source.pop()
            ref = (artefact.sequence if kind == "record"
                   else artefact.index)
            entry = {"kind": kind, "ref": ref,
                     "payload": artefact.to_dict(), "reason": reason}
            self._quarantine.append(entry)
            return entry

    def quarantined(self) -> list[dict]:
        with self._lock:
            return list(self._quarantine)
