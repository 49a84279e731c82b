"""The WmXML system facade: Figure 4 as a single object.

A :class:`WmXMLSystem` owns the owner's secret key and a registry of
named watermarking schemes (deployments).  Schemes register either as
live :class:`~repro.core.scheme.WatermarkingScheme` objects, as
declarative dicts, or straight from ``scheme.json`` files; each is
compiled once into a :class:`~repro.api.pipeline.Pipeline` and cached,
so repeated ``embed``/``detect`` calls pay no setup cost.

The secret key never leaves the system: registry listings and log
output only ever see its public fingerprint.
"""

from __future__ import annotations

import json
import threading
from typing import Callable, Iterable, Optional, Union

from repro.api.pipeline import (
    DocumentLike,
    MessageLike,
    Pipeline,
    _resolve_strategy,
    content_fingerprint,
    scheme_content_key,
)
from repro.core.crypto import KeyedPRF
from repro.core.decoder import DetectionResult
from repro.core.encoder import EmbeddingResult
from repro.core.fingerprint import TraceResult, sweep
from repro.core.record import WatermarkRecord
from repro.core.scheme import WatermarkingScheme
from repro.core.watermark import Watermark
from repro.errors import SchemeFormatError, UnknownSchemeError
from repro.registry import (RegistryNotConfiguredError, UnknownRecipientError,
                            WatermarkRegistry)
from repro.registry.records import RegistryRecord
from repro.semantics.shape import DocumentShape
from repro.xmlmodel.tree import Document

SchemeLike = Union[str, WatermarkingScheme, dict]

#: Ceiling on the content-keyed pipeline cache.  Registered names are
#: unbounded by design (the operator controls them); ad-hoc inline
#: schemes can arrive from the wire on every request, so they evict
#: least-recently-used beyond this many distinct deployments.
CONTENT_CACHE_MAX = 64


def trace_entries(document: Document, entries: list[RegistryRecord],
                  pipeline_for: Callable[[RegistryRecord], Pipeline],
                  *,
                  shape: Optional[DocumentShape],
                  strategy: str,
                  recipients: Optional[Iterable[str]],
                  known: Callable[[], list[str]]) -> TraceResult:
    """Sweep persisted registry entries against a suspected leak.

    The trace of both :meth:`WmXMLSystem.trace` and
    :meth:`repro.tenants.TenantDirectory.trace`.  ``entries`` come in
    sequence order and ``pipeline_for`` names the pipeline each one
    verifies under.  ``recipients`` restricts the sweep; naming an
    identity no entry carries raises :class:`UnknownRecipientError`
    hinting ``known()``.  Pipelines are looked up lazily, one entry at
    a time, so the sweep never pins more compiled pipelines than their
    caches hold.
    """
    if recipients is not None:
        wanted = set(recipients)
        missing = wanted - {entry.recipient for entry in entries}
        if missing:
            raise UnknownRecipientError(sorted(missing)[0], known=known())
        entries = [entry for entry in entries if entry.recipient in wanted]
    indexed = _resolve_strategy(strategy)
    return sweep(document, (
        pipeline_for(entry).trace_candidate(
            entry.recipient, entry.record,
            entry.sequence if entry.sequence is not None else 0, shape)
        for entry in entries), indexed=indexed)


class WmXMLSystem:
    """The owner's watermarking service: key + schemes + pipelines."""

    def __init__(self, secret_key: Union[str, bytes],
                 alpha: float = 1e-3,
                 registry: Optional[WatermarkRegistry] = None,
                 issuer: str = "wmxml",
                 *,
                 tenant: Optional[str] = None,
                 key_id: Optional[int] = None,
                 seal_registry: bool = True) -> None:
        self._secret_key = secret_key
        self._prf = KeyedPRF(secret_key)
        self._fingerprint = self._prf.fingerprint()
        self.alpha = alpha
        self.issuer = issuer
        self.registry = registry
        #: Tenancy identity (both ``None`` for the classic single-key
        #: system): stamped into every record this system embeds, so a
        #: detection can name which tenant and key generation made it.
        self.tenant = tenant
        self.key_id = key_id
        if registry is not None and seal_registry:
            # Ledger seals derive from the system key under their own
            # purpose string, so the registry never holds a second
            # secret.  Tenant systems sharing one registry pass
            # ``seal_registry=False``: the TenantDirectory attaches a
            # rotation-stable sealer of its own instead.
            registry.attach_sealer(self._prf)
        self._schemes: dict[str, WatermarkingScheme] = {}
        # Registered deployments hit the O(1) name-keyed cache (evicted
        # when the name is re-registered); ad-hoc scheme objects/dicts
        # fall back to a content-keyed cache so equal content shares
        # one pipeline no matter how often it is re-sent.
        self._named_pipelines: dict[tuple[str, float], Pipeline] = {}
        self._content_pipelines: dict[tuple[str, float], Pipeline] = {}
        # Derived-key pipelines for fingerprinted issuance, keyed by
        # (scheme content, recipient, alpha); LRU like the content cache.
        self._recipient_pipelines: dict[tuple[str, str, float],
                                        Pipeline] = {}
        self._name_fingerprints: dict[str, str] = {}
        self._lock = threading.Lock()

    @property
    def key_fingerprint(self) -> str:
        """Public fingerprint of the system's secret key."""
        return self._fingerprint

    # -- scheme registry ------------------------------------------------------------

    def register(self, name: str,
                 scheme: Union[WatermarkingScheme, dict]) -> WatermarkingScheme:
        """Register a deployment under ``name``; returns the live scheme.

        Accepts a built scheme or its declarative dict form.
        Re-registering a name replaces it and evicts the name's
        compiled pipelines.
        """
        if isinstance(scheme, dict):
            scheme = WatermarkingScheme.from_dict(scheme)
        with self._lock:
            self._schemes[name] = scheme
            self._name_fingerprints.pop(name, None)
            self._named_pipelines = {
                key: pipeline
                for key, pipeline in self._named_pipelines.items()
                if key[0] != name
            }
        return scheme

    def register_file(self, name: str, path: str) -> WatermarkingScheme:
        """Register a deployment from a ``scheme.json`` artefact."""
        return self.register(name, WatermarkingScheme.load(path))

    # ``add_scheme`` is the service-facing spelling of ``register``:
    # the daemon's ``PUT /v1/schemes/{name}`` maps straight onto it.
    add_scheme = register

    def scheme(self, name: str) -> WatermarkingScheme:
        with self._lock:
            try:
                return self._schemes[name]
            except KeyError:
                raise UnknownSchemeError(name, self._schemes) from None

    def scheme_names(self) -> list[str]:
        with self._lock:
            return sorted(self._schemes)

    def list_schemes(self) -> dict[str, str]:
        """Registry listing: ``{name: pipeline fingerprint}``.

        The fingerprint is the content hash of (scheme, public key
        fingerprint, alpha) that keys the parallel engine's worker
        caches — the value a service exposes in cache-validation
        headers (``ETag``), so clients can tell whether a named
        deployment changed without downloading it.
        """
        return {name: self.scheme_fingerprint(name)
                for name in self.scheme_names()}

    def scheme_fingerprint(self, scheme: SchemeLike) -> str:
        """Content fingerprint of the pipeline for ``scheme``.

        Computed straight from the declarative scheme form — equal to
        ``self.pipeline(scheme).fingerprint`` by construction, without
        compiling (or pinning) a pipeline just to list the registry.
        """
        if isinstance(scheme, str):
            return self.scheme_with_fingerprint(scheme)[1]
        return self._object_fingerprint(self._resolve(scheme))

    def scheme_with_fingerprint(
            self, name: str) -> tuple[WatermarkingScheme, str]:
        """Atomic ``(scheme, fingerprint)`` snapshot for a name.

        The pair is guaranteed consistent under concurrent
        re-registration — the daemon's ``GET /v1/schemes/{name}`` must
        never pair an old body with a new ``ETag`` — and repeat reads
        hit the name-keyed fingerprint cache (invalidated by
        :meth:`register` under the same lock).
        """
        with self._lock:
            try:
                scheme = self._schemes[name]
            except KeyError:
                raise UnknownSchemeError(name, self._schemes) from None
            cached = self._name_fingerprints.get(name)
        if cached is not None:
            return scheme, cached
        fingerprint = self._object_fingerprint(scheme)
        with self._lock:
            # Guard against a register() replacing the name while we
            # hashed: only cache if it still maps to what we
            # fingerprinted.
            if self._schemes.get(name) is scheme:
                self._name_fingerprints[name] = fingerprint
        return scheme, fingerprint

    def _object_fingerprint(self, resolved: WatermarkingScheme) -> str:
        # scheme_content_key handles non-JSON schemes (pickle hash),
        # so this equals Pipeline(resolved, ...).fingerprint by
        # construction without re-resolving any name (the (scheme,
        # fingerprint) pairing stays atomic) or compiling anything.
        return content_fingerprint(scheme_content_key(resolved),
                                   self._fingerprint, self.alpha)

    # -- compilation ------------------------------------------------------------

    def _resolve(self, scheme: SchemeLike) -> WatermarkingScheme:
        if isinstance(scheme, str):
            return self.scheme(scheme)
        if isinstance(scheme, dict):
            return WatermarkingScheme.from_dict(scheme)
        return scheme

    def pipeline(self, scheme: SchemeLike,
                 alpha: Optional[float] = None) -> Pipeline:
        """The compiled pipeline for a scheme, cached.

        Registered names are the hot path: a dict lookup per call, no
        serialization.  Scheme objects and declarative dicts are keyed
        by their *content*, so re-sending an equal deployment on every
        request (the service case) still shares one pipeline — and one
        set of warm PRF/plug-in caches.  The content cache evicts LRU
        beyond :data:`CONTENT_CACHE_MAX` distinct deployments, so a
        wire client cycling through unique inline schemes cannot grow
        the daemon's memory without bound.
        """
        effective_alpha = self.alpha if alpha is None else alpha
        if isinstance(scheme, str):
            key = (scheme, effective_alpha)
            with self._lock:
                pipeline = self._named_pipelines.get(key)
            if pipeline is not None:
                return pipeline
            resolved = self.scheme(scheme)
            pipeline = Pipeline(resolved, self._secret_key,
                                alpha=effective_alpha)
            with self._lock:
                if self._schemes.get(scheme) is resolved:
                    return self._named_pipelines.setdefault(key, pipeline)
            # The name was re-registered while we compiled: caching the
            # stale pipeline would silently serve the replaced scheme
            # forever.  Compile from the current registration instead.
            return self.pipeline(scheme, alpha)
        resolved = self._resolve(scheme)
        try:
            content = json.dumps(resolved.to_dict(), sort_keys=True)
        except TypeError as error:
            raise SchemeFormatError(
                f"scheme is not JSON-serialisable: {error}") from error
        key = (content, effective_alpha)
        with self._lock:
            pipeline = self._content_pipelines.pop(key, None)
            if pipeline is not None:
                # Re-insertion keeps dict order = recency order.
                self._content_pipelines[key] = pipeline
                return pipeline
        # Compile outside the lock: a slow inline-scheme compile must
        # not head-of-line-block every cached lookup in the daemon.
        pipeline = Pipeline(resolved, self._secret_key,
                            alpha=effective_alpha)
        with self._lock:
            existing = self._content_pipelines.pop(key, None)
            if existing is not None:
                pipeline = existing  # a concurrent compile won; share it
            self._content_pipelines[key] = pipeline
            while len(self._content_pipelines) > CONTENT_CACHE_MAX:
                self._content_pipelines.pop(
                    next(iter(self._content_pipelines)))
        return pipeline

    # -- fingerprinted issuance ------------------------------------------------------------

    def recipient_key(self, recipient: str) -> bytes:
        """The derived per-recipient secret key.

        The exact :class:`~repro.core.fingerprint.Fingerprinter`
        derivation — ``HMAC(master, "fingerprint-key", recipient)`` —
        so copies issued here and traces run here interoperate with
        the core fingerprinting machinery.  Derived keys select
        *different* element subsets per recipient, which is what makes
        collusion tracing work.
        """
        if not recipient:
            raise ValueError("recipient id must not be empty")
        return self._prf.digest("fingerprint-key", recipient)

    def recipient_pipeline(self, scheme: SchemeLike, recipient: str,
                           alpha: Optional[float] = None) -> Pipeline:
        """The compiled pipeline under ``recipient``'s derived key."""
        effective_alpha = self.alpha if alpha is None else alpha
        resolved = self._resolve(scheme)
        content = scheme_content_key(resolved)
        key = (content, recipient, effective_alpha)
        with self._lock:
            pipeline = self._recipient_pipelines.pop(key, None)
            if pipeline is not None:
                self._recipient_pipelines[key] = pipeline
                return pipeline
        pipeline = Pipeline(resolved, self.recipient_key(recipient),
                            alpha=effective_alpha)
        with self._lock:
            existing = self._recipient_pipelines.pop(key, None)
            if existing is not None:
                pipeline = existing
            self._recipient_pipelines[key] = pipeline
            while len(self._recipient_pipelines) > CONTENT_CACHE_MAX:
                self._recipient_pipelines.pop(
                    next(iter(self._recipient_pipelines)))
        return pipeline

    # -- registry ------------------------------------------------------------

    def _require_registry(self) -> WatermarkRegistry:
        if self.registry is None:
            raise RegistryNotConfiguredError(
                "this system has no registry attached; construct "
                "WmXMLSystem(registry=...) or run with --registry")
        return self.registry

    @staticmethod
    def _message_identity(message: MessageLike) -> str:
        """The recipient identity a plain embed is recorded under."""
        if isinstance(message, Watermark):
            text = message.to_message(strict=False)
            if text is not None:
                return text
            return "bits:" + "".join(str(bit) for bit in message.bits)
        return message

    def _stamp(self, record: WatermarkRecord) -> None:
        """Mark a fresh record with this system's tenancy identity.

        Single-key systems (``tenant``/``key_id`` both ``None``) leave
        the record untouched, so their serialized form — and every
        golden vector — stays byte-identical.
        """
        if self.tenant is not None:
            record.tenant = self.tenant
        if self.key_id is not None:
            record.key_id = self.key_id

    def _record_embed(self, recipient: str, keying: str,
                      scheme_fingerprint: str, pipeline: Pipeline,
                      result: EmbeddingResult) -> Optional[RegistryRecord]:
        """Append one embed to the registry (no-op without one).

        Always runs in the parent process, *after* the pipeline
        returned — pooled batches hand records back from the workers
        and the appends happen here, so the pool contract is untouched
        and ledger order is the order results came back in.
        """
        if self.registry is None:
            return None
        return self.registry.record_embed(
            recipient=recipient, record=result.record,
            document_xml=result.to_xml(),
            scheme_fingerprint=scheme_fingerprint,
            key_fingerprint=pipeline.key_fingerprint,
            keying=keying, issuer=self.issuer,
            tenant=self.tenant, key_id=self.key_id)

    # -- conveniences ------------------------------------------------------------

    def embed(self, scheme: SchemeLike, document: Document,
              message: MessageLike, in_place: bool = False,
              recipient: Optional[str] = None) -> EmbeddingResult:
        """Embed; with ``recipient`` set, issue a fingerprinted copy.

        ``recipient=None`` is the classic owner embed under the system
        key; a recipient switches to that recipient's derived key and
        uses the recipient id as the message (self-describing
        evidence).  Either way, an attached registry records the copy.
        """
        if recipient is not None:
            pipeline = self.recipient_pipeline(scheme, recipient)
            result = pipeline.embed(document, recipient, in_place=in_place)
            self._stamp(result.record)
            self._record_embed(recipient, "recipient",
                               self.scheme_fingerprint(scheme),
                               pipeline, result)
            return result
        pipeline = self.pipeline(scheme)
        result = pipeline.embed(document, message, in_place=in_place)
        self._stamp(result.record)
        self._record_embed(self._message_identity(message), "system",
                           self.scheme_fingerprint(scheme), pipeline,
                           result)
        return result

    def embed_many(self, scheme: SchemeLike,
                   documents: Iterable[DocumentLike],
                   message: MessageLike,
                   in_place: bool = False,
                   processes: Optional[int] = None,
                   output: str = "document",
                   recipient: Optional[str] = None) -> list[EmbeddingResult]:
        if recipient is not None:
            pipeline = self.recipient_pipeline(scheme, recipient)
            identity, keying = recipient, "recipient"
            message = recipient
        else:
            pipeline = self.pipeline(scheme)
            identity, keying = self._message_identity(message), "system"
        results = pipeline.embed_many(documents, message,
                                      in_place=in_place,
                                      processes=processes,
                                      output=output)
        for result in results:
            self._stamp(result.record)
        if self.registry is not None and results:
            # One batched append: a single SQLite transaction (one
            # fsync for the whole batch instead of one per record),
            # and all-or-nothing — a mid-batch failure persists no
            # records at all, so a client retry cannot double-append
            # half a batch.
            scheme_fingerprint = self.scheme_fingerprint(scheme)
            self.registry.record_embed_many([
                {"recipient": identity, "record": result.record,
                 "document_xml": result.to_xml(),
                 "scheme_fingerprint": scheme_fingerprint,
                 "key_fingerprint": pipeline.key_fingerprint,
                 "keying": keying, "issuer": self.issuer,
                 "tenant": self.tenant, "key_id": self.key_id}
                for result in results])
        return results

    def issue(self, scheme: SchemeLike, document: Document,
              recipient: str, in_place: bool = False) -> EmbeddingResult:
        """Issue one fingerprinted copy to ``recipient`` (and record it)."""
        return self.embed(scheme, document, recipient, in_place=in_place,
                          recipient=recipient)

    def issue_many(self, scheme: SchemeLike,
                   documents: Iterable[DocumentLike], recipient: str,
                   processes: Optional[int] = None,
                   output: str = "document") -> list[EmbeddingResult]:
        """Issue fingerprinted copies of many documents to one recipient."""
        return self.embed_many(scheme, documents, recipient,
                               processes=processes, output=output,
                               recipient=recipient)

    def entry_pipeline(self, scheme: SchemeLike,
                       entry: RegistryRecord) -> Pipeline:
        """The pipeline that verifies a persisted record: the derived
        key for a fingerprinted copy, the system key otherwise."""
        if entry.keying == "recipient":
            return self.recipient_pipeline(scheme, entry.recipient)
        return self.pipeline(scheme)

    def trace(self, scheme: SchemeLike, document: Document,
              *,
              shape: Optional[DocumentShape] = None,
              strategy: str = "auto",
              recipients: Optional[Iterable[str]] = None) -> TraceResult:
        """Trace a suspected leak against every persisted issued copy.

        Requires a registry.  Every record of this deployment is
        verified against ``document`` under the key it was issued with
        (system key for plain embeds, derived key for fingerprinted
        copies); each recipient keeps their strongest verdict (lowest
        p-value; ties keep the earlier record).  ``recipients``
        restricts the sweep and must name known identities.

        Cost: the leak is shredded and indexed once per trace; each
        record then costs its key authentication and a vote tally
        against that index (``strategy="scan"`` evaluates every query
        as XPath instead).
        """
        registry = self._require_registry()
        entries = registry.records(
            scheme_fingerprint=self.scheme_fingerprint(scheme))
        return trace_entries(
            document, entries,
            lambda entry: self.entry_pipeline(scheme, entry),
            shape=shape, strategy=strategy, recipients=recipients,
            known=registry.recipients)

    def detect_recorded(self, scheme: SchemeLike, document: Document,
                        recipient: str,
                        *,
                        shape: Optional[DocumentShape] = None,
                        strategy: str = "auto") -> DetectionResult:
        """Detect using the newest persisted record for one recipient."""
        registry = self._require_registry()
        entries = registry.records(
            recipient=recipient,
            scheme_fingerprint=self.scheme_fingerprint(scheme))
        if not entries:
            raise UnknownRecipientError(recipient,
                                        known=registry.recipients())
        entry = entries[-1]
        return self.entry_pipeline(scheme, entry).detect(
            document, entry.record, expected=entry.recipient, shape=shape,
            strategy=strategy)

    def detect(
        self,
        scheme: SchemeLike,
        document: Document,
        record: WatermarkRecord,
        *,
        expected: Optional[MessageLike] = None,
        shape: Optional[DocumentShape] = None,
        strategy: str = "auto",
    ) -> DetectionResult:
        return self.pipeline(scheme).detect(
            document, record, expected=expected, shape=shape,
            strategy=strategy)

    def detect_many(
        self,
        scheme: SchemeLike,
        items: Iterable[tuple[DocumentLike, WatermarkRecord]],
        *,
        expected: Optional[MessageLike] = None,
        shape: Optional[DocumentShape] = None,
        strategy: str = "auto",
        processes: Optional[int] = None,
    ) -> list[DetectionResult]:
        return self.pipeline(scheme).detect_many(
            items, expected=expected, shape=shape, strategy=strategy,
            processes=processes)

    def __repr__(self) -> str:
        return (f"WmXMLSystem(key_fingerprint={self._fingerprint!r}, "
                f"schemes={self.scheme_names()!r})")
