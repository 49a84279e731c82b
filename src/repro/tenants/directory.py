"""`TenantDirectory` — many tenants, one process, one registry.

The directory is what a multi-tenant daemon holds instead of a single
:class:`~repro.api.system.WmXMLSystem`.  It owns:

* the :class:`MasterKeyMap` (key generations + subkey derivation);
* per-tenant scheme namespaces — each tenant registers and lists its
  own deployments, invisible to every other tenant;
* lazily-built ``WmXMLSystem`` instances, one per ``(tenant, key
  generation)``, each keyed by that tenant's *derived* subkey — two
  tenants can never produce or verify each other's marks;
* token auth (mint + verify, scope intersection with the tenant's
  grant) and the live quota buckets;
* the shared registry: the directory attaches a rotation-stable
  sealer, tenant systems stamp their records with ``tenant``/
  ``key_id``, and tenant-scoped queries filter on the tenant column.

Rotation story: :meth:`system` resolves ``key_id=None`` to the active
generation for new embeds, but any persisted record names the
generation that embedded it, so :meth:`trace` and the service's detect
path rebuild the exact subkey a record was issued under — old
detections keep verifying forever.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.api.system import WmXMLSystem, trace_entries
from repro.core.fingerprint import TraceResult
from repro.core.scheme import WatermarkingScheme
from repro.registry import RegistryNotConfiguredError, WatermarkRegistry

from .config import TenantConfig, TenantsConfig
from .errors import ForbiddenError, TenantConfigError, UnauthorizedError
from .quotas import Clock, TenantQuota
from .tokens import TokenClaims, mint_token, verify_token

import time


class TenantDirectory:
    """The tenancy runtime: keys, namespaces, auth, and quotas."""

    def __init__(self, config: TenantsConfig,
                 registry: Optional[WatermarkRegistry] = None,
                 alpha: float = 1e-3, issuer: str = "wmxml",
                 *, clock: Clock = time.monotonic) -> None:
        self.config = config
        self.keys = config.keys
        self.registry = registry
        self.alpha = alpha
        self.issuer = issuer
        if registry is not None:
            registry.attach_sealer(self.keys.sealer())
        self._schemes: Dict[str, Dict[str, WatermarkingScheme]] = {
            name: {} for name in config.tenants}
        self._systems: Dict[Tuple[str, int], WmXMLSystem] = {}
        self._quotas: Dict[str, TenantQuota] = {
            name: TenantQuota(tenant.quota, clock=clock)
            for name, tenant in config.tenants.items()}
        self._lock = threading.Lock()

    # -- tenants ------------------------------------------------------------

    def tenant_names(self) -> List[str]:
        return sorted(self.config.tenants)

    def tenant(self, name: str) -> TenantConfig:
        return self.config.tenant(name)

    # -- schemes (per-tenant namespaces) --------------------------------------

    def register(self, tenant: str, name: str,
                 scheme: Union[WatermarkingScheme, dict]
                 ) -> WatermarkingScheme:
        """Register a deployment in one tenant's namespace.

        Pushed into every already-built system of that tenant (all key
        generations), so a rotation-era system and the active one
        always agree on what a name means.
        """
        self.tenant(tenant)
        if isinstance(scheme, dict):
            scheme = WatermarkingScheme.from_dict(scheme)
        with self._lock:
            self._schemes[tenant][name] = scheme
            for (owner, _kid), system in self._systems.items():
                if owner == tenant:
                    system.register(name, scheme)
        return scheme

    def register_all(self, name: str,
                     scheme: Union[WatermarkingScheme, dict]
                     ) -> WatermarkingScheme:
        """Register a deployment in *every* tenant's namespace.

        The boot-time ``--scheme`` case: schemes named on the daemon
        command line are offered to all tenants (each still compiles
        under its own derived key).
        """
        if isinstance(scheme, dict):
            scheme = WatermarkingScheme.from_dict(scheme)
        for tenant in self.tenant_names():
            self.register(tenant, name, scheme)
        return scheme

    def scheme_names(self, tenant: str) -> List[str]:
        self.tenant(tenant)
        with self._lock:
            return sorted(self._schemes[tenant])

    def scheme_fingerprints(self, tenant: str, name: str) -> List[str]:
        """The pipeline fingerprints of one named scheme across every
        key generation (deduped, oldest generation first) — what a
        tenant-scoped ``/v1/records?scheme=name`` query must match,
        since records embedded before a rotation carry the older
        generation's fingerprint."""
        seen: List[str] = []
        for key_id in self.keys.key_ids():
            fingerprint = self.system(tenant, key_id) \
                .scheme_fingerprint(name)
            if fingerprint not in seen:
                seen.append(fingerprint)
        return seen

    # -- systems ------------------------------------------------------------

    def system(self, tenant: str, key_id: Optional[int] = None
               ) -> WmXMLSystem:
        """The tenant's system under one key generation (cached).

        ``key_id=None`` means the active generation — the one new
        embeds and tokens are issued under.
        """
        self.tenant(tenant)
        if key_id is None:
            key_id = self.keys.active_id
        with self._lock:
            system = self._systems.get((tenant, key_id))
            if system is not None:
                return system
            # tenant_key raises UnknownKeyError for a generation the
            # map does not hold (e.g. a forged record's key_id).
            system = WmXMLSystem(
                self.keys.tenant_key(tenant, key_id=key_id),
                alpha=self.alpha, registry=self.registry,
                issuer=self.issuer, tenant=tenant, key_id=key_id,
                seal_registry=False)
            for name, scheme in self._schemes[tenant].items():
                system.register(name, scheme)
            self._systems[(tenant, key_id)] = system
            return system

    def system_for_record(self, tenant: str, record) -> WmXMLSystem:
        """The system that can verify ``record`` — its own generation.

        A record stamped with another tenant's name is refused with
        :class:`ForbiddenError`: possession of a leaked record must
        not let one tenant drive detections in another's namespace.
        An unstamped record (single-tenant era, or built client-side)
        verifies under the caller's active generation.
        """
        stamped = getattr(record, "tenant", None)
        if stamped is not None and stamped != tenant:
            raise ForbiddenError(
                f"record belongs to tenant {stamped!r}, not {tenant!r}")
        return self.system(tenant, getattr(record, "key_id", None))

    # -- auth ------------------------------------------------------------

    def mint_token(self, tenant: str,
                   scopes: Optional[Iterable[str]] = None,
                   *, ttl_s: Optional[float] = None,
                   key_id: Optional[int] = None) -> str:
        """A bearer token for ``tenant``; scopes default to its grant.

        Requested scopes must be a subset of what the tenants file
        grants — a token can narrow a tenant's rights, never widen
        them.
        """
        granted = self.tenant(tenant).scopes
        if scopes is None:
            wanted = granted
        else:
            wanted = frozenset(scopes)
            beyond = wanted - granted
            if beyond:
                raise TenantConfigError(
                    f"tenant {tenant!r} is not granted scopes "
                    f"{sorted(beyond)} (granted: {sorted(granted)})")
        return mint_token(self.keys, tenant, wanted, ttl_s=ttl_s,
                          key_id=key_id)

    def authenticate(self, token: Optional[str]) -> TokenClaims:
        """Verify a bearer token into claims for a *known* tenant.

        The effective scopes are the intersection of what the token
        says and what the tenants file currently grants, so revoking a
        scope in the config file disarms every outstanding token
        immediately.
        """
        claims = verify_token(self.keys, token or "")
        tenant = self.config.tenants.get(claims.tenant)
        if tenant is None:
            raise UnauthorizedError(
                f"token names unknown tenant {claims.tenant!r}")
        return TokenClaims(tenant=claims.tenant,
                           scopes=claims.scopes & tenant.scopes,
                           key_id=claims.key_id,
                           expires_at=claims.expires_at)

    # -- quotas ------------------------------------------------------------

    def charge_request(self, tenant: str) -> None:
        self._quotas[tenant].charge_request()

    def charge_documents(self, tenant: str, count: int) -> None:
        self._quotas[tenant].charge_documents(count)

    def quota_snapshot(self, tenant: str) -> dict:
        return self._quotas[tenant].snapshot()

    # -- registry-wide operations ---------------------------------------------

    def _require_registry(self) -> WatermarkRegistry:
        if self.registry is None:
            raise RegistryNotConfiguredError(
                "this directory has no registry attached; construct "
                "TenantDirectory(registry=...) or run with --registry")
        return self.registry

    def trace(self, tenant: str, scheme: str, document, *,
              shape=None, strategy: str = "auto",
              recipients: Optional[Iterable[str]] = None) -> TraceResult:
        """Trace a leak against one tenant's persisted copies only.

        Rotation-aware: the sweep collects records across *every* key
        generation's fingerprint of the named scheme, and verifies
        each one under the generation that embedded it — but it never
        leaves the tenant's registry namespace.

        Cost: the leak is shredded and indexed once per trace; each
        record then costs its key authentication and a vote tally
        against that index (``strategy="scan"`` evaluates every query
        as XPath instead).
        """
        registry = self._require_registry()
        entries = []
        seen_fingerprints = set()
        for key_id in self.keys.key_ids():
            fingerprint = self.system(tenant, key_id) \
                .scheme_fingerprint(scheme)
            if fingerprint in seen_fingerprints:
                continue
            seen_fingerprints.add(fingerprint)
            entries.extend(registry.records(
                scheme_fingerprint=fingerprint, tenant=tenant))
        entries.sort(key=lambda e: e.sequence
                     if e.sequence is not None else 0)
        return trace_entries(
            document, entries,
            lambda entry: self.system(tenant, entry.key_id)
            .entry_pipeline(scheme, entry),
            shape=shape, strategy=strategy, recipients=recipients,
            known=lambda: sorted({entry.recipient for entry in entries}))
