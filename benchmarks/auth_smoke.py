"""Auth smoke: real multi-tenant ``wmxml serve``, tokens, 401/403/429.

The CI leg for tenancy.  It stands up a daemon with a tenants file
(two tenants plus a tightly-metered one), mints tokens through the
``wmxml token mint`` subcommand exactly as an operator would, and then
proves the auth surface over loopback HTTP:

* a valid token embeds, detects, and reads its own records;
* no token at all is a 401 envelope with the ``unauthorized`` slug;
* a leaked record from another tenant is refused with 403, and the
  other tenant's record listing is empty — full namespace isolation;
* exhausting the metered tenant's bucket yields a raw 429 with an
  honest ``Retry-After`` header, and the client SDK transparently
  waits it out and succeeds;
* SIGTERM still exits 0.

Run from the repo root::

    PYTHONPATH=src python benchmarks/auth_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

# Imported first: it puts src/ on sys.path for the repro imports.
from smoke_daemon import (REPO, cli_env, read_bound_port, start_daemon,
                          stop_daemon)

from repro.datasets import bibliography
from repro.service import RemoteServiceError, WmXMLClient
from repro.xmlmodel import serialize

TENANTS = {
    "format": "wmxml-tenants-v1",
    "keys": {"1": "auth-smoke-master"},
    "tenants": {
        "acme": {},
        "globex": {},
        # One token per 2 s after a burst of 1: slow enough that the
        # 429 -> Retry-After -> retry leg is deterministic on a busy
        # CI host, fast enough that the wait stays ~2 s.
        "metered": {"quota": {"requests_per_minute": 30,
                              "request_burst": 1}},
    },
}


def mint(env: dict, tenants_path: str, tenant: str) -> str:
    """A token the way an operator gets one: the CLI subcommand."""
    return subprocess.check_output(
        [sys.executable, "-m", "repro.cli", "token", "mint",
         "--tenants", tenants_path, "--tenant", tenant],
        env=env, cwd=REPO, text=True).strip()


def http_status(url: str, token: str | None = None) -> tuple[int, dict, dict]:
    """Raw GET without the SDK — to inspect status and headers."""
    request = urllib.request.Request(url)
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request) as response:
            return (response.status, json.load(response),
                    dict(response.headers))
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), dict(error.headers)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scheme_path = os.path.join(tmp, "books.json")
        bibliography.default_scheme(2).save(scheme_path)
        tenants_path = os.path.join(tmp, "tenants.json")
        with open(tenants_path, "w", encoding="utf-8") as handle:
            json.dump(TENANTS, handle)

        env = cli_env()
        daemon = start_daemon(
            ["--scheme", f"books={scheme_path}",
             "--tenants", tenants_path,
             "--registry", os.path.join(tmp, "registry.db")])
        try:
            port = read_bound_port(daemon)
            base = f"http://127.0.0.1:{port}"
            acme_token = mint(env, tenants_path, "acme")
            globex_token = mint(env, tenants_path, "globex")
            print("tokens minted via `wmxml token mint`")

            acme = WmXMLClient(base, scheme="books", token=acme_token,
                               retries=30, retry_delay=0.1)
            globex = WmXMLClient(base, scheme="books",
                                 token=globex_token)

            # healthz needs no credential, everything else does.
            status, health, _ = http_status(f"{base}/v1/healthz")
            assert status == 200 and health["tenants"] == 3, health
            status, refused, _ = http_status(f"{base}/v1/stats")
            assert status == 401, (status, refused)
            assert refused["error"]["code"] == "unauthorized", refused
            print("401 ok: tokenless /v1/stats refused")

            text = serialize(bibliography.generate_document(
                bibliography.BibliographyConfig(books=40, seed=23)))
            result = acme.embed(text, "(c) acme")
            assert result.record.tenant == "acme", result.record
            outcome = acme.detect(result.xml, result.record,
                                  expected="(c) acme")
            assert outcome.detected, outcome
            print("authenticated round-trip ok")

            # Cross-tenant: globex cannot use acme's leaked record,
            # and acme's record never shows in globex's listing.
            try:
                globex.detect(result.xml, result.record)
                raise AssertionError("cross-tenant detect succeeded")
            except RemoteServiceError as error:
                assert error.http_status == 403, error
                assert error.code == "forbidden", error
            assert acme.records()["total"] == 1
            assert globex.records()["total"] == 0
            print("isolation ok: 403 on leaked record, empty listing")

            # Quota: burst of 1, then a raw 429 with Retry-After.
            metered_token = mint(env, tenants_path, "metered")
            status, _, _ = http_status(f"{base}/v1/stats",
                                       metered_token)
            assert status == 200, status
            status, envelope, headers = http_status(
                f"{base}/v1/stats", metered_token)
            assert status == 429, (status, envelope)
            assert envelope["error"]["code"] == "rate-limited", envelope
            retry_after = int(headers["Retry-After"])
            assert retry_after >= 1, headers
            print(f"429 ok: Retry-After={retry_after}")

            # The SDK honours the header: its next call sleeps the
            # advertised delay and then succeeds.
            metered = WmXMLClient(base, token=metered_token, retries=3)
            start = time.monotonic()
            stats = metered.stats()
            waited = time.monotonic() - start
            assert stats["tenant"]["name"] == "metered", stats
            assert waited >= 1.0, f"client retried after only {waited:.2f}s"
            assert stats["tenant"]["errors"] >= 1, stats
            print(f"client retry ok: waited {waited:.2f}s for refill")
        finally:
            returncode = stop_daemon(daemon)
        assert returncode == 0, f"daemon exited {returncode}, not 0"
        print("clean shutdown ok (exit 0)")
        print("AUTH SMOKE PASSED")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
