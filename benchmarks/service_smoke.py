"""Service smoke: real ``wmxml serve`` subprocess, real client, clean exit.

The CI leg for the daemon.  It exercises exactly what a deployment
does: start ``wmxml serve`` as its own process, wait for it through the
client's connection-refused retry loop, run an embed/detect round-trip
plus a pooled batch over loopback HTTP, read ``/v1/healthz`` and
``/v1/stats``, then SIGTERM the daemon and assert it exits 0.

Run from the repo root::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

from __future__ import annotations

import os
import tempfile

# Imported first: it puts src/ on sys.path for the repro imports.
from smoke_daemon import read_bound_port, start_daemon, stop_daemon

from repro.datasets import bibliography
from repro.service import WmXMLClient
from repro.xmlmodel import serialize


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scheme_path = os.path.join(tmp, "books.json")
        bibliography.default_scheme(2).save(scheme_path)

        daemon = start_daemon(
            ["--scheme", f"books={scheme_path}", "--key", "smoke-secret",
             "--processes", "2"])
        try:
            port = read_bound_port(daemon)
            client = WmXMLClient(f"http://127.0.0.1:{port}",
                                 scheme="books", retries=30,
                                 retry_delay=0.1)

            health = client.healthz()
            assert health["status"] == "ok", health
            assert "books" in health["schemes"], health
            print(f"healthz ok: {health}")

            document = bibliography.generate_document(
                bibliography.BibliographyConfig(books=40, seed=11))
            text = serialize(document)

            result = client.embed(text, "(c) smoke")
            outcome = client.detect(result.xml, result.record,
                                    expected="(c) smoke")
            assert outcome.detected, outcome
            print(f"round-trip ok: {outcome}")

            batch = client.embed_many([text] * 4, "(c) smoke")
            assert len(batch) == 4
            verdicts = client.detect_many(
                [(item.xml, batch[0].record) for item in batch[:1]]
                + [(batch[i].xml, batch[i].record) for i in range(1, 4)],
                expected="(c) smoke")
            assert all(item.detected for item in verdicts), verdicts
            print(f"batch ok: {len(batch)} embeds, "
                  f"{sum(v.detected for v in verdicts)} detects")

            # The stats snapshot is taken while the /v1/stats request
            # itself is still in flight, so it counts the 5 prior ones.
            stats = client.stats()
            assert stats["requests"] >= 5, stats
            assert stats["errors"] == 0, stats
            print(f"stats ok: {stats['requests']} requests, "
                  f"{len(stats['endpoints'])} endpoints timed")
        finally:
            returncode = stop_daemon(daemon)
        assert returncode == 0, f"daemon exited {returncode}, not 0"
        print("clean shutdown ok (exit 0)")
        print("SERVICE SMOKE PASSED")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
