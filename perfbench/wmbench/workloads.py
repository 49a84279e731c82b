"""The three workloads: inputs, set-up, one measured pass, the gates.

All inputs come from ``repro.datasets`` and are built from the seed
before any timing starts; the program only ever receives the generated
documents.  Every workload reports the same metrics, read as its own
operations:

* an *embed* is a ``POST /v1/embed`` (owner_http), an issuance, which is
  a ``POST /v1/embed`` with a recipient (provenance_http), or one
  document of a pooled ``embed_many`` call (batch_pool);
* a *detect* is a ``POST /v1/detect`` (owner_http), a ``POST /v1/trace``
  over the CORPUS_RECORDS-record corpus (provenance_http), or one
  document of a pooled ``detect_many`` call (batch_pool).

``embed_cpu_ms`` and ``detect_cpu_ms`` are the program's CPU time per
operation: the daemon's over the saturation windows of one kind, or
this process's and its pool workers' over the phases of one kind.
Wall-clock latencies, timed from each request's due time in the open
loop (batch: per call), and saturated rates go to the ``wall`` line.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Optional

from wmbench import loadgen, spans as spanlib
from wmbench.daemon import Daemon
from wmbench.loadgen import Request
from wmbench.proc import children, cpu_seconds, peak_rss_mb
from wmbench.stats import percentile

#: The open loop and the saturation windows alternate this many times,
#: so a passing slowdown of the host lands on every metric alike.
CYCLES = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

# owner_http
OWNER_KEY = "wmxml-bench-owner-key"
OWNER_MESSAGE = "(c) wmxml bench"
OWNER_BOOKS = 30
#: Poisson arrivals per second: a quarter to a half of what the daemon
#: completes with ``nproc`` closed-loop clients on a 2-core host, as the
#: host runs faster or slower.
OWNER_RATE = 20.0
#: Distinct marked copies the detects draw from.
OWNER_DETECT_POOL = 48
#: Every SAMPLE_EVERY-th embed answer is checked against a local embed.
SAMPLE_EVERY = 8

# provenance_http
TENANTS_MASTER = "wmxml-bench-master"
CORPUS_TENANT, LIVE_TENANT = "acme", "globex"
RECIPIENTS = 100
COPIES_PER_RECIPIENT = 2
CORPUS_RECORDS = RECIPIENTS * COPIES_PER_RECIPIENT
CORPUS_BOOKS = 40
CORPUS_BASES = 4
ISSUE_RATE = 10.0
#: One record listing every RECORDS_PERIOD_S.  A listing holds the GIL
#: for a few hundred ms, so these reads are what the issuance tail waits
#: behind; periodic, so every run meets the same number of them.
RECORDS_PERIOD_S = 3.0
LEAK_POOL = 8
#: Quotas high enough that no request meets a 429, so the buckets are
#: charged on every request without ever refusing one.
HIGH_QUOTA = {"requests_per_minute": 6_000_000, "request_burst": 100_000,
              "documents_per_minute": 6_000_000, "document_burst": 100_000}

# batch_pool
BATCH_KEY = "wmxml-bench-batch-key"
BATCH_MESSAGE = "(c) wmxml batch"
BATCH_RECORDS = 200
BATCH_DOCS = 8
#: Embed phase, detect phase: this many rounds of each per run.
BATCH_CYCLES = 2
BATCH_EMBED_POOL = 32
BATCH_DETECT_POOL = 16


@dataclass
class Context:
    root: str
    seed: int
    seconds: float
    nproc: int
    tmp: str


@dataclass
class Measurement:
    """One measured pass of a workload."""

    latencies: dict = field(default_factory=dict)
    docs_per_s: dict = field(default_factory=dict)
    #: CPU ms the program spent per document of each kind.
    cpu_ms: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    lags_ms: list = field(default_factory=list)
    round_trips: dict = field(default_factory=dict)

    def p50(self) -> dict:
        return {kind: percentile(values, 50.0)
                for kind, values in self.latencies.items() if values}


def _body(**fields) -> bytes:
    from repro.service.protocol import REQUEST_FORMAT

    return json.dumps({"format": REQUEST_FORMAT, **fields}).encode("utf-8")


def _closed_rate(windows: list, docs_each: float = 1.0) -> float:
    """Documents per second completed in closed-loop ``windows``.

    Each of ``windows`` is ``(start, outcomes)``; its time runs from its
    start to its last answer, as an operation still running when the
    window closed is let finish.
    """
    docs = 0.0
    busy = 0.0
    for start, outcomes in windows:
        answered = [outcome for outcome in outcomes if outcome.ok]
        if answered:
            docs += len(answered) * docs_each
            busy += max(outcome.done for outcome in answered) - start
    return docs / busy if busy > 0 else 0.0


class HttpWorkload:
    """Common driving of a daemon with an open then a closed loop."""

    name = ""
    kinds: tuple = ()
    #: Share of ``--seconds`` spent in the open loop; the rest saturates.
    open_share = 0.8
    #: Kinds timed in their saturation windows instead of the open loop,
    #: each sent there by a single caller.
    saturation_timed: tuple = ()

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.daemon: Optional[Daemon] = None
        self.spans_path: Optional[str] = None
        self.workdir: Optional[str] = None
        self._starts = 0

    # subclass hooks ---------------------------------------------------------
    def build_inputs(self) -> None:
        raise NotImplementedError

    def _prepare(self, workdir: str) -> list[str]:
        """Write the daemon's files; return its ``serve`` arguments."""
        raise NotImplementedError

    def _warm(self) -> None:
        raise NotImplementedError

    def _closed_request(self, kind: str, count: int) -> Request:
        raise NotImplementedError

    def verify(self) -> list[str]:
        raise NotImplementedError

    def _docs_each(self, kind: str) -> float:
        return 1.0

    # lifecycle --------------------------------------------------------------
    def start(self, traced: bool = False) -> float:
        """Prepare, start and warm a daemon; return the CPU seconds that
        took in this process and in the daemon."""
        own = time.process_time()
        self._starts += 1
        self.workdir = os.path.join(self.ctx.tmp, f"daemon{self._starts}")
        os.makedirs(self.workdir)
        args = self._prepare(self.workdir)
        self.spans_path = (os.path.join(self.workdir, "spans.json")
                           if traced else None)
        self.daemon = Daemon(self.ctx.root, args, self.spans_path)
        self._warm()
        return time.process_time() - own + self.daemon.cpu_seconds()

    def stop(self) -> None:
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            daemon.stop()

    def abort(self) -> None:
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            daemon.kill()

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def send(self, request: Request, rid: str) -> loadgen.Outcome:
        return loadgen.exchange(self.daemon.port, request, rid,
                                time.perf_counter())

    # measurement ------------------------------------------------------------
    def measure(self) -> Measurement:
        """CYCLES rounds of: a slice of the open-loop schedule, then one
        saturation window per kind with ``nproc`` closed-loop callers."""
        ctx = self.ctx
        port = self.daemon.port
        offsets, requests = self.schedule
        slice_s = ctx.seconds * self.open_share / CYCLES
        saturate_s = ctx.seconds * (1 - self.open_share) / CYCLES / len(
            self.kinds)
        opened, backlog = [], []
        saturated: dict = {kind: [] for kind in self.kinds}
        busy = {kind: 0.0 for kind in self.kinds}
        for cycle in range(CYCLES):
            low, high = cycle * slice_s, (cycle + 1) * slice_s
            chosen = [index for index, offset in enumerate(offsets)
                      if low <= offset < high]
            part = loadgen.open_loop(
                port, [offsets[index] - low for index in chosen],
                [requests[index] for index in chosen], ctx.nproc,
                prefix=f"o{cycle}.")
            opened += part
            backlog += loadgen.backlog_series(part)
            for kind in self.kinds:
                callers = (1 if kind in self.saturation_timed
                           else ctx.nproc)
                start = time.perf_counter()
                cpu = self.daemon.cpu_seconds()
                window = loadgen.closed_loop(
                    port, [lambda n, kind=kind: self._closed_request(kind, n)]
                    * callers, saturate_s, prefix=f"c{cycle}{kind}.")
                busy[kind] += self.daemon.cpu_seconds() - cpu
                saturated[kind].append((start, window))
        closed = {kind: [outcome for _, outcomes in windows
                         for outcome in outcomes]
                  for kind, windows in saturated.items()}
        everything = opened + [outcome for outcomes in closed.values()
                               for outcome in outcomes]
        result = Measurement()
        result.attempted = len(everything)
        result.failed = sum(1 for o in everything if o.status != 200)
        result.errors = [f"{o.kind} {o.rid}: {o.error}" for o in everything
                         if o.status == 200 and o.error is not None]
        for kind in self.kinds:
            timed = (closed[kind] if kind in self.saturation_timed
                     else opened)
            result.latencies[kind] = [o.latency_ms for o in timed
                                      if o.kind == kind and o.ok]
            result.docs_per_s[kind] = _closed_rate(saturated[kind],
                                                   self._docs_each(kind))
            answered = sum(1 for o in closed[kind] if o.ok)
            if answered:
                result.cpu_ms[kind] = busy[kind] * 1000.0 / answered
        result.lags_ms = [o.lag_ms for o in opened]
        if loadgen.backlog_grows(backlog, ctx.nproc):
            result.errors.append(
                "open-loop backlog grew over the run: the offered rate "
                "is above what the daemon sustains, so the run is invalid")
        result.round_trips = {o.rid: o.done - o.sent for o in everything}
        return result

    def traced_spans(self, measured: Measurement):
        """The daemon's spans and counters for the measured requests."""
        stored, counts = spanlib.load(self.spans_path)
        keep = measured.round_trips
        kept = [span for span in stored if span.rid in keep]
        folded: dict = {}
        for (name, rid), value in counts.items():
            if rid in keep:
                folded[name] = folded.get(name, 0) + value
        return kept, folded


# -- owner_http ---------------------------------------------------------------


class OwnerHttp(HttpWorkload):
    name = "owner_http"
    kinds = ("embed", "detect")

    def build_inputs(self) -> None:
        from repro.api import Pipeline
        from repro.datasets import bibliography
        from repro.rewriting.reorganizer import reorganize
        from repro.xmlmodel import parse, serialize

        rng = random.Random(self.ctx.seed)
        self.scheme = bibliography.default_scheme()
        offsets = loadgen.poisson_schedule(
            OWNER_RATE, self.ctx.seconds * self.open_share, rng)

        def document() -> str:
            config = bibliography.BibliographyConfig(
                books=OWNER_BOOKS, seed=rng.randrange(2 ** 31))
            return serialize(bibliography.generate_document(config))

        local = Pipeline(self.scheme, OWNER_KEY)
        publisher_shape = bibliography.publisher_shape()
        self.samples = {}
        self.detect_bodies = []
        while len(self.detect_bodies) < OWNER_DETECT_POOL:
            marked = local.embed_many([document()], OWNER_MESSAGE,
                                      output="xml")[0]
            xml, shape = marked.xml, None
            if len(self.detect_bodies) % 4 == 3:
                # A publisher-centric reorganised copy, sent with its
                # current shape so detection rewrites every query.
                xml = serialize(reorganize(
                    parse(xml, strip_whitespace=True),
                    bibliography.book_shape(), publisher_shape).document)
                shape = publisher_shape
            if not local.detect_many([(xml, marked.record)],
                                     expected=OWNER_MESSAGE,
                                     shape=shape)[0].detected:
                # Too few carrier groups for a significant vote: a
                # capacity limit of small documents, not a fault.
                continue
            self.detect_bodies.append(_body(
                scheme="books", document=xml,
                record=marked.record.to_dict(), expected=OWNER_MESSAGE,
                shape=None if shape is None else shape.to_dict(),
                strategy="auto"))
        self.embed_documents = []
        requests = []
        for _ in offsets:
            if rng.random() < 0.5:
                requests.append(self._embed_request(document()))
            else:
                requests.append(self._detect_request(
                    rng.randrange(OWNER_DETECT_POOL)))
        self.closed_documents = [document() for _ in range(64)]
        self.schedule = (offsets, requests)

    def _embed_request(self, xml: str) -> Request:
        slot = len(self.embed_documents)
        self.embed_documents.append(xml)
        samples = self.samples

        def check(data: bytes) -> Optional[str]:
            answer = json.loads(data)
            if not isinstance(answer.get("xml"), str):
                return "embed answer carries no marked XML"
            if slot % SAMPLE_EVERY == 0:
                samples[slot] = (answer["xml"], answer["record"])
            return None

        return Request("embed", "POST", "/v1/embed", _body(
            scheme="books", document=xml, message=OWNER_MESSAGE),
            check=check)

    def _detect_request(self, index: int) -> Request:
        return Request("detect", "POST", "/v1/detect",
                       self.detect_bodies[index], check=_detected)

    def _closed_request(self, kind: str, count: int) -> Request:
        if kind == "embed":
            xml = self.closed_documents[count % len(self.closed_documents)]
            return Request("embed", "POST", "/v1/embed", _body(
                scheme="books", document=xml, message=OWNER_MESSAGE),
                check=_has_xml)
        return self._detect_request(count % OWNER_DETECT_POOL)

    def _prepare(self, workdir: str) -> list[str]:
        scheme_path = os.path.join(workdir, "books.json")
        self.scheme.save(scheme_path)
        return ["--scheme", f"books={scheme_path}", "--key", OWNER_KEY,
                "--registry", os.path.join(workdir, "registry.db")]

    def _warm(self) -> None:
        for index in range(4):
            request = (self._closed_request("embed", index) if index % 2 == 0
                       else self._detect_request(index))
            outcome = self.send(request, f"w{index}")
            if not outcome.ok:
                raise RuntimeError(f"warm-up {request.kind} failed: "
                                   f"{outcome.error}")

    def verify(self) -> list[str]:
        from repro.api import Pipeline

        errors = _ledger_errors(self)
        local = Pipeline(self.scheme, OWNER_KEY)
        for slot, (xml, record) in sorted(self.samples.items()):
            reference = local.embed_many([self.embed_documents[slot]],
                                         OWNER_MESSAGE, output="xml")[0]
            if xml != reference.xml or record != reference.record.to_dict():
                errors.append(f"embed {slot}: the daemon's marked copy "
                              "differs from a local embed_many")
        if not self.samples:
            errors.append("no embed answer was sampled for the local check")
        return errors


def _has_xml(data: bytes) -> Optional[str]:
    if not isinstance(json.loads(data).get("xml"), str):
        return "embed answer carries no marked XML"
    return None


def _detected(data: bytes) -> Optional[str]:
    if json.loads(data)["result"].get("detected") is not True:
        return "a marked copy was not detected"
    return None


def _ledger_errors(workload: HttpWorkload, headers=None) -> list[str]:
    outcome = workload.send(Request("ledger", "GET", "/v1/ledger/verify",
                                    headers=headers or {}), "verify")
    if outcome.status != 200:
        return [f"ledger verify answered {outcome.status}: {outcome.error}"]
    return []


# -- provenance_http ----------------------------------------------------------


class ProvenanceHttp(HttpWorkload):
    name = "provenance_http"
    kinds = ("embed", "detect")
    # A sweep holds the GIL for its whole length, so a second trace only
    # shares it, and with at most nproc connections a trace in the open
    # loop would pin one for the sweep: traces are timed in their own
    # windows, one caller back to back, at the stated corpus size.
    saturation_timed = ("detect",)
    open_share = 0.6

    def build_inputs(self) -> None:
        from repro.attacks.alteration import ValueAlterationAttack
        from repro.datasets import bibliography
        from repro.tenants import TenantDirectory, TenantsConfig
        from repro.xmlmodel import parse, serialize

        rng = random.Random(self.ctx.seed)
        self.scheme = bibliography.default_scheme()
        self.tenants = {
            "format": "wmxml-tenants-v1",
            "keys": {"1": TENANTS_MASTER},
            "tenants": {CORPUS_TENANT: {"quota": HIGH_QUOTA},
                        LIVE_TENANT: {"quota": HIGH_QUOTA}},
        }
        self.bases = [
            serialize(bibliography.generate_document(
                bibliography.BibliographyConfig(
                    books=CORPUS_BOOKS, seed=rng.randrange(2 ** 31))))
            for _ in range(CORPUS_BASES)]
        self.recipients = [f"reader-{index:03d}"
                           for index in range(RECIPIENTS)]
        directory = TenantDirectory(TenantsConfig.from_dict(self.tenants))
        directory.register_all("books", self.scheme)
        self.tokens = {name: directory.mint_token(name)
                       for name in (CORPUS_TENANT, LIVE_TENANT)}
        self.corpus_plan = [
            (recipient, [self.bases[(index + copy) % CORPUS_BASES]
                         for copy in range(COPIES_PER_RECIPIENT)])
            for index, recipient in enumerate(self.recipients)]
        # A leaked copy is an issued copy of the corpus, altered; one
        # whose alteration left too few votes to verify is not a leak
        # a trace can be asked to catch.
        corpus_system = directory.system(CORPUS_TENANT)
        self.leaks = []
        while len(self.leaks) < LEAK_POOL:
            recipient, bases = rng.choice(self.corpus_plan)
            pipeline = corpus_system.recipient_pipeline("books", recipient)
            issued = pipeline.embed_many([rng.choice(bases)], recipient,
                                         output="xml")[0]
            altered = ValueAlterationAttack(
                0.05, seed=rng.randrange(2 ** 31)).apply(
                    parse(issued.xml, strip_whitespace=True)).document
            if pipeline.detect(altered, issued.record,
                               expected=recipient).detected:
                self.leaks.append((recipient, serialize(altered)))

        open_s = self.ctx.seconds * self.open_share
        events = [(offset, "embed") for offset in
                  loadgen.poisson_schedule(ISSUE_RATE, open_s, rng)]
        events += [(RECORDS_PERIOD_S * (index + 0.5), "records")
                   for index in range(round(open_s / RECORDS_PERIOD_S))]
        events.sort()
        requests = []
        for _, kind in events:
            if kind == "embed":
                requests.append(self._issue_request(
                    rng.choice(self.recipients),
                    rng.randrange(CORPUS_BASES)))
            else:
                requests.append(self._records_request(
                    rng.randrange(CORPUS_RECORDS // 20)))
        self.schedule = ([offset for offset, _ in events], requests)

    def _auth(self, tenant: str) -> dict:
        return {"Authorization": f"Bearer {self.tokens[tenant]}"}

    def _issue_request(self, recipient: str, base: int) -> Request:
        return Request("embed", "POST", "/v1/embed", _body(
            scheme="books", document=self.bases[base],
            recipient=recipient), self._auth(LIVE_TENANT), check=_has_xml)

    def _trace_request(self, index: int) -> Request:
        recipient, xml = self.leaks[index]

        def check(data: bytes) -> Optional[str]:
            accused = json.loads(data)["trace"]["accused"]
            if recipient not in accused:
                return (f"trace did not accuse the true recipient "
                        f"{recipient} (accused {accused[:3]})")
            return None

        return Request("detect", "POST", "/v1/trace", _body(
            scheme="books", document=xml), self._auth(CORPUS_TENANT),
            check=check)

    def _records_request(self, page: int) -> Request:
        def check(data: bytes) -> Optional[str]:
            total = json.loads(data)["total"]
            if total != CORPUS_RECORDS:
                return f"records listing counts {total}, not {CORPUS_RECORDS}"
            return None

        return Request("records", "GET",
                       f"/v1/records?offset={page * 20}&limit=20",
                       headers=self._auth(CORPUS_TENANT), check=check)

    def _closed_request(self, kind: str, count: int) -> Request:
        if kind == "embed":
            return self._issue_request(
                self.recipients[count % RECIPIENTS], count % CORPUS_BASES)
        return self._trace_request(count % LEAK_POOL)

    def _docs_each(self, kind: str) -> float:
        return CORPUS_RECORDS if kind == "detect" else 1.0

    def _prepare(self, workdir: str) -> list[str]:
        """Pre-issue the traced corpus into a fresh SQLite registry."""
        from repro.registry import WatermarkRegistry
        from repro.tenants import TenantDirectory, TenantsConfig

        tenants_path = os.path.join(workdir, "tenants.json")
        with open(tenants_path, "w", encoding="utf-8") as handle:
            json.dump(self.tenants, handle)
        scheme_path = os.path.join(workdir, "books.json")
        self.scheme.save(scheme_path)
        registry_path = os.path.join(workdir, "registry.db")
        registry = WatermarkRegistry.open(registry_path, recover=False)
        try:
            directory = TenantDirectory(TenantsConfig.from_dict(self.tenants),
                                        registry=registry)
            directory.register_all("books", self.scheme)
            system = directory.system(CORPUS_TENANT)
            for recipient, bases in self.corpus_plan:
                system.issue_many("books", bases, recipient, output="xml")
        finally:
            registry.close()
        return ["--scheme", f"books={scheme_path}", "--tenants",
                tenants_path, "--registry", registry_path]

    def _warm(self) -> None:
        for index, request in enumerate([
                self._issue_request(self.recipients[0], 0),
                self._records_request(0)]):
            outcome = self.send(request, f"w{index}")
            if not outcome.ok:
                raise RuntimeError(f"warm-up {request.kind} failed: "
                                   f"{outcome.error}")

    def verify(self) -> list[str]:
        return _ledger_errors(self, self._auth(CORPUS_TENANT))


# -- batch_pool ---------------------------------------------------------------


class BatchPool:
    """In-process pooled batches: no HTTP, registry or tenants."""

    name = "batch_pool"
    kinds = ("embed", "detect")

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.tracer: Optional[spanlib.Tracer] = None

    def build_inputs(self) -> None:
        from repro.api import Pipeline
        from repro.datasets import jobs
        from repro.rewriting.reorganizer import reorganize
        from repro.xmlmodel import parse, serialize

        rng = random.Random(self.ctx.seed)

        def document() -> str:
            return serialize(jobs.generate_document(jobs.JobsConfig(
                jobs=BATCH_RECORDS, seed=rng.randrange(2 ** 31))))

        self.scheme = jobs.default_scheme()
        self.by_company = jobs.by_company_shape()
        self.embed_pool = [document() for _ in range(BATCH_EMBED_POOL)]
        local = Pipeline(self.scheme, BATCH_KEY)
        marked = local.embed_many([document() for _ in
                                   range(BATCH_DETECT_POOL)],
                                  BATCH_MESSAGE, output="xml")
        self.detect_plain = [(item.xml, item.record)
                             for item in marked[:BATCH_DETECT_POOL // 2]]
        self.detect_moved = [
            (serialize(reorganize(parse(item.xml, strip_whitespace=True),
                                  jobs.listing_shape(),
                                  self.by_company).document), item.record)
            for item in marked[BATCH_DETECT_POOL // 2:]]

    # lifecycle --------------------------------------------------------------
    def start(self, traced: bool = False) -> float:
        """Compile the pipeline, fork the pool and warm it; return the
        CPU seconds that took here and in the new workers."""
        from repro.api import Pipeline

        own = time.process_time()
        if traced and self.tracer is None:
            self.tracer = spanlib.Tracer()
            spanlib.install(self.tracer)
        self.pipeline = Pipeline(self.scheme, BATCH_KEY)
        self._embed(0)
        self._detect(0)
        return time.process_time() - own + sum(
            cpu_seconds(pid) for pid in children(os.getpid()))

    def stop(self) -> None:
        from repro import parallel

        pool = parallel.shared_pool(self.ctx.nproc)
        pool.shutdown(wait=True)
        parallel.discard_pool(self.ctx.nproc)

    abort = stop

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(os.getpid()) + sum(
            peak_rss_mb(pid) for pid in children(os.getpid()))

    @staticmethod
    def _cpu() -> float:
        """CPU seconds so far of this process and its pool workers."""
        return time.process_time() + sum(
            cpu_seconds(pid) for pid in children(os.getpid()))

    @staticmethod
    def _batch(pool: list, op: int, size: int) -> list:
        start = (op * size) % len(pool)
        return [pool[(start + index) % len(pool)] for index in range(size)]

    def _embed(self, op: int) -> list:
        return self.pipeline.embed_many(
            self._batch(self.embed_pool, op, BATCH_DOCS), BATCH_MESSAGE,
            processes=self.ctx.nproc, output="xml")

    def _detect_inputs(self, op: int) -> list:
        """A detect operation is two calls, as ``detect_many`` takes one
        shape per call: half the copies as issued, half reorganised to
        jobs-by-company."""
        half = BATCH_DOCS // 2
        return [(self._batch(self.detect_plain, op, half), None),
                (self._batch(self.detect_moved, op, half), self.by_company)]

    def _detect(self, op: int) -> list:
        return [outcome for items, shape in self._detect_inputs(op)
                for outcome in self.pipeline.detect_many(
                    items, expected=BATCH_MESSAGE, shape=shape,
                    processes=self.ctx.nproc)]

    # measurement ------------------------------------------------------------
    def measure(self) -> Measurement:
        """BATCH_CYCLES rounds of an embed phase then a detect phase.

        A phase's CPU time is read at its ends, so the garbage each kind
        makes is mostly collected, and charged, within its own phase.
        """
        result = Measurement()
        self.samples = {"embed": {}, "detect": {}}
        operations = {"embed": self._embed, "detect": self._detect}
        busy = {kind: 0.0 for kind in operations}
        cpu = {kind: 0.0 for kind in operations}
        docs = {kind: 0 for kind in operations}
        ops = {kind: 0 for kind in operations}
        for kind in operations:
            result.latencies[kind] = []
        phase_s = self.ctx.seconds / (BATCH_CYCLES * len(operations))
        if self.tracer is not None:
            self.tracer.reset()
            self.tracer.enabled = True
        try:
            for _ in range(BATCH_CYCLES):
                for kind, run in operations.items():
                    used = self._cpu()
                    end = time.perf_counter() + phase_s
                    while time.perf_counter() < end:
                        op = ops[kind]
                        ops[kind] += 1
                        self._operation(kind, run, op, result, docs, busy)
                    cpu[kind] += self._cpu() - used
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        result.docs_per_s = {kind: docs[kind] / busy[kind]
                             for kind in operations if busy[kind]}
        result.cpu_ms = {kind: cpu[kind] * 1000.0 / docs[kind]
                         for kind in operations if docs[kind]}
        return result

    def _operation(self, kind: str, run, op: int, result: Measurement,
                   docs: dict, busy: dict) -> None:
        result.attempted += BATCH_DOCS
        start = time.perf_counter()
        try:
            outputs = run(op)
        except Exception as error:  # noqa: BLE001
            result.failed += BATCH_DOCS
            result.errors.append(f"{kind} {op}: {error}")
            return
        elapsed = time.perf_counter() - start
        result.latencies[kind].append(elapsed * 1000.0)
        busy[kind] += elapsed
        docs[kind] += len(outputs)
        if op % SAMPLE_EVERY == 0:
            self.samples[kind][op] = outputs
        if kind == "detect":
            result.errors.extend(
                f"detect {op}: a marked copy was not detected"
                for outcome in outputs if not outcome.detected)

    def traced_spans(self, measured: Measurement):
        counts: dict = {}
        for (name, _), value in self.tracer.counts().items():
            counts[name] = counts.get(name, 0) + value
        return spanlib.as_spans(self.tracer.spans), counts

    def verify(self) -> list[str]:
        """Sampled pooled outputs must equal a serial reference."""
        errors = []
        for op, outputs in sorted(self.samples["embed"].items()):
            serial = self.pipeline.embed_many(
                self._batch(self.embed_pool, op, BATCH_DOCS), BATCH_MESSAGE,
                output="xml")
            if ([(item.xml, item.record.to_dict()) for item in outputs]
                    != [(item.xml, item.record.to_dict())
                        for item in serial]):
                errors.append(f"embed {op}: pooled output differs from "
                              "the serial reference")
        for op, outputs in sorted(self.samples["detect"].items()):
            serial = [outcome for items, shape in self._detect_inputs(op)
                      for outcome in self.pipeline.detect_many(
                          items, expected=BATCH_MESSAGE, shape=shape)]
            if ([item.to_dict() for item in outputs]
                    != [item.to_dict() for item in serial]):
                errors.append(f"detect {op}: pooled verdicts differ from "
                              "the serial reference")
        if not self.samples["embed"] or not self.samples["detect"]:
            errors.append("no batch output was sampled for the serial check")
        return errors


WORKLOADS = {cls.name: cls for cls in (OwnerHttp, ProvenanceHttp, BatchPool)}


def make_tmp(root: str) -> str:
    base = os.path.join(root, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    return path


def remove_tmp(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    parent = os.path.dirname(path)
    try:
        os.rmdir(parent)
    except OSError:
        pass
