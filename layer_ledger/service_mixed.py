"""service_mixed: a durable single-node deployment, where the report
store is both written and read.

The service is ``efes serve --journal-dir <dir>`` in its own process,
with the default ``batch`` journal flush policy, 2 job slots and the
serial backend.  Two client threads drive it as a closed loop through
``ServiceClient``.  A client's round takes one fresh data seed and, for
each of the 8 case-study scenarios, one (scenario, seed, quality) key;
the quality alternates by scenario, the two clients starting on
different qualities.  Per key:

* one submission, waited for (a miss: resolve, queue, run, serialise,
  store write, journal);
* then 8 repeats drawn by a seeded generator from the keys this client
  has completed (hits, answered from the report store).

At the round's end come 3 submissions carrying ``X-Deadline-Ms: nan``,
``inf`` and ``-5``, whose correct answer is 400.  The clients take
turns, one scenario's miss and repeats each, so the schedule alone
decides which request is a miss and which a hit, and no request shares
the server with the other client's.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import repro
from repro.core import ResultQuality, default_efes
from repro.core.serialize import decode_journal_text, dumps, span_from_dict
from repro.runtime import Runtime, fingerprint_database
from repro.runtime.metrics import snapshot_from_dict
from repro.scenarios import (
    bibliographic_scenarios,
    music_scenarios,
    scenario_catalogue,
)
from repro.service import ServiceClient

from checks import Checker
from common import (
    SPAN_PARTITION,
    Ledger,
    Result,
    Samples,
    canonical,
    column_profiles,
    csg_drilldown,
    peak_rss_mb_of,
    profile_drilldown,
    result_document,
)

#: The source tree the benchmark imported; the server runs from it too.
SRC = Path(repro.__file__).resolve().parent.parent
CASE_STUDY = (
    "s1-s2", "s1-s3", "s3-s4", "s4-s4", "f1-m2", "m1-d2", "m1-f2", "d1-d2",
)
QUALITIES = ("low_effort", "high_quality")
CLIENTS = 2
#: Repeats per first submission.  It sets how many samples of each kind
#: a run takes; no metric weighs hits against misses.
HITS_PER_MISS = 8
MALFORMED_DEADLINES = ("nan", "inf", "-5")
#: ``ServiceClient.result`` polling period while a miss runs.
POLL_INTERVAL = 0.005
STARTUP_TIMEOUT = 60.0
PHASES = ("queued", "running", "store")
#: The server's memory grows with every data seed it resolves, so its
#: peak is read once both clients have finished this many rounds: a
#: fixed amount of work, whatever the run's length or speed.
RSS_AFTER_ROUNDS = 3


def data_seed(run_seed: int, round_index: int, client: int) -> int:
    """The data seed of one client's round; round 0 is the warm-up."""
    return 1_000_000 + 1000 * run_seed + CLIENTS * round_index + client


class Server:
    """``efes serve`` in a child process, stopped with SIGTERM."""

    def __init__(self, workdir: Path, name: str) -> None:
        self.journal_dir = workdir / f"journal-{name}"
        self.log_path = workdir / f"serve-{name}.log"
        self.process: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> None:
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            REPRO_RUNTIME_BACKEND="serial",
        )
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0",
                    "--journal-dir", str(self.journal_dir),
                ],
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        limit = time.monotonic() + STARTUP_TIMEOUT
        while not self.url:
            if self.process.poll() is not None or time.monotonic() > limit:
                raise RuntimeError(
                    "efes serve did not start: "
                    + self.log_path.read_text(errors="replace")
                )
            for line in self.log_path.read_text(errors="replace").splitlines():
                if "listening on " in line:
                    self.url = line.split("listening on ")[1].split()[0]
            time.sleep(0.005)
        ServiceClient(self.url).healthz()

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()

    def journal_totals(self) -> tuple[int, int]:
        """Records and bytes in the journal directory."""
        records = size = 0
        for path in sorted(self.journal_dir.glob("*.wal")):
            text = path.read_text(encoding="utf-8", errors="replace")
            records += len(decode_journal_text(text)[0])
            size += path.stat().st_size
        return records, size


@dataclasses.dataclass
class ClientLog:
    """What one client thread saw; merged after the threads join."""

    index: int
    samples: Samples = dataclasses.field(default_factory=Samples)
    #: Keys in first-submission order, and every document seen per key.
    order: list[tuple] = dataclasses.field(default_factory=list)
    texts: dict[tuple, set[str]] = dataclasses.field(default_factory=dict)
    miss_jobs: list[str] = dataclasses.field(default_factory=list)
    wrong_source: list[str] = dataclasses.field(default_factory=list)
    errors: list[str] = dataclasses.field(default_factory=list)


class Lockstep:
    """Aligns the clients: they take turns, each sending one miss and
    its hits per turn, so no request waits behind or shares the server
    with the other client's, and all clients end their last round
    together."""

    def __init__(self, parties: int, deadline: float) -> None:
        self.deadline = deadline
        #: Whether the run's time was up at the last alignment.
        self.expired = False
        self._barrier = threading.Barrier(
            parties, action=self._decide, timeout=120
        )

    def _decide(self) -> None:
        self.expired = time.perf_counter() >= self.deadline

    def wait(self) -> None:
        self._barrier.wait()

    def run_all(self, functions) -> None:
        """Run one function per client in its own thread; the first
        exception releases the other clients and is raised here."""
        errors: list[BaseException] = []

        def guarded(function) -> None:
            try:
                function()
            except BaseException as exc:  # re-raised below, after the join
                errors.append(exc)
                self._barrier.abort()

        threads = [
            threading.Thread(target=guarded, args=(function,))
            for function in functions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]


class ClientLoop:
    def __init__(self, url: str, run_seed: int, index: int, pid: int) -> None:
        self.url = url
        self.pid = pid
        #: Server peak RSS once every client finished RSS_AFTER_ROUNDS.
        self.peak_rss_mb: float | None = None
        self.run_seed = run_seed
        self.client = ServiceClient(url)
        self.random = random.Random(run_seed * CLIENTS + index)
        self.completed: list[tuple] = []
        self.log = ClientLog(index)

    def _request(self, key: tuple) -> tuple[float, dict, dict]:
        name, seed, quality = key
        started = time.perf_counter()
        job = self.client.submit(name, quality=quality, seed=seed)
        doc = self.client.result(job["id"], poll_interval=POLL_INTERVAL)
        return time.perf_counter() - started, job, doc

    def _submit(self, key: tuple, miss: bool, record: bool) -> None:
        samples = self.log.samples
        if record:
            samples.attempted += 1
        gc.collect()  # outside the timed window
        try:
            seconds, job, doc = self._request(key)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            if record:
                samples.failed += 1
            self.log.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return
        if miss:
            self.completed.append(key)
        if not record:
            return
        if miss:
            samples.miss.append(seconds)
            samples.miss_busy_s += seconds
            self.log.order.append(key)
            self.log.miss_jobs.append(job["id"])
        else:
            samples.hit.append(seconds)
            samples.hit_busy_s += seconds
        if job["from_store"] == miss:
            self.log.wrong_source.append(f"{key} miss={miss}")
        self.log.texts.setdefault(key, set()).add(canonical(doc))

    def _malformed(self, value: str) -> None:
        """One submission with an invalid deadline; 400 is correct."""
        name, seed, quality = self.random.choice(self.completed)
        body = json.dumps(
            {"scenario": name, "seed": seed, "quality": quality}
        ).encode("utf-8")
        request = urllib.request.Request(
            f"{self.url}/jobs",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json", "X-Deadline-Ms": value},
        )
        self.log.samples.attempted += 1
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                status = response.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        if status != 400:
            self.log.samples.failed += 1

    def round(self, round_index: int, record: bool, lockstep: Lockstep) -> None:
        seed = data_seed(self.run_seed, round_index, self.log.index)
        for position, name in enumerate(CASE_STUDY):
            quality = QUALITIES[(position + self.log.index) % len(QUALITIES)]
            for turn in range(CLIENTS):
                lockstep.wait()
                if turn != self.log.index:
                    continue
                self._submit((name, seed, quality), miss=True, record=record)
                for _ in range(HITS_PER_MISS):
                    self._submit(
                        self.random.choice(self.completed),
                        miss=False,
                        record=record,
                    )
        if record:
            for value in MALFORMED_DEADLINES:
                self._malformed(value)
        lockstep.wait()

    def run(self, lockstep: Lockstep) -> None:
        round_index = 1
        while True:
            self.round(round_index, True, lockstep)
            if round_index == RSS_AFTER_ROUNDS:
                self.peak_rss_mb = peak_rss_mb_of(self.pid)
            round_index += 1
            if lockstep.expired:
                break


def _phase_totals(snapshot) -> dict[str, float]:
    totals = {}
    for phase in PHASES:
        histogram = snapshot.histogram("job_phase_seconds", phase=phase)
        totals[phase] = histogram.sum if histogram is not None else 0.0
    return totals


def measure(
    seed: int, seconds: float, trace: bool, workdir: Path, setups: int
) -> Result:
    setup_seconds = []
    servers = []
    try:
        for attempt in range(setups):
            server = Server(workdir, str(attempt))
            servers.append(server)
            started = time.perf_counter()
            server.start()
            setup_seconds.append(time.perf_counter() - started)
            if attempt < setups - 1:
                server.stop()
        server = servers[-1]
        gc.freeze()
        loops = [
            ClientLoop(server.url, seed, index, server.process.pid)
            for index in range(CLIENTS)
        ]
        warm_up = Lockstep(CLIENTS, float("inf"))
        warm_up.run_all([lambda c=c: c.round(0, False, warm_up) for c in loops])
        for loop in loops:
            loop.completed.clear()  # measured hits repeat measured keys
        probe = ServiceClient(server.url)
        before = snapshot_from_dict(probe.metrics())
        journal_before = server.journal_totals()
        lockstep = Lockstep(CLIENTS, time.perf_counter() + seconds)
        lockstep.run_all([lambda c=c: c.run(lockstep) for c in loops])
        after = snapshot_from_dict(probe.metrics())
        traces = (
            [
                span_from_dict(probe.trace(job_id))
                for loop in loops
                for job_id in loop.log.miss_jobs
            ]
            if trace
            else []
        )
        readings = [c.peak_rss_mb for c in loops]
        peak_rss_mb = (
            max(readings)
            if None not in readings
            else peak_rss_mb_of(server.process.pid)
        )
    finally:
        for server in servers:
            server.stop()
    logs = [loop.log for loop in loops]
    samples = _merge(logs)
    ledger = None
    if trace:
        ledger = _service_ledger(logs, before, after, traces, server, journal_before)
    checker = Checker()
    _check(checker, logs, ledger)
    return Result(setup_seconds, samples, ledger, peak_rss_mb, checker)


def _merge(logs: list[ClientLog]) -> Samples:
    """All clients' samples; the clients take turns, so one request is
    in flight at a time."""
    merged = Samples()
    for log in logs:
        merged.miss += log.samples.miss
        merged.hit += log.samples.hit
        merged.attempted += log.samples.attempted
        merged.failed += log.samples.failed
        merged.miss_busy_s += log.samples.miss_busy_s
        merged.hit_busy_s += log.samples.hit_busy_s
    return merged


def _service_ledger(logs, before, after, traces, server, journal_before) -> Ledger:
    # The job spans must make up the scheduler's running phase.
    ledger = Ledger(SPAN_PARTITION, base="service.run_s")
    latencies = [s for log in logs for s in log.samples.miss + log.samples.hit]
    for seconds in latencies:
        ledger.add_op(seconds)
    for root in traces:
        ledger.add_spans(root)
    phases_before, phases_after = _phase_totals(before), _phase_totals(after)
    phase = {p: phases_after[p] - phases_before[p] for p in PHASES}
    ledger.add("service.queue_wait_s", phase["queued"], calls=len(traces))
    ledger.add("service.run_s", phase["running"], calls=len(traces))
    ledger.add("service.store_s", phase["store"], calls=len(traces))
    ledger.add(
        "service.client_overhead_s",
        sum(latencies) - sum(phase.values()),
        calls=len(latencies),
    )
    for name, counter in (
        ("service.store_hits", "store_hits"),
        ("service.store_misses", "store_misses"),
        ("cache.hits", "cache_hits"),
        ("cache.misses", "cache_misses"),
    ):
        ledger.add(name, after.counter(counter) - before.counter(counter))
    records, size = server.journal_totals()
    ledger.add("journal.records", records - journal_before[0])
    ledger.add("journal.bytes", size - journal_before[1])
    return ledger


def _case_study(seed: int, ledger: Ledger | None) -> dict:
    """The scenarios of one data seed.  The traced run builds the whole
    catalogue, as the service does on the first request of a seed, and
    times it."""
    if ledger is None:
        return {
            s.name: s
            for s in bibliographic_scenarios(seed) + music_scenarios(seed)
        }
    started = time.perf_counter()
    catalogue = scenario_catalogue(seed)
    ledger.add("service.resolve_s", time.perf_counter() - started)
    return catalogue


def _check(checker: Checker, logs: list[ClientLog], ledger: Ledger | None) -> None:
    """Recompute every miss in-process and compare documents.

    Each client's keys are replayed in its own submission order on one
    runtime, so the columns the in-process run profiles are the ones the
    service profiled for that client; the traced run times the profiling
    statistics, fingerprints and CSG conversions on them.
    """
    for log in logs:
        for error in log.errors:
            checker.expect(False, f"client {log.index}: {error}")
        checker.expect(
            not log.wrong_source,
            f"client {log.index}: store hit/miss not as scheduled: "
            f"{log.wrong_source[:3]}",
        )
        efes = default_efes(runtime=Runtime(backend="serial"))
        known: set = set()
        catalogue_seed, catalogue = None, {}
        for key in log.order:
            name, seed, quality = key
            if seed != catalogue_seed:
                catalogue_seed, catalogue = seed, _case_study(seed, ledger)
                if ledger is not None:
                    started = time.perf_counter()
                    for case in CASE_STUDY:
                        scenario = catalogue[case]
                        for db in (*scenario.sources, scenario.target):
                            fingerprint_database(db)
                    ledger.add(
                        "cache.fingerprint_s", time.perf_counter() - started
                    )
            scenario = catalogue[name]
            outcome = efes.run(scenario, ResultQuality(quality))
            doc = result_document(outcome)
            texts = log.texts.get(key, set())
            checker.expect(
                texts == {canonical(doc)},
                f"{key}: {len(texts)} distinct service documents, not the "
                "in-process one",
            )
            checker.totals_add_up(doc)
            if ledger is None:
                continue
            ledger.add_document(doc, dumps(doc))
            for source in scenario.sources:
                csg_drilldown(ledger, source)
            by_fingerprint = {
                fingerprint_database(db): db
                for db in (*scenario.sources, scenario.target)
            }
            profile_drilldown(
                ledger,
                by_fingerprint,
                column_profiles(efes.runtime.cache, known),
            )
