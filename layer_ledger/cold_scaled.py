"""cold_scaled: what ``efes estimate <dir>`` does on a user's own data.

Set-up writes the s1-s2 bibliographic scenario to disk, scaled x16
through the size parameters of ``build_s1`` and ``build_s2`` (8,320
source rows, 26,111 target rows), in a child process, so that the
benchmark process holds only what the estimates load and build, as an
``efes estimate`` process does.  One round is three operations:

* miss: ``load_scenario`` + ``Efes.run(high_quality)`` on a fresh serial
  ``Runtime`` + serialising the reports and estimate;
* two hits: re-estimates of the same loaded data on that runtime, at
  high and at low quality, answered from its warm profile cache.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.core import ResultQuality, default_efes
from repro.runtime import Runtime, fingerprint_database
from repro.scenarios import IntegrationScenario, load_scenario, save_scenario
from repro.scenarios.bibliographic import build_s1, build_s2, scenario_s1_s2
from repro.core.serialize import dumps

from common import (
    SPAN_PARTITION,
    Ledger,
    Result,
    Samples,
    canonical,
    column_profiles,
    csg_drilldown,
    own_peak_rss_mb,
    profile_drilldown,
    quiesce,
    result_document,
)
from checks import Checker

#: The source tree the benchmark imported; set-up runs from it too.
SRC = Path(repro.__file__).resolve().parent.parent
SCALE = 16
HIGH = ResultQuality.HIGH_QUALITY
LOW = ResultQuality.LOW_EFFORT


def write_scenario(seed: int, directory: Path) -> Path:
    base = scenario_s1_s2(seed)
    source = build_s1(seed * 7 + 1, articles=400 * SCALE, books=120 * SCALE)
    target = build_s2(
        seed * 7 + 2, publications=500 * SCALE, persons=180 * SCALE
    )
    scenario = IntegrationScenario(
        f"s1-s2-x{SCALE}", source, target, base.correspondences
    )
    return save_scenario(scenario, directory)


class ColdScaled:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.directory: Path | None = None
        #: Distinct serialised documents per operation kind.
        self.texts: dict[str, set[str]] = {
            "miss": set(), "high": set(), "low": set()
        }
        self.docs: dict[str, dict] = {}

    def setup(self, attempt: int) -> None:
        directory = self.workdir / f"scenario-{attempt}"
        subprocess.run(
            [sys.executable, __file__, str(self.seed), str(directory)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            check=True,
            timeout=120,
        )
        self.directory = directory

    # -- operations ---------------------------------------------------

    @staticmethod
    def _serialise(outcome) -> tuple[dict, str]:
        doc = result_document(outcome)
        return doc, dumps(doc)

    def round(self, samples: Samples | None, ledger: Ledger | None) -> list:
        """One round; returns ``(kind, seconds)`` per operation."""
        traced = ledger is not None
        timings = []
        quiesce()
        started = time.perf_counter()
        scenario = load_scenario(self.directory)
        loaded = time.perf_counter()
        runtime = Runtime(backend="serial")
        efes = default_efes(runtime=runtime)
        outcome = efes.run(scenario, HIGH, trace=traced)
        ran = time.perf_counter()
        doc, text = self._serialise(outcome)
        elapsed = time.perf_counter() - started
        timings.append(("miss", elapsed))
        if traced:
            ledger.add_op(elapsed)
            ledger.add("io.load_s", loaded - started)
            ledger.add(
                "io.rows_loaded",
                sum(
                    len(db.table(r.name))
                    for db in (*scenario.sources, scenario.target)
                    for r in db.schema.relations
                ),
            )
            ledger.add_spans(outcome.trace)
            ledger.add("serialize.s", started + elapsed - ran)
            ledger.add_document(doc, text)
        self._keep("miss", doc)
        for kind, quality in (("high", HIGH), ("low", LOW)):
            quiesce()
            started = time.perf_counter()
            outcome = efes.run(scenario, quality, trace=traced)
            ran = time.perf_counter()
            doc, text = self._serialise(outcome)
            elapsed = time.perf_counter() - started
            timings.append((kind, elapsed))
            if traced:
                ledger.add_op(elapsed)
                ledger.add_spans(outcome.trace)
                ledger.add("serialize.s", started + elapsed - ran)
                ledger.add_document(doc, text)
            self._keep(kind, doc)
        if traced:
            ledger.add("cache.hits", runtime.metrics.cache_hits)
            ledger.add("cache.misses", runtime.metrics.cache_misses)
            self._drilldown(ledger, scenario, runtime, ops=len(timings))
        if samples is not None:
            for kind, seconds in timings:
                if kind == "miss":
                    samples.miss.append(seconds)
                    samples.miss_busy_s += seconds
                else:
                    samples.hit.append(seconds)
                    samples.hit_busy_s += seconds
            samples.attempted += len(timings)
        return timings

    def _keep(self, kind: str, doc: dict) -> None:
        self.texts[kind].add(canonical(doc))
        self.docs[kind] = doc

    def _drilldown(self, ledger: Ledger, scenario, runtime, ops: int) -> None:
        # Fingerprints are memoised per loaded object, so only the miss
        # pays them: time them on a second, freshly loaded copy.
        fresh = load_scenario(self.directory)
        started = time.perf_counter()
        for db in (*fresh.sources, fresh.target):
            fingerprint_database(db)
        ledger.add("cache.fingerprint_s", time.perf_counter() - started)
        # Every operation runs the structure detector, which converts
        # the source into a CSG.
        for _ in range(ops):
            for source in fresh.sources:
                csg_drilldown(ledger, source)
        by_fingerprint = {
            fingerprint_database(db): db
            for db in (*scenario.sources, scenario.target)
        }
        profile_drilldown(
            ledger, by_fingerprint, column_profiles(runtime.cache, set())
        )

    # -- checks -------------------------------------------------------

    def check(self, checker: Checker) -> None:
        for kind, texts in self.texts.items():
            checker.expect(
                len(texts) == 1,
                f"{kind} operations gave {len(texts)} distinct documents",
            )
        checker.expect(
            self.texts["miss"] == self.texts["high"],
            "a warm re-estimate differs from the cold estimate",
        )
        for doc in self.docs.values():
            checker.totals_add_up(doc)
        path = self.directory / "s1" / "articles.csv"
        with open(path, newline="", encoding="utf-8") as handle:
            articles = list(csv.DictReader(handle))
        empty_journal = sum(1 for row in articles if row["journal"] == "")
        bad_years = 0
        for row in articles:
            try:
                int(row["year"])
            except ValueError:
                bad_years += 1
        doc = self.docs["miss"]
        not_null = [
            v["violation_count"]
            for v in doc["reports"]["structure"]["violations"]
            if v["conflict"] == "Not null violated"
            and (v["target_relation"], v["target_attribute"])
            == ("publications", "venue")
        ]
        checker.expect(
            not_null == [empty_journal],
            f"publications.venue not-null violations {not_null}, "
            f"empty articles.journal cells {empty_journal}",
        )
        year = [
            f["parameters"]
            for f in doc["reports"]["values"]["findings"]
            if f["source_attribute"] == "articles.year"
        ]
        checker.expect(
            len(year) == 1
            and year[0].get("incompatible") == bad_years
            and year[0].get("values") == len(articles),
            f"articles.year finding {year}, {bad_years} unparseable of "
            f"{len(articles)} rows",
        )


def measure(
    seed: int, seconds: float, trace: bool, workdir: Path, setups: int
) -> Result:
    """Set up, warm up, then run whole rounds for ``seconds``.

    Untraced rounds feed the end-to-end samples.  With ``trace`` each
    untraced round is followed by the same round traced; the difference
    of their summed operation times is the tracing overhead.  The
    collector runs as deployed during operations; ``gc.collect()`` runs
    between them, outside the timed window.
    """
    workload = ColdScaled(seed, workdir)
    setup_seconds = []
    for attempt in range(setups):
        quiesce()
        started = time.perf_counter()
        workload.setup(attempt)
        setup_seconds.append(time.perf_counter() - started)
    workload.round(None, None)  # warm-up, discarded
    samples = Samples()
    ledger = Ledger(("io.load_s",) + SPAN_PARTITION) if trace else None
    untraced_total = traced_total = 0.0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        timings = workload.round(samples, None)
        untraced_total += sum(t for _, t in timings)
        rounds += 1
        if trace:
            traced = workload.round(None, ledger)
            traced_total += sum(t for _, t in traced)
        if time.perf_counter() >= deadline:
            break
    if trace:
        ledger.add(
            "tracing.overhead_s", traced_total - untraced_total, calls=rounds
        )
    peak_rss_mb = own_peak_rss_mb()
    checker = Checker()
    workload.check(checker)
    return Result(setup_seconds, samples, ledger, peak_rss_mb, checker)


if __name__ == "__main__":
    # Set-up's child process: ``cold_scaled.py <seed> <directory>``.
    write_scenario(int(sys.argv[1]), Path(sys.argv[2]))
