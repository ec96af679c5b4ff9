"""Shared pieces of the layer ledger: percentiles, memory, the per-layer
accumulator and the span-to-layer mapping.

Every number here is taken from outside the program: wall-clock time
around calls into public functions, spans the program already records
(``Efes.run(trace=True)``, ``GET /trace/<id>``) and ``RuntimeMetrics``
counters.  Nothing under ``src/`` is changed or patched.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

from repro.core.serialize import estimate_to_dict, reports_to_dict
from repro.profiling.profiler import statistic_types_for
from repro.profiling.statistics import Constancy, FillStatus
from repro.relational.datatypes import DataType

#: Statistic classes a column profile computes: every class that
#: ``statistic_types_for`` hands out, plus the two every profile carries.
STATISTIC_CLASSES = tuple(
    dict.fromkeys(
        (FillStatus, Constancy)
        + statistic_types_for(DataType.STRING)
        + statistic_types_for(DataType.INTEGER)
    )
)

#: Every per-layer metric with its unit, in ledger order.  Times and
#: counts are per operation of the traced run; a layer a workload does
#: not pass through reads 0 with 0 calls.
LAYER_UNITS = {
    "io.load_s": "s/op",
    "io.rows_loaded": "rows/op",
    "cache.fingerprint_s": "s/op",
    "cache.hits": "count/op",
    "cache.misses": "count/op",
    "cache.hit_ratio": "ratio",
    "profiling.profile_s": "s/op",
    "profiling.values": "values/op",
    "profiling.columns": "columns/op",
    **{
        f"profiling.{cls.__name__}_s": "s/op" for cls in STATISTIC_CLASSES
    },
    "csg.convert_s": "s/op",
    "csg.tuples": "count/op",
    "csg.links": "count/op",
    "core.detector.structure_s": "s/op",
    "core.detector.values_s": "s/op",
    "core.detector.mapping_s": "s/op",
    "core.framework_s": "s/op",
    "core.plan_s": "s/op",
    "core.price_s": "s/op",
    "core.tasks": "count/op",
    "serialize.s": "s/op",
    "serialize.bytes": "B/op",
    "service.resolve_s": "s/op",
    "service.queue_wait_s": "s/op",
    "service.run_s": "s/op",
    "service.store_s": "s/op",
    "service.store_hits": "count/op",
    "service.store_misses": "count/op",
    "service.client_overhead_s": "s/op",
    "journal.records": "count/op",
    "journal.bytes": "B/op",
    "tracing.overhead_s": "s/op",
}

#: The layers whose self times, taken from spans, partition one
#: ``Efes.run`` or one service job.  The remaining time metrics
#: (fingerprint, CSG conversion, per-statistic timings, tracing
#: overhead) drill into or overlap these and are not added again.
SPAN_PARTITION = (
    "profiling.profile_s",
    "core.detector.structure_s",
    "core.detector.values_s",
    "core.detector.mapping_s",
    "core.framework_s",
    "core.plan_s",
    "core.price_s",
    "serialize.s",
)


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[-1]


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set of another process, from its ``VmHWM``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def quiesce() -> None:
    """Collect garbage between operations, outside any timed window."""
    gc.collect()


def result_document(outcome) -> dict:
    """The reports and estimate of one ``Efes.run``, as the service
    stores them."""
    return {
        "kind": "estimate",
        "scenario": outcome.scenario_name,
        "quality": outcome.quality.value,
        "reports": reports_to_dict(outcome.reports),
        "estimate": estimate_to_dict(outcome.estimate),
    }


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


@dataclasses.dataclass
class Samples:
    """Latencies of one run's timed window, by kind of operation."""

    miss: list[float] = dataclasses.field(default_factory=list)
    hit: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Time during which operations of each kind were in flight.
    miss_busy_s: float = 0.0
    hit_busy_s: float = 0.0


@dataclasses.dataclass
class Result:
    """Everything one run measured and checked."""

    setup_seconds: list[float]
    samples: Samples
    ledger: "Ledger | None"
    peak_rss_mb: float
    checker: object


class Ledger:
    """Per-layer totals over a traced run, with the calls behind each."""

    def __init__(
        self, partition: tuple[str, ...], base: str | None = None
    ) -> None:
        #: Layers whose summed self times must make up ``base`` (a
        #: layer metric), or the summed operation time if it is None.
        self.partition = partition
        self.base = base
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Operations the totals are spread over, and their summed time.
        self.ops = 0
        self.op_seconds = 0.0

    def add(self, name: str, value: float, calls: int = 1) -> None:
        if name not in LAYER_UNITS:
            raise KeyError(f"unknown layer metric {name!r}")
        self.totals[name] += value
        self.calls[name] += calls

    def add_op(self, seconds: float) -> None:
        self.ops += 1
        self.op_seconds += seconds

    def add_spans(self, root) -> None:
        """Attribute a span tree's time to layers.

        Detector and profile spans count their self time; ``plan`` and
        ``price`` count their whole duration (planner spans sit inside
        ``plan``); the run, assess, estimate and service-job spans'
        self time is the framework's own share.
        """
        for span in root.walk():
            name = span.name
            if name == "profile":
                self.add("profiling.profile_s", span.self_seconds)
            elif name.startswith("detector:"):
                self.add(
                    f"core.detector.{name.split(':', 1)[1]}_s",
                    span.self_seconds,
                )
            elif name == "plan":
                self.add("core.plan_s", span.total_seconds)
            elif name == "price":
                self.add("core.price_s", span.total_seconds)
            elif name == "serialize":
                self.add("serialize.s", span.total_seconds)
            elif name.startswith("planner:"):
                continue
            else:
                self.add("core.framework_s", span.self_seconds)

    def add_document(self, doc: dict, text: str) -> None:
        self.add("core.tasks", len(doc["estimate"]["entries"]))
        self.add("serialize.bytes", len(text.encode("utf-8")))

    def metrics(self) -> dict[str, dict]:
        ops = max(self.ops, 1)
        out = {}
        for name, unit in LAYER_UNITS.items():
            if name == "cache.hit_ratio":
                hits = self.totals["cache.hits"]
                lookups = hits + self.totals["cache.misses"]
                value = hits / lookups if lookups else 0.0
            else:
                value = self.totals[name] / ops
            out[name] = {"value": value, "unit": unit}
        return out

    def coverage(self) -> float:
        """Summed partition self times over the time they must make up."""
        covered = sum(self.totals[name] for name in self.partition)
        base = self.totals[self.base] if self.base else self.op_seconds
        return covered / base if base else 0.0

    def table(self) -> list[str]:
        lines = [f"{'layer metric':34s} {'per op':>14s} {'unit':10s} calls"]
        for name, doc in self.metrics().items():
            lines.append(
                f"{name:34s} {doc['value']:14.6g} {doc['unit']:10s} "
                f"{self.calls[name]}"
            )
        lines.append(
            f"traced operations: {self.ops}, mean traced op time "
            f"{self.op_seconds / max(self.ops, 1):.6f}s, partition "
            f"coverage {self.coverage():.3f} of "
            f"{self.base or 'the traced operation time'}"
        )
        return lines


def profile_drilldown(ledger: Ledger, database_by_fingerprint, profiles) -> None:
    """Time every statistic class on every column a run profiled.

    ``profiles`` are ``(fingerprint, ColumnProfile)`` pairs taken from a
    runtime's profile cache after the run; the values are read from the
    database the fingerprint names, and each class's ``compute`` is
    timed on them exactly as ``compute_column_profile`` calls it.
    """
    for fingerprint, profile in profiles:
        database = database_by_fingerprint[fingerprint]
        values = database.table(profile.relation).column(profile.attribute)
        ledger.add("profiling.columns", 1)
        ledger.add("profiling.values", len(values))
        for cls in (Constancy,) + statistic_types_for(profile.datatype):
            started = time.perf_counter()
            cls.compute(values)
            ledger.add(
                f"profiling.{cls.__name__}_s", time.perf_counter() - started
            )
        started = time.perf_counter()
        FillStatus.compute(values, profile.datatype)
        ledger.add("profiling.FillStatus_s", time.perf_counter() - started)


def column_profiles(cache, known: set) -> list:
    """New ``(fingerprint, ColumnProfile)`` entries of a profile cache."""
    found = []
    for key, value in cache.entries():
        if key[1] == "profile_column" and key not in known:
            known.add(key)
            found.append((key[0], value))
    return found


def csg_drilldown(ledger: Ledger, database) -> None:
    """Time ``database_to_csg`` on one source and count what it built."""
    from repro.csg.convert import database_to_csg

    started = time.perf_counter()
    graph, instance = database_to_csg(database)
    ledger.add("csg.convert_s", time.perf_counter() - started)
    ledger.add(
        "csg.tuples",
        sum(len(database.table(r.name)) for r in database.schema.relations),
    )
    # Each link is stored on a relationship and mirrored on its inverse;
    # count it once.
    ledger.add(
        "csg.links",
        sum(len(instance.links(r)) for r in graph.relationships) // 2,
    )
