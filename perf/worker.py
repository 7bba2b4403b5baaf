"""One workload, measured in this (fresh) process.  Started by ``run.py``.

Phases: generate the document (benchmark input) -> set up several times from
the XML text -> warm up -> ten timed rounds with a verified barrier after
each -> with ``--trace 1`` one traced round and the per-layer probes.  The
result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import oracle
import probes
from loadgen import Checker, RoundLog, percentile, run_round
from spans import Recorder
from workloads import WORKLOADS, Served, Spec, blocks, generate, make_pool, mutation_source, set_up

ROUNDS = 10
ORACLE_SAMPLE = 5
#: queries the one-caller round and the re-enactment serve
PROBE_QUERIES = 100
#: the result cache's default capacity
WARM_QUERIES = 256
#: queries served again at each barrier of a workload that writes
RECHECK_QUERIES = 16
Metrics = Dict[str, Optional[float]]
#: every per-layer metric and its unit: the timed rounds' own, then the probes'
PER_LAYER_UNITS: Dict[str, str] = {
    "updates.write_ms_p50": "ms",
    "distributed.max_site_visits": "count",
    "distributed.messages_per_query": "count",
    "distributed.local_units_per_query": "units",
    "distributed.sites_visited_per_query": "count",
    **probes.SERVICE_METRICS,
    **probes.OBS_METRICS,
    "obs.traced_qps_ratio": "ratio",
    "service.qps_1caller": "1/s",
    "service.vs_sync_ratio": "ratio",
    **probes.REENACT_METRICS,
    **probes.SETUP_METRICS,
    **probes.BOOLEANS_METRICS,
}


def oracle_cross_check(served: Served, queries, rng: random.Random) -> None:
    """The oracle against ``evaluate_centralized`` on a seeded sample."""
    from repro import evaluate_centralized

    distinct = sorted(set(queries), key=lambda q: q.text)
    # the centralized evaluator takes 1.6 s per query on the 5MB document
    count = ORACLE_SAMPLE if served.tree.size() < 100_000 else 1
    sample = rng.sample(distinct, min(count, len(distinct)))
    expected = oracle.answers(oracle.Doc(served.tree.root), sample)
    for query in sample:
        if evaluate_centralized(served.tree, query.text).answer_ids != expected[query]:
            raise AssertionError(f"oracle disagrees with evaluate_centralized on {query.text}")


class Totals:
    """What the timed rounds add up to."""

    def __init__(self) -> None:
        self.reads = 0
        self.write_ms: List[float] = []
        #: per timed round, so that a result shows how quiet its rounds were
        self.rounds: Dict[str, List[float]] = {
            "qps": [], "query_ms_p50": [], "query_ms_p95": [], "seconds": [],
        }
        #: reads whose answer was computed for them (not a cache hit, not coalesced)
        self.evaluated = 0
        self.sums: Dict[str, float] = dict.fromkeys(
            ("traffic", "site_ops", "messages", "local_units", "sites_visited"), 0.0
        )

    def add_round(self, log: RoundLog, evaluated, failed_in_round: int) -> None:
        operations = len(log.reads) + len(log.writes)
        read_ms = sorted(log.latency(read) * 1e3 for read in log.reads)
        self.rounds["qps"].append((operations - failed_in_round) / log.busy_wall)
        self.rounds["query_ms_p50"].append(percentile(read_ms, 0.50))
        self.rounds["query_ms_p95"].append(percentile(read_ms, 0.95))
        self.rounds["seconds"].append(log.busy_wall)
        self.reads += len(read_ms)
        self.write_ms.extend(log.latency(write) * 1e3 for write in log.writes)
        self.evaluated += len(evaluated)
        for read in evaluated:
            stats = read.stats
            self.sums["traffic"] += stats.communication_units
            self.sums["site_ops"] += stats.total_operations
            self.sums["messages"] += stats.message_count
            self.sums["local_units"] += stats.local_units
            self.sums["sites_visited"] += sum(1 for site in stats.sites.values() if site.visits)

    def per_query(self, key: str) -> float:
        return self.sums[key] / self.evaluated


class ServiceCounters:
    """The host's own counters, summed over the timed rounds only."""

    def __init__(self, served: Served, unavailable: List[dict]):
        self.served = served
        self.unavailable = unavailable
        self.delta: Dict[str, float] = {}
        self._before: Dict[str, float] = {}

    def _read(self) -> Dict[str, float]:
        if self.served.host is None:
            return {}
        try:
            return probes.service_counters(self.served)
        except probes.Unavailable as error:
            if not self.unavailable:
                self.unavailable.append({"probe": "service_counters", "missing": str(error),
                                         "metrics": list(probes.SERVICE_METRICS)})
            return {}

    def round_begins(self) -> None:
        self._before = self._read()

    def round_ended(self) -> None:
        for key, value in self._read().items():
            self.delta[key] = self.delta.get(key, 0.0) + value - self._before.get(key, 0.0)


async def barrier_recheck(served: Served, checker: Checker, queries) -> None:
    """Serve *queries* on the quiescent system (cache on) and check each reply."""
    replies = {}
    for query in queries:
        replies[query] = (await served.read(query.text)).stats.answer_ids
    checker.recheck(replies)


async def warm_up(served: Served, pool, stream, checker: Checker) -> RoundLog:
    """The recurring queries once, least popular first, from one caller: plan
    caches are filled and the result cache holds what a long-running host would
    (no more queries than the cache has entries; the tail stays cold).
    A stream of never-seen queries warms up with one block of its own."""
    warm = iter([list(reversed(pool[:WARM_QUERIES]))]) if pool else stream
    log = await run_round(served, warm, 0.0, callers=1, version=checker.version)
    checker.check(log)
    return log


async def measure(args: argparse.Namespace) -> dict:
    spec: Spec = WORKLOADS[args.workload].scaled(args.scale)
    clock = time.perf_counter
    started = clock()
    xml_text = generate(spec, args.seed)
    generate_s = clock() - started

    setup_s: List[float] = []
    served: Optional[Served] = None
    for _ in range(spec.setups):
        served = None
        gc.collect()
        started = clock()
        served = await set_up(spec, xml_text)
        setup_s.append(clock() - started)

    rng = random.Random(args.seed * 1_000_003 + 17)
    pool = make_pool(spec.pool_size, rng)
    stream = blocks(spec, pool, rng)
    mutations = mutation_source(served.fragmentation, args.seed) if spec.write_ratio else None
    checker = Checker(served, xml_text)
    phase_started = clock()
    log = await warm_up(served, pool, stream, checker)
    oracle_cross_check(served, [read.query for read in log.reads], rng)
    warm_up_s = clock() - phase_started

    totals = Totals()
    unavailable: List[dict] = []
    counters = ServiceCounters(served, unavailable)
    for index in range(ROUNDS):
        gc.collect()
        counters.round_begins()
        log = await run_round(
            served, stream, args.seconds / ROUNDS, spec.callers, checker.version, mutations
        )
        counters.round_ended()
        if index == 0 and args.inject_wrong_answer:
            log.reads[0].answer_ids = [-1]
        failed_before = checker.failed
        evaluated = checker.check(log)
        totals.add_round(log, evaluated, checker.failed - failed_before)
        if spec.write_ratio:
            # the popular queries, whose cached answers outlive a round, are
            # served again on the quiescent system: a stale entry is a failure
            await barrier_recheck(served, checker, list(reversed(pool[:RECHECK_QUERIES])))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds_s = clock() - phase_started - warm_up_s

    # Each timing is the value of the round in which it was best.  On a shared
    # machine other tenants only ever add time, in phases of seconds to tens
    # of seconds that slow everything by up to 1.7x; the quietest round is the
    # one estimate such a phase does not reach unless it lasts the whole run.
    end_to_end = {
        "qps": (max(totals.rounds["qps"]), "1/s"),
        "query_ms_p50": (min(totals.rounds["query_ms_p50"]), "ms"),
        "query_ms_p95": (min(totals.rounds["query_ms_p95"]), "ms"),
        "traffic_units_per_query": (totals.per_query("traffic"), "units"),
        "site_ops_per_query": (totals.per_query("site_ops"), "ops"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per_layer: Metrics = dict.fromkeys(PER_LAYER_UNITS)
    per_layer.update({
        "updates.write_ms_p50": statistics.median(totals.write_ms) if totals.write_ms else None,
        "distributed.max_site_visits": float(checker.max_site_visits),
        "distributed.messages_per_query": totals.per_query("messages"),
        "distributed.local_units_per_query": totals.per_query("local_units"),
        "distributed.sites_visited_per_query": totals.per_query("sites_visited"),
    })
    recorder = Recorder(spec.name)
    if args.trace:
        per_layer.update(await traced_part(
            args, served, xml_text, pool, stream, mutations, checker, counters,
            max(totals.rounds["qps"]), recorder,
        ))
        if args.trace_file:
            recorder.dump(Path(args.trace_file))
    return {
        "workload": spec.name,
        "why": spec.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "end_to_end": {
            name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()
        },
        # null: no measurement (not applicable here, not a traced run, or the
        # probe's symbol is gone — see probes_unavailable)
        "per_layer": {
            name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()
        },
        "probes_unavailable": unavailable,
        # the traced part by layer: span time not covered by child spans
        "trace_self_seconds": recorder.self_seconds(),
        "rounds": {**totals.rounds, "setup_s": setup_s},
        "samples": {
            "reads": totals.reads, "writes": len(totals.write_ms),
            "evaluated_reads": totals.evaluated,
        },
        # what the benchmark itself cost: input generation, warm-up, and the ten
        # rounds with their barriers (load, oracle checks, re-served queries)
        "bench": {
            "generate_s": generate_s, "doc_bytes": len(xml_text.encode("utf-8")),
            "warm_up_s": warm_up_s, "rounds_with_barriers_s": rounds_s,
        },
    }


async def traced_part(
    args, served: Served, xml_text: str, pool, stream, mutations, checker: Checker,
    counters: ServiceCounters, timed_qps: float, recorder: Recorder,
) -> Metrics:
    """The traced round and the probes; nothing here feeds an end-to-end metric."""
    spec = served.spec
    unavailable = counters.unavailable
    sample = list(pool[:PROBE_QUERIES]) if pool else next(stream)
    metrics: Metrics = {}

    if spec.service:
        metrics.update(probes.run_probe(
            probes.service_ledger, probes.SERVICE_METRICS, unavailable, served, counters.delta))
        try:
            tracer = probes.make_tracer()
        except probes.Unavailable as error:
            unavailable.append({"probe": "obs_ledger", "missing": str(error),
                                "metrics": list(probes.OBS_METRICS)})
        else:
            # The traced round: the same stream through a host built with the
            # repo's tracer switched on.
            served = served.with_tracer(tracer)
            await warm_up(served, pool, stream, checker)
            tracer.finished.clear()
            log = await run_round(
                served, stream, args.seconds / ROUNDS, spec.callers, checker.version, mutations
            )
            failed_before = checker.failed
            checker.check(log)
            correct = len(log.reads) + len(log.writes) - (checker.failed - failed_before)
            metrics["obs.traced_qps_ratio"] = correct / log.busy_wall / timed_qps
            metrics.update(probes.run_probe(
                probes.obs_ledger, probes.OBS_METRICS, unavailable, tracer, recorder))
        # one caller through the service; the sync engine serves the same
        # queries inside the re-enactment below
        log = await run_round(served, iter([sample]), 0.0, callers=1, version=checker.version)
        checker.check(log)
        metrics["service.qps_1caller"] = len(log.reads) / log.busy_wall

    first_span = len(recorder.spans)
    metrics.update(probes.run_probe(
        probes.reenact, probes.REENACT_METRICS, unavailable, served, sample, recorder))
    sync_ms = metrics["core.sync_query_ms"]
    if sync_ms is not None:
        if spec.service:
            metrics["service.vs_sync_ratio"] = metrics["service.qps_1caller"] * sync_ms / 1e3
        else:  # for the sync engine the re-enactment is the traced round
            traced_s = sum(
                s["end"] - s["start"] for s in recorder.spans[first_span:] if s["name"] == "request"
            )
            metrics["obs.traced_qps_ratio"] = len(sample) / traced_s / timed_qps
    metrics.update(probes.run_probe(
        probes.setup_ledger, probes.SETUP_METRICS, unavailable, spec, xml_text, args.seed, recorder))
    metrics.update(probes.run_probe(
        probes.booleans_algebra, probes.BOOLEANS_METRICS, unavailable, args.seed))
    return metrics


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file", default="")
    parser.add_argument("--inject-wrong-answer", action="store_true")
    args = parser.parse_args(argv)
    result = asyncio.run(measure(args))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
