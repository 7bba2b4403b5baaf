"""Tracing live service traffic: spans, attribution, guarantees, exports.

This example attaches a :class:`repro.obs.Tracer` to a
:class:`repro.service.ServiceEngine` over the XMark FT2 scenario, serves a
concurrent query wave followed by a mixed read/write stream (so both the
query path and the update path — writer lock wait, fragment apply, version roll,
cache retirement — leave spans), and then uses the finished span trees to
answer the questions aggregates cannot: where did one request spend its
time (admission queue, batching window, kernel scan, simulated wire,
reassembly), did any site exceed the paper's per-site visit bound
(PaX2 ≤ 2), and what does the whole workload look like as a flame chart.

It writes three artifacts next to the repository root:

``trace_spans.jsonl``
    One JSON line per request — the nested span tree, grep-able.
``trace_chrome.json``
    Chrome trace events; load the file at https://ui.perfetto.dev to see
    the requests as nested flame slices.
``trace_slow.jsonl``
    Requests at or above the slow threshold, with full RunStats dumps.

Run it with::

    python examples/service_tracing.py [requests] [concurrency]

The standing benchmark is ``python3 perf/run.py --trace 1`` (its
``obs.traced_qps_ratio`` prices tracing on against off); attribution and
guarantee-checker coverage on live traffic are
``tests/obs/test_service_tracing.py``.
"""

from __future__ import annotations

import sys

from repro.obs import ChromeTraceExporter, JsonLinesExporter, SlowQueryLog, Tracer
from repro.service.server import ServiceEngine
from repro.updates import MixedWorkload
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.scenarios import build_ft2


def main() -> None:
    requests = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    concurrency = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    scenario = build_ft2(total_bytes=80_000, seed=11)
    tracer = Tracer(
        exporters=[
            JsonLinesExporter("trace_spans.jsonl"),
            ChromeTraceExporter("trace_chrome.json"),
            SlowQueryLog("trace_slow.jsonl", threshold_seconds=0.05),
        ],
        check_guarantees=True,
    )
    service = ServiceEngine(
        scenario.fragmentation,
        placement=scenario.placement,
        tracer=tracer,
        max_in_flight=concurrency,
    )
    print(f"scenario: {scenario.description}")

    queries = [
        list(PAPER_QUERIES.values())[index % len(PAPER_QUERIES)]
        for index in range(requests)
    ]
    service.serve_batch(queries, concurrency=concurrency)

    # A mixed read/write tail: every write traces the update path too
    # (writer lock wait, fragment apply, version roll, cache retirement).
    workload = MixedWorkload(
        scenario.fragmentation,
        list(PAPER_QUERIES.values()),
        write_ratio=0.25,
        seed=42,
    )
    for _ in range(requests // 2):
        op = workload.next_op()
        if op.is_write:
            service.update(op.mutation)
        else:
            service.execute(op.query)
    tracer.close()

    print(service.host.summary())

    by_kind = {}
    for root in tracer.finished:
        by_kind[root.kind] = by_kind.get(root.kind, 0) + 1
    print(
        f"\ntraced {tracer.requests_traced} root span(s): "
        + ", ".join(f"{count} {kind}" for kind, count in sorted(by_kind.items()))
    )

    # -- where did the slowest request spend its time? ----------------------
    slowest = max(tracer.finished, key=lambda root: root.duration)
    print(f"\nslowest request: {slowest.attributes.get('query', slowest.name)!r}")
    print(f"  wall clock     : {slowest.duration * 1000:.2f} ms")
    for stage, seconds in sorted(
        slowest.breakdown().items(), key=lambda item: -item[1]
    ):
        share = seconds / slowest.duration * 100.0
        print(f"  {stage:<12s} : {seconds * 1000:7.2f} ms  ({share:4.1f}%)")
    # breakdown() reconciles to wall clock by construction (uncovered
    # instants are charged to the synthetic "dispatch" stage), so the
    # shares above account for the whole request.

    # -- the paper's guarantee, verified on every evaluated request ---------
    checker = tracer.guarantees
    print(
        f"\nguarantees: {checker.checked} evaluation(s) checked against the"
        f" PaX2 visit bound, {checker.violation_count} violation(s)"
    )
    visits = [
        root.attributes["max_site_visits"]
        for root in tracer.finished
        if "max_site_visits" in root.attributes
    ]
    if visits:
        print(f"  worst per-site visits observed: {max(visits)} (bound: 2)")

    # -- per-stage latency distribution over the whole workload ------------
    print("\nper-stage attributed seconds across the workload:")
    for key, histogram in sorted(tracer.histograms.items()):
        if key.startswith("stage:"):
            print(
                f"  {key.split(':', 1)[1]:<12s}:"
                f" {histogram.count:4d} samples,"
                f" mean {histogram.mean * 1000:6.2f} ms,"
                f" p95 <= {histogram.quantile(0.95) * 1000:.1f} ms"
            )

    print(
        "\nwrote trace_spans.jsonl, trace_chrome.json (open at"
        " https://ui.perfetto.dev) and trace_slow.jsonl"
    )


if __name__ == "__main__":
    main()
