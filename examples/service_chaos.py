"""Fault injection, retries, breakers and graceful partial answers.

Through PR 6 the service assumed a perfect wire.  This example turns the
failure model on: a seeded :class:`repro.distributed.FaultInjector` drops,
delays and duplicates messages between the simulated sites, takes one site
through recurring blackout windows, and the host's resilience layer
(:class:`repro.service.ResiliencePolicy`) answers with bounded retries,
per-site circuit breakers and per-request deadline budgets.

Three acts:

1. **A flaky site** — 40% of the messages through one site are dropped.
   Bounded retries absorb most of it; the accounting stays exactly-once
   (a retried round never double-counts traffic).
2. **A dead site** — every message through the site is lost.  After the
   retry budget the breaker trips and queries *degrade*: they return a
   :class:`repro.service.PartialAnswer` — a sound subset over the
   reachable fragments, with the missing sites listed — instead of
   failing.  Partial answers are never cached.
3. **Recovery** — the fault clears, the breaker's half-open probe
   succeeds, and the same query is complete again.

Run it with::

    python examples/service_chaos.py

``tests/service/test_resilience.py::TestChaosSchedule`` replays a mixed
multi-tenant workload under the standing fault schedule and verifies every
answer, complete or degraded, differentially against solo engines.
"""

from __future__ import annotations

from repro.distributed import FaultInjector, FaultPolicy, SiteFaultProfile
from repro.service import ResiliencePolicy, RetryPolicy, ServiceEngine
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation

QUERY = "//name"


def build_engine(injector: FaultInjector) -> ServiceEngine:
    fragmentation = clientele_paper_fragmentation(clientele_example_tree())
    return ServiceEngine(
        fragmentation,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.001),
            breaker_failure_threshold=3,
            breaker_reset_seconds=0.02,
        ),
        fault_injector=injector,
    )


def main() -> None:
    # -- act 1: a flaky site — retries absorb a 40% drop rate ---------------
    flaky = FaultInjector(
        FaultPolicy(sites={"S2": SiteFaultProfile(drop_probability=0.4)}, seed=5)
    )
    engine = build_engine(flaky)
    baseline = ServiceEngine(
        clientele_paper_fragmentation(clientele_example_tree())
    ).execute(QUERY)
    result = engine.execute(QUERY)
    stats = engine.host.resilience.stats
    print("act 1: flaky site (40% drops on S2)")
    print(f"  answers   : {len(result.answer_ids)}"
          f" (complete: {result.answer_ids == baseline.answer_ids})")
    print(f"  retries   : {stats.retries} (per site: {stats.retries_by_site})")
    print(f"  traffic   : {result.stats.communication_units} units,"
          f" {result.stats.message_count} messages — identical to fault-free"
          f" ({baseline.stats.communication_units} units,"
          f" {baseline.stats.message_count} messages)")
    print()

    # -- act 2: a dead site — the query degrades to a flagged subset --------
    dead = FaultInjector(
        FaultPolicy(sites={"S1": SiteFaultProfile(drop_probability=1.0)}, seed=7)
    )
    engine = build_engine(dead)
    partial = engine.execute(QUERY)
    print("act 2: dead site (100% drops on S1)")
    print(f"  partial   : {partial.is_partial}"
          f" — {len(partial.answer_ids)} of {len(baseline.answer_ids)} answers")
    print(f"  missing   : sites {partial.missing_sites},"
          f" fragments {partial.missing_fragments}")
    print(f"  sound     : {set(partial.answer_ids) <= set(baseline.answer_ids)}"
          f" (every returned node is in the complete answer)")
    print(f"  cached    : {len(engine.host.cache)} entries"
          " (partial answers never enter the cache)")
    print()

    # -- act 3: the fault clears — the breaker probes and re-closes ---------
    dead.enabled = False
    import time

    time.sleep(0.03)  # past breaker_reset_seconds: the probe is let through
    recovered = engine.execute(QUERY)
    breaker = engine.host.resilience.breaker("S1")
    print("act 3: recovery")
    print(f"  answers   : {len(recovered.answer_ids)}"
          f" (complete: {recovered.answer_ids == baseline.answer_ids})")
    print(f"  breaker   : {breaker.state}"
          f" after {engine.host.resilience.stats.breaker_trips} trip(s)"
          f" and {engine.host.resilience.stats.breaker_probes} probe(s)")
    print()
    print(engine.host.summary())


if __name__ == "__main__":
    main()
