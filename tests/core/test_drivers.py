"""One PaX2 coordinator, two drivers.

The algorithm lives in :func:`repro.core.pax2.pax2_coordinator`; the sync
engine and the service only schedule its site rounds.  So a query must come
out of both with the same answers and traffic, the same visits per site and
stage, and the same coordinator spans — and the coordinator's degrade rules
can be driven by hand, with no event loop.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.common import ensure_plan
from repro.core.kernel.dispatch import KERNEL, VECTOR
from repro.core.naive import run_naive_centralized
from repro.core.parbox import run_parbox
from repro.core.pax2 import pax2_coordinator, run_pax2
from repro.core.pruning import build_schedule
from repro.core.pax3 import run_pax3
from repro.core.rounds import Coordinator, run_round
from repro.core.vector import numpy_available
from repro.distributed.faults import TransportError
from repro.distributed.network import Network, SiteIndex
from repro.distributed.site import Site
from repro.obs.trace import Tracer
from repro.service.server import ServiceHost
from repro.workloads.queries import CLIENTELE_QUERIES, PAPER_QUERIES
from repro.workloads.scenarios import build_ft2

from tests.conftest import fingerprint

COLUMNAR = (KERNEL, VECTOR) if numpy_available() else (KERNEL,)
QUERIES = list(PAPER_QUERIES.values())
#: the spans only the coordinator opens
COORDINATOR_SPANS = ("unify", "kernel:bindings", "reassembly")


@pytest.fixture(scope="module")
def ft2():
    return build_ft2(total_bytes=40_000, seed=7)


@pytest.fixture()
def visits(monkeypatch):
    """Site visits per (site id, stage key), over every network."""
    counted = Counter()
    visit = Site.visit

    @contextmanager
    def counting_visit(self, stage):
        counted[self.site_id, stage] += 1
        with visit(self, stage) as site:
            yield site

    monkeypatch.setattr(Site, "visit", counting_visit)
    return counted


def coordinator_spans(root) -> Counter:
    return Counter(node.name for node in root.walk() if node.name in COORDINATOR_SPANS)


def traced(run):
    """``run()`` inside one traced request: (its value, the request's root)."""
    tracer = Tracer(check_guarantees=False)
    with tracer.request("run"):
        value = run()
    return value, tracer.finished[-1]


@pytest.mark.parametrize("use_annotations", [False, True])
@pytest.mark.parametrize("engine", COLUMNAR)
def test_sync_and_service_drive_the_same_coordinator(ft2, visits, engine, use_annotations):
    fragmentation, placement = ft2.fragmentation, ft2.placement
    solo = {}
    for query in QUERIES:
        visits.clear()
        stats, root = traced(lambda: run_pax2(
            fragmentation, query, placement, use_annotations, engine=engine
        ))
        solo[query] = (fingerprint(stats), Counter(visits), coordinator_spans(root))
        assert solo[query][2]["unify"] == 1 and solo[query][2]["reassembly"] == 1

    host = ServiceHost(
        engine=engine, use_annotations=use_annotations, cache_capacity=0,
        coalesce=False, tracer=Tracer(check_guarantees=False),
    )
    host.register("doc", fragmentation, placement)
    for query in QUERIES:
        visits.clear()
        stats = host.execute("doc", query).stats
        root = host.tracer.finished[-1]
        assert (fingerprint(stats), Counter(visits), coordinator_spans(root)) == solo[query]


def test_a_warm_service_wave_builds_no_site_index(ft2, monkeypatch):
    host = ServiceHost(cache_capacity=0, coalesce=False)
    host.register("doc", ft2.fragmentation, ft2.placement)

    def wave():
        return [result.stats.answer_ids for result in host.serve_batch("doc", QUERIES)]

    wave()  # prepared queries and encodings built
    built = []
    original = SiteIndex.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(SiteIndex, "__init__", counting)
    answers = wave()
    assert built == []
    assert answers == [
        run_pax2(ft2.fragmentation, q, ft2.placement).answer_ids for q in QUERIES
    ]


# -- the degrade rules, driven by hand ---------------------------------------------


def lost(site_id: str) -> TransportError:
    return TransportError("S0", site_id, "round", site_id, "blackout")


def drive_losing(scenario, plan, stage_key, choose):
    """Drive PaX2 inline, losing the first round of *stage_key* that
    *choose* accepts; returns the stats and the lost round."""
    fragmentation = scenario.fragmentation
    network = Network(fragmentation, scenario.placement)
    schedule = build_schedule(fragmentation, plan, False, network.index)
    coordinator = Coordinator(pax2_coordinator(fragmentation, plan, schedule))
    lost_round = None
    stage = coordinator.advance()
    while stage is not None:
        results = []
        for site_round in stage.rounds:
            if lost_round is None and stage.key == stage_key and choose(site_round):
                lost_round = site_round
                results.append(lost(site_round.site_id))
            else:
                results.append(run_round(network, site_round))
        stage = coordinator.advance(results)
    assert lost_round is not None
    return network.collect_stats(coordinator.stats), lost_round


def nodes_of(fragmentation, fragment_ids):
    return {node_id for fid in fragment_ids for node_id in fragmentation.flat(fid).node_ids}


@pytest.fixture(scope="module")
def two_stage(ft2):
    """A query and its full answer whose run needs the answers stage."""
    for query in QUERIES:
        full = run_pax2(ft2.fragmentation, query, ft2.placement, use_annotations=False)
        if len(full.stages) == 2:
            return ensure_plan(query), full
    pytest.fail("no paper query keeps candidates on this document")


def test_a_site_lost_in_stage_one_leaves_the_certain_answers(ft2, two_stage):
    plan, full = two_stage
    fragmentation = ft2.fragmentation
    stats, gone = drive_losing(
        ft2, plan, "pax2:combined",
        lambda site_round: nodes_of(fragmentation, site_round.fragment_ids) & set(full.answer_ids),
    )
    assert stats.incomplete
    assert stats.missing_sites == [gone.site_id]
    assert stats.missing_fragments == sorted(gone.fragment_ids)
    assert not set(gone.fragment_ids) & set(stats.fragments_evaluated)
    assert set(stats.answer_ids) < set(full.answer_ids)
    # no resolution ran: the partial answer is stage 1's definite answers only
    assert [stage.name for stage in stats.stages] == ["combined"]
    assert stats.stages[0].sites_involved == full.stages[0].sites_involved - 1
    assert stats.sites[gone.site_id].visits == 0


def test_a_site_lost_in_stage_two_loses_only_its_candidates(ft2, two_stage):
    plan, full = two_stage
    fragmentation = ft2.fragmentation
    stats, gone = drive_losing(
        ft2, plan, "pax2:answers",
        lambda site_round: nodes_of(fragmentation, site_round.fragment_ids) & set(full.answer_ids),
    )
    assert stats.incomplete
    assert stats.missing_sites == [gone.site_id]
    assert stats.missing_fragments == sorted(gone.fragment_ids)
    missing = set(full.answer_ids) - set(stats.answer_ids)
    assert missing and set(stats.answer_ids) < set(full.answer_ids)
    assert missing <= nodes_of(fragmentation, gone.fragment_ids)
    assert stats.stages[1].sites_involved == full.stages[1].sites_involved - 1
    assert stats.sites[gone.site_id].visits == 1


# -- every driver times the coordinator the same way -------------------------------


RUNS = {
    "pax2": lambda s, q: run_pax2(s.fragmentation, q, s.placement, use_annotations=False),
    "pax3": lambda s, q: run_pax3(s.fragmentation, q, s.placement, use_annotations=False),
    "parbox": lambda s, q: run_parbox(s.fragmentation, q, s.placement),
    "naive": lambda s, q: run_naive_centralized(s.fragmentation, q, s.placement),
}
#: every stage each run below reaches
STAGES = {
    "pax2": ["combined", "answers"],
    "pax3": ["qualifiers", "selection", "answers"],
    "parbox": ["qualifiers"],
    "naive": ["ship-and-evaluate"],
}


@pytest.mark.parametrize("algorithm", sorted(RUNS))
def test_every_stage_charges_its_coordinator_work(ft2, algorithm):
    query = CLIENTELE_QUERIES["boolean_goog"] if algorithm == "parbox" else QUERIES[2]
    stats = RUNS[algorithm](ft2, query)
    assert [stage.name for stage in stats.stages] == STAGES[algorithm]
    for stage in stats.stages:
        assert stage.coordinator_seconds > 0.0, (algorithm, stage)
    assert stats.parallel_seconds >= sum(stage.coordinator_seconds for stage in stats.stages)


# -- what drivers share ------------------------------------------------------------


def test_the_schedule_labels_the_run(ft2):
    fragmentation, placement = ft2.fragmentation, ft2.placement
    network = Network(fragmentation, placement)
    plan = ensure_plan(QUERIES[2])
    for use_annotations in (False, True):
        schedule = build_schedule(fragmentation, plan, use_annotations, network.index)
        assert schedule.use_annotations is use_annotations
        coordinator = Coordinator(pax2_coordinator(fragmentation, plan, schedule))
        stage = coordinator.advance()
        while stage is not None:
            stage = coordinator.advance([run_round(network, r) for r in stage.rounds])
        assert coordinator.stats.use_annotations is use_annotations
