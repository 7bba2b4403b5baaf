"""The NaiveCentralized baseline (Section 3 of the paper).

Ship every fragment to the query site, reassemble the document, evaluate the
query with the centralized algorithm.  The paper uses this baseline to show
why partial evaluation is needed: its network traffic is the size of the
whole tree rather than the size of the answer, and nothing runs in parallel.
"""

from __future__ import annotations

from typing import Any, Generator, List, Mapping, Optional, Sequence

from repro.core.common import (
    QueryInput,
    answer_subtree_nodes,
    build_network,
    ensure_plan,
    plan_units,
)
from repro.core.rounds import Envelope, SiteRound, Stage, run_inline
from repro.distributed.messages import MessageKind
from repro.distributed.network import Network, SiteIndex
from repro.distributed.site import Site
from repro.distributed.stats import RunStats, StageStats
from repro.fragments.fragment_tree import Fragmentation
from repro.fragments.reassembly import reassemble
from repro.xpath.centralized import evaluate_centralized
from repro.xpath.plan import QueryPlan

__all__ = ["naive_coordinator", "run_naive_centralized"]


def _ship(site: Site, fragment_ids: Sequence[str], node_counts: List[int]) -> List[Envelope]:
    return [(MessageKind.FRAGMENT_SHIPMENT, sum(node_counts), "naive: whole fragments")]


def naive_coordinator(
    fragmentation: Fragmentation, plan: QueryPlan, sites: SiteIndex
) -> Generator[Stage, List[Any], RunStats]:
    """The naive coordinator: one shipping stage, then everything at the
    coordinator — reassembly and the centralized evaluator."""
    stats = RunStats(algorithm="NaiveCentralized", query=plan.source)
    stats.fragments_evaluated = fragmentation.fragment_ids()
    units = plan_units(plan)
    stage = Stage("naive:ship", StageStats(name="ship-and-evaluate"), [
        SiteRound(
            "naive:ship", site_id, fragment_ids,
            [(MessageKind.EXEC_REQUEST, units * len(fragment_ids), "naive: request fragments")],
            lambda site, fid: fragmentation[fid].node_count(),
            _ship,
        )
        for site_id, fragment_ids in sorted(sites.fragments_on.items())
    ])
    yield stage
    stage.stats.sites_involved = len(stage.rounds)
    result = evaluate_centralized(reassemble(fragmentation), plan)
    stats.stages.append(stage.stats)
    # Reassembly preserves the original node ids (not just document order —
    # after in-place mutations ids are no longer a dense pre-order
    # numbering), so results are comparable across algorithms directly.
    stats.answer_ids = sorted(result.answer_ids)
    stats.answer_nodes_shipped = answer_subtree_nodes(fragmentation.tree, stats.answer_ids)
    stats.notes = "all fragments shipped to the coordinator"
    return stats


def run_naive_centralized(
    fragmentation: Fragmentation,
    query: QueryInput,
    placement: Optional[Mapping[str, str]] = None,
    network: Optional[Network] = None,
) -> RunStats:
    """Evaluate *query* by shipping all fragments to the coordinator."""
    plan = ensure_plan(query)
    if network is None:
        network = build_network(fragmentation, placement)
    return run_inline(naive_coordinator(fragmentation, plan, network.index), network)
