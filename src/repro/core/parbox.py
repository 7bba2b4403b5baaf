"""ParBoX: partial evaluation of Boolean XPath queries (Buneman et al. [5]).

A Boolean query returns a single truth value — in the paper's formulation it
is a qualifier evaluated at the document root, written here as ``.[q]``.
ParBoX corresponds exactly to Stage 1 of PaX3: every site performs the
bottom-up qualifier pass over its fragments (one visit per site), ships the
root vectors to the coordinator, and a single bottom-up unification over the
fragment tree yields the answer from the root fragment's root values; the
sites keep nothing per element.

The implementation is provided both because the paper uses it as the
baseline its guarantees are measured against and because PaX3 literally
embeds it as its first stage.
"""

from __future__ import annotations

from typing import Any, Generator, List, Mapping, Optional

from repro.booleans.env import Environment
from repro.core.common import QueryInput, build_network, ensure_plan
from repro.core.kernel.dispatch import FragmentEngine, prewarm_fragments, resolve_engine
from repro.core.pax3 import qualifier_stage, unify_qualifier_stage
from repro.core.qualifiers import FragmentQualifierOutput
from repro.core.rounds import Stage, outputs_by_fragment, run_inline
from repro.core.unify import require_concrete
from repro.distributed.network import Network, SiteIndex
from repro.distributed.stats import RunStats
from repro.fragments.fragment_tree import Fragmentation
from repro.xpath.errors import XPathError
from repro.xpath.plan import SELFQUAL, QueryPlan

__all__ = ["parbox_coordinator", "run_parbox", "as_boolean_query"]


def as_boolean_query(qualifier: str) -> str:
    """Wrap a qualifier expression string into the Boolean query ``.[q]``."""
    stripped = qualifier.strip()
    if stripped.startswith("[") and stripped.endswith("]"):
        return f".{stripped}"
    return f".[{stripped}]"


def parbox_coordinator(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    sites: SiteIndex,
    engine: Optional[FragmentEngine] = None,
) -> Generator[Stage, List[Any], RunStats]:
    """ParBoX's coordinator: one qualifier stage, then one bottom-up
    unification decides the Boolean query at the root."""
    stats = RunStats(algorithm="ParBoX", query=plan.source)
    stats.fragments_evaluated = fragmentation.fragment_ids()
    stage = qualifier_stage(
        fragmentation, plan, sites, resolve_engine(engine), "parbox:qualifiers", "ParBoX",
        lambda output: output.root_vector_units, keep_state=False,
    )
    results = yield stage
    environment = unify_qualifier_stage(fragmentation, plan, stage, results)
    result = _boolean_result_at_root(
        fragmentation, outputs_by_fragment(stage.rounds, results), environment
    )
    stats.stages.append(stage.stats)
    stats.answer_ids = [fragmentation.tree.root.node_id] if result else []
    stats.notes = f"boolean result: {result}"
    return stats


def run_parbox(
    fragmentation: Fragmentation,
    query: QueryInput,
    placement: Optional[Mapping[str, str]] = None,
    network: Optional[Network] = None,
    engine: Optional[str] = None,
) -> RunStats:
    """Evaluate a Boolean query with ParBoX (one visit per site).

    The query must be a Boolean query: its selection part may consist only of
    qualifiers applied at the root (``.[q]``).  The Boolean result is exposed
    as ``stats.answer_ids``, which contains the document root's node id when
    the query is true and is empty otherwise, plus ``stats.notes``.
    ``engine`` names the qualifier pass's tier (see
    :mod:`repro.core.kernel.dispatch`; ``None``: the process default).
    """
    plan = ensure_plan(query)
    if any(step.kind != SELFQUAL for step in plan.selection):
        raise XPathError(
            "ParBoX evaluates Boolean queries only; use PaX3/PaX2 for data-selecting queries"
        )
    engine = resolve_engine(engine)
    if network is None:
        network = build_network(fragmentation, placement)
    prewarm_fragments(fragmentation, engine=engine)
    return run_inline(parbox_coordinator(fragmentation, plan, network.index, engine), network)


def _boolean_result_at_root(
    fragmentation: Fragmentation,
    outputs: Mapping[str, FragmentQualifierOutput],
    environment: Environment,
) -> bool:
    """Resolve the qualifier expression of ``.[q]`` at the document root."""
    values = outputs[fragmentation.root_fragment_id].root_values
    result = True
    for value in values:
        resolved = require_concrete(environment.resolve(value), "Boolean query at the root")
        result = result and resolved
    return bool(result)
