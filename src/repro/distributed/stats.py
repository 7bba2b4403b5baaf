"""Run statistics: the numbers the paper's figures are made of.

The records are slotted: a service keeps a reply's ``RunStats`` for as
long as anyone holds the reply, so they carry no per-instance ``__dict__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["StageStats", "SiteStats", "RunStats"]


@dataclass(slots=True)
class StageStats:
    """Timing of one stage of an algorithm run.

    ``parallel_seconds`` is the maximum site time (sites work independently
    within a stage), ``total_seconds`` the sum over sites, and
    ``coordinator_seconds`` the time spent in the coordinator-side
    unification (``evalFT``) that follows the stage.
    """

    name: str
    parallel_seconds: float = 0.0
    total_seconds: float = 0.0
    coordinator_seconds: float = 0.0
    sites_involved: int = 0


@dataclass(slots=True)
class SiteStats:
    """Per-site accounting for one run."""

    site_id: str
    fragment_ids: Tuple[str, ...] = ()
    visits: int = 0
    seconds: float = 0.0
    operations: int = 0


@dataclass(slots=True)
class RunStats:
    """Everything measured during one distributed (or baseline) run."""

    algorithm: str
    query: str
    use_annotations: bool = False
    answer_ids: List[int] = field(default_factory=list)
    stages: List[StageStats] = field(default_factory=list)
    sites: Dict[str, SiteStats] = field(default_factory=dict)
    #: network traffic in counted units, excluding local (same-site) messages
    communication_units: int = 0
    #: same-site message units (free in the paper's model, reported for context)
    local_units: int = 0
    message_count: int = 0
    #: fragments actually evaluated (after annotation-based pruning)
    fragments_evaluated: List[str] = field(default_factory=list)
    fragments_pruned: List[str] = field(default_factory=list)
    #: answer payload: how many tree nodes would be shipped when materializing answers
    answer_nodes_shipped: int = 0
    notes: Optional[str] = None
    #: partial-answer marker: some site stayed unreachable past the request's
    #: budget, so the answers are certain over the visited fragments only (a
    #: sound subset of the complete answer) — never cached as complete
    incomplete: bool = False
    #: sites that could not be reached (or resolved) before the run gave up
    missing_sites: List[str] = field(default_factory=list)
    #: fragments whose evaluation the missing sites took with them
    missing_fragments: List[str] = field(default_factory=list)
    #: document version this run was evaluated against (MVCC snapshot reads
    #: pin it at admission; "" outside the service host)
    evaluated_version: str = ""

    # -- derived quantities ----------------------------------------------------

    @property
    def answer_count(self) -> int:
        return len(self.answer_ids)

    @property
    def parallel_seconds(self) -> float:
        """The paper's "evaluation time": sum over stages of the slowest site,
        plus coordinator-side unification."""
        return sum(stage.parallel_seconds + stage.coordinator_seconds for stage in self.stages)

    @property
    def total_seconds(self) -> float:
        """The paper's "total computation time": sum over all sites and the
        coordinator."""
        return sum(stage.total_seconds + stage.coordinator_seconds for stage in self.stages)

    @property
    def max_site_visits(self) -> int:
        """Worst-case number of visits over participating sites."""
        if not self.sites:
            return 0
        return max(site.visits for site in self.sites.values())

    @property
    def total_operations(self) -> int:
        return sum(site.operations for site in self.sites.values())

    def visits_by_site(self) -> Dict[str, int]:
        return {site_id: site.visits for site_id, site in sorted(self.sites.items())}

    # -- presentation ------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of the run (used by the service layer and the
        benchmark emitters; nested stage/site records included)."""
        return {
            "algorithm": self.algorithm,
            "query": self.query,
            "use_annotations": self.use_annotations,
            "answer_count": self.answer_count,
            "answer_nodes_shipped": self.answer_nodes_shipped,
            "parallel_seconds": self.parallel_seconds,
            "total_seconds": self.total_seconds,
            "communication_units": self.communication_units,
            "local_units": self.local_units,
            "message_count": self.message_count,
            "max_site_visits": self.max_site_visits,
            "total_operations": self.total_operations,
            "fragments_evaluated": list(self.fragments_evaluated),
            "fragments_pruned": list(self.fragments_pruned),
            "incomplete": self.incomplete,
            "missing_sites": list(self.missing_sites),
            "missing_fragments": list(self.missing_fragments),
            "stages": [
                {
                    "name": stage.name,
                    "parallel_seconds": stage.parallel_seconds,
                    "total_seconds": stage.total_seconds,
                    "coordinator_seconds": stage.coordinator_seconds,
                    "sites_involved": stage.sites_involved,
                }
                for stage in self.stages
            ],
            "sites": {
                site_id: {
                    "fragment_ids": list(site.fragment_ids),
                    "visits": site.visits,
                    "seconds": site.seconds,
                    "operations": site.operations,
                }
                for site_id, site in sorted(self.sites.items())
            },
        }

    def summary(self) -> str:
        """Readable multi-line summary used by the examples and the harness."""
        lines = [
            f"algorithm        : {self.algorithm}"
            + (" + XPath-annotations" if self.use_annotations else ""),
            f"query            : {self.query}",
            f"answers          : {self.answer_count} nodes"
            f" ({self.answer_nodes_shipped} tree nodes shipped)",
            f"parallel time    : {self.parallel_seconds * 1000:.2f} ms",
            f"total time       : {self.total_seconds * 1000:.2f} ms",
            f"communication    : {self.communication_units} units"
            f" in {self.message_count} messages"
            f" (+{self.local_units} local units)",
            f"max site visits  : {self.max_site_visits}",
        ]
        if self.fragments_pruned:
            lines.append(
                f"pruned fragments : {', '.join(self.fragments_pruned)}"
                f" (evaluated {len(self.fragments_evaluated)})"
            )
        if self.incomplete:
            lines.append(
                f"PARTIAL answer   : sites {', '.join(self.missing_sites) or '?'}"
                f" unreachable ({len(self.missing_fragments)} fragments missing);"
                " answers certain over visited fragments only"
            )
        for stage in self.stages:
            lines.append(
                f"  stage {stage.name:<12} parallel={stage.parallel_seconds * 1000:7.2f} ms"
                f" total={stage.total_seconds * 1000:7.2f} ms"
                f" evalFT={stage.coordinator_seconds * 1000:6.2f} ms"
                f" sites={stage.sites_involved}"
            )
        return "\n".join(lines)
