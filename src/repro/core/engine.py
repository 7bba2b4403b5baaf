"""The public, user-facing query engine.

:class:`DistributedQueryEngine` ties everything together: it owns a
fragmentation (and hence the original tree), a placement of fragments onto
sites, and a default algorithm, and exposes ``execute()`` for queries plus a
few introspection helpers.

Example
-------
::

    from repro import DistributedQueryEngine, parse_xml, cut_by_size

    tree = parse_xml(open("catalog.xml").read())
    fragmentation = cut_by_size(tree, max_elements=5000)
    engine = DistributedQueryEngine(fragmentation, use_annotations=True)
    result = engine.execute("//item[price < 30]/name")
    for name in result.texts():
        print(name)
    print(result.summary())

The engine evaluates one query at a time through the synchronous simulated
network, with any of the four algorithms and three engines.  For many
concurrent PaX2 queries over the same fragmentation — with per-site
concurrency limits, admission control, result caching on the normalized
query and latency/throughput metrics — use :meth:`as_service` (or
:class:`repro.service.ServiceEngine` directly)::

    service = engine.as_service(max_in_flight=32)
    results = service.serve_batch(["//item/name"] * 100, concurrency=32)
    print(service.host.metrics.summary())
    print(service.host.cache.stats.summary())
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.core.batch import run_pax2_batch
from repro.core.common import QueryInput, ensure_plan
from repro.core.kernel.dispatch import ENGINES
from repro.core.naive import run_naive_centralized
from repro.core.parbox import run_parbox
from repro.core.pax2 import run_pax2
from repro.core.pax3 import run_pax3
from repro.core.pruning import relevant_fragments
from repro.core.results import QueryResult
from repro.distributed.network import Network, SiteIndex
from repro.distributed.placement import one_site_per_fragment
from repro.distributed.stats import RunStats
from repro.fragments.fragment_tree import Fragmentation
from repro.xpath.centralized import evaluate_centralized

__all__ = ["DistributedQueryEngine", "ALGORITHMS"]

#: algorithm name -> runner
ALGORITHMS = {
    "pax3": run_pax3,
    "pax2": run_pax2,
    "parbox": run_parbox,
    "naive": run_naive_centralized,
}

#: algorithms whose runners take no ``use_annotations`` parameter
_NO_ANNOTATION_ALGORITHMS = frozenset({"naive", "parbox"})

#: algorithms whose runners take no ``engine`` parameter (no per-fragment pass)
_NO_ENGINE_ALGORITHMS = frozenset({"naive"})


class DistributedQueryEngine:
    """Evaluate XPath queries over a fragmented, distributed XML tree.

    Parameters
    ----------
    fragmentation:
        The fragmented document (see :mod:`repro.fragments`).
    placement:
        Mapping ``fragment_id -> site_id``; defaults to one site per
        fragment, with the root fragment's site acting as the coordinator.
    algorithm:
        ``"pax2"`` (default, the paper's best algorithm), ``"pax3"``,
        ``"naive"``, or ``"parbox"`` (Boolean queries only).
    use_annotations:
        Enable the XPath-annotation optimization (fragment pruning and, for
        qualifier-free queries, concrete stack initialization).
    engine:
        Per-fragment pass implementation: ``"kernel"`` (columnar arrays,
        the default path) or ``"reference"`` (object-tree traversal);
        ``None`` defers to the process default
        (:func:`repro.core.kernel.dispatch.fragment_engine`).
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        placement: Optional[Mapping[str, str]] = None,
        algorithm: str = "pax2",
        use_annotations: bool = True,
        engine: Optional[str] = None,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}")
        if engine is not None and engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        self.fragmentation = fragmentation
        self.placement = dict(placement) if placement else one_site_per_fragment(fragmentation)
        self.algorithm = algorithm
        self.use_annotations = use_annotations
        self.engine = engine
        self._sites = SiteIndex(fragmentation, self.placement)

    # -- queries -----------------------------------------------------------

    def execute(
        self,
        query: QueryInput,
        algorithm: Optional[str] = None,
        use_annotations: Optional[bool] = None,
    ) -> QueryResult:
        """Evaluate a data-selecting query and return a :class:`QueryResult`."""
        stats = self.run(query, algorithm=algorithm, use_annotations=use_annotations)
        return QueryResult(self.fragmentation.tree, stats)

    def run(
        self,
        query: QueryInput,
        algorithm: Optional[str] = None,
        use_annotations: Optional[bool] = None,
    ) -> RunStats:
        """Evaluate a query and return the raw :class:`RunStats`."""
        name = algorithm or self.algorithm
        runner = ALGORITHMS[name]
        annotations = self.use_annotations if use_annotations is None else use_annotations
        kwargs = {}
        if name not in _NO_ENGINE_ALGORITHMS:
            kwargs["engine"] = self.engine
        if name not in _NO_ANNOTATION_ALGORITHMS:
            kwargs["use_annotations"] = annotations
        self._sites = self._sites.refreshed(self.fragmentation, self.placement)
        network = Network(self.fragmentation, self.placement, self._sites)
        return runner(self.fragmentation, query, network=network, **kwargs)

    def run_batch(
        self,
        queries: Sequence[QueryInput],
        use_annotations: Optional[bool] = None,
    ) -> List[RunStats]:
        """Evaluate a wave of queries with one fused scan per fragment.

        PaX2 only (the engine's other algorithms fall back to a plain loop of
        :meth:`run`): stage 1 walks each relevant fragment once for the whole
        wave, duplicate queries share a kernel slot, and every query still
        gets the exact :class:`RunStats` its solo run would produce — see
        :func:`repro.core.batch.run_pax2_batch`.
        """
        annotations = self.use_annotations if use_annotations is None else use_annotations
        if self.algorithm != "pax2":
            return [self.run(query, use_annotations=annotations) for query in queries]
        return run_pax2_batch(
            self.fragmentation,
            queries,
            placement=self.placement,
            use_annotations=annotations,
            engine=self.engine,
        )

    def execute_batch(
        self,
        queries: Sequence[QueryInput],
        use_annotations: Optional[bool] = None,
    ) -> List[QueryResult]:
        """:meth:`run_batch`, with each RunStats wrapped as a QueryResult."""
        return [
            QueryResult(self.fragmentation.tree, stats)
            for stats in self.run_batch(queries, use_annotations=use_annotations)
        ]

    def execute_boolean(self, query: QueryInput) -> bool:
        """Evaluate a Boolean query with ParBoX and return its truth value."""
        stats = run_parbox(
            self.fragmentation, query, placement=self.placement, engine=self.engine
        )
        return bool(stats.answer_ids)

    def evaluate_centralized(self, query: QueryInput):
        """Evaluate against the original (un-fragmented) tree — ground truth."""
        return evaluate_centralized(self.fragmentation.tree, query)

    def refresh(self) -> None:
        """Re-fingerprint the document after an in-place edit.

        The kernel engine evaluates against columnar encodings cached on the
        fragmentation; mutating tree nodes in place between queries requires
        this call (or ``fragmentation.invalidate_flat()``) so the encodings
        are rebuilt — the same contract as the service layer's
        ``refresh_version``.  Re-fragmenting always starts fresh.
        """
        self.fragmentation.content_version(refresh=True)

    def as_service(self, **overrides):
        """A concurrent :class:`repro.service.ServiceEngine` over this engine's
        fragmentation, placement and defaults (see :mod:`repro.service`).

        The service runs PaX2 only, on a columnar engine (``kernel`` or
        ``vector``) against pinned snapshots, so an engine configured with
        another algorithm — or with the ``reference`` engine — raises
        ``ValueError``: those stay on this ``DistributedQueryEngine``.  The
        engine's annotations and engine defaults apply only when the caller
        passes neither an explicit ``config`` nor their own values.  The
        returned service is the single-document facade over a full
        :class:`repro.service.ServiceHost`; to co-host this document with
        others behind one scheduler, use :meth:`register_with` (or build a
        ``ServiceHost`` and register fragmentations directly).
        """
        from repro.service.server import ServiceEngine

        if self.algorithm != "pax2":
            raise ValueError(
                f"the service runs PaX2 only; algorithm {self.algorithm!r} stays"
                f" on DistributedQueryEngine"
            )
        if "config" not in overrides:
            overrides.setdefault("use_annotations", self.use_annotations)
            overrides.setdefault("engine", self.engine)
        return ServiceEngine(self.fragmentation, placement=self.placement, **overrides)

    def register_with(self, host, name: str):
        """Register this engine's document with a multi-tenant service host.

        ``host`` is a :class:`repro.service.ServiceHost`; the engine's
        fragmentation and placement become document *name* in the host's
        catalog, served alongside the host's other tenants through the
        shared scheduler.  Returns the opened
        :class:`repro.service.DocumentSession`.
        """
        return host.register(name, self.fragmentation, placement=self.placement)

    # -- introspection --------------------------------------------------------

    def explain(self, query: QueryInput) -> str:
        """Describe how a query would be evaluated (plan + pruning decision)."""
        plan = ensure_plan(query)
        lines = [plan.describe(), ""]
        decision = relevant_fragments(self.fragmentation, plan)
        lines.append("fragments:")
        for fragment_id in self.fragmentation.fragment_ids():
            site = self.placement[fragment_id]
            status = "evaluate" if decision.keeps(fragment_id) else "prune"
            reason = decision.reasons.get(fragment_id, "")
            lines.append(f"  {fragment_id} @ {site}: {status} ({reason})")
        if not self.use_annotations:
            lines.append(
                "note: annotations disabled on this engine; all fragments would be evaluated"
            )
        return "\n".join(lines)

    def describe_fragmentation(self) -> str:
        """The fragmentation summary (fragments, sizes, placement)."""
        lines = [self.fragmentation.summary(), "", "placement:"]
        for fragment_id, site_id in sorted(self.placement.items()):
            lines.append(f"  {fragment_id} -> {site_id}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<DistributedQueryEngine algorithm={self.algorithm!r} "
            f"fragments={len(self.fragmentation)} annotations={self.use_annotations}>"
        )
