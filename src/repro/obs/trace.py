"""Request tracing: contextvar-propagated spans over the service request path.

The serving stack reports aggregate qps and latency percentiles
(:mod:`repro.service.metrics`), but aggregates cannot answer *where one slow
request spent its time* — admission queue, batching window, kernel walk,
simulated wire, reassembly — nor verify the paper's per-site visit bounds on
live traffic.  This module provides the span substrate those answers are
built from:

* A :class:`Span` is one timed section of one request, with a name,
  structured attributes, children, and an optional *stage* — the latency
  category it accounts to (``queue``, ``cache``, ``compile``, ``window``,
  ``kernel``, ``wire``, ``reassembly``).  Staged spans are the leaves of the
  per-request latency attribution: summing them per stage reconstructs the
  request's wall-clock latency (see :meth:`Span.breakdown`).
* A :class:`Tracer` opens one **root span per request** (query or update),
  propagates it through a :class:`contextvars.ContextVar` — ``asyncio``
  tasks copy the context at creation, so the per-site rounds a request fans
  out via ``asyncio.gather`` attribute to the right request automatically —
  and on completion runs the finish pipeline: stage breakdown, guarantee
  check (:mod:`repro.obs.guarantees`), per-stage histograms, exporters and
  the slow-query log (:mod:`repro.obs.export`).
* The instrumentation points call the **module-level helpers**
  (:func:`span`, :func:`event`, :func:`add_span`, :func:`set_attributes`,
  :func:`set_stats`): when no request is being traced — the default, every
  host starts with :data:`NULL_TRACER` — each helper is one
  ``ContextVar.get`` returning ``None`` plus a shared, pre-allocated no-op
  context manager.  Nothing is allocated on the disabled path
  (``obs.traced_qps_ratio`` in ``perf/`` prices the enabled one).

Timestamps are ``time.perf_counter()`` seconds throughout (one consistent
monotonic base per process — exactly what the Chrome trace format wants);
each root span additionally records the wall-clock epoch it started at.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.guarantees import GuaranteeChecker, GuaranteeViolation
from repro.obs.histogram import Histogram

__all__ = [
    "DEFAULT_KEEP_SPANS",
    "FILL_STAGE",
    "NEGLIGIBLE_WAIT_SECONDS",
    "NULL_TRACER",
    "NullTracer",
    "STAGES",
    "Span",
    "Tracer",
    "add_span",
    "current_span",
    "event",
    "set_attributes",
    "set_stats",
    "span",
]

#: the latency-attribution categories a staged span may account to;
#: open-ended by design (the breakdown sums whatever stages appear), but the
#: instrumentation sticks to these so dashboards stay stable
STAGES = ("queue", "cache", "compile", "window", "kernel", "wire", "reassembly")

#: when concurrent spans of *different* stages cover the same instant (a
#: request waiting in the batching window while its other fragment's pass
#: runs), the instant is charged to the earliest stage listed here —
#: work beats waiting, so ``window``/``queue`` absorb only otherwise-idle
#: time; stages outside the list rank after all of these
_STAGE_PRECEDENCE = ("kernel", "reassembly", "compile", "cache", "wire", "window", "queue")
_STAGE_RANK = {stage: rank for rank, stage in enumerate(_STAGE_PRECEDENCE)}

#: the synthetic stage a request root's *uncovered* instants are charged to:
#: span entry/exit, metric recording, coalescing bookkeeping, waits too short
#: for their guarded spans (:data:`NEGLIGIBLE_WAIT_SECONDS`) — the
#: per-request framework overhead between staged sections.  No instrumented
#: span ever carries it; :meth:`Span.breakdown` computes it for root spans so
#: the attribution always reconciles to the request's wall clock instead of
#: leaking an unexplained residue.
FILL_STAGE = "dispatch"

#: finished root spans a :class:`Tracer` retains for inspection by default.
#: Deliberately much smaller than the service's per-record sample window
#: (:data:`repro.service.metrics.DEFAULT_SAMPLE_WINDOW`): a retained request
#: is a whole span *tree* (tens of objects), and a large resident set of
#: them measurably slows the collector — the dominant cost of tracing.
DEFAULT_KEEP_SPANS = 512

#: waits shorter than this are not worth a span: an uncontended semaphore
#: or lock acquisition "waits" a few microseconds, and recording one span
#: per such non-event at every queueing point would double a request's span
#: count while moving its attribution by well under the reconciliation
#: tolerance.  Call sites guard with this before ``add_span``.
NEGLIGIBLE_WAIT_SECONDS = 2e-5

#: the active span of the current task (None = tracing disabled / no request)
_ACTIVE: ContextVar[Optional["Span"]] = ContextVar("repro_obs_active_span", default=None)


class Span:
    """One timed, attributed section of one traced request.

    ``start``/``end`` are ``perf_counter`` seconds; ``end`` is ``None``
    while the span is open.  ``stage`` marks the span as contributing to the
    per-request latency attribution (see module docstring and
    :meth:`breakdown`); purely structural spans leave it ``None``.
    """

    __slots__ = (
        "name",
        "kind",
        "stage",
        "start",
        "end",
        "wall_start",
        "_attributes",
        "_children",
        "stats",
        "_token",
        "_aggregated",
    )

    def __init__(
        self,
        name: str,
        kind: str = "internal",
        stage: Optional[str] = None,
        start: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.kind = kind
        self.stage = stage
        self.start = time.perf_counter() if start is None else start
        self.end: Optional[float] = None
        # The wall-clock epoch only matters on root (request/update) spans;
        # internal spans skip the second clock read on the hot path.
        self.wall_start = 0.0 if kind == "internal" else time.time()
        # Attribute dict and child list are lazy: the dominant tracing cost
        # is not the code here but the garbage collector scanning what it
        # allocates, so a leaf span with no attributes must stay a single
        # GC-tracked object, not three.
        self._attributes: Optional[Dict[str, Any]] = attributes
        self._children: Optional[List[Span]] = None
        #: the RunStats of the evaluation this span covers (root spans of
        #: evaluated queries only; cache hits and updates carry none)
        self.stats = None
        self._token = None
        #: True once the tracer has folded this (root) span's breakdown
        #: into its stage histograms — see :meth:`Tracer._aggregate`
        self._aggregated = False

    @property
    def attributes(self) -> Dict[str, Any]:
        """Structured span attributes (allocated on first touch)."""
        attributes = self._attributes
        if attributes is None:
            attributes = self._attributes = {}
        return attributes

    @property
    def children(self) -> List["Span"]:
        """Child spans, oldest first (allocated on first touch)."""
        children = self._children
        if children is None:
            children = self._children = []
        return children

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Span":
        """Install this span as the task's active span (used by :func:`span`)."""
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        _ACTIVE.reset(self._token)
        self._token = None
        if exc_value is not None and "error" not in (self._attributes or ()):
            self.attributes["error"] = repr(exc_value)
        if self.end is None:
            self.end = time.perf_counter()
        return False

    def finish(self, end: Optional[float] = None) -> None:
        if self.end is None:
            self.end = time.perf_counter() if end is None else end

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return max(self.end - self.start, 0.0)

    # -- structure ---------------------------------------------------------

    def child(
        self,
        name: str,
        stage: Optional[str] = None,
        start: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> "Span":
        """Create, attach and return a child span (not yet finished)."""
        child = Span(name, stage=stage, start=start, attributes=attributes)
        children = self._children
        if children is None:
            self._children = [child]
        else:
            children.append(child)
        return child

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        if self._children:
            for child in self._children:
                yield from child.walk()

    def span_count(self) -> int:
        """How many spans this tree holds (the root included)."""
        return sum(1 for _ in self.walk())

    # -- latency attribution ----------------------------------------------

    def breakdown(self) -> Dict[str, float]:
        """Per-stage seconds of this span's subtree.

        Every wall-clock instant covered by at least one staged span is
        charged to **exactly one** stage: concurrent same-stage spans
        (parallel site rounds, several fragments' batched passes)
        merge, and where different stages overlap the instant goes to the
        one ranking earliest in the work-beats-waiting precedence
        (:data:`_STAGE_PRECEDENCE` — so a request parked in the batching
        window while one of its own scans runs counts that time as
        ``kernel``, not twice).  Nesting staged spans is therefore safe and
        deliberate: wide low-precedence spans (the ``queue``-staged
        ``evaluate`` and per-site round wrappers) act as fillers whose time
        is reclaimed wherever a more specific child covers it, so scheduler
        hops between a request's awaits surface as queueing delay instead
        of vanishing.  On request/update roots (``kind != "internal"``)
        the instants no staged span covers are charged to
        :data:`FILL_STAGE` (``dispatch``): per-request framework overhead —
        span entry/exit, metric recording, waits under the
        :data:`NEGLIGIBLE_WAIT_SECONDS` guard — is real time an operator
        should see, not an unexplained residue, so a closed root's
        breakdown sums to its wall-clock duration by construction
        (``tests/obs/test_service_tracing.py`` holds it to that).
        """
        # One boundary sweep: +1/-1 events per staged interval, sorted by
        # time, a small active-count per precedence rank, and every segment
        # between consecutive boundaries charged to the smallest active rank.
        # O(E log E + E * ranks) with E = 2 * staged spans — this runs in
        # every traced request's finish pipeline, so it must stay cheap.
        events: List[tuple] = []
        ranks = dict(_STAGE_RANK)  # stages outside the list rank after all
        stage_of_rank: Dict[int, str] = {}
        stack = list(self._children) if self._children else []
        while stack:
            node = stack.pop()
            if (
                node.stage is not None
                and node.end is not None
                and node.end > node.start
            ):
                rank = ranks.setdefault(node.stage, len(ranks))
                stage_of_rank[rank] = node.stage
                events.append((node.start, 1, rank))
                events.append((node.end, -1, rank))
            if node._children:
                stack.extend(node._children)
        fillable = self.kind != "internal" and self.end is not None
        if not events:
            return {FILL_STAGE: self.duration} if fillable and self.duration > 0.0 else {}
        events.sort()
        top_rank = len(ranks) - 1
        counts = [0] * len(ranks)
        seconds_by_rank = [0.0] * len(ranks)
        active_rank = -1  # -1 = nothing active
        previous = events[0][0]
        for at, delta, rank in events:
            if active_rank >= 0 and at > previous:
                seconds_by_rank[active_rank] += at - previous
            previous = at
            counts[rank] += delta
            if delta > 0:
                if active_rank < 0 or rank < active_rank:
                    active_rank = rank
            elif rank == active_rank and counts[rank] == 0:
                active_rank = -1
                for candidate in range(rank, top_rank + 1):
                    if counts[candidate]:
                        active_rank = candidate
                        break
        result = {
            stage_of_rank[rank]: seconds
            for rank, seconds in enumerate(seconds_by_rank)
            if seconds > 0.0
        }
        if fillable:
            fill = self.duration - sum(seconds_by_rank)
            if fill > 0.0:
                result[FILL_STAGE] = fill
        return result

    def attributed_seconds(self) -> float:
        """Total seconds the stage breakdown accounts for."""
        return sum(self.breakdown().values())

    # -- presentation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested snapshot of the span tree."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "start": round(self.start, 9),
            "duration_seconds": round(self.duration, 9),
        }
        if self.kind != "internal":
            payload["wall_start"] = round(self.wall_start, 6)
        if self.stage is not None:
            payload["stage"] = self.stage
        if self._attributes:
            payload["attributes"] = dict(self._attributes)
        if self._children:
            payload["children"] = [child.to_dict() for child in self._children]
        return payload

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} stage={self.stage}"
            f" duration={self.duration * 1000:.3f}ms"
            f" children={len(self._children) if self._children else 0}>"
        )


# ---------------------------------------------------------------------------
# module-level helpers: the instrumentation surface
# ---------------------------------------------------------------------------


class _NoopContext:
    """Shared, allocation-free context manager for the untraced path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP = _NoopContext()


def current_span() -> Optional[Span]:
    """The active span of the current task, or ``None`` when untraced."""
    return _ACTIVE.get()


def span(name: str, stage: Optional[str] = None, **attributes: Any):
    """Open a child span of the active span for the enclosed work.

    No-op (one shared context manager, nothing allocated) when the current
    task is not being traced.  Usable across ``await`` points; child tasks
    spawned inside inherit it as their parent.  The returned child span is
    its own context manager (``__enter__`` activates it, ``__exit__``
    finishes it) — one allocation per traced span.
    """
    parent = _ACTIVE.get()
    if parent is None:
        return _NOOP
    return parent.child(name, stage=stage, attributes=attributes or None)


def add_span(
    name: str,
    stage: Optional[str],
    start: float,
    end: float,
    **attributes: Any,
) -> None:
    """Attach an already-measured span to the active span.

    For sections timed outside the request's own context — the stage-1
    pass batcher flushes in whatever task context first scheduled the flush
    callback, so its per-waiter window/kernel times are recorded by the
    waiter afterwards, with explicit timestamps.
    """
    parent = _ACTIVE.get()
    if parent is None:
        return
    child = parent.child(name, stage=stage, start=start, attributes=attributes or None)
    child.end = end


def event(name: str, **attributes: Any) -> None:
    """Attach a zero-duration marker span (e.g. one wire message) if traced."""
    parent = _ACTIVE.get()
    if parent is None:
        return
    now = time.perf_counter()
    child = parent.child(name, start=now, attributes=attributes or None)
    child.end = now


def set_attributes(**attributes: Any) -> None:
    """Merge *attributes* into the active span (no-op when untraced)."""
    active = _ACTIVE.get()
    if active is not None:
        active.attributes.update(attributes)


def set_stats(stats: Any) -> None:
    """Attach the evaluation's RunStats to the active span (no-op untraced).

    The tracer's finish pipeline reads it for the guarantee check and copies
    the headline accounting (visits per site, communication units) into the
    span attributes.
    """
    active = _ACTIVE.get()
    if active is not None:
        active.stats = stats


# ---------------------------------------------------------------------------
# tracers
# ---------------------------------------------------------------------------


class NullTracer:
    """The default tracer: traces nothing, allocates nothing.

    Its :meth:`request` returns the shared no-op context manager without
    touching the context variable, so every downstream helper sees an
    untraced task and short-circuits.
    """

    enabled = False

    def request(self, name: str, kind: str = "request", **attributes: Any):
        return _NOOP

    def to_dict(self) -> Dict[str, Any]:
        return {"enabled": False}

    def __repr__(self) -> str:
        return "<NullTracer>"


#: process-wide shared instance; hosts default to it
NULL_TRACER = NullTracer()


class Tracer:
    """Collect, check and export one root span per served request.

    Parameters
    ----------
    exporters:
        Objects with an ``export(span)`` method, called with every finished
        root span (see :mod:`repro.obs.export`); exporter errors propagate —
        an operator turning tracing on wants to know their sink is broken.
    check_guarantees:
        Verify the paper's per-site visit bound on every evaluated request
        (:class:`~repro.obs.guarantees.GuaranteeChecker`); violations are
        counted, kept (bounded), and flagged on the offending span.
    keep_spans:
        Finished root spans retained in :attr:`finished` for inspection
        (oldest dropped first) — :data:`DEFAULT_KEEP_SPANS` by default.
    """

    enabled = True

    def __init__(
        self,
        exporters: Optional[List[Any]] = None,
        check_guarantees: bool = True,
        keep_spans: Optional[int] = None,
    ):
        if keep_spans is None:
            keep_spans = DEFAULT_KEEP_SPANS
        if keep_spans < 1:
            raise ValueError("keep_spans must be >= 1")
        self.exporters: List[Any] = list(exporters) if exporters else []
        self.guarantees: Optional[GuaranteeChecker] = (
            GuaranteeChecker() if check_guarantees else None
        )
        self.keep_spans = keep_spans
        self._finished: List[Span] = []
        self._histograms: Dict[str, Histogram] = {}
        #: root spans finished since construction (unbounded counter)
        self.requests_traced = 0

    # -- recording ---------------------------------------------------------

    @contextmanager
    def request(self, name: str, kind: str = "request", **attributes: Any):
        """Open the root span of one request for the enclosed work."""
        root = Span(name, kind=kind, attributes=attributes or None)
        token = _ACTIVE.set(root)
        try:
            yield root
        except BaseException as error:
            root.attributes.setdefault("error", repr(error))
            raise
        finally:
            _ACTIVE.reset(token)
            root.finish()
            self._finish_root(root)

    def _finish_root(self, root: Span) -> None:
        """The per-request finish pipeline — this runs on the serving hot
        path, so it does only the work that must be *online*: the guarantee
        check (a violation should be flagged when it happens, not when a
        dashboard looks), the headline stats attributes, the per-kind
        duration histogram and retention.  The O(E log E) attribution sweep
        and the per-stage histograms are deferred to :meth:`_aggregate`,
        which runs when a consumer reads (or an exporter serializes) —
        tracing's steady-state price is recording, not aggregating.
        """
        self.requests_traced += 1
        if root.stats is not None:
            stats = root.stats
            root.attributes.setdefault("algorithm", stats.algorithm)
            root.attributes["answer_count"] = stats.answer_count
            root.attributes["communication_units"] = stats.communication_units
            root.attributes["message_count"] = stats.message_count
            root.attributes["site_visits"] = stats.visits_by_site()
            root.attributes["max_site_visits"] = stats.max_site_visits
            if self.guarantees is not None:
                violations = self.guarantees.check(stats)
                if violations:
                    root.attributes["guarantee_violations"] = [
                        violation.to_dict() for violation in violations
                    ]
        self._histogram(root.kind).observe(root.duration)
        finished = self._finished
        finished.append(root)
        if len(finished) > self.keep_spans:
            del finished[: len(finished) - self.keep_spans]
        if self.exporters:
            self._aggregate()
            for exporter in self.exporters:
                exporter.export(root)

    def _aggregate(self) -> None:
        """Fold retained-but-unaggregated roots into the stage histograms.

        Roots trimmed out of retention before any consumer read are never
        aggregated: the per-kind duration histograms stay exact over every
        request, while the ``stage:*`` histograms cover the retained sample
        (the ``keep_spans`` most recent roots per read — plenty for a
        scrape-interval dashboard, free for requests nobody looks at).
        """
        for root in self._finished:
            if root._aggregated:
                continue
            root._aggregated = True
            breakdown = root.breakdown()
            if breakdown:
                root.attributes["breakdown_seconds"] = {
                    stage: round(seconds, 9)
                    for stage, seconds in sorted(breakdown.items())
                }
                for stage, seconds in breakdown.items():
                    self._histogram(f"stage:{stage}").observe(seconds)

    def _histogram(self, key: str) -> Histogram:
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        return histogram

    # -- maintenance -------------------------------------------------------

    def close(self) -> None:
        """Aggregate retained roots, then flush/close every exporter."""
        self._aggregate()
        for exporter in self.exporters:
            close = getattr(exporter, "close", None)
            if close is not None:
                close()

    # -- presentation ------------------------------------------------------

    @property
    def finished(self) -> List[Span]:
        """Finished root spans, oldest first, bounded by ``keep_spans``.

        Reading drains the deferred aggregation, so every returned root
        carries its ``breakdown_seconds`` attribute.
        """
        self._aggregate()
        return self._finished

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """Duration histograms per root kind (exact over every request)
        plus ``stage:*`` attributed-seconds histograms (over the retained
        sample — see :meth:`_aggregate`)."""
        self._aggregate()
        return self._histograms

    @property
    def violation_count(self) -> int:
        return self.guarantees.violation_count if self.guarantees is not None else 0

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "enabled": True,
            "requests_traced": self.requests_traced,
            "retained_spans": len(self.finished),
            "guarantee_violations": self.violation_count,
            "histograms": {
                key: histogram.to_dict()
                for key, histogram in sorted(self.histograms.items())
            },
        }
        return payload

    def __repr__(self) -> str:
        return (
            f"<Tracer traced={self.requests_traced}"
            f" violations={self.violation_count}"
            f" exporters={len(self.exporters)}>"
        )
