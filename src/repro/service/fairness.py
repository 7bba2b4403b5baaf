"""Weighted-fair admission: per-document queues replacing the flat semaphore.

The host used to admit evaluations through one ``asyncio.Semaphore`` — a
single FIFO over every tenant, so a tenant flooding the host with requests
owns the queue and everyone else's latency.  This module provides the
replacement: a deficit-round-robin scheduler over per-document pending
queues.  Each dispatch round credits every backlogged document its
configured weight and grants one admission per whole credit, so over any
interval each tenant's admission share converges to its weight share,
regardless of how deep any one queue is.  Optional per-document
``max_in_flight`` slices cap how many of the host's slots one tenant can
hold at once.

The scheduler is also where adaptive overload shedding gets its signal:
it tracks each document's live queue depth and a rolling window of recent
queue waits, and :meth:`WeightedFairAdmission.overload_reason` tells the
host when a tenant's backlog exceeds its budget — so the host sheds *that
tenant's* excess (typed rejection, ``shed`` metric, no latency sample)
instead of tripping the host-global ``max_pending`` cliff for everyone.

Cancellation safety: a waiter granted a slot after its future was already
cancelled (grant and cancellation racing in the same loop iteration) hands
the slot straight back.
"""

from __future__ import annotations

import asyncio
import bisect
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional

from repro.service.metrics import percentile

__all__ = ["FairnessPolicy", "WeightedFairAdmission"]

#: rolling per-document queue-wait samples kept for the overload signal
_WAIT_WINDOW = 256


@dataclass(frozen=True)
class FairnessPolicy:
    """Knobs for weighted-fair admission (``ServiceConfig.fairness``).

    ``weights`` / ``default_weight``
        Relative admission shares per document under contention.  A
        document absent from ``weights`` gets ``default_weight``.
    ``slices`` / ``default_slice``
        Per-document cap on simultaneously held admission slots (a slice
        of the host's ``max_in_flight``).  ``None`` means uncapped.
    ``max_queue_depth``
        Per-document pending-queue budget: a submission finding this many
        of its document's requests already queued is shed with
        :class:`~repro.service.server.OverloadShedError`.
    ``queue_time_budget_seconds``
        Rolling queue-wait p95 budget per document; sheds new submissions
        while the document's recent p95 exceeds it (only once at least
        ``shed_min_queue_depth`` requests are actually queued, so an idle
        tenant is never shed on stale history).
    """

    default_weight: float = 1.0
    weights: Mapping[str, float] = field(default_factory=dict)
    default_slice: Optional[int] = None
    slices: Mapping[str, int] = field(default_factory=dict)
    max_queue_depth: Optional[int] = None
    queue_time_budget_seconds: Optional[float] = None
    shed_min_queue_depth: int = 2

    def __post_init__(self) -> None:
        if self.default_weight <= 0:
            raise ValueError("default_weight must be > 0")
        for document, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"weight for {document!r} must be > 0")
        for document, cap in self.slices.items():
            if cap < 1:
                raise ValueError(f"slice for {document!r} must be >= 1")
        if self.default_slice is not None and self.default_slice < 1:
            raise ValueError("default_slice must be >= 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if (
            self.queue_time_budget_seconds is not None
            and self.queue_time_budget_seconds <= 0
        ):
            raise ValueError("queue_time_budget_seconds must be > 0")
        if self.shed_min_queue_depth < 0:
            raise ValueError("shed_min_queue_depth must be >= 0")

    def weight(self, document: str) -> float:
        return self.weights.get(document, self.default_weight)

    def slice_limit(self, document: str) -> Optional[int]:
        return self.slices.get(document, self.default_slice)


class WeightedFairAdmission:
    """Deficit-round-robin admission over per-document pending queues.

    Synchronous bookkeeping + futures: all state transitions happen
    between awaits of one event loop, so no locking is needed.
    """

    def __init__(
        self,
        capacity: int,
        policy: Optional[FairnessPolicy] = None,
        metrics=None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.policy = policy if policy is not None else FairnessPolicy()
        self.metrics = metrics
        #: document -> FIFO of (future, queued_at)
        self._queues: Dict[str, Deque[tuple]] = {}
        self._deficits: Dict[str, float] = {}
        self._in_flight: Dict[str, int] = {}
        self._in_flight_total = 0
        self._recent_waits: Dict[str, Deque[float]] = {}
        #: round position: (key, mid_service) — where the next dispatch
        #: resumes visiting queues.  mid_service=True means *key* still has
        #: unspent deficit because capacity (not its own budget) cut its
        #: turn short, so revisit it first without crediting it again.
        self._resume: tuple = ("", False)
        # lifetime counters (never reset)
        self.grants = 0
        self.queued_grants = 0

    # -- introspection ------------------------------------------------------

    @property
    def total_in_flight(self) -> int:
        return self._in_flight_total

    def in_flight(self, document: str) -> int:
        return self._in_flight.get(document, 0)

    def queue_depth(self, document: str) -> int:
        queue = self._queues.get(document)
        if not queue:
            return 0
        return sum(1 for waiter in queue if not waiter[0].done())

    def recent_wait_p95(self, document: str) -> float:
        waits = self._recent_waits.get(document)
        if not waits:
            return 0.0
        return percentile(list(waits), 0.95)

    def overload_reason(self, document: str) -> Optional[str]:
        """Why a new submission for *document* should be shed, or ``None``."""
        policy = self.policy
        depth = self.queue_depth(document)
        if policy.max_queue_depth is not None and depth >= policy.max_queue_depth:
            return f"queue depth {depth} >= budget {policy.max_queue_depth}"
        budget = policy.queue_time_budget_seconds
        if budget is not None and depth >= policy.shed_min_queue_depth:
            p95 = self.recent_wait_p95(document)
            if p95 > budget:
                return f"queue-time p95 {p95:.4f}s > budget {budget:.4f}s"
        return None

    def drop_waits(self, document: str) -> None:
        """Forget *document*'s recent queue waits (its overload p95 window).

        Its in-flight slots stay: a read still running releases its own."""
        self._recent_waits.pop(document, None)

    # -- acquire / release --------------------------------------------------

    async def acquire(self, document: str, timeout: Optional[float] = None) -> None:
        """Wait for an admission slot for *document*.

        Raises :class:`asyncio.TimeoutError` when *timeout* elapses first;
        on timeout or cancellation the waiter leaves no residue (a slot
        granted concurrently with the cancellation is handed back).
        """
        queue = self._queues.get(document)
        if (
            self._in_flight_total < self.capacity
            and self._slice_ok(document)
            and not queue
        ):
            # Work-conserving fast path.  Waiters may exist on *other*
            # queues only when they are slice-capped (dispatch runs after
            # every release and enqueue), so taking a free slot here never
            # jumps anyone who could have been granted.
            self._grant(document, 0.0)
            return
        future = asyncio.get_running_loop().create_future()
        if queue is None:
            queue = self._queues[document] = deque()
        queue.append((future, time.perf_counter()))
        try:
            if timeout is not None:
                await asyncio.wait_for(future, timeout)
            else:
                await future
        except (asyncio.CancelledError, asyncio.TimeoutError):
            if future.done() and not future.cancelled():
                # Granted in the same loop iteration the cancellation /
                # timeout landed: hand the slot back.
                self._release_slot(document)
            else:
                future.cancel()
            self._prune(document)
            self._dispatch()
            raise

    def release(self, document: str) -> None:
        self._release_slot(document)
        self._dispatch()

    # -- internals ----------------------------------------------------------

    def _slice_ok(self, key: str) -> bool:
        limit = self.policy.slice_limit(key)
        return limit is None or self._in_flight.get(key, 0) < limit

    def _grant(self, document: str, waited: float) -> None:
        self._in_flight[document] = self._in_flight.get(document, 0) + 1
        self._in_flight_total += 1
        self.grants += 1
        waits = self._recent_waits.get(document)
        if waits is None:
            waits = self._recent_waits[document] = deque(maxlen=_WAIT_WINDOW)
        waits.append(waited)
        if self.metrics is not None:
            self.metrics.record_queue_wait(document, waited)

    def _release_slot(self, document: str) -> None:
        held = self._in_flight.get(document, 0)
        if held <= 0:
            return
        if held == 1:
            del self._in_flight[document]
        else:
            self._in_flight[document] = held - 1
        self._in_flight_total -= 1

    def _prune(self, key: str) -> None:
        """Drop dead waiters; forget empty queues (and their banked deficit)."""
        queue = self._queues.get(key)
        if queue is None:
            return
        while queue and queue[0][0].done():
            queue.popleft()
        if not queue:
            del self._queues[key]
            self._deficits.pop(key, None)

    def _grant_head(self, key: str) -> bool:
        queue = self._queues.get(key)
        if not queue:
            return False
        future, queued_at = queue.popleft()
        self._prune(key)
        self._grant(key, time.perf_counter() - queued_at)
        self.queued_grants += 1
        future.set_result(None)
        return True

    def _live(self, key: str) -> bool:
        self._prune(key)
        return key in self._queues

    def _dispatch(self) -> None:
        """Deficit-round-robin: credit each backlogged queue its weight,
        grant one admission per whole credit while capacity and slices
        allow.  The visit order rotates via ``self._resume``: a fixed
        (sorted) order would hand every freed slot to the alphabetically
        first backlogged queue, starving the rest whenever the host runs
        at full occupancy and dispatch serves one release at a time."""
        while self._in_flight_total < self.capacity:
            eligible = [
                key
                for key in sorted(self._queues)
                if self._live(key) and self._slice_ok(key)
            ]
            if not eligible:
                return
            resume_key, mid_service = self._resume
            locate = bisect.bisect_left if mid_service else bisect.bisect_right
            pivot = locate(eligible, resume_key)
            if pivot >= len(eligible):
                pivot = 0
            for position, key in enumerate(eligible[pivot:] + eligible[:pivot]):
                if self._in_flight_total >= self.capacity:
                    return
                if not self._slice_ok(key):
                    # A capped tenant earns no credit while capped: banking
                    # deficit it cannot spend would let it burst unfairly
                    # the moment a slot frees.
                    continue
                weight = self.policy.weight(key)
                deficit = self._deficits.get(key, 0.0)
                if not (mid_service and position == 0 and key == resume_key):
                    # Credit the quantum only on a fresh visit: a key whose
                    # turn was cut short by *capacity* resumes spending its
                    # banked deficit, it does not earn another round.
                    deficit += weight
                while (
                    deficit >= 1.0
                    and self._in_flight_total < self.capacity
                    and self._slice_ok(key)
                    and self._grant_head(key)
                ):
                    deficit -= 1.0
                if key in self._queues:
                    # Cap banked credit at one whole grant so an idle spell
                    # cannot finance a later burst; the cap is >= 1.0, so a
                    # sub-unit weight still accrues to a grant across
                    # rounds (the outer loop keeps crediting while anyone
                    # is eligible and capacity remains).
                    self._deficits[key] = min(deficit, max(weight, 1.0))
                self._resume = (
                    (key, True)
                    if (
                        key in self._queues
                        and deficit >= 1.0
                        and self._slice_ok(key)
                        and self._in_flight_total >= self.capacity
                    )
                    else (key, False)
                )

    def summary_line(self) -> str:
        return (
            f"admission  : weighted-fair, capacity={self.capacity},"
            f" in_flight={self._in_flight_total},"
            f" queued={sum(len(q) for q in self._queues.values())},"
            f" grants={self.grants} ({self.queued_grants} queued)"
        )
