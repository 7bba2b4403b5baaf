"""Async site actors: concurrent counterparts of the passive sites.

In the batch simulator a :class:`repro.distributed.site.Site` is visited by
exactly one algorithm run at a time.  Under the service layer many queries
are in flight at once and several of them may need the *same* site in the
same wall-clock instant.  A :class:`SiteActor` models the machine behind a
site id: it serves evaluation requests concurrently up to a configurable
``parallelism`` (an :class:`asyncio.Semaphore`), and keeps service-level
counters (requests served, busy time, peak concurrency) that exist per
*machine* rather than per query.

Per-query accounting (visits, per-stage seconds) still lives on the
per-query ``Site`` objects; the actor only schedules and meters.

:class:`FragmentWaveBatcher` is the service's fused-scan layer: in-flight
PaX2 queries that reach the same fragment round inside one batching window
are coalesced into a single walk of that fragment's flat arrays
(:func:`repro.core.kernel.batch.evaluate_fragment_combined_batch`), with
exact-duplicate plans deduplicated to one kernel slot first.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from contextlib import asynccontextmanager
from typing import AsyncIterator, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.kernel.dispatch import combined_pass_batch, fragment_engine
from repro.obs.trace import NEGLIGIBLE_WAIT_SECONDS, add_span
from repro.service.metrics import BatchStats

__all__ = ["SiteActor", "ActorPool", "FragmentWaveBatcher"]


class SiteActor:
    """Concurrency gate and meter for one site of the service.

    Parameters
    ----------
    site_id:
        The site this actor stands for (matches the placement's site ids).
    parallelism:
        How many evaluation requests the site serves at once; further
        requests queue on the semaphore.  ``1`` models the paper's
        single-threaded sites, larger values model multi-core sites.
    """

    def __init__(self, site_id: str, parallelism: int = 1):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.site_id = site_id
        self.parallelism = parallelism
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._loop_id: Optional[int] = None
        #: requests served to completion
        self.requests = 0
        #: requests currently inside the semaphore
        self.in_flight = 0
        #: the highest concurrency ever observed (<= parallelism)
        self.peak_in_flight = 0
        #: wall-clock seconds spent serving requests (overlapping requests
        #: each count their full duration)
        self.busy_seconds = 0.0
        #: wall-clock seconds requests spent queued for a slot
        self.queued_seconds = 0.0

    def _bound_semaphore(self) -> asyncio.Semaphore:
        """The semaphore, rebuilt whenever the running event loop changes.

        ``asyncio`` primitives bind to the loop they are first awaited on; the
        blocking facade creates a fresh loop per call, so a long-lived actor
        must not keep a semaphore bound to a dead loop.
        """
        loop_id = id(asyncio.get_running_loop())
        if self._semaphore is None or self._loop_id != loop_id:
            self._semaphore = asyncio.Semaphore(self.parallelism)
            self._loop_id = loop_id
            self.in_flight = 0
        return self._semaphore

    @asynccontextmanager
    async def slot(self, stage: str = "") -> AsyncIterator["SiteActor"]:
        """Hold one of the site's execution slots for the enclosed work."""
        semaphore = self._bound_semaphore()
        queued_at = time.perf_counter()
        async with semaphore:
            started = time.perf_counter()
            self.queued_seconds += started - queued_at
            if started - queued_at >= NEGLIGIBLE_WAIT_SECONDS:
                add_span("site:queued", "queue", queued_at, started,
                         site=self.site_id, op=stage)
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            try:
                yield self
            finally:
                self.in_flight -= 1
                self.requests += 1
                self.busy_seconds += time.perf_counter() - started

    def reset_counters(self) -> None:
        self.requests = 0
        self.peak_in_flight = 0
        self.busy_seconds = 0.0
        self.queued_seconds = 0.0

    def __repr__(self) -> str:
        return (
            f"<SiteActor {self.site_id} parallelism={self.parallelism} "
            f"requests={self.requests} peak={self.peak_in_flight}>"
        )


class FragmentWaveBatcher:
    """Coalesce concurrent per-fragment combined passes into fused scans.

    Queries evaluating their stage-1 round submit each fragment's combined
    pass through :meth:`combined` instead of running it directly.  Requests
    are parked per fragment; one flush callback — scheduled ``window``
    seconds after the first pending request (or on the next event-loop
    iteration when the window is zero) — groups each fragment's requests,
    deduplicates identical plans (same normalized
    :attr:`~repro.xpath.plan.QueryPlan.fingerprint` and initialization
    vector) to a single kernel slot, runs **one** fused scan per fragment
    and resolves every waiter with its slot's output.

    The per-query outputs are exactly what the un-batched pass would have
    produced (the fused kernel is differentially pinned to the single-query
    kernel), so per-query accounting — visits, operations, traffic units —
    is unchanged; only the physical walks are shared.  Efficiency counters
    live in :attr:`stats` (a :class:`~repro.service.metrics.BatchStats`).

    Parameters
    ----------
    fragmentation:
        The fragmented document the service serves.
    engine:
        Per-fragment pass implementation forwarded to
        :func:`~repro.core.kernel.dispatch.combined_pass_batch` (the
        reference engine still coalesces, it just runs the wave
        plan-by-plan).
    window:
        Batching window in seconds.  ``0.0`` (the default) flushes on the
        next event-loop iteration — coalescing whatever is simultaneously
        pending without adding latency; small positive values trade a little
        latency for wider waves under bursty traffic.
    """

    def __init__(
        self,
        fragmentation,
        engine: Optional[str] = None,
        window: float = 0.0,
    ):
        if window < 0.0:
            raise ValueError("window must be >= 0")
        self.fragmentation = fragmentation
        self.engine = engine
        self.window = window
        self.stats = BatchStats()
        #: fragment id -> [(plan, init key, is_root, future, queued_at)]
        self._pending: Dict[str, List[tuple]] = {}
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        #: weakref to the loop the pending state belongs to — a weakref, not
        #: id(), because a dead loop's address can be reused by the next one,
        #: which would make stale pending futures / a dead flush handle look
        #: current and hang the next caller
        self._loop_ref: Optional[weakref.ref] = None

    async def combined(
        self,
        fragment_id: str,
        plan,
        init_vector: Sequence,
        is_root_fragment: bool,
        flat=None,
    ):
        """The fragment's combined-pass output for *plan*, via a fused scan.

        ``flat`` pins the scan to a specific :class:`FlatFragment` (the MVCC
        snapshot path); requests pinned to different encodings of the same
        fragment never share a fused scan.
        """
        loop = asyncio.get_running_loop()
        if self._loop_ref is None or self._loop_ref() is not loop:
            # The blocking facade runs every call in a fresh asyncio.run
            # loop; pending futures bound to a dead loop must not leak in.
            self._pending = {}
            self._flush_handle = None
            self._loop_ref = weakref.ref(loop)
        future = loop.create_future()
        queued_at = time.perf_counter()
        self._pending.setdefault(fragment_id, []).append(
            (plan, tuple(init_vector), is_root_fragment, future, queued_at, flat)
        )
        if self._flush_handle is None:
            if self.window > 0.0:
                self._flush_handle = loop.call_later(self.window, self._flush)
            else:
                self._flush_handle = loop.call_soon(self._flush)
        # The flush callback runs in whatever task context first scheduled
        # it, so its spans would attribute to an arbitrary request; instead
        # the scan timing rides back on the future and each waiter records
        # its own window/kernel spans here, in its own request's context.
        # The window span runs until this waiter's own scan starts (the
        # breakdown's stage precedence charges any overlap with the same
        # request's other scans to kernel, not twice).
        output, scan_started, scan_ended = await future
        add_span("batch:window", "window", queued_at, scan_started,
                 fragment=fragment_id)
        add_span("kernel:fused", "kernel", scan_started, scan_ended,
                 fragment=fragment_id, engine=self.engine or fragment_engine())
        return output

    def _flush(self) -> None:
        """Run one fused scan per fragment with pending requests."""
        self._flush_handle = None
        pending, self._pending = self._pending, {}
        now = time.perf_counter()
        for fragment_id, all_requests in pending.items():
            # Waiters cancelled inside the batching window have a done
            # (cancelled) future; drop them before grouping so a wave of
            # cancellations neither poisons the scan's stats nor runs a
            # fused scan nobody is waiting for.
            requests = [request for request in all_requests if not request[3].done()]
            if not requests:
                continue
            # is_root_fragment is per fused call; callers derive it from the
            # fragment so a mixed group is essentially misuse, but partition
            # rather than silently evaluating someone with the wrong anchor.
            # Requests pinned to different snapshot encodings (or the live
            # one) are likewise partitioned: versions never share a scan.
            groups: Dict[tuple, List[tuple]] = {}
            for request in requests:
                groups.setdefault((request[2], id(request[5])), []).append(request)
            for (is_root, _), group in sorted(groups.items()):
                self._fused_scan(fragment_id, group, is_root, now)

    def _fused_scan(
        self, fragment_id: str, requests: List[tuple], is_root: bool, now: float
    ) -> None:
        """One fused scan over the deduplicated slots of *requests*."""
        # Dedup to kernel slots: identical normalized plan + identical
        # initialization means identical output, one slot serves all.
        slot_order: List[Tuple[str, tuple]] = []
        slots: Dict[Tuple[str, tuple], List[tuple]] = {}
        for request in requests:
            key = (request[0].fingerprint, request[1])
            waiters = slots.get(key)
            if waiters is None:
                slots[key] = waiters = []
                slot_order.append(key)
            waiters.append(request)
        scan_started = time.perf_counter()
        try:
            outputs = combined_pass_batch(
                self.fragmentation,
                fragment_id,
                [slots[key][0][0] for key in slot_order],
                [key[1] for key in slot_order],
                is_root_fragment=is_root,
                engine=self.engine,
                flat=requests[0][5],
            )
        except BaseException as error:  # resolve waiters, don't hang them
            for request in requests:
                future = request[3]
                if not future.done():
                    future.set_exception(error)
            return
        scan_ended = time.perf_counter()
        self.stats.record_scan(
            requests=len(requests),
            slots=len(slot_order),
            window_seconds=[now - request[4] for request in requests],
        )
        for key, output in zip(slot_order, outputs):
            for request in slots[key]:
                future = request[3]
                if not future.done():
                    # (output, scan start, scan end): combined() unpacks the
                    # timing for its per-request trace spans.
                    future.set_result((output, scan_started, scan_ended))


class ActorPool:
    """One :class:`SiteActor` per site of a placement."""

    def __init__(self, site_ids: Iterable[str], parallelism: int = 1):
        self.parallelism = parallelism
        self.actors: Dict[str, SiteActor] = {
            site_id: SiteActor(site_id, parallelism) for site_id in sorted(set(site_ids))
        }

    def __getitem__(self, site_id: str) -> SiteActor:
        actor = self.actors.get(site_id)
        if actor is None:
            # Sites can appear after construction (e.g. a placement edited in
            # place); grow the pool rather than failing mid-query.
            actor = SiteActor(site_id, self.parallelism)
            self.actors[site_id] = actor
        return actor

    def __len__(self) -> int:
        return len(self.actors)

    def discard(self, site_id: str) -> None:
        """Forget a site's actor (re-created on demand if referenced again).

        Used when a document leaves a service host and no other document's
        placement uses the site; an in-flight evaluation still holding the
        old actor object finishes against it undisturbed.
        """
        self.actors.pop(site_id, None)

    def site_ids(self) -> list[str]:
        return sorted(self.actors)

    def total_requests(self) -> int:
        return sum(actor.requests for actor in self.actors.values())

    def peak_in_flight(self) -> int:
        return max((actor.peak_in_flight for actor in self.actors.values()), default=0)

    def reset_counters(self) -> None:
        for actor in self.actors.values():
            actor.reset_counters()

    def summary(self) -> str:
        lines = [f"actor pool: {len(self.actors)} sites, parallelism={self.parallelism}"]
        for site_id in self.site_ids():
            actor = self.actors[site_id]
            lines.append(
                f"  {site_id}: {actor.requests} requests, peak {actor.peak_in_flight},"
                f" busy {actor.busy_seconds * 1000:.2f} ms,"
                f" queued {actor.queued_seconds * 1000:.2f} ms"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<ActorPool sites={len(self.actors)} parallelism={self.parallelism}>"
