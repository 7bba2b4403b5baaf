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

:class:`FragmentWaveBatcher` dedups stage-1 passes: in-flight PaX2 queries
that ask a fragment for the same pass in one event-loop iteration share one
ordinary :func:`repro.core.kernel.dispatch.combined_pass`.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import asynccontextmanager
from typing import AsyncIterator, Dict, Iterable, Optional, Sequence

from repro.core.kernel.dispatch import FragmentEngine, combined_pass, resolve_engine
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
        self._semaphore = asyncio.Semaphore(parallelism)
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

    @asynccontextmanager
    async def slot(self, stage: str = "") -> AsyncIterator["SiteActor"]:
        """Hold one of the site's execution slots for the enclosed work."""
        queued_at = time.perf_counter()
        async with self._semaphore:
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
    """Run concurrent identical stage-1 passes of a fragment once.

    Queries evaluating their stage-1 round submit each fragment's combined
    pass through :meth:`combined` instead of running it directly.  Requests
    are parked per fragment until the next event-loop iteration.  The flush
    groups each fragment's requests by anchor (``is_root_fragment``) and
    pinned encoding, dedups them to slots by normalized plan
    :attr:`~repro.xpath.plan.QueryPlan.fingerprint` and initialization
    vector, runs one :func:`~repro.core.kernel.dispatch.combined_pass` per
    slot and resolves every waiter with its slot's output — or with the
    exception its slot's pass raised, which no other slot's waiters see.

    A slot's output is exactly what each of its waiters' own pass would have
    produced, so per-query accounting — visits, operations, traffic units —
    is unchanged.  Counters live in :attr:`stats` (a
    :class:`~repro.service.metrics.BatchStats`).

    Parameters
    ----------
    fragmentation:
        The fragmented document the service serves.
    engine:
        The tier every pass runs on (``None``: the process default, resolved
        here once).
    """

    def __init__(self, fragmentation, engine: Optional[FragmentEngine] = None):
        self.fragmentation = fragmentation
        self.engine = resolve_engine(engine)
        self.stats = BatchStats()
        #: fragment id -> slot key -> (plan, init vector, is_root, flat,
        #: [(future, queued_at)])
        self._pending: Dict[str, Dict[tuple, tuple]] = {}
        self._flush_handle: Optional[asyncio.Handle] = None

    async def combined(
        self,
        fragment_id: str,
        plan,
        init_vector: Sequence,
        is_root_fragment: bool,
        flat=None,
    ):
        """The fragment's combined-pass output for *plan*, shared with every
        identical request of the same flush.

        ``flat`` pins the pass to a specific :class:`FlatFragment` (the MVCC
        snapshot path); requests pinned to different encodings of the same
        fragment never share a pass.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        queued_at = time.perf_counter()
        init_vector = tuple(init_vector)
        slots = self._pending.setdefault(fragment_id, {})
        key = (is_root_fragment, id(flat), plan.fingerprint, init_vector)
        slot = slots.get(key)
        if slot is None:
            slots[key] = slot = (plan, init_vector, is_root_fragment, flat, [])
        slot[4].append((future, queued_at))
        if self._flush_handle is None:
            self._flush_handle = loop.call_soon(self._flush)
        # The flush callback runs in whatever task context first scheduled
        # it, so its spans would attribute to an arbitrary request; instead
        # the pass timing rides back on the future and each waiter records
        # its own window/kernel spans here, in its own request's context.
        output, pass_started, pass_ended = await future
        add_span("batch:window", "window", queued_at, pass_started,
                 fragment=fragment_id)
        add_span("kernel:fused", "kernel", pass_started, pass_ended,
                 fragment=fragment_id, engine=self.engine.name)
        return output

    def _flush(self) -> None:
        """Run one combined pass per pending slot."""
        self._flush_handle = None
        pending, self._pending = self._pending, {}
        now = time.perf_counter()
        for fragment_id, slots in pending.items():
            for plan, init_vector, is_root, flat, all_waiters in slots.values():
                # Waiters cancelled before the flush have a done (cancelled)
                # future: they count as nothing, and a slot nobody waits for
                # any more runs no pass.
                waiters = [waiter for waiter in all_waiters if not waiter[0].done()]
                if not waiters:
                    continue
                self.stats.record_scan(
                    requests=len(waiters), slots=1,
                    window_seconds=[now - queued_at for _, queued_at in waiters],
                )
                started = time.perf_counter()
                try:
                    output = combined_pass(
                        self.fragmentation, fragment_id, plan, init_vector,
                        is_root_fragment=is_root, engine=self.engine, flat=flat,
                    )
                except Exception as error:  # fail this slot's waiters only
                    for future, _ in waiters:
                        future.set_exception(error)
                    continue
                # (output, pass start, pass end): combined() unpacks the
                # timing for its per-request trace spans.
                result = (output, started, time.perf_counter())
                for future, _ in waiters:
                    future.set_result(result)


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
