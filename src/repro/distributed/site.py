"""A participating site: fragments, per-stage scratch storage, counters."""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List

__all__ = ["Site"]


class Site:
    """A site of the simulated distributed system.

    A site holds one or more fragments and, between visits, whatever state
    the algorithm left behind (the paper's "annotate the fragment with
    vectors").  The site does not run algorithm code itself; the algorithms
    call :meth:`visit` around the work they do "at" the site so visits and
    per-stage elapsed time are recorded in one place.
    """

    def __init__(self, site_id: str, fragment_ids: Iterable[str] = ()):
        self.site_id = site_id
        #: ids of the fragments stored at this site
        self.fragment_ids: List[str] = list(fragment_ids)
        #: algorithm scratch space surviving between visits, keyed by fragment id
        self.storage: Dict[str, Dict[str, Any]] = {
            fragment_id: {} for fragment_id in self.fragment_ids
        }
        self.visits = 0
        self.stage_seconds: Dict[str, float] = {}
        self.operations = 0

    # -- fragments -----------------------------------------------------------

    def holds(self, fragment_id: str) -> bool:
        return fragment_id in self.fragment_ids

    # -- accounting ------------------------------------------------------------

    @contextmanager
    def visit(self, stage: str) -> Iterator["Site"]:
        """Record one visit of this site for *stage*, timing the enclosed work.

        The cyclic garbage collector is paused for the duration of the visit
        (and restored afterwards): visits are the per-site timing windows the
        paper's evaluation-time figures are built from, and a multi-ms gen-2
        collection landing inside one visit would be charged to whichever
        site happened to trigger it — pure measurement noise on the
        sub-millisecond scaled-down workloads.
        """
        self.visits += 1
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        started = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - started
            if gc_was_enabled:
                gc.enable()
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + elapsed

    def add_operations(self, count: int) -> None:
        """Add to the coarse operation counter (node visits x plan width)."""
        self.operations += count

    def total_seconds(self) -> float:
        """Total measured compute time across all visits."""
        return sum(self.stage_seconds.values())

    def snapshot_counters(self) -> tuple:
        """The current counters, for :meth:`restore_counters`.

        The resilience layer snapshots a site before a retryable round and
        restores on failure, so an abandoned attempt's visits and stage
        seconds never leak into the run's accounting (the paper's per-site
        visit bounds keep holding under retries).
        """
        return (self.visits, dict(self.stage_seconds), self.operations)

    def restore_counters(self, snapshot: tuple) -> None:
        """Roll the counters back to a :meth:`snapshot_counters` state."""
        visits, stage_seconds, operations = snapshot
        self.visits = visits
        self.stage_seconds = dict(stage_seconds)
        self.operations = operations

    def reset_counters(self) -> None:
        """Clear visit/time/operation counters (storage is kept)."""
        self.visits = 0
        self.stage_seconds.clear()
        self.operations = 0

    def clear_storage(self) -> None:
        """Drop all per-fragment scratch state."""
        for fragment_id in self.fragment_ids:
            self.storage[fragment_id] = {}

    def __repr__(self) -> str:
        return f"<Site {self.site_id} fragments={self.fragment_ids} visits={self.visits}>"
