"""MVCC fragment snapshots: pin a version's flat encodings, read while writing.

Every service read isolates itself from concurrent writes this way, with no
lock between readers and writers.  A reader *pins* the current
``(version_tag, {fragment_id -> FlatFragment})`` pair at admission and
evaluates against those captured columns for its whole lifetime, while
a writer mutates the object tree and bumps fragment epochs concurrently —
the flats a snapshot holds are immutable, and
:meth:`~repro.fragments.fragment_tree.Fragmentation.bump_epoch` merely pops
the touched fragment from the *cache*, so a pinned snapshot simply keeps
the superseded encoding alive while new readers get freshly built ones.

Capture is synchronous: :meth:`SnapshotManager.pin` materializes every
fragment's flat in one block with no awaits, so under the cooperative
single-threaded event loop no write can interleave and a snapshot is
torn-free by construction.  Snapshots are refcounted per version — all
readers of one version share one :class:`VersionSnapshot` — and reclaimed
when the last pinned reader releases.  Writers honour a bounded
retained-versions watermark (:attr:`SnapshotPolicy.max_retained_versions`):
when that many version snapshots are still alive, the next write waits for
a reclaim instead of growing version history without bound.

Answers computed against a snapshot are exact *at the pinned version*: the
``answer_ids`` and all traffic accounting, ``answer_nodes_shipped``
included (it is counted from the pinned flats), match what a quiesced
evaluation at that version would produce —
``tests/service/test_snapshots.py::test_overlapped_reads_replay_exactly_at_their_pinned_version``
replays every read of an overlapped run at its pinned version.
Materializing answer *nodes* through the live tree after a later write is
subject to the staleness contract documented in the README: ids from a
pinned version may since have been deleted.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.fragments.fragment_tree import Fragmentation
from repro.xmltree.flat import FlatFragment

__all__ = [
    "SnapshotPolicy",
    "SnapshotStats",
    "VersionSnapshot",
    "SnapshotManager",
]


@dataclass(frozen=True)
class SnapshotPolicy:
    """Knobs for MVCC snapshot reads (``ServiceConfig.snapshots``).

    Every service read — PaX2 on a columnar engine, ``kernel`` or
    ``vector`` — pins a version snapshot, so writes never wait for reader
    drain.

    ``max_retained_versions``
        Watermark on simultaneously retained version snapshots.  A writer
        finding this many alive waits for a reclaim before installing the
        next version, bounding memory under sustained writes against
        long-running readers.
    """

    max_retained_versions: int = 8

    def __post_init__(self) -> None:
        if self.max_retained_versions < 1:
            raise ValueError("max_retained_versions must be >= 1")


@dataclass
class SnapshotStats:
    """Lifetime counters, surfaced in host summaries and Prometheus."""

    pins: int = 0
    snapshots_created: int = 0
    snapshots_reclaimed: int = 0
    peak_retained: int = 0
    writer_stalls: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "pins": self.pins,
            "snapshots_created": self.snapshots_created,
            "snapshots_reclaimed": self.snapshots_reclaimed,
            "peak_retained": self.peak_retained,
            "writer_stalls": self.writer_stalls,
        }


class VersionSnapshot:
    """One pinned version: its tag and every fragment's flat encoding.

    Shared by all readers pinned at the same version; ``pins`` is managed
    by the owning :class:`SnapshotManager`.
    """

    __slots__ = ("version", "flats", "pins")

    def __init__(self, version: str, flats: Dict[str, FlatFragment]):
        self.version = version
        self.flats = flats
        self.pins = 0

    def flat(self, fragment_id: str) -> FlatFragment:
        return self.flats[fragment_id]

    def __repr__(self) -> str:
        return (
            f"<VersionSnapshot {self.version[:12]} pins={self.pins}"
            f" fragments={len(self.flats)}>"
        )


class SnapshotManager:
    """Per-session registry of pinned version snapshots.

    All methods except :meth:`wait_for_capacity` are synchronous and must
    be called between awaits of the session's event loop — that is what
    makes capture atomic without any locking.
    """

    def __init__(self, fragmentation: Fragmentation, policy: SnapshotPolicy):
        self.fragmentation = fragmentation
        self.policy = policy
        self.stats = SnapshotStats()
        self._snapshots: Dict[str, VersionSnapshot] = {}
        self._capacity_waiters: List[asyncio.Future] = []

    # -- reader side --------------------------------------------------------

    async def prewarm(self) -> None:
        """Spread post-write encoding rebuilds over loop turns before a pin.

        :meth:`pin` must capture synchronously to stay torn-free, which
        makes it pay for every columnar encoding a write invalidated in one
        uninterruptible block — on a shared host that block stalls *other*
        tenants' readers behind this tenant's post-write rebuild chain.
        Building the missing encodings here first, yielding after each
        fragment, keeps the synchronous part of the pin to (usually) plain
        dict copies.  Purely best-effort: a write landing between yields
        just leaves the pin a fragment to rebuild inline.
        """
        fragmentation = self.fragmentation
        for fragment_id in fragmentation.fragment_ids():
            if fragmentation.flat_cached(fragment_id):
                continue
            fragmentation.flat(fragment_id)
            await asyncio.sleep(0)

    def pin(self, version: str) -> VersionSnapshot:
        """Pin *version*, capturing every fragment's flat synchronously.

        Must be called with the session at exactly *version* (no awaits
        between reading the session version and pinning).
        """
        snapshot = self._snapshots.get(version)
        if snapshot is None:
            fragmentation = self.fragmentation
            flats = {
                fragment_id: fragmentation.flat(fragment_id)
                for fragment_id in fragmentation.fragment_ids()
            }
            snapshot = VersionSnapshot(version, flats)
            self._snapshots[version] = snapshot
            self.stats.snapshots_created += 1
            self.stats.peak_retained = max(
                self.stats.peak_retained, len(self._snapshots)
            )
        snapshot.pins += 1
        self.stats.pins += 1
        return snapshot

    def release(self, snapshot: VersionSnapshot) -> None:
        snapshot.pins -= 1
        if snapshot.pins > 0:
            return
        if self._snapshots.get(snapshot.version) is snapshot:
            del self._snapshots[snapshot.version]
            self.stats.snapshots_reclaimed += 1
            self._wake_capacity_waiters()

    # -- writer side --------------------------------------------------------

    @property
    def retained(self) -> int:
        """Version snapshots currently alive (pinned by at least one reader)."""
        return len(self._snapshots)

    async def wait_for_capacity(self) -> None:
        """Writer back-pressure: wait until a new version may be installed.

        Called before applying a mutation.  While ``max_retained_versions``
        snapshots are alive, installing another version could grow history
        past the watermark, so the writer waits for a reclaim.  Readers pin
        only the *current* version, so the alive-version count can never
        grow while we wait — this converges as soon as any pinned reader
        finishes.
        """
        while len(self._snapshots) >= self.policy.max_retained_versions:
            waiter: asyncio.Future = asyncio.get_running_loop().create_future()
            self._capacity_waiters.append(waiter)
            self.stats.writer_stalls += 1
            try:
                await waiter
            finally:
                if waiter in self._capacity_waiters:
                    self._capacity_waiters.remove(waiter)

    def _wake_capacity_waiters(self) -> None:
        waiters, self._capacity_waiters = self._capacity_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def __repr__(self) -> str:
        return (
            f"<SnapshotManager retained={len(self._snapshots)}"
            f" watermark={self.policy.max_retained_versions}>"
        )
