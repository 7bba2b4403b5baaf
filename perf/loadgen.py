"""Closed-loop load generation and answer checking for one round.

One thread, ``callers`` coroutines, each sending its next request only after
the previous reply: library callers that await their answers.  The sync
engine is driven through the same loop with one caller — its ``read`` never
suspends, so that is a plain call loop.

Nothing is verified inside a round.  Every reply is logged with the window of
document versions it may have been served from and checked at the round
barrier: against the static document, or — when the round wrote — against
the oracle's shadow copy replayed write by write.
"""

from __future__ import annotations

import asyncio
import bisect
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import oracle
from oracle import Doc, Query, Shadow
from workloads import WRITE, Served

__all__ = ["Read", "Write", "RoundLog", "run_round", "Checker", "percentile"]

#: the paper's PaX2 bound on visits to any one site per query
MAX_SITE_VISITS = 2


@dataclass
class Read:
    query: Query
    start: float
    end: float
    #: RunStats of the reply (``None`` when the request raised)
    stats: object
    answer_ids: Optional[List[int]]
    #: document versions the reply may reflect: writes finished when it was
    #: sent .. writes begun when it returned
    first_version: int
    last_version: int
    error: str = ""


@dataclass
class Write:
    start: float
    end: float
    mutation: object
    error: str = ""


@dataclass
class RoundLog:
    reads: List[Read] = field(default_factory=list)
    writes: List[Write] = field(default_factory=list)
    #: intervals the single thread spent synthesizing mutations — generator
    #: time, taken out of every latency and of the round's wall clock
    pauses: List[Tuple[float, float]] = field(default_factory=list)
    wall: float = 0.0

    def paused(self, start: float, end: float) -> float:
        """Generator time inside ``[start, end]``."""
        total = 0.0
        index = bisect.bisect_left(self.pauses, (start, start))
        for pause_start, pause_end in self.pauses[max(0, index - 1):]:
            if pause_start >= end:
                break
            total += max(0.0, min(end, pause_end) - max(start, pause_start))
        return total

    def latency(self, op) -> float:
        return (op.end - op.start) - self.paused(op.start, op.end)

    @property
    def busy_wall(self) -> float:
        return self.wall - sum(end - start for start, end in self.pauses)


async def run_round(
    served: Served,
    stream: Iterator[List[object]],
    seconds: float,
    callers: int,
    version: int = 0,
    mutations=None,
) -> RoundLog:
    """Send whole blocks of *stream* from *callers* closed-loop callers for
    about *seconds*; at least one block.

    *version* counts the writes applied to the document before this round.
    """
    log = RoundLog()
    clock = time.perf_counter
    deadline = clock() + seconds
    state = {"block": iter(next(stream)), "block_started": clock(),
             "begun": version, "done": version}
    write_lock = asyncio.Lock()

    def next_op():
        if state["block"] is None:
            return None
        op = next(state["block"], None)
        if op is None:
            now = clock()
            # Stop at the block boundary nearest the deadline.
            if now + 0.5 * (now - state["block_started"]) >= deadline:
                state["block"] = None
            else:
                state["block"], state["block_started"] = iter(next(stream)), now
                op = next(state["block"], None)
        return op

    async def send_write() -> None:
        # One write at a time: a mutation is drawn against the document as it
        # stands, so it must land before the next one is drawn.
        async with write_lock:
            drawn_at = clock()
            mutation = mutations.next_mutation()
            logged = oracle.loggable(mutation)
            start = clock()
            log.pauses.append((drawn_at, start))
            state["begun"] += 1
            error = ""
            try:
                await served.write(mutation)
            except Exception as exc:  # counted as a failed operation
                error = repr(exc)
            log.writes.append(Write(start, clock(), oracle.FAILED_WRITE if error else logged, error))
            state["done"] += 1

    async def send_read(query: Query) -> None:
        first_version = state["done"]
        start = clock()
        try:
            result = await served.read(query.text)
        except Exception as exc:  # counted as a failed operation
            log.reads.append(
                Read(query, start, clock(), None, None, first_version, state["begun"], repr(exc))
            )
            return
        end = clock()
        stats = result.stats
        log.reads.append(
            Read(query, start, end, stats, stats.answer_ids, first_version, state["begun"])
        )

    async def caller() -> None:
        while (op := next_op()) is not None:
            if op is WRITE:
                await send_write()
            else:
                await send_read(op)

    started = clock()
    await asyncio.gather(*(caller() for _ in range(callers)))
    log.wall = clock() - started
    return log


class Checker:
    """Checks logged replies against the oracle and keeps the failure count."""

    def __init__(self, served: Served, xml_text: str):
        self.served = served
        #: the oracle's own document; only parsed when the workload writes
        self.shadow: Optional[Shadow] = Shadow(xml_text) if served.spec.write_ratio else None
        #: the served tree's tag index and oracle answers, while nothing writes
        self._doc: Optional[Doc] = None
        self._static: Dict[Query, List[int]] = {}
        self._evaluated: Dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.max_site_visits = 0

    @property
    def version(self) -> int:
        return self.shadow.version if self.shadow is not None else 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def evaluated(self, read: Read) -> bool:
        """First sighting of this reply's RunStats: it was computed for this
        request, not handed out again by the result cache or a coalesced wait."""
        if read.stats is None or id(read.stats) in self._evaluated:
            return False
        self._evaluated[id(read.stats)] = read.stats  # kept alive: ids stay unique
        return True

    def expected(self, queries) -> Dict[Query, List[int]]:
        """Oracle answers over the served tree (valid while nothing writes)."""
        missing = [q for q in set(queries) if q not in self._static]
        if missing:
            if self._doc is None:
                self._doc = Doc(self.served.tree.root)
            self._static.update(oracle.answers(self._doc, missing))
        return self._static

    def check(self, log: RoundLog) -> List[Read]:
        """Verify one round; returns the reads evaluated fresh in it."""
        fresh: List[Read] = []
        for write in log.writes:
            self.attempted += 1
            if write.error:
                self._fail(f"write raised {write.error}")
        pending: List[Read] = []
        for read in log.reads:
            self.attempted += 1
            if read.stats is None:
                self._fail(f"{read.query.text} raised {read.error}")
                continue
            if self.evaluated(read):
                fresh.append(read)
                visits = read.stats.max_site_visits
                self.max_site_visits = max(self.max_site_visits, visits)
                if visits > MAX_SITE_VISITS:
                    self._fail(f"{read.query.text} visited a site {visits} times")
                    continue
            pending.append(read)
        if self.shadow is None:
            expected = self.expected(read.query for read in pending)
            for read in pending:
                if read.answer_ids != expected[read.query]:
                    self._fail(f"wrong answer for {read.query.text}")
        else:
            self._check_versions(pending, [write.mutation for write in log.writes])
        return fresh

    def _check_versions(self, pending: List[Read], mutations: List[object]) -> None:
        """Replay the round's writes on the shadow; a reply passes when it
        equals the oracle's answer at some version inside its window."""
        shadow = self.shadow
        for mutation in [*mutations, None]:
            version = shadow.version
            here = [r for r in pending if r.first_version <= version <= r.last_version]
            if here:
                expected = oracle.answers(shadow.doc, (r.query for r in here))
                passed = {id(r) for r in here if r.answer_ids == expected[r.query]}
                pending = [r for r in pending if id(r) not in passed]
            if mutation is not None:
                shadow.apply(mutation)
        for read in pending:
            self._fail(
                f"wrong answer for {read.query.text} at versions"
                f" {read.first_version}..{read.last_version}"
            )

    def recheck(self, replies: Dict[Query, List[int]]) -> None:
        """Quiescent barrier: replies served now must equal the oracle's answers
        over the *served* tree (and, under writes, over the shadow too — the
        two trees drifting apart would be the benchmark's own bug)."""
        live = oracle.answers(Doc(self.served.tree.root), replies)
        if self.shadow is not None and oracle.answers(self.shadow.doc, replies) != live:
            raise AssertionError("oracle shadow diverged from the served document")
        for query, answer_ids in replies.items():
            self.attempted += 1
            if answer_ids != live[query]:
                self._fail(f"stale or wrong answer for {query.text} at a barrier")


def percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]
