"""Site rounds: where an algorithm's coordinator meets the sites that run it.

Each algorithm is written once, as a *coordinator*: a generator that yields
one :class:`Stage` of :class:`SiteRound` s at a time and is sent back, per
round, the outputs of its per-fragment passes — or the exception that lost
the round.  It never sends a message or visits a site; a *driver* does, and
is the only code that knows how a round reaches its site.  There are two:
:func:`drive` here (inline, the sync engine) and
:func:`repro.service.evaluator.evaluate_query_async` (actor tasks over an
async transport).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.common import stage_site_times
from repro.distributed.network import Network
from repro.distributed.site import Site
from repro.distributed.stats import RunStats, StageStats

__all__ = [
    "Envelope", "SiteRound", "Stage", "Coordinator", "outputs_by_fragment", "record_site_times",
    "run_round", "drive", "run_inline",
]

#: one message a round sends: (message kind, units, description)
Envelope = Tuple[str, int, str]


@dataclass(slots=True, eq=False)
class SiteRound:
    """One visit of one site: what to ship there, run there and ship back."""

    #: the visit's stage key (``pax2:combined``, ``pax3:selection``, ...)
    stage: str
    site_id: str
    fragment_ids: Sequence[str]
    #: coordinator -> site messages sent before the visit
    requests: List[Envelope]
    #: the per-fragment pass, called inside the visit as
    #: ``run_pass(site, fragment_id)`` for each of the round's fragments
    run_pass: Callable[[Site, str], Any]
    #: ``collect(site, fragment_ids, outputs)`` folds the pass outputs into
    #: the site's storage and operation counter, inside the visit, and
    #: returns the site -> coordinator messages sent after it
    collect: Callable[[Site, Sequence[str], List[Any]], List[Envelope]]


@dataclass(slots=True, eq=False)
class Stage:
    """The independent site rounds of one stage, and the stage's stats."""

    key: str
    stats: StageStats
    rounds: List[SiteRound]


class Coordinator:
    """A coordinator generator, stepped by a driver.

    :meth:`advance` runs the code between two yields with the cyclic
    collector paused and charges it to the ``coordinator_seconds`` of the
    stage whose results it consumed (the first step to the first stage).
    """

    __slots__ = ("_steps", "stage", "stats")

    def __init__(self, steps: Generator[Stage, List[Any], RunStats]):
        self._steps = steps
        #: the stage whose rounds are out (``None`` before and after the run)
        self.stage: Optional[Stage] = None
        #: the run's stats, once the coordinator returned them
        self.stats: Optional[RunStats] = None

    def advance(self, results: Optional[List[Any]] = None) -> Optional[Stage]:
        """Send *results* (one per round of the current stage) and return
        the next stage, or ``None`` once :attr:`stats` is set."""
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        started = time.perf_counter()
        try:
            stage = self._steps.send(results)
        except StopIteration as done:
            stage, self.stats = None, done.value
        finally:
            elapsed = time.perf_counter() - started
            if gc_was_enabled:
                gc.enable()
        charged = self.stage if self.stage is not None else stage
        if charged is not None:
            charged.stats.coordinator_seconds += elapsed
        self.stage = stage
        return stage


def outputs_by_fragment(rounds: Sequence[SiteRound], results: Sequence[Any]) -> Dict[str, Any]:
    """Fragment id -> pass output, over the rounds that came back."""
    outputs: Dict[str, Any] = {}
    for site_round, result in zip(rounds, results):
        if not isinstance(result, BaseException):
            outputs.update(zip(site_round.fragment_ids, result))
    return outputs


def record_site_times(network: Network, stage: Stage) -> None:
    """The stage's parallel and total site seconds, once its rounds ran."""
    stage.stats.parallel_seconds, stage.stats.total_seconds = stage_site_times(
        network, [site_round.site_id for site_round in stage.rounds], stage.key
    )


def run_round(network: Network, site_round: SiteRound) -> List[Any]:
    """Run one round inline: requests, the visit, then the replies."""
    site_id, coordinator_id = site_round.site_id, network.coordinator_id
    site = network.sites[site_id]
    for kind, units, description in site_round.requests:
        network.send(coordinator_id, site_id, kind, units, description)
    with site.visit(site_round.stage):
        run_pass = site_round.run_pass
        outputs = [run_pass(site, fid) for fid in site_round.fragment_ids]
        replies = site_round.collect(site, site_round.fragment_ids, outputs)
    for kind, units, description in replies:
        network.send(site_id, coordinator_id, kind, units, description)
    return outputs


def drive(coordinator: Coordinator, network: Network, stage: Optional[Stage]) -> RunStats:
    """The sync driver: run *stage* and every later one inline."""
    while stage is not None:
        results = [run_round(network, site_round) for site_round in stage.rounds]
        record_site_times(network, stage)
        stage = coordinator.advance(results)
    return network.collect_stats(coordinator.stats)


def run_inline(steps: Generator[Stage, List[Any], RunStats], network: Network) -> RunStats:
    """Run a coordinator generator to completion over *network*."""
    coordinator = Coordinator(steps)
    return drive(coordinator, network, coordinator.advance())
