"""The simulated network: sites, placement, message accounting."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.distributed.messages import Message
from repro.distributed.site import Site
from repro.distributed.stats import RunStats, SiteStats
from repro.fragments.fragment_tree import Fragmentation

__all__ = ["Network", "SiteIndex"]


class SiteIndex:
    """Which site holds which fragments, for one (fragmentation, placement).

    Static for as long as the fragment set and the placement are, so its
    owner (an engine, a service session) builds it once and shares it:
    every :class:`Network` over the pair, every schedule, and every
    run's :class:`~repro.distributed.stats.SiteStats`, which hand out these
    tuples instead of allocating their own.
    """

    __slots__ = ("placement", "structure_version", "coordinator_id", "held", "fragments_on")

    def __init__(self, fragmentation: Fragmentation, placement: Mapping[str, str]):
        self.placement: Dict[str, str] = dict(placement)
        self.structure_version = fragmentation.structure_version
        held: Dict[str, List[str]] = {}
        for fragment_id, site_id in self.placement.items():
            held.setdefault(site_id, []).append(fragment_id)
        #: site id -> its fragments in placement order (what its Site holds),
        #: sites in order of first appearance
        self.held: Dict[str, Tuple[str, ...]] = {
            site_id: tuple(fragment_ids) for site_id, fragment_ids in held.items()
        }
        uncovered = [fid for fid in fragmentation.fragment_ids() if fid not in self.placement]
        if uncovered:
            raise ValueError(f"placement does not cover fragment(s) {', '.join(uncovered)}")
        self.coordinator_id: str = self.placement[fragmentation.root_fragment_id]
        ordered: Dict[str, List[str]] = {site_id: [] for site_id in held}
        for fragment_id in fragmentation.fragment_ids():
            ordered[self.placement[fragment_id]].append(fragment_id)
        #: site id -> its fragments in fragment-id order
        self.fragments_on: Dict[str, Tuple[str, ...]] = {
            site_id: self.held[site_id] if tuple(ids) == self.held[site_id] else tuple(ids)
            for site_id, ids in ordered.items()
        }

    def refreshed(
        self, fragmentation: Fragmentation, placement: Mapping[str, str]
    ) -> "SiteIndex":
        """This index while it still describes *fragmentation* under
        *placement*; a new one once the fragment tree or placement moved."""
        if (
            self.structure_version == fragmentation.structure_version
            and self.placement == placement
        ):
            return self
        return SiteIndex(fragmentation, placement)


class Network:
    """A set of sites holding the fragments of one fragmentation.

    The network is passive: algorithms create sites through it, record
    messages with :meth:`send`, and finally collect the accounting with
    :meth:`collect_stats`.  The coordinator (the paper's ``S_Q``) is the site
    holding the root fragment.  Which site holds what is read from *index*,
    a current :class:`SiteIndex` of the pair when the caller keeps one (a
    fresh one is built otherwise); only the per-run counters are the
    network's own.
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        placement: Mapping[str, str],
        index: Optional[SiteIndex] = None,
    ):
        self.fragmentation = fragmentation
        self.index = index if index is not None else SiteIndex(fragmentation, placement)
        self.placement: Dict[str, str] = self.index.placement
        self.sites: Dict[str, Site] = {
            site_id: Site(site_id, fragment_ids)
            for site_id, fragment_ids in self.index.held.items()
        }
        self.messages: List[Message] = []
        self.coordinator_id: str = self.index.coordinator_id

    # -- lookups ---------------------------------------------------------------

    @property
    def coordinator(self) -> Site:
        return self.sites[self.coordinator_id]

    def site_of(self, fragment_id: str) -> Site:
        """The site holding a fragment."""
        return self.sites[self.placement[fragment_id]]

    def site_ids(self) -> List[str]:
        return sorted(self.sites)

    def fragments_on(self, site_id: str) -> List[str]:
        """Fragment ids stored on a site, in fragment-id order."""
        return list(self.index.fragments_on.get(site_id, ()))

    def sites_holding(self, fragment_ids: Iterable[str]) -> List[str]:
        """Distinct site ids holding any of the given fragments (sorted)."""
        return sorted({self.placement[fid] for fid in fragment_ids})

    # -- messaging ----------------------------------------------------------------

    def send(
        self,
        sender: str,
        receiver: str,
        kind: str,
        units: int,
        description: str = "",
        payload: object = None,
    ) -> Message:
        """Record one message; same-site messages cost nothing on the network."""
        message = Message(
            sender=sender,
            receiver=receiver,
            kind=kind,
            units=max(0, int(units)),
            description=description,
            payload=payload,
        )
        self.messages.append(message)
        return message

    def reset_accounting(self) -> None:
        """Clear message log and per-site counters (placement is kept)."""
        self.messages.clear()
        for site in self.sites.values():
            site.reset_counters()
            site.clear_storage()

    # -- statistics ------------------------------------------------------------------

    def communication_units(self) -> int:
        """Network traffic units, excluding same-site messages."""
        return sum(message.units for message in self.messages if not message.is_local)

    def local_units(self) -> int:
        return sum(message.units for message in self.messages if message.is_local)

    def message_count(self) -> int:
        return sum(1 for message in self.messages if not message.is_local)

    def collect_stats(self, stats: Optional[RunStats] = None) -> RunStats:
        """Fill a :class:`RunStats` with the per-site and traffic accounting."""
        if stats is None:
            stats = RunStats(algorithm="", query="")
        stats.communication_units = self.communication_units()
        stats.local_units = self.local_units()
        stats.message_count = self.message_count()
        held = self.index.held
        stats.sites = {
            site.site_id: SiteStats(
                site_id=site.site_id,
                fragment_ids=held[site.site_id],
                visits=site.visits,
                seconds=site.total_seconds(),
                operations=site.operations,
            )
            for site in self.sites.values()
        }
        return stats

    def __repr__(self) -> str:
        return (
            f"<Network sites={len(self.sites)} fragments={len(self.placement)} "
            f"coordinator={self.coordinator_id}>"
        )
