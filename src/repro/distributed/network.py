"""The simulated network: sites, placement, message accounting."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.distributed.messages import Message
from repro.distributed.site import Site
from repro.distributed.stats import RunStats, SiteStats
from repro.fragments.fragment_tree import Fragmentation

__all__ = ["Network"]


class Network:
    """A set of sites holding the fragments of one fragmentation.

    The network is passive: algorithms create sites through it, record
    messages with :meth:`send`, and finally collect the accounting with
    :meth:`collect_stats`.  The coordinator (the paper's ``S_Q``) is the site
    holding the root fragment.
    """

    def __init__(self, fragmentation: Fragmentation, placement: Mapping[str, str]):
        self.fragmentation = fragmentation
        self.placement: Dict[str, str] = dict(placement)
        self.sites: Dict[str, Site] = {}
        self.messages: List[Message] = []
        for fragment_id, site_id in self.placement.items():
            site = self.sites.get(site_id)
            if site is None:
                site = Site(site_id)
                self.sites[site_id] = site
            site.assign_fragment(fragment_id)
        root_fragment_id = fragmentation.root_fragment_id
        if root_fragment_id not in self.placement:
            raise ValueError("placement does not cover the root fragment")
        self.coordinator_id: str = self.placement[root_fragment_id]
        #: site id -> its fragments in fragment-id order, indexed once here
        #: (every algorithm asks per site, per stage, per query)
        self._fragments_on: Dict[str, List[str]] = {site_id: [] for site_id in self.sites}
        for fragment_id in fragmentation.fragment_ids():
            self._fragments_on[self.placement[fragment_id]].append(fragment_id)

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
        return list(self._fragments_on.get(site_id, ()))

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
        stats.sites = {
            site.site_id: SiteStats(
                site_id=site.site_id,
                fragment_ids=tuple(site.fragment_ids),
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
