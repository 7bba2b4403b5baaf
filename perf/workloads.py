"""The four workloads: documents, set-up, query pools and request streams.

Only the public surfaces ``repro``, ``repro.service``, ``repro.updates`` and
``repro.workloads`` are imported here; everything a workload does to the
system goes through them.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence

from repro import (
    DistributedQueryEngine,
    ServiceConfig,
    XMLNode,
    build_fragmentation,
    one_site_per_fragment,
    parse_xml,
    serialize,
)
from repro.service import ServiceHost
from repro.updates import MixedWorkload
from repro.workloads import build_ft1, build_ft2

from oracle import FRESH_TEMPLATES, TEMPLATES, Query, kids

__all__ = ["WORKLOADS", "Spec", "Served", "WRITE", "generate", "set_up", "make_pool", "blocks", "mutation_source"]

DOCUMENT = "doc"
#: matches nothing but cannot be pruned, so answering it encodes every fragment
COVER_QUERY = "//perf_cover_probe"
WRITE = "write"


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    layout: str  # "ft1" (flat fragment tree) or "ft2" (the paper's Figure 8)
    doc_bytes: int
    service: bool
    engine: Optional[str]
    cache_capacity: int
    callers: int
    #: distinct recurring queries; 0 draws a never-seen query for every request
    pool_size: int
    write_ratio: float = 0.0
    #: exponent of the rank-frequency law reads follow over the pool (0 = each
    #: block is one permutation of the pool)
    skew: float = 0.0
    #: requests per block of a skewed or never-seen-query stream (a block of a
    #: plain recurring pool is one permutation of it); a round is whole blocks
    block: int = 0
    #: set-ups per run (`setup_s` is their median); a small document's takes
    #: 0.04-0.25 s, short enough for one noisy second to spoil several
    setups: int = 9
    ft1_fragments: int = 64

    def scaled(self, scale: float) -> "Spec":
        """The workload in miniature, for the smoke test: a document of *scale*
        times the bytes, pools and blocks a few times smaller, three set-ups."""
        if scale == 1.0:
            return self
        fewer = min(1.0, scale * 3)
        return replace(
            self,
            doc_bytes=max(4_000, int(self.doc_bytes * scale)),
            ft1_fragments=max(4, int(self.ft1_fragments * fewer)),
            pool_size=max(2 * self.callers, int(self.pool_size * fewer)) if self.pool_size else 0,
            block=max(10, int(self.block * fewer)),
            setups=min(self.setups, 3),
        )


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "ft2_sync",
            "paper Fig. 8 FT2 at 600KB through the sync PaX2 engine, 49 recurring queries:"
            " the per-fragment pass carries the time, caches and admission are absent",
            layout="ft2", doc_bytes=600_000, service=False, engine=None, cache_capacity=0,
            callers=1, pool_size=49,
        ),
        Spec(
            "ft1_fanout_fresh",
            "paper Exp. 1 FT1 with 64 small fragments, every request a never-seen query:"
            " per-fragment fixed cost and compile dominate, scan work is negligible",
            layout="ft1", doc_bytes=130_000, service=False, engine=None, cache_capacity=0,
            callers=1, pool_size=0, block=30,
        ),
        Spec(
            "svc_big_uncached",
            "FT2 at 5MB through ServiceHost on the vector engine with the result cache off,"
            " 8 closed-loop callers: admission, batching, unify and answer accounting carry the time",
            layout="ft2", doc_bytes=5_000_000, service=True, engine="vector", cache_capacity=0,
            callers=8, pool_size=97, setups=3,
        ),
        Spec(
            "svc_mixed_rw",
            "FT2 at 300KB through the default ServiceHost, skewed reads over 400 queries"
            " with 5% writes: cache hits, misses, retirement and re-encode all run",
            layout="ft2", doc_bytes=300_000, service=True, engine=None, cache_capacity=256,
            callers=2, pool_size=400, block=100, write_ratio=0.05, skew=1.6,
        ),
    )
}


# -- documents -----------------------------------------------------------------


def generate(spec: Spec, seed: int) -> str:
    """The workload's document as XML text (benchmark input, not set-up)."""
    if spec.layout == "ft1":
        scenario = build_ft1(spec.ft1_fragments, spec.doc_bytes, seed=seed)
    else:
        scenario = build_ft2(spec.doc_bytes, seed=seed)
    return serialize(scenario.tree)


def _child(node: XMLNode, tag: str) -> XMLNode:
    return kids(node, tag)[0]


def cut_nodes(spec: Spec, root: XMLNode) -> List[XMLNode]:
    """The fragment roots of FT1 / FT2, found again in a parsed document."""
    sites = kids(root, "site")
    if spec.layout == "ft1":
        return sites[1:]
    _, b, c, d = sites
    return [
        b, _child(_child(b, "regions"), "namerica"), _child(b, "open_auctions"),
        _child(b, "closed_auctions"),
        c, _child(c, "regions"), _child(c, "open_auctions"), _child(c, "closed_auctions"),
        d,
    ]


# -- set-up: XML text -> a system that has answered over every fragment ---------


class Served:
    """One set-up system; reads and writes go through the public entry points."""

    def __init__(self, spec: Spec, xml_text: str):
        self.spec = spec
        self.tree = parse_xml(xml_text)
        cuts = [node.node_id for node in cut_nodes(spec, self.tree.root)]
        self.fragmentation = build_fragmentation(self.tree, cuts)
        self.placement = one_site_per_fragment(self.fragmentation)
        self.engine: Optional[DistributedQueryEngine] = None
        self.host: Optional[ServiceHost] = None
        if spec.service:
            self.host = self._new_host(tracer=None)
        else:
            self.engine = DistributedQueryEngine(
                self.fragmentation, self.placement, algorithm="pax2",
                use_annotations=True, engine=spec.engine,
            )

    def _new_host(self, tracer) -> ServiceHost:
        spec = self.spec
        host = ServiceHost(
            ServiceConfig(engine=spec.engine, cache_capacity=spec.cache_capacity, tracer=tracer)
        )
        host.register(DOCUMENT, self.fragmentation, self.placement)
        return host

    def with_tracer(self, tracer) -> "Served":
        """A second host over the same document, tracing switched on through
        its public config (a host's tracer is fixed when it is built)."""
        twin = copy.copy(self)
        twin.host = self._new_host(tracer)
        return twin

    async def read(self, query_text: str):
        if self.host is not None:
            return await self.host.submit(DOCUMENT, query_text)
        return self.engine.execute(query_text)

    async def write(self, mutation):
        """Only the service workloads write."""
        return await self.host.apply_update(DOCUMENT, mutation)


async def set_up(spec: Spec, xml_text: str) -> Served:
    served = Served(spec, xml_text)
    await served.read(COVER_QUERY)
    return served


# -- query pools and request streams -------------------------------------------

PAPER_POOL = (
    TEMPLATES["person"].query(()),
    TEMPLATES["annotation"].query(()),
    TEMPLATES["card"].query((20, "US")),
    TEMPLATES["card_deep"].query((20, "US")),
)


#: How often each template recurs in a pool beyond Q1-Q4, chosen so that the
#: median request and the 95th-percentile request each fall inside a class of
#: similarly priced queries, not on the step between two classes: about a
#: third of a pool is cheap (pruned to the people or regions fragments), a
#: quarter mid-priced (price, phone), the rest visits every fragment.
POOL_WEIGHTS = {
    "card": 5, "region_item": 5, "interest": 4, "price": 10, "phone": 1,
    "card_deep": 4, "city": 4, "bid": 4, "closed_qty": 3, "item_not": 5,
}


def _template_cycle() -> List[str]:
    """POOL_WEIGHTS as a sequence whose every prefix keeps the proportions."""
    total = sum(POOL_WEIGHTS.values())
    given = dict.fromkeys(POOL_WEIGHTS, 0)
    cycle: List[str] = []
    for step in range(1, total + 1):
        name = max(POOL_WEIGHTS, key=lambda n: POOL_WEIGHTS[n] * step / total - given[n])
        given[name] += 1
        cycle.append(name)
    return cycle


def make_pool(size: int, rng: random.Random) -> List[Query]:
    """*size* distinct queries: the paper's Q1-Q4, then the template cycle with
    seeded constants — the same template at the same rank for every seed."""
    pool: List[Query] = list(PAPER_POOL[:size])
    seen = set(pool)
    cycle = _template_cycle()
    position = 0
    while len(pool) < size:
        template = TEMPLATES[cycle[position % len(cycle)]]
        position += 1
        for _ in range(20):  # a template with few constants runs dry and is passed over
            query = template.fresh(rng)
            if query not in seen:
                seen.add(query)
                pool.append(query)
                break
    return pool


def blocks(spec: Spec, pool: Sequence[Query], rng: random.Random) -> Iterator[List[object]]:
    """The endless, seeded request stream, one block at a time."""
    if not pool:
        seen: set = set()
        while True:  # every block holds each template equally often
            block: List[object] = []
            while len(block) < spec.block:
                query = TEMPLATES[FRESH_TEMPLATES[len(block) % len(FRESH_TEMPLATES)]].fresh(rng)
                if query not in seen:
                    seen.add(query)
                    block.append(query)
            rng.shuffle(block)
            yield block
    elif spec.skew:
        # Every block has the same writes and the same popular reads — each
        # query as often as its rank's share of the block rounds down to — and
        # fills up with seeded draws from the less popular rest, so blocks (and
        # rounds) differ only in their tail and in the order of their requests.
        writes = round(spec.block * spec.write_ratio)
        reads = spec.block - writes
        weights = [1.0 / (rank + 1) ** spec.skew for rank in range(len(pool))]
        total = sum(weights)
        head = [q for q, w in zip(pool, weights) for _ in range(int(reads * w / total))]
        tail = [(q, w) for q, w in zip(pool, weights) if int(reads * w / total) == 0]
        tail_queries, tail_weights = [q for q, _ in tail], [w for _, w in tail]
        while True:
            block = head + rng.choices(tail_queries, weights=tail_weights, k=reads - len(head))
            block += [WRITE] * writes
            rng.shuffle(block)
            yield block
    else:
        while True:  # a block is one permutation of the pool
            yield rng.sample(list(pool), len(pool))


def mutation_source(fragmentation, seed: int) -> MixedWorkload:
    """Seeded mutations, each drawn against the document as it then stands."""
    return MixedWorkload(fragmentation, [COVER_QUERY], write_ratio=1.0, seed=seed)
