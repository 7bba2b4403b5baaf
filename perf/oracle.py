"""Independent template oracle for the benchmark's queries.

Every query the benchmark sends is an instance of one of the templates below.
Each template carries a hand-written filter over the public ``XMLNode`` tree:
``records(doc)`` visits the template's context nodes once and returns, per
context node, the features its qualifier reads plus the ids it would answer
with (``doc`` is the tree plus an index of its elements by tag, so a ``//tag``
step is a lookup instead of another walk of the whole document);
``match(features, params)`` decides one parameter binding.  Nothing here goes
through ``repro.xpath`` — the oracle shares only the node model with the
system under test, and is itself cross-checked against
``evaluate_centralized`` (five sampled queries per run, every template in the
smoke test).

``Shadow`` is the oracle's own copy of a document that is being written to:
the load generator logs each mutation, and at a round barrier the log is
replayed on the shadow so that every read can be checked against the version
of the document it was served from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from repro import DeleteSubtree, EditText, InsertSubtree, XMLNode, parse_xml

__all__ = ["Query", "Template", "TEMPLATES", "FRESH_TEMPLATES", "Doc", "answers", "Shadow"]

COUNTRIES = ("US", "Canada", "Germany", "France", "Japan", "Brazil", "India")
CITIES = ("Seattle", "Boston", "Toronto", "Berlin", "Lyon", "Osaka", "Recife", "Pune")
REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")
INTERESTS = ("category1", "category7", "category12", "category23", "category42")
EDUCATIONS = ("High School", "College", "Graduate")
PAYMENTS = ("Cash", "Creditcard", "Money order")


# -- navigation over the public node model ----------------------------------


def kids(node: XMLNode, tag: str | None = None) -> List[XMLNode]:
    """Element children of *node* with *tag* (any tag for ``None``)."""
    return [c for c in node.children if c.is_element and (tag is None or c.tag == tag)]


def reach(nodes: Iterable[XMLNode], *tags: str | None) -> List[XMLNode]:
    """Nodes reached from *nodes* by one child step per tag."""
    current = list(nodes)
    for tag in tags:
        current = [c for n in current for c in kids(n, tag)]
    return current


class Doc:
    """A document root plus its elements by tag, kept current under writes."""

    def __init__(self, root: XMLNode):
        self.root = root
        self._by_tag: Dict[str, Dict[int, XMLNode]] = {}
        self.add(root)

    def add(self, subtree: XMLNode) -> None:
        for node in subtree.iter_subtree():
            if node.is_element:
                self._by_tag.setdefault(node.tag, {})[node.node_id] = node

    def remove(self, subtree: XMLNode) -> None:
        for node in subtree.iter_subtree():
            if node.is_element:
                del self._by_tag[node.tag][node.node_id]

    def anywhere(self, tag: str) -> Iterable[XMLNode]:
        """``//tag``: every element with *tag*, the root included."""
        return self._by_tag.get(tag, {}).values()

    def from_sites(self, *tags: str | None) -> List[XMLNode]:
        """``/sites/<tags...>``: nothing unless the root element is ``sites``."""
        return reach([self.root], *tags) if self.root.tag == "sites" else []


def texts(node: XMLNode, *tags: str) -> List[str]:
    """Comparable text of the nodes at ``tags`` below *node* (``text() = s``)."""
    return [n.text().strip().lower() for n in reach([node], *tags)]


def numbers(node: XMLNode, *tags: str) -> List[float]:
    """Numeric values of the nodes at ``tags`` below *node* (``val() op n``)."""
    values = (n.numeric_value() for n in reach([node], *tags))
    return [v for v in values if v is not None]


def ids(nodes: Iterable[XMLNode]) -> List[int]:
    return [n.node_id for n in nodes]


# -- templates ---------------------------------------------------------------

Record = Tuple[tuple, List[int]]  # (features of one context node, ids it answers with)


@dataclass(frozen=True)
class Template:
    name: str
    pattern: str
    #: draw one parameter tuple; numeric constants stay in the middle of their
    #: column's range, so that two draws select similar shares of the document
    draw: Callable[[random.Random], tuple]
    #: (features, answer ids) per context node
    records: Callable[["Doc"], List[Record]]
    #: does a context node with these features satisfy the qualifier?
    match: Callable[[tuple, tuple], bool]

    def query(self, params: tuple) -> "Query":
        return Query(self.name, params, self.pattern.format(*params))

    def fresh(self, rng: random.Random) -> "Query":
        return self.query(self.draw(rng))


@dataclass(frozen=True)
class Query:
    template: str
    params: tuple
    text: str


def _no_params(rng: random.Random) -> tuple:
    return ()


def _always(features: tuple, params: tuple) -> bool:
    return True


def _people(doc: Doc) -> List[XMLNode]:
    return doc.from_sites("site", "people", "person")


def _card_records(persons: Iterable[XMLNode]) -> List[Record]:
    return [
        ((numbers(p, "profile", "age"), texts(p, "address", "country")), ids(kids(p, "creditcard")))
        for p in persons
    ]


def _card_match(features: tuple, params: tuple) -> bool:
    ages, countries = features
    age, country = params
    return any(a > age for a in ages) and country.lower() in countries


def _card_draw(rng: random.Random) -> tuple:
    return (round(rng.uniform(25, 45), 1), rng.choice(COUNTRIES))


def _deep_people(doc: Doc) -> List[XMLNode]:
    # /sites//people/person: a people element anywhere below a root called sites
    return reach(doc.anywhere("people"), "person") if doc.root.tag == "sites" else []


TEMPLATES: Dict[str, Template] = {
    t.name: t
    for t in (
        Template(
            "person", "/sites/site/people/person", _no_params,
            lambda doc: [((), [p.node_id]) for p in _people(doc)], _always,
        ),
        Template(
            "annotation", "/sites/site/open_auctions//annotation", _no_params,
            lambda doc: [
                ((), ids(n for n in oa.iter_subtree() if n.is_element and n.tag == "annotation" and n is not oa))
                for oa in doc.from_sites("site", "open_auctions")
            ],
            _always,
        ),
        Template(
            "card",
            '/sites/site/people/person[profile/age > {0} and address/country = "{1}"]/creditcard',
            _card_draw, lambda doc: _card_records(_people(doc)), _card_match,
        ),
        Template(
            "card_deep",
            '/sites//people/person[profile/age > {0} and address/country = "{1}"]/creditcard',
            _card_draw, lambda doc: _card_records(_deep_people(doc)), _card_match,
        ),
        Template(
            "city", '//person[address/city = "{0}"]/name',
            lambda rng: (rng.choice(CITIES),),
            lambda doc: [
                ((texts(p, "address", "city"),), ids(kids(p, "name"))) for p in doc.anywhere("person")
            ],
            lambda f, p: p[0].lower() in f[0],
        ),
        Template(
            "region_item", "/sites/site/regions/{0}/item[quantity > {1}]/name",
            lambda rng: (rng.choice(REGIONS), round(rng.uniform(5, 15), 2)),
            lambda doc: [
                ((region.tag, numbers(item, "quantity")), ids(kids(item, "name")))
                for region in doc.from_sites("site", "regions", None)
                for item in kids(region, "item")
            ],
            lambda f, p: f[0] == p[0] and any(q > p[1] for q in f[1]),
        ),
        Template(
            "bid", "//open_auction[bidder/increase > {0}]/current",
            lambda rng: (round(rng.uniform(8, 22), 2),),
            lambda doc: [
                ((numbers(a, "bidder", "increase"),), ids(kids(a, "current")))
                for a in doc.anywhere("open_auction")
            ],
            lambda f, p: any(x > p[0] for x in f[0]),
        ),
        Template(
            "price", "/sites/site/closed_auctions/closed_auction[price < {0}]/buyer",
            lambda rng: (round(rng.uniform(300, 500), 2),),
            lambda doc: [
                ((numbers(a, "price"),), ids(kids(a, "buyer")))
                for a in doc.from_sites("site", "closed_auctions", "closed_auction")
            ],
            lambda f, p: any(x < p[0] for x in f[0]),
        ),
        Template(
            "item_not", '//item[location = "{0}" and not(payment = "{1}")]/shipping',
            lambda rng: (rng.choice(CITIES), rng.choice(PAYMENTS)),
            lambda doc: [
                ((texts(i, "location"), texts(i, "payment")), ids(kids(i, "shipping")))
                for i in doc.anywhere("item")
            ],
            lambda f, p: p[0].lower() in f[0] and p[1].lower() not in f[1],
        ),
        Template(
            "interest",
            '/sites/site/people/person[profile/interest = "{0}" or profile/education = "{1}"]/emailaddress',
            lambda rng: (rng.choice(INTERESTS), rng.choice(EDUCATIONS)),
            lambda doc: [
                ((texts(p, "profile", "interest"), texts(p, "profile", "education")),
                 ids(kids(p, "emailaddress")))
                for p in _people(doc)
            ],
            lambda f, p: p[0].lower() in f[0] or p[1].lower() in f[1],
        ),
        Template(
            "closed_qty", "//closed_auction[quantity = {0}]/annotation/author",
            lambda rng: (rng.randint(1, 5),),
            lambda doc: [
                ((numbers(a, "quantity"),), ids(reach([a], "annotation", "author")))
                for a in doc.anywhere("closed_auction")
            ],
            lambda f, p: any(x == p[0] for x in f[0]),
        ),
        Template(
            "phone", "/sites/site/*/person[phone]/name", _no_params,
            lambda doc: [
                ((bool(kids(p, "phone")),), ids(kids(p, "name")))
                for p in doc.from_sites("site", None, "person")
            ],
            lambda f, p: f[0],
        ),
    )
}

#: templates whose constants range over thousands of values, so a stream of
#: never-seen queries can be drawn from them
FRESH_TEMPLATES = ("card", "card_deep", "region_item", "bid", "price")


def answers(doc: Doc, queries: Iterable[Query]) -> Dict[Query, List[int]]:
    """Sorted answer ids of every query: one pass over the contexts per template."""
    by_template: Dict[str, List[Query]] = {}
    for query in queries:
        by_template.setdefault(query.template, []).append(query)
    result: Dict[Query, List[int]] = {}
    for name, group in by_template.items():
        template = TEMPLATES[name]
        records = template.records(doc)
        for query in set(group):
            result[query] = sorted({
                node_id
                for features, node_ids in records
                if template.match(features, query.params)
                for node_id in node_ids
            })
    return result


# -- the oracle's copy of a document under writes -----------------------------


def clone_subtree(node: XMLNode) -> XMLNode:
    """A detached, unindexed copy of a not-yet-inserted subtree."""
    copy = XMLNode(node.kind, tag=node.tag, value=node.value)
    for child in node.children:
        copy.append(clone_subtree(child))
    return copy


class Shadow:
    """A second parse of the served document, moved forward by logged writes.

    Node ids agree with the served tree: both are parses of one text (ids in
    document order) and both hand inserted nodes the next free ids in the
    same order.
    """

    def __init__(self, xml_text: str):
        self.tree = parse_xml(xml_text)
        self.doc = Doc(self.tree.root)
        self.version = 0

    def apply(self, mutation) -> None:
        """Apply one logged mutation (an insert carries its own clone)."""
        tree = self.tree
        if mutation is FAILED_WRITE:
            pass
        elif isinstance(mutation, EditText):
            tree.node(mutation.node_id).value = mutation.value
        elif isinstance(mutation, DeleteSubtree):
            node = tree.node(mutation.node_id)
            self.doc.remove(node)
            node.parent.children.remove(node)
            node.parent = None
            tree.unregister_subtree(node)
        elif isinstance(mutation, InsertSubtree):
            parent = tree.node(mutation.parent_id)
            subtree = mutation.subtree
            position = len(parent.children) if mutation.position is None else mutation.position
            subtree.parent = parent
            parent.children.insert(position, subtree)
            tree.register_subtree(subtree)
            self.doc.add(subtree)
        else:
            raise TypeError(f"unknown mutation {mutation!r}")
        self.version += 1


#: logged in place of a write the system refused: a version step that changes nothing
FAILED_WRITE = "failed-write"


def loggable(mutation):
    """The mutation as the shadow must replay it, taken before it is applied."""
    if isinstance(mutation, InsertSubtree):
        return InsertSubtree(mutation.parent_id, clone_subtree(mutation.subtree), mutation.position)
    return mutation
