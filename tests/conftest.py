"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.core.common import account_answers, answer_subtree_nodes
from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import ENGINES, REFERENCE, qualifier_pass
from repro.core.unify import resolved_child_qualifier_bindings, unify_qualifier_vectors
from repro.fragments.fragment_tree import build_fragmentation
from repro.fragments.fragmenters import cut_random
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation
from repro.workloads.scenarios import build_ft1, build_ft2
from repro.xmltree.nodes import ELEMENT, TEXT, XMLNode, XMLTree
from repro.xmltree.parser import parse_xml

#: tags / texts used by the random-document helpers
RANDOM_TAGS = ["a", "b", "c", "d", "e"]
RANDOM_TEXTS = ["alpha", "beta", "gamma", "5", "12", "77"]


def make_random_tree(seed: int, max_nodes: int = 60) -> XMLTree:
    """A small random labelled tree, reproducible from *seed*."""
    rng = random.Random(seed)
    root = XMLNode(ELEMENT, tag=rng.choice(RANDOM_TAGS))
    nodes = [root]
    for _ in range(rng.randint(5, max_nodes)):
        parent = rng.choice(nodes)
        if rng.random() < 0.25:
            parent.append(XMLNode(TEXT, value=rng.choice(RANDOM_TEXTS)))
        else:
            child = XMLNode(ELEMENT, tag=rng.choice(RANDOM_TAGS))
            parent.append(child)
            nodes.append(child)
    return XMLTree(root)


def make_random_fragmentation(tree: XMLTree, seed: int, max_fragments: int = 6):
    """A random fragmentation of *tree* with nested cuts allowed."""
    rng = random.Random(seed)
    return cut_random(tree, fragment_count=rng.randint(1, max_fragments), seed=seed)


#: text payloads for :func:`fragmented_documents`: padded, currency-marked,
#: non-finite, empty and non-numeric, so every branch of the text / val()
#: normalisation is drawn
MIXED_TEXTS = ["x", " 42 ", "$13.5", "Hello", "", " ", "nan", "-inf", "1e3", "é\n"]


@st.composite
def fragmented_documents(draw, max_nodes: int = 40):
    """A drawn document with mixed content and a drawn (nested) fragmentation.

    Each step hangs a new child below an earlier element — an element, or
    with the same odds a text node, so elements collect several text children
    between element children; any subset of the non-root elements is cut.
    """
    steps = draw(st.lists(
        st.tuples(st.integers(0, 10_000), st.sampled_from(RANDOM_TAGS + MIXED_TEXTS)),
        min_size=1, max_size=max_nodes,
    ))
    root = XMLNode(ELEMENT, tag="r")
    elements = [root]
    for pick, label in steps:
        parent = elements[pick % len(elements)]
        if label in RANDOM_TAGS:
            elements.append(parent.append(XMLNode(ELEMENT, tag=label)))
        else:
            parent.append(XMLNode(TEXT, value=label))
    tree = XMLTree(root)
    cuts = draw(st.sets(st.sampled_from(elements[1:]), max_size=6)) if len(elements) > 1 else set()
    return build_fragmentation(tree, [node.node_id for node in cuts])


def stage2_bindings(fragmentation, plan, withhold: bool = False):
    """Per fragment, the resolved sub-fragment qualifier values PaX3 ships in
    stage 2, from a real ``evalFT`` over the reference qualifier pass (each
    ``None`` for a qualifier-free plan).  With *withhold*, every other binding of a
    fragment (by name, the first included) is left out, so residual formulas
    reach the selection pass's qualifier steps."""
    fragment_ids = fragmentation.fragment_ids()
    if not plan.has_qualifiers:
        return dict.fromkeys(fragment_ids)
    outputs = {
        fid: qualifier_pass(fragmentation, fid, plan, engine=REFERENCE) for fid in fragment_ids
    }
    environment = unify_qualifier_vectors(
        fragmentation, plan, {fid: (out.root_head, out.root_desc) for fid, out in outputs.items()}
    )
    bindings = {
        fid: resolved_child_qualifier_bindings(fragmentation, plan, fid, environment)
        for fid in fragment_ids
    }
    if withhold:
        bindings = {
            fid: dict(sorted(values.items())[1::2]) for fid, values in bindings.items()
        }
    return bindings


def flat_depths(flat):
    """Depth below the fragment root per span node, off the flat parent column."""
    depths = []
    for parent in flat.parent:
        depths.append(0 if parent < 0 else depths[parent] + 1)
    return depths


def assert_accounting_matches_tree(fragmentation):
    """:func:`account_answers`, fed each node by the fragment holding it,
    equals the object-tree walk for every node alone and for all at once."""
    tree = fragmentation.tree
    owned = [
        (fid, fragmentation.flat(fid).node_ids) for fid in fragmentation.fragment_ids()
    ]
    for fid, node_ids in owned:
        for node_id in node_ids:
            assert account_answers([(fid, [node_id])], fragmentation.flat) == (
                answer_subtree_nodes(tree, [node_id])
            ), (fid, node_id)
    every = [node.node_id for node in tree.iter_nodes()]
    assert sum(len(node_ids) for _, node_ids in owned) == len(every)
    assert account_answers(owned, fragmentation.flat) == answer_subtree_nodes(tree, every)


def available_engines():
    """The names of the engine tiers this process can run, read from the table."""
    return tuple(name for name, engine in ENGINES.items() if engine.available())


def fingerprint(stats):
    """Everything the paper's guarantees measure about one run."""
    return {
        "answers": stats.answer_ids,
        "communication_units": stats.communication_units,
        "local_units": stats.local_units,
        "message_count": stats.message_count,
        "total_operations": stats.total_operations,
        "answer_nodes_shipped": stats.answer_nodes_shipped,
        "visits": stats.visits_by_site(),
        "fragments_evaluated": stats.fragments_evaluated,
        "fragments_pruned": stats.fragments_pruned,
    }


def rebuild_from_scratch(fragmentation):
    """A fresh fragmentation of the (possibly mutated) tree at the same cuts.

    Fragment roots survive every legal mutation, so cutting at the same node
    ids reproduces the same fragment ids — the ground truth an incrementally
    maintained fragmentation must match bit for bit.
    """
    tree = fragmentation.tree
    cuts = sorted(
        node_id
        for node_id in fragmentation.fragment_root_ids
        if node_id != tree.root.node_id
    )
    rebuilt = build_fragmentation(tree, cuts)
    assert rebuilt.fragment_ids() == fragmentation.fragment_ids()
    return rebuilt


def verify_against_rebuild(fragmentation, placement, queries) -> int:
    """Incrementally maintained state must equal a from-scratch rebuild.

    Compares answers *and* traffic accounting for every algorithm x engine x
    annotation mode; returns the number of configurations checked.
    """
    rebuilt = rebuild_from_scratch(fragmentation)
    rebuilt.validate()
    checked = 0
    for algorithm in ("pax2", "pax3", "naive"):
        for engine in available_engines():
            for use_annotations in (False, True):
                maintained, scratch = (
                    DistributedQueryEngine(
                        target,
                        placement=placement,
                        algorithm=algorithm,
                        use_annotations=use_annotations,
                        engine=engine,
                    )
                    for target in (fragmentation, rebuilt)
                )
                for query in queries:
                    assert fingerprint(maintained.run(query)) == fingerprint(
                        scratch.run(query)
                    ), (query, algorithm, engine, use_annotations)
                    checked += 1
    return checked


@pytest.fixture
def clientele_tree() -> XMLTree:
    """The paper's Figure 1 tree."""
    return clientele_example_tree()


@pytest.fixture
def clientele_fragmentation(clientele_tree):
    """The paper's Figure 1 fragmentation (five fragments)."""
    return clientele_paper_fragmentation(clientele_tree)


@pytest.fixture(scope="session")
def small_ft1_scenario():
    """A small FT1 scenario (Experiment 1 layout) shared across tests."""
    return build_ft1(fragment_count=4, total_bytes=60_000, seed=3)


@pytest.fixture(scope="session")
def small_ft2_scenario():
    """A small FT2 scenario (Experiment 2/3 layout) shared across tests."""
    return build_ft2(total_bytes=120_000, seed=5)


#: nested one-``a`` fragments; the accounting once recursed once per level,
#: the schedule once rebuilt each fragment's label path from the root
CHAIN_DEPTH = 2000


@pytest.fixture(scope="session")
def fragment_chain():
    """A chain of CHAIN_DEPTH nested ``a`` elements, one fragment each, with a
    ``b`` at the bottom: every ``a`` answers ``//a[.//b]``."""
    tree = parse_xml("<a>" * CHAIN_DEPTH + "<b/>" + "</a>" * CHAIN_DEPTH)
    cuts = [node.node_id for node in tree.root.iter_subtree() if node.tag == "a"][1:]
    return build_fragmentation(tree, cuts)
