"""Unit tests for the shared orchestration helpers and message accounting."""

import asyncio

import pytest

from repro.booleans.formula import Var, conj
from repro.core.common import (
    AnswerAccountingError,
    account_answers,
    answer_subtree_nodes,
    binding_units,
    build_network,
    ensure_plan,
    plan_units,
    vector_units,
)
from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import ENGINES
from repro.core.naive import run_naive_centralized
from repro.core.parbox import run_parbox
from repro.core.pax2 import run_pax2
from repro.core.pax3 import run_pax3
from repro.distributed.messages import Message, MessageKind
from repro.fragments.fragment_tree import build_fragmentation
from repro.fragments.snapshots import SnapshotManager, SnapshotPolicy
from repro.service.server import ServiceHost
from repro.updates import InsertSubtree, apply_mutation
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation
from repro.xmltree.builder import element, text
from repro.xmltree.nodes import XMLTree
from repro.xpath.centralized import evaluate_centralized
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import QueryPlan, compile_plan

from tests.conftest import CHAIN_DEPTH, assert_accounting_matches_tree, available_engines


def insert_before_every_span(fragmentation):
    """Insert a fresh <client> as the first child of every fragment root.

    Fresh ids are larger than every parsed one, so afterwards each span's
    ``node_ids`` column is no longer ascending."""
    for fragment_id in fragmentation.fragment_ids():
        root = fragmentation[fragment_id].root
        subtree = element("client", element("name", text("inserted")))
        apply_mutation(fragmentation, InsertSubtree(root.node_id, subtree, position=0))
    return fragmentation


def out_of_order_fragmentation():
    fragmentation = insert_before_every_span(
        clientele_paper_fragmentation(clientele_example_tree())
    )
    for fragment_id in fragmentation.fragment_ids():
        node_ids = fragmentation.flat(fragment_id).node_ids
        assert node_ids != sorted(node_ids), fragment_id
    return fragmentation


class TestEnsurePlan:
    def test_accepts_string_path_and_plan(self):
        from_string = ensure_plan("a/b[c]")
        from_path = ensure_plan(parse_xpath("a/b[c]"))
        precompiled = compile_plan(parse_xpath("a/b[c]"))
        assert isinstance(from_string, QueryPlan)
        assert from_string.n_steps == from_path.n_steps == precompiled.n_steps
        assert ensure_plan(precompiled) is precompiled

    def test_source_preserved_for_strings(self):
        assert ensure_plan("//x").source == "//x"


class TestUnits:
    def test_plan_units_grow_with_query(self):
        assert plan_units(ensure_plan("a/b/c[d and e]")) > plan_units(ensure_plan("a"))

    def test_vector_units_count_formula_atoms(self):
        vectors = [[True, Var("x")], [conj(Var("x"), Var("y"))]]
        assert vector_units(vectors) == 1 + 1 + 3

    def test_binding_units(self):
        assert binding_units({"a": True, "b": False}) == 2

    def test_answer_subtree_nodes(self):
        tree = clientele_example_tree()
        name_ids = [
            node.node_id for node in tree.iter_elements() if node.tag == "name"
        ][:2]
        # each <name> element carries one text child -> 2 nodes per answer
        assert answer_subtree_nodes(tree, name_ids) == 4


class TestAccountAnswers:
    def test_matches_the_tree_walk_on_the_paper_fragmentation(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        assert any(fragmentation.flat(fid).virtual_at for fid in fragmentation.fragment_ids())
        assert_accounting_matches_tree(fragmentation)

    def test_an_answer_enclosing_two_nested_sub_fragments(self):
        # r/a holds x (cut, F1) with y (cut inside x, F2) and z (cut, F3)
        # beside it: answer a's subtree spans F1, F1's own sub-fragment F2,
        # and F3, two of them hanging from a's one virtual row.
        y = element("y", text("deep"), element("w"))
        x = element("x", element("v"), y)
        z = element("z", text("side"))
        a = element("a", x, element("u"), z)
        tree = XMLTree(element("r", a, element("b")))
        fragmentation = build_fragmentation(tree, [x.node_id, y.node_id, z.node_id])
        assert fragmentation.parent("F2") == "F1" and fragmentation.parent("F3") == "F0"
        answers = [("F0", [a.node_id]), ("F1", [x.node_id])]
        assert account_answers(answers, fragmentation.flat) == answer_subtree_nodes(
            tree, [a.node_id, x.node_id]
        ) == 9 + 5
        assert_accounting_matches_tree(fragmentation)

    def test_a_fragment_may_report_answers_in_several_lists(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        root = fragmentation.flat("F0").node_ids
        split = [("F0", root[:3]), ("F0", []), ("F0", root[3:])]
        assert account_answers(split, fragmentation.flat) == account_answers(
            [("F0", root)], fragmentation.flat
        )

    def test_an_answer_missing_from_its_fragment_is_a_typed_error(self):
        # skipping an id the fragment does not hold would under-count
        # answer_nodes_shipped without a trace
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        fabricated = max(node.node_id for node in fragmentation.tree.iter_nodes()) + 1000
        root_answer = fragmentation.flat("F0").node_ids[0]
        with pytest.raises(AnswerAccountingError, match=f"answer {fabricated} .* F0"):
            account_answers([("F0", [root_answer, fabricated])], fragmentation.flat)
        # a real node credited to a fragment that does not hold it
        elsewhere = fragmentation.flat(fragmentation.children("F0")[0]).node_ids[0]
        with pytest.raises(AnswerAccountingError):
            account_answers([("F0", [elsewhere])], fragmentation.flat)


    def test_a_span_maps_ids_through_runs_not_per_node(self):
        # parsed spans: one run per stretch between sub-fragment cuts
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        assert_accounting_matches_tree(fragmentation)
        held = {}
        for fragment_id in fragmentation.fragment_ids():
            flat = fragmentation.flat(fragment_id)
            cuts = sum(map(len, flat.virtual_at.values()))
            assert len(flat._id_runs[0]) <= 1 + cuts, fragment_id
            held[fragment_id] = cuts
        # after inserts the ids are out of order, and each insert adds at
        # most two runs (its own nodes, and the rest of the run it split)
        insert_before_every_span(fragmentation)
        assert_accounting_matches_tree(fragmentation)
        for fragment_id, cuts in held.items():
            flat = fragmentation.flat(fragment_id)
            assert flat.node_ids != sorted(flat.node_ids)
            assert flat.rows_of(flat.node_ids) == list(range(flat.n))
            assert len(flat._id_runs[0]) <= 1 + cuts + 2, fragment_id

    def test_a_pinned_snapshot_flat_out_of_order(self):
        fragmentation = out_of_order_fragmentation()

        async def pin():  # a manager binds to the running loop
            manager = SnapshotManager(fragmentation, SnapshotPolicy())
            return manager.pin(fragmentation.content_version())

        snapshot = asyncio.run(pin())
        tree = fragmentation.tree
        owned = [(fid, snapshot.flat(fid).node_ids) for fid in fragmentation.fragment_ids()]
        expected = {
            node_id: answer_subtree_nodes(tree, [node_id])
            for _, node_ids in owned for node_id in node_ids
        }
        insert_before_every_span(fragmentation)  # the live spans move on
        root_id = tree.root.node_id
        assert answer_subtree_nodes(tree, [root_id]) != expected[root_id]
        for fragment_id, node_ids in owned:
            for node_id in node_ids:
                assert account_answers(
                    [(fragment_id, [node_id])], snapshot.flat
                ) == expected[node_id], (fragment_id, node_id)
        assert account_answers(owned, snapshot.flat) == sum(expected.values())

    def test_a_missing_answer_in_an_out_of_order_span_is_a_typed_error(self):
        fragmentation = out_of_order_fragmentation()
        node_ids = fragmentation.flat("F0").node_ids
        past_every_id = max(node_ids) + 1000
        elsewhere = fragmentation.flat(fragmentation.children("F0")[0]).node_ids[0]
        below_every_id = min(node_ids) - 1
        for missing in (past_every_id, elsewhere, below_every_id):
            with pytest.raises(AnswerAccountingError, match=f"answer {missing} .* F0"):
                account_answers([("F0", [node_ids[0], missing, node_ids[-1]])], fragmentation.flat)

    @pytest.mark.parametrize("engine", available_engines())
    def test_every_engine_accounts_out_of_order_spans(self, engine):
        fragmentation = out_of_order_fragmentation()
        tree = fragmentation.tree
        served = DistributedQueryEngine(fragmentation, engine=engine)
        host = None
        if ENGINES[engine].columnar:  # a service read pins a snapshot
            host = ServiceHost(engine=engine, cache_capacity=0)
            host.register("doc", fragmentation)
        for query in ("//client", "//client/name", "//broker[market]/name"):
            runs = [served.run(query, algorithm=name) for name in ("pax2", "pax3")]
            if host is not None:
                runs.append(host.execute("doc", query).stats)
            for stats in runs:
                assert stats.answer_ids, (query, stats.algorithm)
                assert stats.answer_nodes_shipped == answer_subtree_nodes(
                    tree, stats.answer_ids
                ), (query, stats.algorithm)


@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize("run, query", [
    (run_pax2, "//a[.//b]"), (run_pax3, "//a[.//b]"), (run_parbox, ".[//a[.//b]]"),
])
def test_a_deep_fragment_chain_is_answered_and_accounted(fragment_chain, run, query, engine):
    fragmentation = fragment_chain
    assert len(fragmentation) == CHAIN_DEPTH
    tree = fragmentation.tree
    stats = run(fragmentation, query, engine=engine)
    assert stats.answer_ids == evaluate_centralized(tree, query).answer_ids
    if run is not run_parbox:  # a Boolean query ships no answer nodes
        assert stats.answer_nodes_shipped == answer_subtree_nodes(tree, stats.answer_ids)


def test_a_deep_fragment_chain_reassembles_for_the_naive_baseline(fragment_chain):
    stats = run_naive_centralized(fragment_chain, "//a[.//b]")
    assert stats.answer_ids == evaluate_centralized(fragment_chain.tree, "//a[.//b]").answer_ids


class TestBuildNetwork:
    def test_default_placement_is_one_site_per_fragment(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        network = build_network(fragmentation)
        assert len(network.sites) == len(fragmentation)
        assert network.coordinator_id == "S0"


class TestMessages:
    def test_local_flag(self):
        local = Message("S0", "S0", MessageKind.ANSWERS, units=3)
        remote = Message("S0", "S1", MessageKind.ANSWERS, units=3)
        assert local.is_local and not remote.is_local

    def test_kinds_are_distinct(self):
        kinds = {
            MessageKind.EXEC_REQUEST,
            MessageKind.QUALIFIER_VECTORS,
            MessageKind.SELECTION_VECTORS,
            MessageKind.RESOLVED_BINDINGS,
            MessageKind.ANSWERS,
            MessageKind.FRAGMENT_SHIPMENT,
        }
        assert len(kinds) == 6

    def test_payload_not_in_repr(self):
        message = Message("a", "b", MessageKind.ANSWERS, 1, payload=object())
        assert "payload" not in repr(message) or "object at" not in repr(message)
