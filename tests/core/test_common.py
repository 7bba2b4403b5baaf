"""Unit tests for the shared orchestration helpers and message accounting."""

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
from repro.distributed.messages import Message, MessageKind
from repro.distributed.stats import StageStats
from repro.core.common import stage_timer
from repro.fragments.fragment_tree import build_fragmentation
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation
from repro.xmltree.builder import element, text
from repro.xmltree.nodes import XMLTree
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import QueryPlan, compile_plan

from tests.conftest import assert_accounting_matches_tree


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


class TestBuildNetwork:
    def test_default_placement_is_one_site_per_fragment(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        network = build_network(fragmentation)
        assert len(network.sites) == len(fragmentation)
        assert network.coordinator_id == "S0"


class TestStageTimer:
    def test_coordinator_time_accumulates(self):
        stage = StageStats(name="x")
        with stage_timer(stage):
            sum(range(1000))
        with stage_timer(stage):
            pass
        assert stage.coordinator_seconds > 0.0


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
