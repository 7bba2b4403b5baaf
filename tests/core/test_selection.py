"""Unit tests for the per-fragment selection pass (Stage 2 of PaX3)."""

import pytest

from repro.booleans.formula import variables_of
from repro.core.qualifiers import evaluate_fragment_qualifiers
from repro.core.selection import (
    concrete_root_init_vector,
    evaluate_fragment_selection,
    variable_init_vector,
)
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import compile_plan
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation


@pytest.fixture(scope="module")
def tree():
    return clientele_example_tree()


@pytest.fixture(scope="module")
def fragmentation(tree):
    return clientele_paper_fragmentation(tree)


def plan_for(query: str):
    return compile_plan(parse_xpath(query), source=query)


class TestInitVectors:
    def test_variable_init_vector_names(self):
        plan = plan_for("a/b")
        vector = variable_init_vector(plan, "F3")
        assert len(vector) == plan.n_steps + 1
        assert [str(v) for v in vector] == ["sv:F3:0", "sv:F3:1", "sv:F3:2"]

    def test_concrete_root_init_for_relative_plan_is_all_false(self):
        plan = plan_for("a/b")
        assert concrete_root_init_vector(plan) == [False, False, False]

    def test_concrete_root_init_for_absolute_plan_has_context_entry(self):
        plan = plan_for("/a/b")
        vector = concrete_root_init_vector(plan)
        assert vector[0] is True
        assert vector[1:] == [False, False]

    def test_absolute_leading_descendant_carries_context(self):
        plan = plan_for("//a")
        vector = concrete_root_init_vector(plan)
        assert vector[0] is True and vector[1] is True


class TestRootFragmentSelection:
    def test_definite_answers_found_without_candidates(self, fragmentation):
        plan = plan_for("client/name")
        output = evaluate_fragment_selection(
            fragmentation.root_fragment, plan, None, None,
            concrete_root_init_vector(plan), is_root_fragment=True,
        )
        assert len(output.answers) == 3  # Anna, Kim, Lisa names are all in F0
        assert not output.candidates

    def test_virtual_parent_vectors_emitted_for_each_child(self, fragmentation):
        plan = plan_for("client/broker/name")
        output = evaluate_fragment_selection(
            fragmentation.root_fragment, plan, None, None,
            concrete_root_init_vector(plan), is_root_fragment=True,
        )
        assert set(output.virtual_parent_vectors) == set(fragmentation.children("F0"))
        for vector in output.virtual_parent_vectors.values():
            assert len(vector) == plan.n_steps + 1


class TestNonRootFragmentSelection:
    def test_candidates_carry_only_own_init_variables(self, fragmentation):
        plan = plan_for("client/broker/name")
        # Anna's broker fragment: its name node is a candidate because the
        # fragment cannot know whether its root is reached via client/broker.
        broker_fragment_id = next(
            fid for fid in fragmentation.children("F0")
            if fragmentation[fid].root.tag == "broker" and not fragmentation[fid].is_leaf()
        )
        fragment = fragmentation[broker_fragment_id]
        output = evaluate_fragment_selection(
            fragment, plan, None, None,
            variable_init_vector(plan, broker_fragment_id), is_root_fragment=False,
        )
        assert output.candidates, "the broker's name node must be undecided locally"
        for formula in output.candidates.values():
            for name in variables_of(formula):
                assert name.startswith(f"sv:{broker_fragment_id}:")
        assert not output.answers

    def test_concrete_init_vector_removes_candidates(self, fragmentation):
        plan = plan_for("client/broker/name")
        broker_fragment_id = next(
            fid for fid in fragmentation.children("F0")
            if fragmentation[fid].root.tag == "broker"
        )
        fragment = fragmentation[broker_fragment_id]
        # Simulate the XPath-annotation initialization: the fragment root's
        # parent is known to match the prefix "client".
        init = [False, True, False, False]
        output = evaluate_fragment_selection(
            fragment, plan, None, None, init, is_root_fragment=False
        )
        assert not output.candidates
        assert len(output.answers) == 1

    def test_operations_counted(self, fragmentation):
        plan = plan_for("client/broker/name")
        output = evaluate_fragment_selection(
            fragmentation.root_fragment, plan, None, None,
            concrete_root_init_vector(plan), is_root_fragment=True,
        )
        assert output.operations >= fragmentation.root_fragment.element_count()


class TestQualifierBindings:
    def test_sub_fragment_bindings_gate_answers(self, fragmentation):
        # two of the three clients' brokers are sub-fragments, so their
        # qualifier values in F0 are those brokers' variables until stage 2
        # binds them; the third broker lies in F0
        plan = plan_for("client[broker]/name")
        root_fragment = fragmentation.root_fragment
        state = evaluate_fragment_qualifiers(root_fragment, plan).state
        names = {name for values in state.values() for value in values for name in variables_of(value)}
        assert names

        def select(bindings):
            return evaluate_fragment_selection(
                root_fragment, plan, state, bindings, concrete_root_init_vector(plan), True
            )

        blocked = select(dict.fromkeys(names, False))
        allowed = select(dict.fromkeys(names, True))
        unbound = select(None)
        assert len(blocked.answers) == 1 and not blocked.candidates
        assert len(allowed.answers) == 3 and not allowed.candidates
        assert unbound.answers == blocked.answers and len(unbound.candidates) == 2
