"""Unit tests for the per-fragment qualifier pass (Stage 1 of PaX3)."""

import pytest

from repro.booleans.env import Environment
from repro.booleans.formula import is_concrete, variables_of
from repro.core.qualifiers import evaluate_fragment_qualifiers, virtual_qualifier_vectors
from repro.core.variables import desc_var_name, head_var_name
from repro.fragments.fragment_tree import build_fragmentation
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import compile_plan
from repro.workloads.queries import (
    CLIENTELE_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)


@pytest.fixture(scope="module")
def tree():
    return clientele_example_tree()


@pytest.fixture(scope="module")
def fragmentation(tree):
    return clientele_paper_fragmentation(tree)


def plan_for(query: str):
    return compile_plan(parse_xpath(query), source=query)


class TestQualifierPass:
    def test_no_qualifiers_short_circuits(self, fragmentation):
        plan = plan_for("client/name")
        output = evaluate_fragment_qualifiers(fragmentation["F0"], plan)
        assert output.state is None and output.root_values == ()
        assert output.operations == 0

    def test_leaf_fragment_vectors_are_concrete(self, fragmentation):
        plan = plan_for(CLIENTELE_QUERIES["brokers_goog"])
        for fragment_id in fragmentation.leaf_fragments():
            output = evaluate_fragment_qualifiers(fragmentation[fragment_id], plan)
            assert all(is_concrete(value) for value in output.root_head)
            assert all(is_concrete(value) for value in output.root_desc)
            for values in output.state.values():
                assert all(is_concrete(value) for value in values)

    def test_fragment_with_virtual_nodes_produces_residual_formulas(self, fragmentation):
        plan = plan_for(CLIENTELE_QUERIES["brokers_goog"])
        output = evaluate_fragment_qualifiers(fragmentation.root_fragment, plan)
        free = set()
        for values in output.state.values():
            for value in values:
                free |= variables_of(value)
        # The root fragment depends on its three direct sub-fragments.
        children = set(fragmentation.children("F0"))
        referenced = {name.split(":")[1] for name in free}
        assert referenced and referenced <= children

    def test_variables_reference_only_direct_children(self, fragmentation):
        plan = plan_for(CLIENTELE_QUERIES["brokers_goog"])
        for fragment_id in fragmentation.fragment_ids():
            output = evaluate_fragment_qualifiers(fragmentation[fragment_id], plan)
            children = set(fragmentation.children(fragment_id))
            for vector in (output.root_head, output.root_desc):
                for entry in vector:
                    for name in variables_of(entry):
                        assert name.split(":")[1] in children

    def test_operations_scale_with_fragment_size(self, fragmentation):
        plan = plan_for(CLIENTELE_QUERIES["brokers_goog"])
        big = evaluate_fragment_qualifiers(fragmentation.root_fragment, plan)
        small_id = fragmentation.leaf_fragments()[0]
        small = evaluate_fragment_qualifiers(fragmentation[small_id], plan)
        assert big.operations > small.operations

    def test_unification_reproduces_centralized_qualifier_values(self, tree, fragmentation):
        """Resolving the fragment vectors bottom-up gives the same qualifier
        value at the root as evaluating over the whole tree."""
        plan = plan_for(CLIENTELE_QUERIES["boolean_goog"])
        outputs = {
            fragment_id: evaluate_fragment_qualifiers(fragmentation[fragment_id], plan)
            for fragment_id in fragmentation.fragment_ids()
        }
        env = Environment()
        for fragment_id in fragmentation.bottom_up_order():
            output = outputs[fragment_id]
            for item_id in plan.head_item_ids:
                env.bind(head_var_name(fragment_id, item_id), env.resolve(output.root_head[item_id]))
            for item_id in plan.desc_item_ids:
                env.bind(desc_var_name(fragment_id, item_id), env.resolve(output.root_desc[item_id]))
        root_values = outputs["F0"].root_values
        assert root_values == outputs["F0"].state[tree.root.node_id]
        resolved = [env.resolve(value) for value in root_values]
        assert resolved == [True]  # GOOG is traded somewhere in the tree


class TestVirtualVectors:
    def test_virtual_vectors_use_fresh_named_variables(self):
        plan = plan_for("a[//b]")
        head, desc = virtual_qualifier_vectors(plan, "F7")
        named = {str(entry) for entry in head + desc if not is_concrete(entry)}
        assert named
        assert all(name.startswith(("qh:F7:", "qd:F7:")) for name in named)

    def test_only_exchanged_entries_become_variables(self):
        plan = plan_for("a[//b]")
        head, desc = virtual_qualifier_vectors(plan, "F7")
        for item_id, entry in enumerate(head):
            if item_id not in plan.head_item_ids:
                assert entry is False
        for item_id, entry in enumerate(desc):
            if item_id not in plan.desc_item_ids:
                assert entry is False


class TestNestedFragmentation:
    def test_deeply_nested_chain(self):
        # a > b > c > d with a fragment at every level.
        from repro.xmltree.builder import element
        from repro.xmltree.nodes import XMLTree

        tree = XMLTree(element("a", element("b", element("c", element("d", "x")))))
        cuts = [node.node_id for node in tree.iter_elements() if node.tag in ("b", "c", "d")]
        fragmentation = build_fragmentation(tree, cuts)
        plan = plan_for('.[//d/text() = "x"]')
        outputs = {
            fid: evaluate_fragment_qualifiers(fragmentation[fid], plan)
            for fid in fragmentation.fragment_ids()
        }
        env = Environment()
        for fid in fragmentation.bottom_up_order():
            output = outputs[fid]
            for item_id in plan.head_item_ids:
                env.bind(head_var_name(fid, item_id), env.resolve(output.root_head[item_id]))
            for item_id in plan.desc_item_ids:
                env.bind(desc_var_name(fid, item_id), env.resolve(output.root_desc[item_id]))
        root_values = outputs["F0"].root_values
        assert [env.resolve(v) for v in root_values] == [True]
