"""Unit tests for the coordinator-side unification (evalFT)."""

import pytest

from repro.booleans.env import Environment
from repro.booleans.formula import Var, conj, disj
from repro.core.unify import (
    UnificationError,
    require_concrete,
    resolve_candidates,
    resolved_child_qualifier_bindings,
    resolved_init_bindings,
    unify_qualifier_vectors,
    unify_selection_vectors,
)
from repro.core.variables import (
    desc_var,
    desc_var_name,
    head_var,
    head_var_name,
    selection_var,
    selection_var_name,
)
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import compile_plan
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation


@pytest.fixture(scope="module")
def fragmentation():
    return clientele_paper_fragmentation(clientele_example_tree())


def plan_for(query: str):
    return compile_plan(parse_xpath(query), source=query)


class TestRequireConcrete:
    def test_passes_through_booleans(self):
        assert require_concrete(True, "x") is True
        assert require_concrete(False, "x") is False

    def test_raises_on_residual_formula(self):
        with pytest.raises(UnificationError, match="ctx"):
            require_concrete(Var("qh:F1:0"), "ctx")


class TestQualifierUnification:
    def test_bottom_up_resolution_through_nested_fragments(self, fragmentation):
        plan = plan_for("a[//b]")
        item = plan.head_item_ids[0]
        nested_child = next(
            fid for fid in fragmentation.fragment_ids()
            if fragmentation.parent(fid) not in (None, "F0")
        )
        middle = fragmentation.parent(nested_child)
        # The leaf reports True; the middle fragment's vector refers to the leaf.
        vectors = {
            nested_child: ([True] * plan.n_items, [True] * plan.n_items),
            middle: (
                [head_var(nested_child, item)] * plan.n_items,
                [desc_var(nested_child, item)] * plan.n_items,
            ),
        }
        env = unify_qualifier_vectors(fragmentation, plan, vectors)
        assert env.resolve(Var(head_var_name(middle, item))) is True
        assert env.resolve(Var(desc_var_name(middle, item))) is True

    def test_missing_fragments_are_skipped(self, fragmentation):
        plan = plan_for("a[//b]")
        env = unify_qualifier_vectors(fragmentation, plan, {})
        assert len(env) == 0


class TestSelectionUnification:
    def test_top_down_resolution(self, fragmentation):
        plan = plan_for("client/broker/name")
        child = fragmentation.children("F0")[0]
        grandchildren = fragmentation.children(child)
        vectors = {
            "F0": {child: [False, True, False, False]},
        }
        if grandchildren:
            vectors[child] = {
                grandchildren[0]: [False, False, conj(selection_var(child, 1), True), False]
            }
        env = unify_selection_vectors(fragmentation, plan, vectors, Environment())
        assert env.resolve(Var(selection_var_name(child, 1))) is True
        if grandchildren:
            assert env.resolve(Var(selection_var_name(grandchildren[0], 2))) is True


class TestBindingExtraction:
    def test_child_qualifier_bindings_are_concrete_and_scoped(self, fragmentation):
        plan = plan_for("a[//b]")
        env = Environment()
        for fid in fragmentation.fragment_ids():
            for item in plan.head_item_ids:
                env.bind(head_var_name(fid, item), True)
            for item in plan.desc_item_ids:
                env.bind(desc_var_name(fid, item), False)
        bindings = resolved_child_qualifier_bindings(fragmentation, plan, "F0", env)
        children = set(fragmentation.children("F0"))
        assert bindings
        for name, value in bindings.items():
            assert isinstance(value, bool)
            assert name.split(":")[1] in children

    def test_init_bindings_cover_every_entry(self, fragmentation):
        plan = plan_for("client/broker/name")
        env = Environment()
        for entry in range(plan.n_steps + 1):
            env.bind(selection_var_name("F2", entry), entry % 2 == 0)
        bindings = resolved_init_bindings(plan, "F2", env)
        assert len(bindings) == plan.n_steps + 1

    def test_unresolvable_binding_is_skipped(self, fragmentation):
        # A value still mentioning a pruned fragment's variables is not
        # shipped; strictness is enforced later, at answer resolution.
        plan = plan_for("a[//b]")
        env = Environment()
        child = fragmentation.children("F0")[0]
        name = head_var_name(child, plan.head_item_ids[0])
        env.bind(name, Var("qh:pruned:0"))
        bindings = resolved_child_qualifier_bindings(fragmentation, plan, "F0", env)
        assert name not in bindings


class TestResolveCandidates:
    def test_keeps_the_true_candidates_in_candidate_order(self):
        x, y = Var("sv:F1:0"), Var("sv:F1:1")
        candidates = {9: x, 3: conj(x, y), 7: y, 1: disj(x, y), 5: x}
        assert resolve_candidates(candidates, {"sv:F1:0": True, "sv:F1:1": False}, "F1") == [
            9, 1, 5,
        ]
        assert resolve_candidates({}, {}, "F1") == []

    def test_resolves_each_distinct_formula_once(self, monkeypatch):
        resolved = []
        original = Environment.resolve
        monkeypatch.setattr(
            Environment, "resolve",
            lambda self, value, *rest: resolved.append(value) or original(self, value, *rest),
        )
        x, y = Var("sv:F2:0"), Var("sv:F2:1")
        candidates = {node: (x if node % 3 else conj(x, y)) for node in range(300)}
        kept = resolve_candidates(candidates, {"sv:F2:0": True, "sv:F2:1": True}, "F2")
        assert kept == list(range(300))
        assert resolved == [conj(x, y), x]

    def test_names_the_first_undecided_candidate(self):
        x, y = Var("sv:F3:0"), Var("qh:F4:0")
        candidates = {4: x, 8: conj(x, y), 6: conj(x, y)}
        with pytest.raises(UnificationError, match="candidate answer 8 in F3.*qh:F4:0"):
            resolve_candidates(candidates, {"sv:F3:0": True}, "F3")
