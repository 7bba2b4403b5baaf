"""Unit tests for the XPath-annotation optimization (pruning and concrete
initialization) and the schedule every coordinator reads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pax3, pruning
from repro.core.common import build_network
from repro.core.pax2 import run_pax2
from repro.core.pruning import build_schedule, relevant_fragments, stage1_init_vector
from repro.core.selection import variable_init_vector
from repro.fragments.annotations import edge_annotation, root_label_path
from repro.fragments.fragment_tree import build_fragmentation
from repro.xmltree.parser import parse_xml
from repro.xpath.centralized import evaluate_centralized
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import CHILD, DESC, SELFQUAL, compile_plan
from repro.xpath.runtime import root_context_init_vector
from repro.workloads.queries import (
    CLIENTELE_QUERIES,
    PAPER_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.workloads.scenarios import build_ft2

from tests.conftest import CHAIN_DEPTH, fragmented_documents


def plan_for(query: str):
    return compile_plan(parse_xpath(query), source=query)


@pytest.fixture(scope="module")
def clientele_frag():
    return clientele_paper_fragmentation(clientele_example_tree())


@pytest.fixture(scope="module")
def ft2():
    return build_ft2(total_bytes=80_000, seed=5)


class TestExample51:
    """The paper's Example 5.1: query client/name over the Figure 1 tree."""

    def test_only_root_fragment_kept(self, clientele_frag):
        decision = relevant_fragments(clientele_frag, plan_for(CLIENTELE_QUERIES["client_names"]))
        assert decision.kept == {"F0"}
        assert decision.pruned == set(clientele_frag.fragment_ids()) - {"F0"}
        assert decision.reasons["F0"] == "root fragment"

    def test_broker_query_keeps_broker_fragments(self, clientele_frag):
        decision = relevant_fragments(clientele_frag, plan_for("client/broker/name"))
        kept_tags = {clientele_frag[fid].root.tag for fid in decision.kept if fid != "F0"}
        assert kept_tags == {"broker"}
        pruned_tags = {clientele_frag[fid].root.tag for fid in decision.pruned}
        assert pruned_tags == {"market"}

    def test_descendant_query_keeps_everything(self, clientele_frag):
        decision = relevant_fragments(clientele_frag, plan_for("//stock/code"))
        assert decision.kept == set(clientele_frag.fragment_ids())

    def test_qualifier_scope_keeps_fragments_below_qualified_nodes(self, clientele_frag):
        # The market fragments contain no name answers, but the broker
        # qualifier needs data inside them.
        decision = relevant_fragments(
            clientele_frag, plan_for(CLIENTELE_QUERIES["brokers_goog"])
        )
        assert decision.kept == set(clientele_frag.fragment_ids())


class TestFT2Pruning:
    """Experiment 2's pruning effects (Section 6)."""

    def test_q1_keeps_only_whole_site_fragments(self, ft2):
        decision = relevant_fragments(ft2.fragmentation, plan_for(PAPER_QUERIES["Q1"]))
        # 4 of the 10 fragments survive: the root fragment, the two partially
        # fragmented sites' remainders, and the whole site D.
        assert len(decision.kept) == 4
        kept_tags = {ft2.fragmentation[fid].root.tag for fid in decision.kept}
        assert kept_tags == {"sites", "site"}

    def test_q2_adds_the_open_auction_fragments(self, ft2):
        decision = relevant_fragments(ft2.fragmentation, plan_for(PAPER_QUERIES["Q2"]))
        assert len(decision.kept) == 6
        open_auction_fragments = {
            fid for fid in ft2.fragmentation.fragment_ids()
            if ft2.fragmentation[fid].root.tag == "open_auctions"
        }
        assert open_auction_fragments <= decision.kept

    def test_q3_prunes_non_people_fragments(self, ft2):
        decision = relevant_fragments(ft2.fragmentation, plan_for(PAPER_QUERIES["Q3"]))
        assert len(decision.kept) == 4

    def test_q4_descendant_keeps_everything(self, ft2):
        decision = relevant_fragments(ft2.fragmentation, plan_for(PAPER_QUERIES["Q4"]))
        assert decision.kept == set(ft2.fragmentation.fragment_ids())


class TestPruningSoundness:
    """Pruned runs must return exactly the centralized answer."""

    @pytest.mark.parametrize("query_name", sorted(PAPER_QUERIES))
    def test_pruned_pax2_matches_centralized(self, ft2, query_name):
        query = PAPER_QUERIES[query_name]
        expected = evaluate_centralized(ft2.tree, query).answer_ids
        stats = run_pax2(ft2.fragmentation, query, placement=ft2.placement, use_annotations=True)
        assert stats.answer_ids == expected

    def test_ancestors_of_kept_fragments_are_kept(self, ft2):
        for query in PAPER_QUERIES.values():
            decision = relevant_fragments(ft2.fragmentation, plan_for(query))
            for fragment_id in decision.kept:
                for ancestor in ft2.fragmentation.ancestors(fragment_id):
                    assert ancestor in decision.kept


class TestRelevantFragmentsEdgeCases:
    def test_single_fragment_tree_keeps_only_the_root_fragment(self):
        fragmentation = build_fragmentation(clientele_example_tree(), [])
        assert fragmentation.fragment_ids() == [fragmentation.root_fragment_id]
        for query in CLIENTELE_QUERIES.values():
            decision = relevant_fragments(fragmentation, plan_for(query))
            assert decision.kept == {fragmentation.root_fragment_id}
            assert decision.pruned == set()

    def test_no_fragment_matches_the_query_labels(self, clientele_frag):
        # No <nowhere> element exists anywhere: every non-root fragment is
        # pruned, the root fragment is kept unconditionally.
        decision = relevant_fragments(clientele_frag, plan_for("nowhere/nothing"))
        assert decision.kept == {"F0"}
        for fragment_id in decision.pruned:
            assert "no selection match" in decision.reasons[fragment_id]

    def test_unmatched_query_still_answers_empty(self, clientele_frag):
        stats = run_pax2(clientele_frag, "nowhere/nothing", use_annotations=True)
        assert stats.answer_ids == []

    def test_pruning_is_placement_independent(self, clientele_frag):
        # The decision is about fragments, not sites: evaluating with several
        # fragments per site must neither change the pruning nor the answer.
        from repro.distributed.placement import round_robin_placement

        query = CLIENTELE_QUERIES["brokers_goog_not_yhoo"]
        spread = run_pax2(clientele_frag, query, use_annotations=True)
        packed = run_pax2(
            clientele_frag,
            query,
            placement=round_robin_placement(clientele_frag, site_count=2),
            use_annotations=True,
        )
        assert spread.answer_ids == packed.answer_ids
        assert spread.fragments_pruned == packed.fragments_pruned


class TestConcreteInitialization:
    def test_initial_vector_matches_actual_parent_vector(self, clientele_frag):
        # For a qualifier-free query the concrete initialization must equal
        # the selection vector the parent node would compute.
        plan = plan_for("client/broker/market/stock")
        for fragment_id in clientele_frag.fragment_ids():
            if fragment_id == "F0":
                continue
            vector = stage1_init_vector(clientele_frag, plan, fragment_id, True)
            labels = clientele_frag[fragment_id].root.parent.root_path_labels()
            assert vector == path_vectors(plan, labels)[-1]

    def test_qualified_plans_start_from_variables(self, clientele_frag):
        plan = plan_for("client[name]/broker/market")
        for fragment_id in clientele_frag.fragment_ids()[1:]:
            assert stage1_init_vector(clientele_frag, plan, fragment_id, True) == (
                variable_init_vector(plan, fragment_id)
            )

    def test_root_fragment_initialization(self, clientele_frag):
        plan = plan_for("/clientele/client")
        assert stage1_init_vector(clientele_frag, plan, "F0", True) == [True, False, False]


def path_vectors(plan, labels):
    """Prefix vectors down one label chain from the document root element,
    qualifiers assumed true: entry ``i`` at a node says the first ``i``
    selection steps can lead from the query context to it."""
    above = [bool(value) for value in root_context_init_vector(plan)]
    vectors = []
    for depth, label in enumerate(labels):
        live = [depth == 0 and not plan.absolute]
        for position, step in enumerate(plan.selection, start=1):
            if step.kind == CHILD:
                live.append(above[position - 1] and step.tag in (None, label))
            elif step.kind == DESC:  # descendant-or-self: below, or already here
                live.append(above[position] or live[position - 1])
            else:
                assert step.kind == SELFQUAL
                live.append(live[position - 1])
        vectors.append(live)
        above = live
    return vectors


def expected_schedule(fragmentation, plan, use_annotations):
    """``(evaluated, pruned, their init vectors, every fragment's init
    vector)`` recomputed fragment by fragment from its whole label path."""
    root_id = fragmentation.root_fragment_id
    scopes = [
        position - 1
        for position, step in enumerate(plan.selection, start=1)
        if step.kind == SELFQUAL
    ]
    kept, init_vectors = set(), {}
    for fid in fragmentation.fragment_ids():
        labels = [fragmentation.tree.root.label] + root_label_path(fragmentation, fid)
        vectors = path_vectors(plan, labels)
        parent_vector = vectors[-2] if len(vectors) > 1 else root_context_init_vector(plan)
        in_scope = any(vector[prefix] for vector in vectors for prefix in scopes)
        if not use_annotations or fid == root_id or any(vectors[-1]) or in_scope:
            kept.update([fid, *fragmentation.ancestors(fid)])
        if fid == root_id or (use_annotations and not plan.has_qualifiers):
            init_vectors[fid] = tuple(parent_vector)
        else:
            init_vectors[fid] = tuple(variable_init_vector(plan, fid))
    evaluated = tuple(fid for fid in fragmentation.fragment_ids() if fid in kept)
    pruned = tuple(sorted(set(fragmentation.fragment_ids()) - kept))
    return evaluated, pruned, {fid: init_vectors[fid] for fid in evaluated}, init_vectors


#: over the ``r`` / ``a``..``e`` documents of ``fragmented_documents``; the
#: qualifiers without ``//`` keep fragments only through their scopes
DRAWN_QUERIES = [
    "//a/b", "/r/a//c", "a/b", "/r/*/a", "//c//d", "*/b/c", "//e", "/r", "r", "/x/a",
    "//b[c]/d", "//a[.//b]", "/r//a[b]/c", ".[//d]",
    "a[b]", "a[b]/c[d]", "/r/*[c]", "/r/a/b[.//e]", "*/*[a]/b",
]


class TestTheSchedule:
    @settings(max_examples=300, deadline=None)
    @given(
        fragmentation=fragmented_documents(max_nodes=40),
        query=st.sampled_from(DRAWN_QUERIES),
        use_annotations=st.booleans(),
    )
    def test_the_walk_equals_a_per_path_recomputation(
        self, fragmentation, query, use_annotations
    ):
        plan = plan_for(query)
        sites = build_network(fragmentation).index
        schedule = build_schedule(fragmentation, plan, use_annotations, sites)
        evaluated, pruned, init_vectors, every_init = expected_schedule(
            fragmentation, plan, use_annotations
        )
        assert schedule.evaluated == evaluated
        assert schedule.pruned == pruned
        assert schedule.init_vectors == init_vectors
        assert schedule.use_annotations is use_annotations
        for fid, vector in every_init.items():
            assert tuple(stage1_init_vector(fragmentation, plan, fid, use_annotations)) == vector
        if use_annotations:
            assert relevant_fragments(fragmentation, plan).kept == set(evaluated)

    def test_a_qualifier_scope_reaches_fragments_below_fragments(self):
        # Cut at x and at y: neither root matches the selection path, and
        # y's edge holds no qualified node, but the scope of the qualifier
        # at a covers both.
        tree = parse_xml("<r><a><x><y><b/></y></x><c/></a></r>")
        fragmentation = build_fragmentation(tree, [
            node.node_id for node in tree.root.iter_subtree() if node.tag in ("x", "y")
        ])
        for query in ("a[.//b]", "/r/a[x/y/b]/c"):
            decision = relevant_fragments(fragmentation, plan_for(query))
            assert decision.kept == set(fragmentation.fragment_ids()), query
            stats = run_pax2(fragmentation, query, use_annotations=True)
            assert stats.answer_ids == evaluate_centralized(tree, query).answer_ids != []

    def test_stage1_groups_the_evaluated_fragments_by_site(self, ft2):
        sites = build_network(ft2.fragmentation, ft2.placement).index
        schedule = build_schedule(ft2.fragmentation, plan_for(PAPER_QUERIES["Q1"]), True, sites)
        assert [site for site, _ in schedule.stage1] == sorted(
            {ft2.placement[fid] for fid in schedule.evaluated}
        )
        grouped = [fid for _, fragment_ids in schedule.stage1 for fid in fragment_ids]
        assert sorted(grouped) == sorted(schedule.evaluated)
        for site_id, fragment_ids in schedule.stage1:
            assert all(ft2.placement[fid] == site_id for fid in fragment_ids)


def count_steps(monkeypatch):
    """Count the prefix automaton's steps from here on."""
    steps = [0]
    advance = pruning._advance

    def counting(*args):
        steps[0] += 1
        return advance(*args)

    monkeypatch.setattr(pruning, "_advance", counting)
    return steps


class TestOneWalk:
    @pytest.mark.parametrize("query", ["//a[.//b]", "//a/b"])
    def test_a_deep_chain_takes_one_step_per_edge_label(
        self, monkeypatch, fragment_chain, query
    ):
        fragmentation = fragment_chain
        assert len(fragmentation) == CHAIN_DEPTH
        # the root element's label, then each edge annotation's labels
        labels = 1 + sum(
            len(edge_annotation(fragmentation, fid)) for fid in fragmentation.fragment_ids()
        )
        steps = count_steps(monkeypatch)
        schedule = build_schedule(
            fragmentation, plan_for(query), True, build_network(fragmentation).index
        )
        assert steps[0] <= labels
        assert len(schedule.evaluated) == CHAIN_DEPTH
        expected = evaluate_centralized(fragmentation.tree, query).answer_ids
        for run in (run_pax2, pax3.run_pax3):
            assert run(fragmentation, query, use_annotations=True).answer_ids == expected

    def test_pax3_site_passes_read_the_schedule(self, monkeypatch, ft2):
        # The init vectors are the schedule's: no site pass derives one.
        steps = count_steps(monkeypatch)
        passes = []
        selection_pass = pax3.selection_pass

        def watched(*args, **kwargs):
            before = steps[0]
            output = selection_pass(*args, **kwargs)
            passes.append(steps[0] - before)
            return output

        def refused(*args, **kwargs):
            raise AssertionError("a PaX3 site pass called stage1_init_vector")

        monkeypatch.setattr(pax3, "selection_pass", watched)
        monkeypatch.setattr(pruning, "stage1_init_vector", refused)
        for query in (PAPER_QUERIES["Q1"], PAPER_QUERIES["Q3"]):
            stats = pax3.run_pax3(
                ft2.fragmentation, query, placement=ft2.placement, use_annotations=True
            )
            assert stats.answer_ids == evaluate_centralized(ft2.tree, query).answer_ids
        assert passes and set(passes) == {0}
