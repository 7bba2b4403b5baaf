"""Differential suite: incremental maintenance is exact.

After random mutation sequences (insert/delete/edit on random fragments),
the incrementally maintained fragmentation must return answers and traffic
accounting identical to a from-scratch re-fragmentation of the mutated
tree — for every algorithm x engine x annotation mode — and the sync
engines must see every mutation immediately, with no ``refresh()`` call
(the columnar cache is invalidated eagerly, per touched fragment).
"""

import random

import pytest

from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import KERNEL, REFERENCE
from repro.core.parbox import run_parbox
from repro.updates import EditText, MixedWorkload, apply_mutation
from repro.workloads.queries import (
    CLIENTELE_QUERIES,
    PAPER_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.workloads.scenarios import build_ft2
from repro.xpath.centralized import evaluate_centralized

from tests.conftest import (
    available_engines,
    make_random_fragmentation,
    make_random_tree,
    rebuild_from_scratch,
    verify_against_rebuild,
)

RANDOM_TREE_QUERIES = ["//a", "a/b", "//b[c]", '//a[b/text() = "alpha"]/b', "//b//c"]


class TestRandomSequencesMatchRebuild:
    """The acceptance criterion, on three workload families."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees(self, seed):
        tree = make_random_tree(seed, max_nodes=70)
        fragmentation = make_random_fragmentation(tree, seed)
        workload = MixedWorkload(
            fragmentation, RANDOM_TREE_QUERIES, write_ratio=1.0, seed=seed
        )
        for _ in range(random.Random(seed).randint(5, 20)):
            apply_mutation(fragmentation, workload.next_mutation())
        fragmentation.validate()
        checked = verify_against_rebuild(fragmentation, None, RANDOM_TREE_QUERIES)
        assert checked == 3 * len(available_engines()) * 2 * len(RANDOM_TREE_QUERIES)

    def test_clientele(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        queries = [q for q in CLIENTELE_QUERIES.values() if not q.startswith(".")]
        workload = MixedWorkload(fragmentation, queries, write_ratio=1.0, seed=13)
        for _ in range(25):
            apply_mutation(fragmentation, workload.next_mutation())
        fragmentation.validate()
        verify_against_rebuild(fragmentation, None, queries)

    def test_xmark_ft2(self):
        scenario = build_ft2(total_bytes=25_000, seed=5)
        workload = MixedWorkload(
            scenario.fragmentation,
            list(PAPER_QUERIES.values()),
            write_ratio=1.0,
            seed=29,
        )
        for _ in range(40):
            apply_mutation(scenario.fragmentation, workload.next_mutation())
        scenario.fragmentation.validate()
        verify_against_rebuild(
            scenario.fragmentation, scenario.placement, list(PAPER_QUERIES.values())
        )

    def test_parbox_boolean_queries_match_rebuild(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        workload = MixedWorkload(
            fragmentation, ["client/name"], write_ratio=1.0, seed=7
        )
        for _ in range(20):
            apply_mutation(fragmentation, workload.next_mutation())
        rebuilt = rebuild_from_scratch(fragmentation)
        boolean_queries = [
            CLIENTELE_QUERIES["boolean_goog"],
            '.[//stock/code/text() = "yhoo"]',
            '.[not(//nonexistent)]',
        ]
        for engine in (KERNEL, REFERENCE):
            for query in boolean_queries:
                maintained = run_parbox(fragmentation, query, engine=engine)
                scratch = run_parbox(rebuilt, query, engine=engine)
                assert maintained.answer_ids == scratch.answer_ids, (engine, query)
                assert (
                    maintained.communication_units == scratch.communication_units
                ), (engine, query)


class TestEagerInvalidation:
    """Satellite: mutations reach the sync engines with no refresh call."""

    def test_edit_changes_kernel_answers_immediately(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        query = 'client[country/text() = "us"]/name'
        engines = {
            engine: DistributedQueryEngine(fragmentation, engine=engine)
            for engine in (KERNEL, REFERENCE)
        }
        before = engines[KERNEL].execute(query).answer_ids
        assert before == engines[REFERENCE].execute(query).answer_ids
        assert before

        # Flip every US client to UK through the mutation API — NO refresh.
        for node in list(fragmentation.tree.iter_elements()):
            if node.tag == "country" and node.text().strip().lower() == "us":
                text_child = next(c for c in node.children if c.is_text)
                apply_mutation(fragmentation, EditText(text_child.node_id, "uk"))

        for engine in (KERNEL, REFERENCE):
            assert engines[engine].execute(query).answer_ids == []

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_kernel_agrees_with_centralized(self, seed):
        tree = make_random_tree(200 + seed, max_nodes=60)
        fragmentation = make_random_fragmentation(tree, seed)
        workload = MixedWorkload(
            fragmentation, RANDOM_TREE_QUERIES, write_ratio=1.0, seed=seed
        )
        engine = DistributedQueryEngine(fragmentation, engine=KERNEL)
        for _ in range(12):
            apply_mutation(fragmentation, workload.next_mutation())
            for query in RANDOM_TREE_QUERIES:
                distributed = engine.execute(query).answer_ids
                centralized = sorted(evaluate_centralized(tree, query).answer_ids)
                assert distributed == centralized, (seed, query)

    def test_no_full_walk_during_incremental_queries(self):
        # The differential loop above must stay epoch-driven: mutations plus
        # kernel queries perform zero full-document fingerprint walks once
        # the content base exists.
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        engine = DistributedQueryEngine(fragmentation, engine=KERNEL)
        engine.execute("client/name")
        fragmentation.version_token()  # settle the content base
        walks_before = fragmentation.full_walks
        workload = MixedWorkload(fragmentation, ["client/name"], write_ratio=1.0, seed=3)
        for _ in range(15):
            apply_mutation(fragmentation, workload.next_mutation())
            engine.execute("client/name")
            fragmentation.version_token()
        assert fragmentation.full_walks == walks_before
