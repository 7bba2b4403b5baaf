"""Unit tests for fragments and the induced fragment tree."""

import struct
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fragments.fragment_tree import FragmentationError, build_fragmentation
from repro.updates import MixedWorkload, apply_mutation
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation
from repro.workloads.scenarios import build_ft2
from repro.xmltree.builder import element
from repro.xmltree.nodes import XMLTree

from tests.conftest import fragmented_documents


@pytest.fixture
def clientele():
    return clientele_example_tree()


@pytest.fixture
def paper_fragmentation(clientele):
    return clientele_paper_fragmentation(clientele)


class TestBuildFragmentation:
    def test_paper_example_has_five_fragments(self, paper_fragmentation):
        assert len(paper_fragmentation) == 5
        assert paper_fragmentation.root_fragment_id == "F0"
        paper_fragmentation.validate()

    def test_fragment_tree_structure_matches_figure_2(self, paper_fragmentation):
        # F0 has three sub-fragments; one of them has a nested sub-fragment.
        children_of_root = paper_fragmentation.children("F0")
        assert len(children_of_root) == 3
        nested = [fid for fid in children_of_root if paper_fragmentation.children(fid)]
        assert len(nested) == 1
        grandchild = paper_fragmentation.children(nested[0])[0]
        assert paper_fragmentation.parent(grandchild) == nested[0]
        assert paper_fragmentation.ancestors(grandchild) == [nested[0], "F0"]

    def test_fragments_cover_tree_disjointly(self, clientele, paper_fragmentation):
        total = sum(f.node_count() for f in paper_fragmentation)
        assert total == clientele.size()
        assert paper_fragmentation.total_nodes() == clientele.size()

    def test_leaf_fragments_have_no_virtual_nodes(self, paper_fragmentation):
        for fragment_id in paper_fragmentation.leaf_fragments():
            assert paper_fragmentation[fragment_id].is_leaf()

    def test_orders(self, paper_fragmentation):
        bottom_up = paper_fragmentation.bottom_up_order()
        top_down = paper_fragmentation.top_down_order()
        assert bottom_up[-1] == "F0"
        assert top_down[0] == "F0"
        for fragment_id in paper_fragmentation.fragment_ids():
            for ancestor in paper_fragmentation.ancestors(fragment_id):
                assert bottom_up.index(fragment_id) < bottom_up.index(ancestor)
                assert top_down.index(ancestor) < top_down.index(fragment_id)

    def test_orders_are_the_stable_depth_sorts_and_callers_own_their_copy(
        self, paper_fragmentation
    ):
        ids = paper_fragmentation.fragment_ids()
        depth = paper_fragmentation.depth
        for _ in range(2):  # computed once, then served from the memo
            bottom_up = paper_fragmentation.bottom_up_order()
            top_down = paper_fragmentation.top_down_order()
            assert bottom_up == sorted(ids, key=depth, reverse=True)
            assert top_down == sorted(ids, key=depth)
            bottom_up.reverse()
            top_down.clear()

    def test_parent_node_of(self, paper_fragmentation):
        for fragment_id in paper_fragmentation.fragment_ids():
            parent_node = paper_fragmentation.parent_node_of(fragment_id)
            if fragment_id == "F0":
                assert parent_node is None
            else:
                assert parent_node is paper_fragmentation[fragment_id].root.parent

    def test_accounting(self, paper_fragmentation):
        assert paper_fragmentation.max_fragment_elements() >= 1
        assert paper_fragmentation.total_elements() <= paper_fragmentation.total_nodes()
        assert paper_fragmentation.total_bytes() > 0
        summary = paper_fragmentation.summary()
        assert "F0" in summary and "F4" in summary

    def test_single_fragment_degenerate_case(self, clientele):
        fragmentation = build_fragmentation(clientele, [])
        fragmentation.validate()
        assert len(fragmentation) == 1
        assert fragmentation.root_fragment.node_count() == clientele.size()

    def test_nested_cuts_allowed(self):
        tree = XMLTree(element("a", element("b", element("c", element("d")))))
        b, c = tree.root.children[0], tree.root.children[0].children[0]
        fragmentation = build_fragmentation(tree, [b.node_id, c.node_id])
        fragmentation.validate()
        assert fragmentation.parent("F2") == "F1"

    def test_cut_at_root_rejected(self, clientele):
        with pytest.raises(FragmentationError):
            build_fragmentation(clientele, [clientele.root.node_id])

    def test_cut_at_text_node_rejected(self, clientele):
        text_node = next(node for node in clientele.iter_nodes() if node.is_text)
        with pytest.raises(FragmentationError):
            build_fragmentation(clientele, [text_node.node_id])


class TestFragmentSpan:
    def test_virtual_children_excluded_from_span(self, paper_fragmentation):
        root_fragment = paper_fragmentation.root_fragment
        span_ids = {node.node_id for node in root_fragment.iter_span()}
        for child_root_id in root_fragment.virtual_children:
            assert child_root_id not in span_ids

    def test_real_and_virtual_children_partition(self, clientele, paper_fragmentation):
        root_fragment = paper_fragmentation.root_fragment
        for node in root_fragment.iter_span_elements():
            real = root_fragment.real_children(node)
            virtual = root_fragment.virtual_children_of(node)
            assert len(real) + len(virtual) == len(node.children)

    def test_is_virtual(self, paper_fragmentation):
        root_fragment = paper_fragmentation.root_fragment
        for fragment_id in paper_fragmentation.children("F0"):
            assert root_fragment.is_virtual(paper_fragmentation[fragment_id].root)

    def test_counts_are_cached_and_consistent(self, paper_fragmentation):
        fragment = paper_fragmentation["F1"]
        assert fragment.node_count() == sum(1 for _ in fragment.iter_span())
        assert fragment.element_count() == sum(1 for _ in fragment.iter_span_elements())
        assert fragment.node_count() == fragment.node_count()


def reference_fingerprint(fragmentation) -> str:
    """The digest as it was computed before the single-update rewrite (two
    ``update`` calls per node), kept as the executable spec: cache keys and
    version tags are built on these bytes and must not move."""
    hasher = blake2b(digest_size=8)
    hasher.update(struct.pack("<Q", fragmentation.tree.size()))
    for fragment_id in fragmentation.fragment_ids():
        hasher.update(fragment_id.encode("utf-8"))
        hasher.update(struct.pack("<q", fragmentation[fragment_id].root.node_id))
    for node in fragmentation.tree.root.iter_subtree():
        value = node.tag if node.is_element else node.value
        hasher.update(b"\x00" if value is None else value.encode("utf-8"))
        hasher.update(b"\x01")
    return hasher.hexdigest()


#: content_fingerprint() of the paper's Figure 1 fragmentation at the parent commit
PAPER_EXAMPLE_DIGEST = "30cc9133c22f8551"


class TestContentFingerprint:
    @settings(max_examples=200, deadline=None)
    @given(fragmentation=fragmented_documents())
    def test_digest_for_digest_on_drawn_documents(self, fragmentation):
        assert fragmentation.content_fingerprint() == reference_fingerprint(fragmentation)

    @settings(max_examples=60, deadline=None)
    @given(
        fragmentation=fragmented_documents(),
        seed=st.integers(0, 1_000),
        writes=st.integers(1, 12),
    )
    def test_digest_for_digest_after_mutations(self, fragmentation, seed, writes):
        workload = MixedWorkload(fragmentation, ["//a"], write_ratio=1.0, seed=seed)
        for _ in range(writes):
            apply_mutation(fragmentation, workload.next_mutation())
        assert fragmentation.content_fingerprint() == reference_fingerprint(fragmentation)

    def test_pinned_digest_of_the_paper_example(self, paper_fragmentation):
        # a literal, so the reference function itself cannot drift unnoticed
        assert paper_fragmentation.content_fingerprint() == PAPER_EXAMPLE_DIGEST
        assert reference_fingerprint(paper_fragmentation) == PAPER_EXAMPLE_DIGEST

    def test_a_label_that_is_missing_or_empty_or_holds_the_separator(self):
        tree = XMLTree(element("a", element("b", ""), element("b", "\x01"), element("b", "x")))
        fragmentation = build_fragmentation(tree, [])
        texts = [node for node in tree.iter_nodes() if node.is_text]
        digests = {fragmentation.content_fingerprint()}
        assert digests == {reference_fingerprint(fragmentation)}
        texts[2].value = None  # only reachable by poking the slot; hashed as \x00
        assert fragmentation.content_fingerprint() == reference_fingerprint(fragmentation)
        digests.add(fragmentation.content_fingerprint())
        assert len(digests) == 2

    def test_full_walks_count_one_per_fingerprint_and_none_per_cached_read(self):
        fragmentation = build_ft2(total_bytes=15_000, seed=2).fragmentation
        fragmentation.invalidate_flat()
        before = fragmentation.full_walks
        fragmentation.content_fingerprint()
        fragmentation.content_fingerprint()
        assert fragmentation.full_walks == before + 2
        fragmentation.content_version()  # not cached yet: one walk
        assert fragmentation.full_walks == before + 3
        for fragment_id in fragmentation.fragment_ids():
            fragmentation.flat(fragment_id)
        fragmentation.content_version()
        fragmentation.version_token()
        assert fragmentation.full_walks == before + 3
        fragmentation.content_version(refresh=True)
        assert fragmentation.full_walks == before + 4
