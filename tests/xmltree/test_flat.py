"""FlatFragment: the columnar encoding reproduces the object tree exactly."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fragments.fragment_tree import build_fragmentation
from repro.updates import MixedWorkload, apply_mutation
from repro.workloads.scenarios import build_ft2
from repro.xmltree.builder import element, text
from repro.xmltree.flat import KIND_ELEMENT, KIND_TEXT, build_flat_fragment
from repro.xmltree.nodes import XMLTree

from tests.conftest import assert_accounting_matches_tree, fragmented_documents


def random_tree(rng: random.Random, max_nodes: int = 60) -> XMLTree:
    """A random element/text tree with repeated tags and mixed payloads."""
    tags = ["a", "b", "c", "item", "price"]
    root = element(rng.choice(tags))
    nodes = [root]
    for _ in range(rng.randrange(1, max_nodes)):
        parent = rng.choice(nodes)
        if rng.random() < 0.3:
            parent.append(text(rng.choice(["x", " 42 ", "$13.5", "Hello", ""]) or "?"))
        else:
            child = element(rng.choice(tags))
            parent.append(child)
            nodes.append(child)
    return XMLTree(root)


def random_fragmentation(rng: random.Random, tree: XMLTree):
    """Cut at a random subset of non-root elements (possibly nested)."""
    candidates = [
        node.node_id for node in tree.iter_elements() if node is not tree.root
    ]
    rng.shuffle(candidates)
    cut = candidates[: rng.randrange(0, min(len(candidates), 6) + 1)]
    return build_fragmentation(tree, cut)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_preorder_node_ids_match_object_tree_on_random_trees(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng)
        fragmentation = random_fragmentation(rng, tree)
        for fragment_id in fragmentation.fragment_ids():
            fragment = fragmentation[fragment_id]
            flat = build_flat_fragment(fragment)
            expected = [node.node_id for node in fragment.iter_span()]
            assert flat.preorder_node_ids() == expected

    def test_preorder_node_ids_match_on_xmark(self):
        scenario = build_ft2(total_bytes=30_000, seed=3)
        for fragment_id in scenario.fragmentation.fragment_ids():
            fragment = scenario.fragmentation[fragment_id]
            flat = scenario.fragmentation.flat(fragment_id)
            expected = [node.node_id for node in fragment.iter_span()]
            assert flat.preorder_node_ids() == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_columns_mirror_node_attributes(self, seed):
        rng = random.Random(1000 + seed)
        tree = random_tree(rng)
        fragmentation = random_fragmentation(rng, tree)
        for fragment_id in fragmentation.fragment_ids():
            fragment = fragmentation[fragment_id]
            flat = build_flat_fragment(fragment)
            span = list(fragment.iter_span())
            assert flat.n == len(span)
            for index, node in enumerate(span):
                if node.is_element:
                    assert flat.kind[index] == KIND_ELEMENT
                    assert flat.tags[flat.tag_id[index]] == node.tag
                    assert flat.text_norm[index] == node.text().strip().lower()
                    assert flat.numeric[index] == node.numeric_value()
                else:
                    assert flat.kind[index] == KIND_TEXT
                    assert flat.tag_id[index] == -1
                # Parent pointers stay inside the span and point correctly.
                parent_index = flat.parent[index]
                if index == 0:
                    assert parent_index == -1
                else:
                    assert span[parent_index] is node.parent

    @pytest.mark.parametrize("seed", range(10))
    def test_subtree_sizes_and_children(self, seed):
        rng = random.Random(2000 + seed)
        tree = random_tree(rng)
        fragmentation = random_fragmentation(rng, tree)
        for fragment_id in fragmentation.fragment_ids():
            fragment = fragmentation[fragment_id]
            flat = build_flat_fragment(fragment)
            span = list(fragment.iter_span())
            position = {id(node): index for index, node in enumerate(span)}
            # Independent subtree sizes: every span node credits each of its
            # span ancestors (and itself) with one node.
            expected_sizes = [0] * len(span)
            for node in span:
                current = node
                while True:
                    expected_sizes[position[id(current)]] += 1
                    if current is fragment.root:
                        break
                    current = current.parent
            assert flat.subtree_size == expected_sizes
            for index, node in enumerate(span):
                children = [span[child] for child in flat.element_children(index)]
                assert children == fragment.real_element_children(node)

    def test_virtual_children_recorded_in_document_order(self):
        rng = random.Random(77)
        tree = random_tree(rng, max_nodes=80)
        fragmentation = random_fragmentation(rng, tree)
        for fragment_id in fragmentation.fragment_ids():
            fragment = fragmentation[fragment_id]
            flat = build_flat_fragment(fragment)
            span = list(fragment.iter_span())
            seen = {}
            for index, node in enumerate(span):
                virtuals = [v.fragment_id for v in fragment.virtual_children_of(node)]
                if virtuals:
                    seen[index] = tuple(virtuals)
            assert flat.virtual_at == seen
            assert flat.virtual_indices == sorted(seen)


class TestCache:
    def test_flat_is_cached_per_fragment(self):
        scenario = build_ft2(total_bytes=15_000, seed=2)
        fragmentation = scenario.fragmentation
        fragment_id = fragmentation.fragment_ids()[0]
        assert fragmentation.flat(fragment_id) is fragmentation.flat(fragment_id)

    def test_version_refresh_drops_stale_encodings(self):
        scenario = build_ft2(total_bytes=15_000, seed=2)
        fragmentation = scenario.fragmentation
        fragment_id = fragmentation.fragment_ids()[0]
        before = fragmentation.flat(fragment_id)
        # In-place edit the fingerprint cannot see until refreshed.
        for node in fragmentation.tree.root.iter_subtree():
            if not node.is_element:
                node.value = (node.value or "") + "!"
                break
        assert fragmentation.flat(fragment_id) is before  # not yet refreshed
        old_version = fragmentation.content_version()
        assert fragmentation.content_version(refresh=True) != old_version
        assert fragmentation.flat(fragment_id) is not before

    def test_invalidate_flat_forces_rebuild(self):
        scenario = build_ft2(total_bytes=15_000, seed=2)
        fragmentation = scenario.fragmentation
        fragment_id = fragmentation.fragment_ids()[0]
        before = fragmentation.flat(fragment_id)
        fragmentation.invalidate_flat()
        assert fragmentation.flat(fragment_id) is not before


def reference_flat_columns(fragment) -> dict:
    """The encoder as it was before the one-sweep rewrite, kept as the
    executable spec: text and numeric straight from the ``XMLNode`` methods,
    three looks at every element's children, subtree sizes folded afterwards.
    Returns the ten constructor fields of ``FlatFragment`` by name."""
    virtual_children = fragment.virtual_children
    kind, tag_id, parent, node_ids, text_norm, numeric = [], [], [], [], [], []
    tags, tag_index, virtual_at = [], {}, {}
    stack = [(fragment.root, -1)]
    while stack:
        node, parent_index = stack.pop()
        index = len(kind)
        node_ids.append(node.node_id)
        parent.append(parent_index)
        if node.is_element:
            kind.append(KIND_ELEMENT)
            if node.tag not in tag_index:
                tag_index[node.tag] = len(tags)
                tags.append(node.tag)
            tag_id.append(tag_index[node.tag])
            text_norm.append(node.text().strip().lower())
            numeric.append(node.numeric_value())
            virtuals = tuple(
                virtual_children[child.node_id]
                for child in node.children
                if child.node_id in virtual_children
            )
            if virtuals:
                virtual_at[index] = virtuals
        else:
            kind.append(KIND_TEXT)
            tag_id.append(-1)
            text_norm.append(None)
            numeric.append(None)
        for child in reversed(node.children):
            if child.node_id not in virtual_children:
                stack.append((child, index))
    subtree_size = [1] * len(kind)
    for index in range(len(kind) - 1, 0, -1):
        subtree_size[parent[index]] += subtree_size[index]
    return {
        "fragment_id": fragment.fragment_id, "kind": kind, "tag_id": tag_id, "parent": parent,
        "subtree_size": subtree_size, "node_ids": node_ids, "tags": tags, "text_norm": text_norm,
        "numeric": numeric, "virtual_at": virtual_at,
    }


def row_tags(tags, tag_id) -> list:
    return [None if tid < 0 else tags[tid] for tid in tag_id]


def assert_flat_matches_reference(fragmentation) -> None:
    for fragment_id in fragmentation.fragment_ids():
        flat = fragmentation.flat(fragment_id)
        reference = reference_flat_columns(fragmentation[fragment_id])
        # Tag ids are document-wide, the reference interns per fragment: what
        # must agree is the tag string each row's id stands for.
        expected_tags = row_tags(reference.pop("tags"), reference.pop("tag_id"))
        assert row_tags(flat.tags, flat.tag_id) == expected_tags, (fragment_id, "tag")
        for name, expected in reference.items():
            actual = getattr(flat, name)
            if name == "numeric":  # nan != nan; reprs compare
                actual, expected = list(map(repr, actual)), list(map(repr, expected))
            assert actual == expected, (fragment_id, name)


class TestAgainstReferenceEncoder:
    @settings(max_examples=200, deadline=None)
    @given(fragmentation=fragmented_documents())
    def test_column_for_column_on_drawn_documents(self, fragmentation):
        assert_flat_matches_reference(fragmentation)
        assert_accounting_matches_tree(fragmentation)

    @settings(max_examples=60, deadline=None)
    @given(
        fragmentation=fragmented_documents(),
        seed=st.integers(0, 1_000),
        writes=st.integers(1, 12),
    )
    def test_column_for_column_after_mutations(self, fragmentation, seed, writes):
        fragmentation.content_version()
        walks = fragmentation.full_walks
        workload = MixedWorkload(fragmentation, ["//a"], write_ratio=1.0, seed=seed)
        for _ in range(writes):
            apply_mutation(fragmentation, workload.next_mutation())
            # the touched fragment is re-encoded, the others come from cache
            assert_flat_matches_reference(fragmentation)
            assert_accounting_matches_tree(fragmentation)
        assert fragmentation.full_walks == walks  # re-encodes never re-fingerprint

    def test_column_for_column_on_xmark(self):
        assert_flat_matches_reference(build_ft2(total_bytes=30_000, seed=3).fragmentation)
