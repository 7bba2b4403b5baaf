"""VectorFragment: the numpy window encoding reproduces the object tree.

Property tests for the accelerator columns the ``vector`` engine scans:
``post = pre + size`` must delimit exactly the object tree's subtrees,
the flat parent column must give the parent-chain depth, the per-tag CSR index must be
sorted and complete, and the whole encoding must be rebuilt (not patched)
when the flat cache turns over — via ``bump_epoch``, a content-version
refresh or ``invalidate_flat``.
"""

import bisect
import random

import pytest

from hypothesis import given, settings

np = pytest.importorskip("numpy")

from repro.core.vector.encode import vector_fragment
from repro.core.vector.walk import concrete_desc_runs
from repro.fragments.fragment_tree import build_fragmentation
from repro.workloads.scenarios import build_ft2
from repro.xmltree.builder import element, text
from repro.xmltree.flat import KIND_ELEMENT, build_flat_fragment
from repro.xmltree.nodes import XMLTree

from tests.conftest import flat_depths, fragmented_documents


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


def span_depths(fragment):
    """Parent-chain depth below the fragment root, per span node."""
    depths = []
    for node in fragment.iter_span():
        depth = 0
        current = node
        while current is not fragment.root:
            current = current.parent
            depth += 1
        depths.append(depth)
    return depths


def assert_encoding_matches_object_tree(fragment, flat):
    vf = vector_fragment(flat)
    n = flat.n
    assert vf.n == n

    # pre is the flat index itself; post = pre + size delimits the subtree.
    assert vf.post.tolist() == [i + size for i, size in enumerate(flat.subtree_size)]

    # Interval containment must coincide with the object tree's
    # ancestor-or-self relation over the span.
    span = list(fragment.iter_span())
    position = {id(node): index for index, node in enumerate(span)}
    post = vf.post.tolist()
    for j, node in enumerate(span):
        ancestors = {j}
        current = node
        while current is not fragment.root:
            current = current.parent
            ancestors.add(position[id(current)])
        for i in range(n):
            assert (i <= j < post[i]) == (i in ancestors), (i, j)

    # The parent column agrees with the parent-chain depth.
    assert flat_depths(flat) == span_depths(fragment)

    # The per-tag index is sorted pre-order within each tag group and,
    # across all tags, covers exactly the element rows.
    covered = []
    for tid, tag in enumerate(flat.tags):
        rows = vf.rows_with_tag(tag).tolist()
        assert rows == sorted(rows)
        assert rows == [
            i for i in range(n)
            if flat.kind[i] == KIND_ELEMENT and flat.tag_id[i] == tid
        ]
        covered.extend(rows)
    assert vf.rows_with_tag("no-such-tag").tolist() == []
    assert sorted(covered) == vf.elem_idx.tolist()
    assert vf.rows_with_tag(None).tolist() == vf.elem_idx.tolist()

    # Value columns: the interned codes read back as text_norm (-1 on text
    # rows); has_numeric marks exactly the rows with a value — "nan" text is
    # one — and the numeric column holds it (NaN where there is none).
    text_of = {code: value for value, code in vf.text_intern.items()}
    assert [text_of.get(code) for code in vf.text_code.tolist()] == flat.text_norm
    assert vf.has_numeric.tolist() == [value is not None for value in flat.numeric]
    assert [repr(value) for value in vf.numeric.tolist()] == [
        repr(float("nan") if value is None else value) for value in flat.numeric
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_window_columns_match_object_tree_on_random_trees(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng)
        fragmentation = random_fragmentation(rng, tree)
        for fragment_id in fragmentation.fragment_ids():
            fragment = fragmentation[fragment_id]
            flat = build_flat_fragment(fragment)
            assert_encoding_matches_object_tree(fragment, flat)

    @settings(max_examples=60, deadline=None)
    @given(fragmentation=fragmented_documents(max_nodes=25))
    def test_window_columns_match_object_tree_on_drawn_documents(self, fragmentation):
        for fragment_id in fragmentation.fragment_ids():
            assert_encoding_matches_object_tree(
                fragmentation[fragment_id], fragmentation.flat(fragment_id)
            )

    def test_window_columns_match_on_xmark(self):
        scenario = build_ft2(total_bytes=30_000, seed=3)
        for fragment_id in scenario.fragmentation.fragment_ids():
            fragment = scenario.fragmentation[fragment_id]
            flat = scenario.fragmentation.flat(fragment_id)
            vf = vector_fragment(flat)
            assert vf.post.tolist() == [i + size for i, size in enumerate(flat.subtree_size)]
            assert flat_depths(flat) == span_depths(fragment)

    @pytest.mark.parametrize("seed", range(10))
    def test_window_primitives_match_brute_force(self, seed):
        """window_any_incl / concrete // runs against their set definitions."""
        rng = random.Random(4000 + seed)
        tree = random_tree(rng)
        fragmentation = random_fragmentation(rng, tree)
        for fragment_id in fragmentation.fragment_ids():
            flat = build_flat_fragment(fragmentation[fragment_id])
            vf = vector_fragment(flat)
            n = flat.n
            post = vf.post.tolist()
            col = np.asarray([rng.random() < 0.3 for _ in range(n)])
            marked = sorted(i for i in range(n) if col[i])
            # Descendant-or-self aggregation: any marked row in the window?
            any_incl = [
                any(i <= m < post[i] for m in marked) for i in range(n)
            ]
            assert vf.window_any_incl(col).tolist() == any_incl
            # The walk's marks are element rows
            assert_concrete_runs_cover(vf, [m for m in marked if vf.elem[m]])

    def test_concrete_desc_runs_on_pinned_marks(self):
        # rows: r0 a1 b2 c3 d4 e5 f6, with a:[1, 3), c:[3, 4), d:[4, 7)
        tree = XMLTree(element("r", element("a", element("b")), element("c"),
                               element("d", element("e"), element("f"))))
        vf = vector_fragment(build_fragmentation(tree, []).flat("F0"))
        assert vf.post.tolist() == [7, 3, 3, 4, 7, 6, 7]
        for marks in (
            [],
            [0],  # a mark at row 0: the run opens where the init run does
            [0, 1, 4],  # nested inside the row-0 mark
            [1, 3],  # adjacent intervals: a closes where c opens
            [1, 3, 4],  # three back to back
            [1, 2, 4, 5, 6],  # nested marks, the inner ones opening no run
            [2, 3, 5],
        ):
            assert_concrete_runs_cover(vf, marks)


def assert_concrete_runs_cover(vf, marks):
    """A concrete // column selects exactly the elements of some mark's
    subtree interval (ancestor-or-self of a mark)."""
    starts, codes, runs = concrete_desc_runs(vf, np.asarray(marks, dtype=np.int64))
    post = vf.post.tolist()
    if runs:
        starts, codes = starts.tolist(), codes.tolist()
        assert starts == sorted(starts) and starts[0] == 0
        assert len(starts) <= 2 * len(marks) + 1
        got = [
            codes[bisect.bisect_right(starts, i) - 1] if vf.elem[i] else 0
            for i in range(vf.n)
        ]
    else:
        got = [0] * vf.n  # no marks: nothing selected
        assert starts.size == 0
    expected = [
        int(bool(vf.elem[i]) and any(m <= i < post[m] for m in marks))
        for i in range(vf.n)
    ]
    assert got == expected, marks


class TestCacheTurnover:
    def test_vector_is_cached_per_flat(self):
        scenario = build_ft2(total_bytes=15_000, seed=2)
        fragmentation = scenario.fragmentation
        fragment_id = fragmentation.fragment_ids()[0]
        flat = fragmentation.flat(fragment_id)
        assert vector_fragment(flat) is vector_fragment(flat)

    def test_bump_epoch_rebuilds_only_that_fragments_encoding(self):
        scenario = build_ft2(total_bytes=15_000, seed=2)
        fragmentation = scenario.fragmentation
        touched, untouched = fragmentation.fragment_ids()[:2]
        vectors = {
            fid: vector_fragment(fragmentation.flat(fid))
            for fid in (touched, untouched)
        }
        # In-place edit inside the touched span, then record it.
        fragment = fragmentation[touched]
        for node in fragment.iter_span():
            if not node.is_element:
                node.value = (node.value or "") + "!"
                break
        fragmentation.bump_epoch(touched)
        rebuilt = vector_fragment(fragmentation.flat(touched))
        assert rebuilt is not vectors[touched]
        assert_encoding_matches_object_tree(fragment, fragmentation.flat(touched))
        # The untouched fragment keeps its flat, and with it its columns.
        assert vector_fragment(fragmentation.flat(untouched)) is vectors[untouched]

    def test_version_refresh_drops_stale_vector_columns(self):
        scenario = build_ft2(total_bytes=15_000, seed=2)
        fragmentation = scenario.fragmentation
        fragment_id = fragmentation.fragment_ids()[0]
        before = vector_fragment(fragmentation.flat(fragment_id))
        for node in fragmentation.tree.root.iter_subtree():
            if not node.is_element:
                node.value = (node.value or "") + "!"
                break
        # Not yet refreshed: still the cached columns.
        assert vector_fragment(fragmentation.flat(fragment_id)) is before
        old_version = fragmentation.content_version()
        assert fragmentation.content_version(refresh=True) != old_version
        after = vector_fragment(fragmentation.flat(fragment_id))
        assert after is not before
        assert_encoding_matches_object_tree(
            fragmentation[fragment_id], fragmentation.flat(fragment_id)
        )

    def test_invalidate_flat_forces_vector_rebuild(self):
        scenario = build_ft2(total_bytes=15_000, seed=2)
        fragmentation = scenario.fragmentation
        fragment_id = fragmentation.fragment_ids()[0]
        before = vector_fragment(fragmentation.flat(fragment_id))
        fragmentation.invalidate_flat()
        assert vector_fragment(fragmentation.flat(fragment_id)) is not before
