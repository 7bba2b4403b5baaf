"""Unit tests for the XML node/tree model."""

import pytest

from repro.xmltree.builder import element, text
from repro.xmltree.errors import XMLTreeError
from repro.xmltree.nodes import ELEMENT, TEXT, XMLNode, XMLTree, parse_numeric


@pytest.fixture
def sample_tree() -> XMLTree:
    return XMLTree(
        element(
            "catalog",
            element("book", element("title", "Dune"), element("price", "9.50")),
            element("book", element("title", "Hyperion"), element("price", "$12")),
            element("note", "restocked"),
        )
    )


class TestNodeConstruction:
    def test_element_requires_tag(self):
        with pytest.raises(XMLTreeError):
            XMLNode(ELEMENT)

    def test_text_requires_value(self):
        with pytest.raises(XMLTreeError):
            XMLNode(TEXT)

    def test_unknown_kind_rejected(self):
        with pytest.raises(XMLTreeError):
            XMLNode("attribute", tag="x")

    def test_text_nodes_cannot_have_children(self):
        with pytest.raises(XMLTreeError):
            text("hi").append(text("there"))

    def test_node_cannot_have_two_parents(self):
        child = element("x")
        element("a", child)
        with pytest.raises(XMLTreeError):
            element("b").append(child)


class TestNavigation:
    def test_labels(self, sample_tree):
        assert sample_tree.root.label == "catalog"
        first_text = next(n for n in sample_tree.iter_nodes() if n.is_text)
        assert first_text.label == "#text"

    def test_text_concatenates_direct_text_children(self, sample_tree):
        note = sample_tree.root.children[-1]
        assert note.text() == "restocked"
        assert sample_tree.root.text() == ""

    def test_numeric_value(self, sample_tree):
        prices = sample_tree.root.find_all(lambda n: n.is_element and n.tag == "price")
        assert prices[0].numeric_value() == pytest.approx(9.5)
        # Leading currency symbols are tolerated (the paper stores "$374").
        assert prices[1].numeric_value() == pytest.approx(12)
        titles = sample_tree.root.find_all(lambda n: n.is_element and n.tag == "title")
        assert titles[0].numeric_value() is None

    def test_iter_subtree_is_preorder(self, sample_tree):
        labels = [n.label for n in sample_tree.root.iter_subtree() if n.is_element]
        assert labels == ["catalog", "book", "title", "price", "book", "title", "price", "note"]

    def test_iter_descendants_excludes_self(self, sample_tree):
        descendants = list(sample_tree.root.iter_descendants())
        assert sample_tree.root not in descendants
        assert len(descendants) == sample_tree.size() - 1

    def test_ancestors_and_depth(self, sample_tree):
        title = sample_tree.root.find_first(lambda n: n.is_element and n.tag == "title")
        assert [a.label for a in title.ancestors()] == ["book", "catalog"]
        assert title.depth() == 2
        assert sample_tree.root.depth() == 0

    def test_root_path_labels(self, sample_tree):
        title = sample_tree.root.find_first(lambda n: n.is_element and n.tag == "title")
        assert title.root_path_labels() == ["catalog", "book", "title"]

    def test_subtree_size(self, sample_tree):
        book = sample_tree.root.children[0]
        # book + title + text + price + text
        assert book.subtree_size() == 5

    def test_element_children_filters_text(self, sample_tree):
        note = sample_tree.root.children[-1]
        assert list(note.element_children()) == []


class TestTree:
    def test_reindex_assigns_preorder_ids(self, sample_tree):
        ids = [node.node_id for node in sample_tree.iter_nodes()]
        assert ids == list(range(sample_tree.size()))

    def test_node_lookup(self, sample_tree):
        for node in sample_tree.iter_nodes():
            assert sample_tree.node(node.node_id) is node
        assert 0 in sample_tree
        assert 10_000 not in sample_tree

    def test_unknown_node_id_raises(self, sample_tree):
        with pytest.raises(XMLTreeError):
            sample_tree.node(99_999)

    def test_root_must_be_element(self):
        with pytest.raises(XMLTreeError):
            XMLTree(text("oops"))

    def test_root_must_not_have_parent(self):
        child = element("inner")
        element("outer", child)
        with pytest.raises(XMLTreeError):
            XMLTree(child)

    def test_counts(self, sample_tree):
        assert sample_tree.size() == 13
        assert sample_tree.element_count() == 8

    def test_approximate_bytes_positive_and_monotone(self, sample_tree):
        small = sample_tree.approximate_bytes()
        sample_tree.root.append(element("book", element("title", "Foundation")))
        sample_tree.reindex()
        assert sample_tree.approximate_bytes() > small


class TestIdAllocation:
    """Fresh-id registration for in-place mutations (repro.updates)."""

    def test_register_subtree_assigns_ids_beyond_the_preorder_range(self):
        tree = XMLTree(element("root", element("a"), element("b")))
        size = tree.size()
        graft = element("c", element("d", "payload"))
        graft.parent = tree.root
        tree.root.children.append(graft)
        count = tree.register_subtree(graft)
        assert count == 3
        assert tree.size() == size + 3
        ids = [node.node_id for node in graft.iter_subtree()]
        assert ids == [size, size + 1, size + 2]
        for node_id in ids:
            assert tree.node(node_id) is not None

    def test_retired_ids_are_never_reused(self):
        tree = XMLTree(element("root", element("a")))
        victim = tree.root.children[0]
        tree.root.children.remove(victim)
        victim.parent = None
        tree.unregister_subtree(victim)
        assert victim.node_id not in tree
        replacement = element("b")
        replacement.parent = tree.root
        tree.root.children.append(replacement)
        tree.register_subtree(replacement)
        assert replacement.node_id != victim.node_id

    def test_adopt_preassigned_ids_round_trips_sparse_ids(self):
        root = element("root", element("a"))
        root.node_id = 7
        root.children[0].node_id = 99
        tree = XMLTree(root, reindex=False)
        tree.adopt_preassigned_ids()
        assert tree.node(7) is root and tree.node(99) is root.children[0]
        assert tree.size() == 2
        # the fresh-id counter resumes past the highest adopted id
        graft = element("b")
        graft.parent = root
        root.children.append(graft)
        tree.register_subtree(graft)
        assert graft.node_id == 100

    def test_adopt_preassigned_ids_rejects_duplicates_and_unassigned(self):
        root = element("root", element("a"))
        root.node_id = 1
        root.children[0].node_id = 1
        with pytest.raises(XMLTreeError, match="duplicate"):
            XMLTree(root, reindex=False).adopt_preassigned_ids()
        fresh = element("root", element("a"))
        fresh.node_id = 0
        with pytest.raises(XMLTreeError, match="without an assigned id"):
            XMLTree(fresh, reindex=False).adopt_preassigned_ids()

    def test_from_preorder_index_takes_the_numbering_as_given(self):
        root = element("root", element("a", "t"), element("b"))
        by_id = {}
        for node in root.iter_subtree():
            node.node_id = len(by_id)
            by_id[node.node_id] = node
        tree = XMLTree.from_preorder_index(by_id)
        assert tree.root is root and tree.size() == 4
        assert [tree.node(index) for index in range(4)] == list(tree.iter_nodes())
        # fresh ids resume past the pre-order range, and a later reindex agrees
        graft = element("c")
        graft.parent = root
        root.children.append(graft)
        tree.register_subtree(graft)
        assert graft.node_id == 4
        tree.reindex()
        assert [node.node_id for node in tree.iter_nodes()] == list(range(5))

    def test_from_preorder_index_checks_the_root_like_the_constructor(self):
        stray = text("oops")
        stray.node_id = 0
        with pytest.raises(XMLTreeError):
            XMLTree.from_preorder_index({0: stray})


class TestParseNumeric:
    @pytest.mark.parametrize(
        "stripped, expected",
        [("12", 12.0), ("$374", 374.0), ("1e3", 1000.0), ("-0.5", -0.5), ("inf", float("inf")),
         ("", None), ("$", None), ("abc", None), ("1 2", None), ("$$1", None)],
    )
    def test_values(self, stripped, expected):
        assert parse_numeric(stripped) == expected

    def test_numeric_value_strips_then_parses(self):
        assert element("price", "  $9.50\n").numeric_value() == 9.5
        assert element("price", text(" 1"), element("x"), text("0 ")).numeric_value() == 10.0
        assert element("price").numeric_value() is None
