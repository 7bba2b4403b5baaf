"""Node and tree model.

The model is deliberately minimal: ordered element nodes with a tag, text
nodes with a string value, and stable integer identifiers assigned in
document (pre-order) order.  Attributes, namespaces and processing
instructions are outside the paper's query fragment and are not modelled.

Node identifiers are the glue between the distributed algorithms and the
ground truth: a query answer is a set of node ids, and those ids survive
fragmentation (fragments reference the same node objects as the original
tree), so the distributed result can be compared bit-for-bit against the
centralized evaluation.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.xmltree.errors import XMLTreeError

__all__ = ["NodeId", "XMLNode", "XMLTree", "ELEMENT", "TEXT", "parse_numeric"]

NodeId = int

ELEMENT = "element"
TEXT = "text"


def parse_numeric(stripped: str) -> Optional[float]:
    """What ``val()`` sees in already-stripped text; ``None`` if not numeric.

    A leading currency symbol is tolerated because the paper's running
    example stores prices as ``$374``.  The one definition behind
    :meth:`XMLNode.numeric_value` and the flat ``numeric`` column.
    """
    if stripped.startswith("$"):
        stripped = stripped[1:]
    if not stripped:
        return None
    try:
        return float(stripped)
    except ValueError:
        return None


class XMLNode:
    """A node of an XML tree (element or text).

    Public attributes
    -----------------
    node_id:
        Stable pre-order identifier assigned by :meth:`XMLTree.reindex`.
        ``-1`` until the node is attached to an indexed tree.
    kind:
        Either :data:`ELEMENT` or :data:`TEXT`.
    tag:
        Element tag, ``None`` for text nodes.
    value:
        Text content, ``None`` for element nodes.
    parent / children:
        Tree structure, in document order.
    """

    __slots__ = ("node_id", "kind", "tag", "value", "parent", "children")

    def __init__(
        self,
        kind: str,
        tag: Optional[str] = None,
        value: Optional[str] = None,
    ):
        if kind == ELEMENT:
            if not tag:
                raise XMLTreeError("element nodes require a tag")
        elif kind == TEXT:
            if value is None:
                raise XMLTreeError("text nodes require a value")
        else:
            raise XMLTreeError(f"unknown node kind: {kind!r}")
        self.node_id: NodeId = -1
        self.kind = kind
        self.tag = tag
        self.value = value
        self.parent: Optional[XMLNode] = None
        self.children: list[XMLNode] = []

    # -- construction -----------------------------------------------------

    def append(self, child: "XMLNode") -> "XMLNode":
        """Attach *child* as the last child and return it."""
        if self.kind != ELEMENT:
            raise XMLTreeError("text nodes cannot have children")
        if child.parent is not None:
            raise XMLTreeError("node already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    def extend(self, children: list["XMLNode"]) -> None:
        """Attach several children in order."""
        for child in children:
            self.append(child)

    # -- classification ---------------------------------------------------

    @property
    def is_element(self) -> bool:
        return self.kind == ELEMENT

    @property
    def is_text(self) -> bool:
        return self.kind == TEXT

    @property
    def label(self) -> str:
        """Tag for elements, the pseudo-label ``#text`` for text nodes."""
        return self.tag if self.kind == ELEMENT else "#text"

    # -- content ----------------------------------------------------------

    def text(self) -> str:
        """Concatenated value of the node's *direct* text children.

        For a text node this is its own value.  This is what ``text() = str``
        qualifiers compare against.
        """
        if self.kind == TEXT:
            return self.value or ""
        return "".join(child.value or "" for child in self.children if child.is_text)

    def numeric_value(self) -> Optional[float]:
        """The node's text parsed as a number, or ``None`` if not numeric.

        ``val() op num`` qualifiers use this (see :func:`parse_numeric`).
        """
        return parse_numeric(self.text().strip())

    # -- navigation -------------------------------------------------------

    def element_children(self) -> Iterator["XMLNode"]:
        """The node's element children, in document order."""
        return (child for child in self.children if child.is_element)

    def iter_subtree(self) -> Iterator["XMLNode"]:
        """Pre-order iteration over the subtree rooted at this node."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(reversed(node.children))

    def iter_descendants(self) -> Iterator["XMLNode"]:
        """Pre-order iteration over proper descendants."""
        iterator = self.iter_subtree()
        next(iterator)  # skip self
        return iterator

    def ancestors(self) -> Iterator["XMLNode"]:
        """Proper ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root_path_labels(self) -> list[str]:
        """Labels from the document root down to (and including) this node."""
        labels = [self.label]
        for ancestor in self.ancestors():
            labels.append(ancestor.label)
        labels.reverse()
        return labels

    def depth(self) -> int:
        """Number of proper ancestors."""
        return sum(1 for _ in self.ancestors())

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (including self)."""
        return sum(1 for _ in self.iter_subtree())

    def find_first(self, predicate: Callable[["XMLNode"], bool]) -> Optional["XMLNode"]:
        """First node in document order of this subtree matching *predicate*."""
        for node in self.iter_subtree():
            if predicate(node):
                return node
        return None

    def find_all(self, predicate: Callable[["XMLNode"], bool]) -> list["XMLNode"]:
        """All nodes in document order of this subtree matching *predicate*."""
        return [node for node in self.iter_subtree() if predicate(node)]

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        if self.kind == ELEMENT:
            return f"<XMLNode element {self.tag!r} id={self.node_id}>"
        preview = (self.value or "")[:20]
        return f"<XMLNode text {preview!r} id={self.node_id}>"


class XMLTree:
    """An XML document: a root element plus a node-id index.

    The tree owns document order.  After any structural change callers should
    invoke :meth:`reindex`; all factory functions in this package
    (:func:`repro.xmltree.parse_xml`, :class:`repro.xmltree.TreeBuilder`,
    the workload generators) return trees that are already indexed.
    """

    def __init__(self, root: XMLNode, reindex: bool = True):
        if not root.is_element:
            raise XMLTreeError("the root of a tree must be an element")
        if root.parent is not None:
            raise XMLTreeError("the root of a tree must not have a parent")
        self.root = root
        self._by_id: dict[NodeId, XMLNode] = {}
        self._next_node_id: NodeId = 0
        if reindex:
            self.reindex()

    @classmethod
    def from_preorder_index(cls, by_id: dict[NodeId, XMLNode]) -> "XMLTree":
        """A tree over nodes already numbered ``0..n-1`` in document order.

        *by_id* is the finished id index (root at ``0``) and becomes the
        tree's own; for builders that create nodes in document order and can
        number them as they go, sparing the :meth:`reindex` walk.
        """
        tree = cls(by_id[0], reindex=False)
        tree._by_id = by_id
        tree._next_node_id = len(by_id)
        return tree

    # -- indexing -----------------------------------------------------------

    def reindex(self) -> None:
        """Assign pre-order ``node_id`` values and rebuild the id index.

        A full reindex renumbers *every* node, invalidating ids held outside
        the tree (fragmentations, cached answers).  In-place mutations use
        :meth:`register_subtree` instead, which hands out fresh ids beyond
        the pre-order range without disturbing existing ones.
        """
        self._by_id.clear()
        for index, node in enumerate(self.root.iter_subtree()):
            node.node_id = index
            self._by_id[index] = node
        self._next_node_id = len(self._by_id)

    def register_subtree(self, root: XMLNode) -> int:
        """Index an attached subtree of fresh nodes, assigning new ids.

        Ids are allocated from a monotone counter and never reused, so every
        id stays stable and unique across any sequence of inserts and
        deletes (ids of inserted nodes do *not* follow document pre-order —
        only uniqueness and stability are guaranteed, which is what
        fragmentation and answer accounting rely on).  Returns the number of
        nodes registered.
        """
        count = 0
        for node in root.iter_subtree():
            node.node_id = self._next_node_id
            self._by_id[node.node_id] = node
            self._next_node_id += 1
            count += 1
        return count

    def adopt_preassigned_ids(self) -> None:
        """Rebuild the id index from ids the nodes already carry.

        For trees whose nodes were built with meaningful ids (e.g. a
        reassembled copy preserving the source document's ids, which after
        in-place mutations are *not* a dense pre-order numbering).  Ids must
        be assigned and unique; the fresh-id counter resumes past the
        highest one.
        """
        self._by_id.clear()
        highest = -1
        for node in self.root.iter_subtree():
            if node.node_id < 0:
                raise XMLTreeError("adopt_preassigned_ids: node without an assigned id")
            if node.node_id in self._by_id:
                raise XMLTreeError(f"adopt_preassigned_ids: duplicate node id {node.node_id}")
            self._by_id[node.node_id] = node
            if node.node_id > highest:
                highest = node.node_id
        self._next_node_id = highest + 1

    def unregister_subtree(self, root: XMLNode) -> int:
        """Drop a detached subtree's nodes from the id index.

        The removed ids are retired for good (never reallocated).  Returns
        the number of nodes unregistered.
        """
        count = 0
        for node in root.iter_subtree():
            self._by_id.pop(node.node_id, None)
            count += 1
        return count

    def node(self, node_id: NodeId) -> XMLNode:
        """Look a node up by id."""
        try:
            return self._by_id[node_id]
        except KeyError:
            raise XMLTreeError(f"unknown node id {node_id}") from None

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._by_id

    # -- whole-tree views ----------------------------------------------------

    def iter_nodes(self) -> Iterator[XMLNode]:
        """All nodes in document order."""
        return self.root.iter_subtree()

    def iter_elements(self) -> Iterator[XMLNode]:
        """All element nodes in document order."""
        return (node for node in self.iter_nodes() if node.is_element)

    def size(self) -> int:
        """Total node count."""
        return len(self._by_id) if self._by_id else self.root.subtree_size()

    def element_count(self) -> int:
        """Element node count."""
        return sum(1 for _ in self.iter_elements())

    def approximate_bytes(self) -> int:
        """Approximate serialized size, used to parameterize workloads.

        Counted as tag characters (twice, for open/close) plus text content
        plus angle-bracket overhead; close enough to the real serialization
        for "cumulative fragment data size (MB)" sweeps.
        """
        total = 0
        for node in self.iter_nodes():
            if node.is_element:
                total += 2 * len(node.tag or "") + 5
            else:
                total += len(node.value or "")
        return total

    def __repr__(self) -> str:
        return f"<XMLTree root={self.root.tag!r} nodes={self.size()}>"
