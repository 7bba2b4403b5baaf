"""The fragmentation of a tree and the induced fragment tree."""

from __future__ import annotations

import struct
from hashlib import blake2b
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.fragments.fragment import Fragment
from repro.xmltree.flat import FlatFragment, TagTable, build_flat_fragment
from repro.xmltree.nodes import ELEMENT, NodeId, XMLNode, XMLTree

__all__ = ["Fragmentation", "FragmentationError", "build_fragmentation"]


class FragmentationError(Exception):
    """Raised when a requested fragmentation is not well formed."""


class Fragmentation:
    """A set of disjoint fragments covering an XML tree, plus their tree.

    The fragmentation is also the paper's *fragment tree* ``FT``: fragments
    are its nodes, and fragment ``F_k`` is a child of ``F_j`` when the parent
    of ``F_k``'s root belongs to ``F_j``.
    """

    def __init__(self, tree: XMLTree):
        self.tree = tree
        self.fragments: Dict[str, Fragment] = {}
        self.root_fragment_id: Optional[str] = None
        #: node id of a fragment root -> fragment id (includes the root fragment)
        self.fragment_root_ids: Dict[NodeId, str] = {}
        #: columnar span encodings, valid for _content_version (see flat())
        self._flat_cache: Dict[str, FlatFragment] = {}
        #: the document-wide tag ids every flat encoding interns into, and
        #: the plan-table caches compiled against them; append-only, so it
        #: outlives the encodings (dropping them never renumbers a tag)
        self._tag_table = TagTable()
        self._content_version: Optional[str] = None
        #: per-fragment mutation epochs (see bump_epoch / version_token)
        self._epochs: Dict[str, int] = {}
        #: bottom_up_order() / top_down_order(), sorted once per fragment set
        self._bottom_up: Optional[List[str]] = None
        self._top_down: Optional[List[str]] = None
        #: full-document fingerprint walks performed so far; tests assert the
        #: steady-state query path never increments this
        self.full_walks = 0

    # -- construction ---------------------------------------------------------

    def _add_fragment(self, fragment: Fragment) -> None:
        if fragment.fragment_id in self.fragments:
            raise FragmentationError(f"duplicate fragment id {fragment.fragment_id}")
        self.fragments[fragment.fragment_id] = fragment
        self.fragment_root_ids[fragment.root.node_id] = fragment.fragment_id
        if fragment.parent_id is None:
            self.root_fragment_id = fragment.fragment_id
        self._epochs[fragment.fragment_id] = 0
        self._bottom_up = self._top_down = None
        self.invalidate_flat()

    # -- columnar encodings ---------------------------------------------------

    def content_fingerprint(self) -> str:
        """Placement-free fingerprint of the fragmented document.

        Covers the tree shape and content (size, labels and texts fed into a
        :mod:`hashlib` digest, so the value is identical across processes
        regardless of ``PYTHONHASHSEED``) and the fragment boundaries.  This
        is a **full document walk** — the steady-state paths never call it;
        mutations applied through :mod:`repro.updates` move the version via
        :meth:`bump_epoch` instead.  Every call increments :attr:`full_walks`
        so tests can assert the walk count stays flat while serving.
        """
        self.full_walks += 1
        hasher = blake2b(digest_size=8)
        hasher.update(struct.pack("<Q", self.tree.size()))
        for fragment_id in self.fragment_ids():
            fragment = self.fragments[fragment_id]
            hasher.update(fragment_id.encode("utf-8"))
            hasher.update(struct.pack("<q", fragment.root.node_id))
        # One label per node in document order, each followed by \x01 (a
        # missing label reads \x00): joined and hashed in a single update.
        labels = [
            node.tag if node.kind == ELEMENT else node.value
            for node in self.tree.root.iter_subtree()
        ]
        labels.append("")
        stream = "\x01".join(["\x00" if label is None else label for label in labels])
        hasher.update(stream.encode("utf-8"))
        return hasher.hexdigest()

    def content_version(self, refresh: bool = False) -> str:
        """The cached content fingerprint, recomputed on demand.

        Passing ``refresh=True`` re-walks the document — the escape hatch for
        edits made *behind the fragmentation's back* (mutations applied
        through :mod:`repro.updates` never need it); when the fingerprint
        moved, the flat encodings are dropped with it.
        """
        if refresh or self._content_version is None:
            tag = self.content_fingerprint()
            if tag != self._content_version:
                self._flat_cache.clear()
                self._content_version = tag
        return self._content_version

    # -- mutation epochs -------------------------------------------------------

    def fragment_epoch(self, fragment_id: str) -> int:
        """How many in-place mutations have touched *fragment_id*'s span."""
        return self._epochs[fragment_id]

    def bump_epoch(self, fragment_id: str) -> int:
        """Record an in-place mutation of one fragment's span.

        Advances only the touched fragment's epoch and drops only that
        fragment's columnar encoding (rebuilt lazily on next access); every
        other fragment's arrays, and the cached content base, stay valid.
        This is what makes a write O(touched fragment) instead of
        O(document).  Returns the new epoch.
        """
        if fragment_id not in self.fragments:
            raise FragmentationError(f"unknown fragment id {fragment_id}")
        self._epochs[fragment_id] += 1
        self._flat_cache.pop(fragment_id, None)
        return self._epochs[fragment_id]

    def version_token(self) -> str:
        """An O(#fragments) version of the fragmented document, no tree walk.

        The content base (:meth:`content_version`, computed at most once per
        structural reset) folded with every fragment's mutation epoch: any
        mutation applied through :meth:`bump_epoch` moves the token, as does
        a ``refresh=True`` re-fingerprint that found out-of-band edits.
        Stable across processes (pure :mod:`hashlib`, no builtin ``hash``).
        """
        hasher = blake2b(digest_size=8)
        hasher.update(self.content_version().encode("ascii"))
        for fragment_id in self.fragment_ids():
            hasher.update(fragment_id.encode("utf-8"))
            hasher.update(struct.pack("<Q", self._epochs[fragment_id]))
        return hasher.hexdigest()

    def flat(self, fragment_id: str) -> FlatFragment:
        """The columnar encoding of one fragment span, built once and cached.

        The cache is keyed on :meth:`content_version`; re-fragmenting or
        refreshing the version after a document edit rebuilds the arrays.
        """
        self.content_version()
        encoded = self._flat_cache.get(fragment_id)
        if encoded is None:
            encoded = build_flat_fragment(self.fragments[fragment_id], self._tag_table)
            self._flat_cache[fragment_id] = encoded
        return encoded

    def flat_cached(self, fragment_id: str) -> bool:
        """Whether *fragment_id*'s columnar encoding is currently built."""
        return fragment_id in self._flat_cache

    def invalidate_flat(self) -> None:
        """Drop the flat encodings and the cached content fingerprint."""
        self._flat_cache.clear()
        self._content_version = None

    # -- lookup ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.fragments)

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self.fragments.values())

    def __getitem__(self, fragment_id: str) -> Fragment:
        return self.fragments[fragment_id]

    def fragment_ids(self) -> List[str]:
        """All fragment ids, root fragment first, then document order."""
        return list(self.fragments.keys())

    @property
    def root_fragment(self) -> Fragment:
        if self.root_fragment_id is None:
            raise FragmentationError("fragmentation has no root fragment")
        return self.fragments[self.root_fragment_id]

    def children(self, fragment_id: str) -> List[str]:
        """Ids of the direct sub-fragments of *fragment_id*."""
        return list(self.fragments[fragment_id].virtual_children.values())

    def parent(self, fragment_id: str) -> Optional[str]:
        """Id of the parent fragment, ``None`` for the root fragment."""
        return self.fragments[fragment_id].parent_id

    def ancestors(self, fragment_id: str) -> List[str]:
        """Fragment-tree ancestors of *fragment_id*, nearest first."""
        result = []
        current = self.parent(fragment_id)
        while current is not None:
            result.append(current)
            current = self.parent(current)
        return result

    def leaf_fragments(self) -> List[str]:
        """Ids of fragments without sub-fragments."""
        return [fid for fid, fragment in self.fragments.items() if fragment.is_leaf()]

    def depth(self, fragment_id: str) -> int:
        """Depth of a fragment in the fragment tree (root fragment = 0)."""
        return len(self.ancestors(fragment_id))

    def bottom_up_order(self) -> List[str]:
        """Fragment ids ordered so children precede their parents."""
        if self._bottom_up is None:
            self._bottom_up = sorted(self.fragments, key=self.depth, reverse=True)
        return list(self._bottom_up)

    def top_down_order(self) -> List[str]:
        """Fragment ids ordered so parents precede their children."""
        if self._top_down is None:
            self._top_down = sorted(self.fragments, key=self.depth)
        return list(self._top_down)

    def parent_node_of(self, fragment_id: str) -> Optional[XMLNode]:
        """The node (in the parent fragment) whose child is this fragment's root."""
        fragment = self.fragments[fragment_id]
        return fragment.root.parent

    # -- accounting ---------------------------------------------------------------

    def total_nodes(self) -> int:
        """Total node count across fragment spans (== tree size)."""
        return sum(fragment.node_count() for fragment in self.fragments.values())

    def total_elements(self) -> int:
        return sum(fragment.element_count() for fragment in self.fragments.values())

    def total_bytes(self) -> int:
        return sum(fragment.approximate_bytes() for fragment in self.fragments.values())

    def max_fragment_elements(self) -> int:
        """Largest fragment size in elements (drives parallel-cost analysis)."""
        return max(fragment.element_count() for fragment in self.fragments.values())

    def summary(self) -> str:
        """A readable multi-line summary of the fragmentation."""
        lines = [f"fragmentation of tree with {self.tree.size()} nodes:"]
        for fragment_id in self.top_down_order():
            fragment = self.fragments[fragment_id]
            indent = "  " * (self.depth(fragment_id) + 1)
            lines.append(
                f"{indent}{fragment_id}: root=<{fragment.root.label}> "
                f"elements={fragment.element_count()} "
                f"bytes~{fragment.approximate_bytes()} "
                f"children={self.children(fragment_id)}"
            )
        return "\n".join(lines)

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants of a fragmentation.

        * exactly one root fragment whose root is the document root,
        * fragment spans are disjoint and cover the whole tree,
        * every non-root fragment's root has its parent inside the parent
          fragment's span.
        """
        if self.root_fragment_id is None:
            raise FragmentationError("no root fragment")
        if self.root_fragment.root is not self.tree.root:
            raise FragmentationError("the root fragment must contain the document root")

        seen: Dict[NodeId, str] = {}
        for fragment in self.fragments.values():
            for node in fragment.iter_span():
                if node.node_id in seen:
                    raise FragmentationError(
                        f"node {node.node_id} appears in fragments "
                        f"{seen[node.node_id]} and {fragment.fragment_id}"
                    )
                seen[node.node_id] = fragment.fragment_id
        if len(seen) != self.tree.size():
            raise FragmentationError(
                f"fragments cover {len(seen)} nodes but the tree has {self.tree.size()}"
            )

        for fragment in self.fragments.values():
            if fragment.parent_id is None:
                continue
            parent_fragment = self.fragments[fragment.parent_id]
            parent_node = fragment.root.parent
            if parent_node is None:
                raise FragmentationError(
                    f"non-root fragment {fragment.fragment_id} is rooted at the document root"
                )
            if seen.get(parent_node.node_id) != parent_fragment.fragment_id:
                raise FragmentationError(
                    f"parent of fragment {fragment.fragment_id} root is not in "
                    f"fragment {parent_fragment.fragment_id}"
                )
            if fragment.root.node_id not in parent_fragment.virtual_children:
                raise FragmentationError(
                    f"fragment {fragment.fragment_id} is not registered as a virtual "
                    f"child of {parent_fragment.fragment_id}"
                )

    def __repr__(self) -> str:
        return f"<Fragmentation fragments={len(self.fragments)} tree_nodes={self.tree.size()}>"


def build_fragmentation(
    tree: XMLTree,
    cut_node_ids: Sequence[NodeId] | Iterable[NodeId],
    fragment_prefix: str = "F",
) -> Fragmentation:
    """Build a fragmentation of *tree* by cutting at the given nodes.

    Every cut node becomes the root of its own fragment; the root fragment
    (``F0``) is rooted at the document root.  Cut nodes may be nested
    arbitrarily (a cut node inside another cut subtree produces a
    sub-sub-fragment), matching the paper's "most generic possible" setting.
    Fragment ids are assigned in document order of their roots.
    """
    cut_ids = sorted(set(cut_node_ids))
    for node_id in cut_ids:
        node = tree.node(node_id)
        if node is tree.root:
            raise FragmentationError("the document root cannot be a cut node")
        if not node.is_element:
            raise FragmentationError(f"cut node {node_id} is not an element")

    fragmentation = Fragmentation(tree)
    cut_set = set(cut_ids)

    # Fragment ids in document order: F0 for the root, then one per cut node.
    id_by_root: Dict[NodeId, str] = {tree.root.node_id: f"{fragment_prefix}0"}
    for index, node_id in enumerate(cut_ids, start=1):
        id_by_root[node_id] = f"{fragment_prefix}{index}"

    def owning_fragment_root(node: XMLNode) -> NodeId:
        """Root (node id) of the fragment that owns *node*."""
        current = node
        while current.parent is not None:
            if current.node_id in cut_set:
                return current.node_id
            current = current.parent
        return current.node_id  # the document root

    root_fragment = Fragment(id_by_root[tree.root.node_id], tree.root, parent_id=None)
    fragmentation._add_fragment(root_fragment)

    fragments_by_root: Dict[NodeId, Fragment] = {tree.root.node_id: root_fragment}
    for node_id in cut_ids:
        node = tree.node(node_id)
        parent_root_id = owning_fragment_root(node.parent)
        parent_fragment_id = id_by_root[parent_root_id]
        fragment = Fragment(id_by_root[node_id], node, parent_id=parent_fragment_id)
        fragmentation._add_fragment(fragment)
        fragments_by_root[node_id] = fragment

    for node_id in cut_ids:
        node = tree.node(node_id)
        parent_root_id = owning_fragment_root(node.parent)
        fragments_by_root[parent_root_id].add_virtual_child(node_id, id_by_root[node_id])

    return fragmentation
