"""Columnar (struct-of-arrays) encoding of fragment spans.

The per-fragment passes are the hot loop of every algorithm in this repo:
each query visits every element of every evaluated fragment.  Walking the
:class:`~repro.xmltree.nodes.XMLNode` object graph pays an attribute lookup,
a method call and a list allocation per edge; :class:`FlatFragment` instead
encodes a fragment span once as flat pre-order arrays so the kernels in
:mod:`repro.core.kernel` can walk plain integer indices.

Layout
------
One entry per span node (elements *and* text), in exactly the order of
:meth:`repro.fragments.fragment.Fragment.iter_span` (document pre-order,
sub-fragments excluded):

``kind[i]``
    :data:`KIND_ELEMENT` or :data:`KIND_TEXT`.
``tag_id[i]``
    Index into the **document-wide** :class:`TagTable` (interned strings,
    shared as :attr:`FlatFragment.tags`); ``-1`` for text nodes.  The table
    is append-only and owned by the
    :class:`~repro.fragments.fragment_tree.Fragmentation`, so an id means
    the same tag in every fragment, in every re-encode after a write and in
    every pinned MVCC snapshot — which is what lets one compiled set of
    plan tables serve the whole document (see :class:`TagTable`).
``parent[i]``
    Flat index of the parent within the span; ``-1`` for the fragment root.
``subtree_size[i]``
    Number of span nodes in the subtree rooted at ``i`` (including ``i``),
    so ``i + subtree_size[i]`` is the next sibling / unrelated node —
    pre-order plus subtree sizes is the whole tree structure.
``node_ids[i]``
    The node's stable global :data:`~repro.xmltree.nodes.NodeId`.  Parsing
    numbers nodes in pre-order, so the column is a few runs of consecutive
    ids; :meth:`FlatFragment.rows_of` maps ids back to rows through those
    runs, with no per-node dictionary.
``text_norm[i]`` / ``numeric[i]``
    For elements: the direct-text content normalized for ``text() = s``
    tests (stripped, lower-cased) and parsed for ``val() op n`` tests
    (``None`` when not numeric), precomputed once at build time instead of
    per query per item.
``virtual_at``
    Flat index of a span element -> ids of the sub-fragments hanging
    directly below it, in document order (``virtual_indices`` holds the
    keys sorted, for range queries during subtree skips).

Instances are built once per fragment and cached on
:class:`~repro.fragments.fragment_tree.Fragmentation`, keyed by the same
content fingerprint the service result cache uses, so a re-fragmentation or
document edit that would change query answers also drops the flat encodings.
The tag table outlives them: it only ever grows, so encodings built before
and after a write (or pinned by a snapshot) agree on every id they share.
"""

from __future__ import annotations

import bisect
from bisect import bisect_right
from itertools import compress, islice, repeat
from operator import add, ne
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.xmltree.nodes import TEXT, NodeId, parse_numeric

__all__ = ["FlatFragment", "KIND_ELEMENT", "KIND_TEXT", "TagTable", "build_flat_fragment"]

KIND_ELEMENT = 0
KIND_TEXT = 1


class TagTable:
    """Append-only interning of one document's element tags.

    The per-query dispatch tables compiled against tag ids
    (:func:`repro.core.kernel.tables.plan_tables`) live here too, once per
    document instead of once per fragment, in a bounded FIFO.  An entry
    compiled when the table held k tags has k per-tag rows; the lookup
    recompiles an entry that is shorter than the table, so no row is ever
    indexed with an id it lacks.
    """

    __slots__ = ("tags", "index", "plan_tables")

    def __init__(self) -> None:
        #: tag id -> tag string (what :attr:`FlatFragment.tags` points at)
        self.tags: List[str] = []
        #: tag string -> tag id
        self.index: Dict[str, int] = {}
        #: plan fingerprint -> PlanTables
        self.plan_tables: Dict[str, object] = {}


class FlatFragment:
    """Flat pre-order columns of one fragment span (see module docstring)."""

    __slots__ = (
        "fragment_id",
        "n",
        "kind",
        "tag_id",
        "parent",
        "subtree_size",
        "node_ids",
        "tag_table",
        "tags",
        "text_norm",
        "numeric",
        "virtual_at",
        "virtual_indices",
        "n_elements",
        "_id_runs",
        "_vector",
    )

    def __init__(
        self,
        fragment_id: str,
        kind: List[int],
        tag_id: List[int],
        parent: List[int],
        subtree_size: List[int],
        node_ids: List[NodeId],
        tag_table: TagTable,
        text_norm: List[Optional[str]],
        numeric: List[Optional[float]],
        virtual_at: Dict[int, Tuple[str, ...]],
    ):
        self.fragment_id = fragment_id
        self.n = len(kind)
        self.kind = kind
        self.tag_id = tag_id
        self.parent = parent
        self.subtree_size = subtree_size
        self.node_ids = node_ids
        self.tag_table = tag_table
        #: the document-wide id -> tag list; may hold tags this span lacks
        self.tags = tag_table.tags
        self.text_norm = text_norm
        self.numeric = numeric
        self.virtual_at = virtual_at
        self.virtual_indices = sorted(virtual_at)
        self.n_elements = kind.count(KIND_ELEMENT)
        #: (first id of each run of consecutive ids, ascending; row - id
        #: offsets), found on the first rows_of(); only answer accounting asks
        self._id_runs: Optional[Tuple[List[NodeId], List[int]]] = None
        #: numpy accelerator encoding (pre/post columns + per-tag
        #: index), built lazily by repro.core.vector.encode.vector_fragment;
        #: riding on the FlatFragment means the content-fingerprint cache,
        #: epoch bumps and MVCC snapshot pinning all govern it for free
        self._vector: Optional[object] = None

    # -- structure helpers --------------------------------------------------

    def element_children(self, index: int) -> Iterator[int]:
        """Flat indices of the element children of span node *index*."""
        kind = self.kind
        size = self.subtree_size
        child = index + 1
        end = index + size[index]
        while child < end:
            if kind[child] == KIND_ELEMENT:
                yield child
            child += size[child]

    def virtuals_in(self, start: int, end: int) -> List[int]:
        """Flat indices in ``[start, end)`` that carry virtual children."""
        indices = self.virtual_indices
        lo = bisect.bisect_left(indices, start)
        hi = bisect.bisect_left(indices, end)
        return indices[lo:hi]

    def rows_of(self, ids: Sequence[NodeId]) -> List[int]:
        """The flat index of each of *ids*; ``KeyError`` names one not here.

        Parsing numbers nodes in pre-order, so a span's ids are a few runs
        of consecutive integers: one per stretch between sub-fragment cuts,
        and a run or two more per write that inserted or deleted nodes.  An
        id's row is its offset into the run that may hold it, found by
        bisection over the runs' first ids, and every row is checked
        against ``node_ids``.
        """
        runs = self._id_runs
        if runs is None:
            node_ids = self.node_ids
            starts = compress(
                range(1, self.n),
                map(ne, islice(node_ids, 1, None), map(add, node_ids, repeat(1))),
            )
            first = sorted((node_ids[row], row - node_ids[row]) for row in (0, *starts))
            # offsets[k] is row - id in the k-th run by first id; offsets[0]
            # serves ids below every run, which the check below rejects
            runs = self._id_runs = ([i for i, _ in first], [0] + [o for _, o in first])
        firsts, offsets = runs
        if len(firsts) == 1:
            rows = list(map(add, ids, repeat(offsets[1])))
        else:
            rows = list(map(add, ids, map(offsets.__getitem__, map(bisect_right, repeat(firsts), ids))))
        node_ids = self.node_ids
        try:
            if list(map(node_ids.__getitem__, rows)) == list(ids):
                return rows
        except IndexError:  # an id past the last run
            pass
        n = self.n
        raise KeyError(next(
            node_id for node_id, row in zip(ids, rows)
            if not -n <= row < n or node_ids[row] != node_id
        ))

    def preorder_node_ids(self) -> List[NodeId]:
        """The span's node ids in document order (for round-trip checks)."""
        return list(self.node_ids)

    def __repr__(self) -> str:
        return (
            f"<FlatFragment {self.fragment_id} nodes={self.n}"
            f" elements={self.n_elements} tags={len(self.tags)}"
            f" virtuals={len(self.virtual_at)}>"
        )


def build_flat_fragment(fragment, tag_table: Optional[TagTable] = None) -> FlatFragment:
    """Encode *fragment*'s span as a :class:`FlatFragment`.

    *fragment* is a :class:`repro.fragments.fragment.Fragment`; the import is
    kept out of module scope to avoid a cycle (fragments import xmltree).
    Tags are interned into *tag_table* — the fragmentation passes its
    document-wide one; without it the encoding stands alone on a fresh table.
    """
    if tag_table is None:
        tag_table = TagTable()
    tags = tag_table.tags
    tag_index = tag_table.index
    virtual_children = fragment.virtual_children

    kind: List[int] = []
    tag_id: List[int] = []
    parent: List[int] = []
    subtree_size: List[int] = []
    node_ids: List[NodeId] = []
    text_norm: List[Optional[str]] = []
    numeric: List[Optional[float]] = []
    virtuals: Dict[int, List[str]] = {}

    # Pre-order walk mirroring Fragment.iter_span.  *siblings* iterates the
    # children of the open element at flat index *parent_index*, so every
    # node is looked at once, as a child: a text child gets its row and adds
    # to the open element's direct text, a sub-fragment root is recorded, an
    # element child gets its row and is opened in turn.  The open element's
    # text_norm slot holds its raw direct text until it is closed.
    suspended = []
    siblings = iter((fragment.root,))
    parent_index = -1
    while True:
        for node in siblings:
            if node.kind == TEXT:
                kind.append(KIND_TEXT)
                tag_id.append(-1)
                text_norm.append(None)
                text_norm[parent_index] += node.value or ""
            elif node.node_id in virtual_children:
                virtuals.setdefault(parent_index, []).append(virtual_children[node.node_id])
                continue
            else:
                index = len(kind)
                kind.append(KIND_ELEMENT)
                tag = node.tag
                tid = tag_index.get(tag)
                if tid is None:
                    tid = tag_index[tag] = len(tags)
                    tags.append(tag)
                tag_id.append(tid)
                text_norm.append("")
            node_ids.append(node.node_id)
            parent.append(parent_index)
            subtree_size.append(1)
            numeric.append(None)
            if node.children:
                suspended.append((siblings, parent_index))
                siblings = iter(node.children)
                parent_index = index
                break
        else:
            if parent_index < 0:
                break
            # All of the open element's span descendants have their rows.
            subtree_size[parent_index] = len(kind) - parent_index
            # Same definitions as XMLNode.text() / numeric_value(), so the
            # kernel and reference paths can never diverge.
            stripped = text_norm[parent_index].strip()
            text_norm[parent_index] = stripped.lower()
            if stripped:
                numeric[parent_index] = parse_numeric(stripped)
            siblings, parent_index = suspended.pop()

    return FlatFragment(
        fragment_id=fragment.fragment_id,
        kind=kind,
        tag_id=tag_id,
        parent=parent,
        subtree_size=subtree_size,
        node_ids=node_ids,
        tag_table=tag_table,
        text_norm=text_norm,
        numeric=numeric,
        virtual_at={index: tuple(ids) for index, ids in virtuals.items()},
    )
