"""Reassembling a fragmented tree into a standalone document.

Used by the ``NaiveCentralized`` baseline (which conceptually ships every
fragment to the query site and glues them back together) and by tests that
check a fragmentation loses no information.  The reassembled tree is a deep
copy built purely from fragment spans, so the test is honest: it would fail
if a fragmentation dropped or duplicated nodes.
"""

from __future__ import annotations

from repro.fragments.fragment import Fragment
from repro.fragments.fragment_tree import Fragmentation
from repro.xmltree.nodes import ELEMENT, TEXT, XMLNode, XMLTree

__all__ = ["reassemble"]


def _copy(node: XMLNode) -> XMLNode:
    """A childless copy of *node* that keeps its source node id."""
    if node.is_text:
        copy = XMLNode(TEXT, value=node.value)
    else:
        copy = XMLNode(ELEMENT, tag=node.tag)
    copy.node_id = node.node_id
    return copy


def _copy_spans(fragmentation: Fragmentation) -> XMLNode:
    """Deep-copy the root fragment's span, splicing child fragments in place
    of virtual nodes, on an explicit stack: a document, or a chain of
    fragments, may be thousands of levels deep."""
    root_fragment = fragmentation.root_fragment
    root_copy = _copy(root_fragment.root)
    stack = [(root_fragment, root_fragment.root, root_copy)]
    while stack:
        fragment, node, copy = stack.pop()
        for child in node.children:
            child_fragment_id = fragment.virtual_children.get(child.node_id)
            if child_fragment_id is not None:
                child_fragment = fragmentation[child_fragment_id]
                child = child_fragment.root
            else:
                child_fragment = fragment
            child_copy = copy.append(_copy(child))
            if not child.is_text:
                stack.append((child_fragment, child, child_copy))
    return root_copy


def reassemble(fragmentation: Fragmentation) -> XMLTree:
    """Rebuild the original document from its fragments (as a fresh tree).

    The copy keeps the source document's node ids — on a pristine document
    those are dense pre-order ids, but after in-place mutations
    (:mod:`repro.updates`) they are not, and a consumer comparing answer ids
    against the original tree (the NaiveCentralized baseline) needs the
    real ids, not a renumbering.
    """
    tree = XMLTree(_copy_spans(fragmentation), reindex=False)
    tree.adopt_preassigned_ids()
    return tree
