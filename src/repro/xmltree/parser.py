"""XML text to :class:`XMLTree`, driven by :mod:`xml.parsers.expat`.

expat does the scanning and enforces well-formedness; the handlers here
build the node model.  What reaches the tree:

* elements (attributes are parsed and discarded — the query fragment ``X``
  cannot observe them) and text, with entity and character references
  expanded and ``\\r\\n`` normalised to ``\\n``;
* a comment, a processing instruction or a CDATA boundary ends the current
  text run, so ``x<!-- c -->y`` is two text nodes; a reference does not,
  so ``x&amp;y`` is one;
* entity declarations are refused (no billion laughs), a bare
  ``<!DOCTYPE name>`` is accepted.

Nodes are numbered as they are created — creation order is document order —
so the finished tree needs no numbering walk.  Every failure on a ``str`` is
an :class:`XMLSyntaxError` whose ``position`` is a character offset.
"""

from __future__ import annotations

import gc
import os
import sys
from xml.parsers import expat

from repro.xmltree.errors import XMLSyntaxError
from repro.xmltree.nodes import ELEMENT, TEXT, NodeId, XMLNode, XMLTree

__all__ = ["parse_xml", "parse_xml_file"]


def _char_offset(data: str, byte_index: int) -> int:
    """expat counts UTF-8 bytes; :class:`XMLSyntaxError` counts characters."""
    return len(data.encode("utf-8")[: max(byte_index, 0)].decode("utf-8", "ignore"))


def parse_xml(data: str, keep_whitespace_text: bool = False) -> XMLTree:
    """Parse an XML document string into an :class:`XMLTree`.

    Whitespace-only text between elements is dropped unless
    *keep_whitespace_text* is true, matching how the paper's trees are drawn
    (pure structure plus meaningful leaf text).
    """
    by_id: dict[NodeId, XMLNode] = {}
    stack: list[XMLNode] = []
    pieces: list[str] = []
    intern = sys.intern

    def attach(node: XMLNode) -> None:
        # What XMLTree.reindex and XMLNode.append would do, minus the walk
        # and the checks that hold by construction here.
        node.node_id = len(by_id)
        by_id[node.node_id] = node
        if stack:
            parent = node.parent = stack[-1]
            parent.children.append(node)

    def flush_text() -> None:
        # buffer_text still delivers a run in pieces around references and
        # past buffer_size; one run is one node.
        raw = "".join(pieces)
        pieces.clear()
        if keep_whitespace_text or raw.strip():
            # Interned: generators draw text from a fixed vocabulary, so
            # repeated values collapse to one string object each.
            attach(XMLNode(TEXT, None, intern(raw)))

    def start_element(tag: str, _attributes: dict) -> None:
        if pieces:
            flush_text()
        # Interned so tag comparisons downstream are pointer comparisons and
        # flat tag tables dedup for free.
        node = XMLNode(ELEMENT, intern(tag))
        attach(node)
        stack.append(node)

    def end_element(_tag: str) -> None:
        if pieces:
            flush_text()
        stack.pop()

    def boundary(*_ignored) -> None:
        if pieces:
            flush_text()

    def fail(message: str) -> None:
        raise XMLSyntaxError(message, _char_offset(data, parser.CurrentByteIndex))

    def refuse_entity(*_ignored) -> None:
        fail("entity declarations are not supported")

    def undefined_entity(name: str, _is_parameter: bool) -> None:
        # Only reachable behind an (unread) external DTD, where expat skips
        # the reference instead of failing; dropping text silently is worse.
        fail(f"undefined entity &{name};")

    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = pieces.append
    parser.CommentHandler = boundary
    parser.ProcessingInstructionHandler = boundary
    parser.StartCdataSectionHandler = boundary
    parser.EndCdataSectionHandler = boundary
    parser.EntityDeclHandler = refuse_entity
    parser.SkippedEntityHandler = undefined_entity

    # The build allocates one object per node, all reachable from the root
    # and none garbage; generational passes over them only cost time.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        parser.Parse(data, True)
    except expat.ExpatError as error:
        raise XMLSyntaxError(
            f"{expat.ErrorString(error.code)} (line {error.lineno}, column {error.offset})",
            _char_offset(data, parser.ErrorByteIndex),
        ) from None
    except UnicodeEncodeError as error:  # a lone surrogate: expat takes UTF-8
        raise XMLSyntaxError(f"character not encodable: {error.reason}", error.start) from None
    finally:
        if gc_was_enabled:
            gc.enable()
    return XMLTree.from_preorder_index(by_id)


def parse_xml_file(path: str | os.PathLike, keep_whitespace_text: bool = False) -> XMLTree:
    """Parse an XML file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_xml(handle.read(), keep_whitespace_text=keep_whitespace_text)
