"""Serialization of trees back to XML text."""

from __future__ import annotations

from repro.xmltree.nodes import XMLNode, XMLTree

__all__ = ["serialize", "serialize_node"]


def _escape(raw: str) -> str:
    """Escape the characters that must not appear literally in content."""
    return (
        raw.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def _write_node(root: XMLNode, parts: list[str], pretty: bool) -> None:
    newline = "\n" if pretty else ""
    # Depth-first without recursion (documents nest deeper than Python's
    # call stack).  An entry is a node still to write with its depth, or the
    # ready-made closing tag of an element whose children sit above it.
    stack: list[tuple[XMLNode, int] | str] = [(root, 0)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            parts.append(entry)
            continue
        node, depth = entry
        pad = "  " * depth if pretty else ""
        if node.is_text:
            parts.append(f"{pad}{_escape(node.value or '')}{newline}")
        elif not node.children:
            parts.append(f"{pad}<{node.tag}/>{newline}")
        elif all(child.is_text for child in node.children):
            content = _escape("".join(child.value or "" for child in node.children))
            parts.append(f"{pad}<{node.tag}>{content}</{node.tag}>{newline}")
        else:
            parts.append(f"{pad}<{node.tag}>{newline}")
            stack.append(f"{pad}</{node.tag}>{newline}")
            stack.extend((child, depth + 1) for child in reversed(node.children))


def serialize_node(node: XMLNode, pretty: bool = False) -> str:
    """Serialize a single subtree to XML text."""
    parts: list[str] = []
    _write_node(node, parts, pretty)
    return "".join(parts)


def serialize(tree: XMLTree, pretty: bool = False, declaration: bool = False) -> str:
    """Serialize a whole tree to XML text.

    *pretty* indents nested elements; *declaration* prepends the standard XML
    declaration.
    """
    header = '<?xml version="1.0" encoding="UTF-8"?>\n' if declaration else ""
    return header + serialize_node(tree.root, pretty=pretty)
