"""Query plans: the executable analogue of the paper's SVect / QVect vectors.

A :class:`QueryPlan` is the shared compiled form that the centralized
evaluator, ParBoX, PaX3 and PaX2 all execute.  It has two halves:

Selection plan (the paper's ``SVect``)
    ``selection`` is the list of normalized selection steps.  Prefix ``i``
    (1-based) corresponds to the paper's sub-query ``eta_1/.../eta_i``; entry
    ``0`` is the implicit prefix "is the query context node", which anchors
    the first child step at the document root.

Qualifier plan (the paper's ``QVect``)
    ``items`` is a topologically ordered list of :class:`QualItem`.  Each
    item denotes a suffix of some qualifier path.  For a node ``v`` the
    evaluators compute

    * ``EX_v(item)``   — "evaluating the suffix with context ``v`` selects at
      least one node" (the existential, downward semantics of qualifiers);
    * ``HEAD_v(item)`` — for items whose first step consumes a child
      (``kind == CHILD``): "``v`` matches the first step and the rest of the
      suffix exists below ``v``"; this is what a *parent* needs from each
      child, and is the quantity that becomes a variable at virtual nodes;
    * ``DESC_v(item)`` — for items that appear as the continuation of a
      ``//`` step: "the suffix exists at ``v`` or at some descendant of
      ``v``"; also a per-virtual-node variable.

    Keeping HEAD/DESC (rather than EX) at fragment boundaries is what lets a
    parent fragment compose partial answers without knowing the label of a
    sub-fragment's root, mirroring the paper's ``(QV, QCV, QDV)`` triple.

Qualifier *expressions* (the Boolean structure over path conditions) are
compiled to nested tuples over item ids, see :data:`QualExpr`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

from repro.booleans.formula import FormulaLike, conj, disj, neg
from repro.xpath.ast import (
    AndQual,
    ChildStep,
    DescendantStep,
    LabelTest,
    NotQual,
    OrQual,
    PathExistsQual,
    PathExpr,
    Qualifier,
    QualifiedStep,
    Step,
    TextCompareQual,
    ValCompareQual,
    WildcardTest,
)
from repro.xpath.errors import XPathError
from repro.xpath.normalize import normalize

__all__ = [
    "QueryPlan",
    "QualItem",
    "SelectionStep",
    "QualExpr",
    "compile_plan",
    "evaluate_qual_expr",
    "CHILD",
    "DESC",
    "SELFQUAL",
    "EMPTY",
]

# Item / step kinds.
EMPTY = "empty"
CHILD = "child"
DESC = "desc"
SELFQUAL = "selfqual"

#: A compiled qualifier expression: ('item', id) | ('not', e) | ('and', (...)) | ('or', (...))
QualExpr = Tuple


@dataclass(frozen=True)
class QualItem:
    """One entry of the qualifier plan (a suffix of a qualifier path).

    Attributes
    ----------
    item_id:
        Position in :attr:`QueryPlan.items`; suffix items and nested
        qualifier items always have smaller ids (topological order).
    kind:
        :data:`EMPTY` (end of path, apply the terminal test),
        :data:`CHILD` (a child step with a label or wildcard test),
        :data:`DESC` (a ``//`` step) or :data:`SELFQUAL` (a nested
        qualifier applied at the current node).
    tag:
        For CHILD items: the required tag, or ``None`` for a wildcard.
    rest:
        Item id of the remaining suffix (for every kind except EMPTY).
    test:
        For EMPTY items: ``None`` or ``("text", op, value)`` /
        ``("val", op, number)``.
    qual:
        For SELFQUAL items: the compiled nested qualifier expression.
    """

    item_id: int
    kind: str
    tag: Optional[str] = None
    rest: Optional[int] = None
    test: Optional[tuple] = None
    qual: Optional[QualExpr] = None

    def describe(self) -> str:
        """A compact human-readable description (used in debug output)."""
        if self.kind == EMPTY:
            return f"<end {self.test}>" if self.test else "<end>"
        if self.kind == CHILD:
            label = self.tag if self.tag is not None else "*"
            return f"{label}->{self.rest}"
        if self.kind == DESC:
            return f"//->{self.rest}"
        return f"[qual]->{self.rest}"


@dataclass(frozen=True)
class SelectionStep:
    """One step of the selection plan.

    ``kind`` is CHILD (with ``tag`` possibly ``None`` for ``*``), DESC, or
    SELFQUAL (with ``qual`` a compiled qualifier expression).
    """

    kind: str
    tag: Optional[str] = None
    qual: Optional[QualExpr] = None

    def describe(self) -> str:
        if self.kind == CHILD:
            return self.tag if self.tag is not None else "*"
        if self.kind == DESC:
            return "//"
        return "[qual]"


@dataclass
class QueryPlan:
    """Compiled form of a query of the fragment ``X``."""

    source: str
    path: PathExpr
    selection: list[SelectionStep]
    items: list[QualItem]
    #: item ids for which HEAD values are exchanged at fragment boundaries
    head_item_ids: list[int] = field(default_factory=list)
    #: item ids for which DESC values are exchanged at fragment boundaries
    desc_item_ids: list[int] = field(default_factory=list)
    #: absolute queries are anchored at the document node, relative ones at
    #: the root element (see :class:`repro.xpath.ast.PathExpr`)
    absolute: bool = False

    @cached_property
    def fingerprint(self) -> str:
        """The plan's normalized-form identity.

        ``path`` is stored normalized (Section 2.2 of the paper), so its
        rendering is equal exactly for plans that compute the same query —
        regardless of how the source text spelled it (``//a/./b`` vs
        ``//a/b``).  The string is a stable cache/dedup key, not guaranteed
        concrete syntax; never re-parse it.
        """
        return str(self.path)

    @property
    def n_steps(self) -> int:
        """Number of selection steps (the paper's ``n``)."""
        return len(self.selection)

    @property
    def n_items(self) -> int:
        """Number of qualifier items (the length of ``QVect``)."""
        return len(self.items)

    @cached_property
    def has_qualifiers(self) -> bool:
        """Whether the query has any qualifier (drives stage skipping)."""
        return any(step.kind == SELFQUAL for step in self.selection)

    @cached_property
    def has_descendant_axis(self) -> bool:
        """Whether the selection path contains ``//``."""
        return any(step.kind == DESC for step in self.selection)

    def selection_label_path(self) -> list[Optional[str]]:
        """Selection path with qualifiers struck out (labels, ``None`` = ``*``,
        the string ``"//"`` for descendant steps) — used by the pruner."""
        labels: list[Optional[str]] = []
        for step in self.selection:
            if step.kind == CHILD:
                labels.append(step.tag)
            elif step.kind == DESC:
                labels.append("//")
        return labels

    def qualifier_positions(self) -> list[int]:
        """Indices (into ``selection``) of the SELFQUAL steps."""
        return [index for index, step in enumerate(self.selection) if step.kind == SELFQUAL]

    def describe(self) -> str:
        """Readable dump of the plan (selection steps and qualifier items)."""
        lines = [f"query: {self.source}"]
        lines.append("selection:")
        for index, step in enumerate(self.selection, start=1):
            lines.append(f"  {index}: {step.describe()}")
        lines.append("qualifier items:")
        for item in self.items:
            lines.append(f"  {item.item_id}: {item.kind} {item.describe()}")
        return "\n".join(lines)


class _PlanBuilder:
    """Accumulates deduplicated qualifier items during compilation."""

    def __init__(self):
        self.items: list[QualItem] = []
        self._memo: dict[tuple, int] = {}

    def _intern(self, key: tuple, **kwargs) -> int:
        if key in self._memo:
            return self._memo[key]
        item = QualItem(item_id=len(self.items), **kwargs)
        self.items.append(item)
        self._memo[key] = item.item_id
        return item.item_id

    # -- path compilation ---------------------------------------------------

    def compile_path(self, steps: Sequence[Step], test: Optional[tuple]) -> int:
        """Compile a (suffix of a) qualifier path into an item id."""
        if not steps:
            return self._intern(("empty", test), kind=EMPTY, test=test)
        head, rest_steps = steps[0], steps[1:]
        rest_id = self.compile_path(rest_steps, test)
        if isinstance(head, ChildStep):
            # Tags are interned (document tags are too, at parse/build time),
            # so node tests compare pointers before falling back to content.
            tag = sys.intern(head.test.tag) if isinstance(head.test, LabelTest) else None
            return self._intern(("child", tag, rest_id), kind=CHILD, tag=tag, rest=rest_id)
        if isinstance(head, DescendantStep):
            return self._intern(("desc", rest_id), kind=DESC, rest=rest_id)
        if isinstance(head, QualifiedStep):
            qual_expr = self.compile_qualifier(head.qualifier)
            return self._intern(
                ("selfqual", qual_expr, rest_id), kind=SELFQUAL, qual=qual_expr, rest=rest_id
            )
        raise XPathError(f"unexpected step {head!r} in a normalized qualifier path")

    # -- qualifier compilation ------------------------------------------------

    def compile_qualifier(self, qualifier: Qualifier) -> QualExpr:
        """Compile a qualifier into a QualExpr over item ids."""
        if isinstance(qualifier, PathExistsQual):
            item_id = self.compile_path(normalize(qualifier.path).steps, None)
            return ("item", item_id)
        if isinstance(qualifier, TextCompareQual):
            test = ("text", "=", qualifier.value.lower())
            item_id = self.compile_path(normalize(qualifier.path).steps, test)
            return ("item", item_id)
        if isinstance(qualifier, ValCompareQual):
            test = ("val", qualifier.op, qualifier.number)
            item_id = self.compile_path(normalize(qualifier.path).steps, test)
            return ("item", item_id)
        if isinstance(qualifier, NotQual):
            return ("not", self.compile_qualifier(qualifier.operand))
        if isinstance(qualifier, AndQual):
            return (
                "and",
                (self.compile_qualifier(qualifier.left), self.compile_qualifier(qualifier.right)),
            )
        if isinstance(qualifier, OrQual):
            return (
                "or",
                (self.compile_qualifier(qualifier.left), self.compile_qualifier(qualifier.right)),
            )
        raise XPathError(f"unknown qualifier {qualifier!r}")


def compile_plan(path: PathExpr, source: str | None = None) -> QueryPlan:
    """Compile a parsed query into a :class:`QueryPlan`.

    The input need not be normalized; :func:`repro.xpath.normalize.normalize`
    is applied first.
    """
    normalized = normalize(path)
    builder = _PlanBuilder()
    selection: list[SelectionStep] = []
    for step in normalized.steps:
        if isinstance(step, ChildStep):
            tag = sys.intern(step.test.tag) if isinstance(step.test, LabelTest) else None
            selection.append(SelectionStep(kind=CHILD, tag=tag))
        elif isinstance(step, DescendantStep):
            selection.append(SelectionStep(kind=DESC))
        elif isinstance(step, QualifiedStep):
            qual_expr = builder.compile_qualifier(step.qualifier)
            selection.append(SelectionStep(kind=SELFQUAL, qual=qual_expr))
        else:
            raise XPathError(f"unexpected step {step!r} after normalization")

    items = builder.items
    head_item_ids = [item.item_id for item in items if item.kind == CHILD]
    desc_item_ids = sorted({item.rest for item in items if item.kind == DESC and item.rest is not None})
    return QueryPlan(
        source=source if source is not None else str(path),
        path=normalized,
        selection=selection,
        items=items,
        head_item_ids=head_item_ids,
        desc_item_ids=desc_item_ids,
        absolute=normalized.absolute,
    )


def evaluate_qual_expr(expr: QualExpr, ex_values: Sequence[FormulaLike]) -> FormulaLike:
    """Evaluate a compiled qualifier expression given per-item EX values.

    ``ex_values`` may contain booleans or residual formulas; the result is a
    boolean when all referenced items are concrete.
    """
    kind = expr[0]
    if kind == "item":
        return ex_values[expr[1]]
    if kind == "not":
        return neg(evaluate_qual_expr(expr[1], ex_values))
    if kind == "and":
        return conj(*(evaluate_qual_expr(part, ex_values) for part in expr[1]))
    if kind == "or":
        return disj(*(evaluate_qual_expr(part, ex_values) for part in expr[1]))
    raise XPathError(f"unknown qualifier expression node {kind!r}")
