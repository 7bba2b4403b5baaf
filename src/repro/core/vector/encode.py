"""The accelerator window encoding: contiguous numpy columns per fragment.

An XPath-accelerator encoding of one fragment span, derived once from the
:class:`~repro.xmltree.flat.FlatFragment` columns:

``pre[i] = i``
    Pre-order rank — the flat index itself, so it is never stored.
``post = pre + size``
    One past the last pre-order rank inside ``i``'s subtree, so node ``j``
    is a descendant-or-self of ``i`` exactly when ``i <= j < post[i]`` —
    every axis step becomes a range predicate over the row number and this
    column.  A ``//`` selection step's column is a list of such intervals
    (:mod:`repro.core.vector.walk`).
``tag_starts`` / ``tag_rows``
    Per-tag sorted pre-order index: ``tag_rows`` holds all element rows
    grouped by ``tag_id`` (pre-order within each group) and ``tag_starts``
    the CSR offsets, so "the elements with tag t inside window (lo, hi)"
    is a ``searchsorted`` slice instead of a scan.  Tag ids are
    document-wide (:class:`~repro.xmltree.flat.TagTable`), so ``tag_starts``
    has one entry per tag of the *document* as of the encode.
    :meth:`VectorFragment.rows_with_tag` hands out one group as a zero-copy
    slice, which is every row set a pass reads: a CHILD step's or a CHILD
    qualifier item's candidates, the same rows in the same pre-order.

These columns are all an instance holds.  Nothing derived from a query is
kept on it: a pass computes its terminal-test masks and item columns,
reads its row sets as views, and drops all of it when it returns, so the
resident bytes of a fragment do not grow with the number of distinct
queries it has served.

Instances hang off ``FlatFragment._vector``: the flat encodings are cached
on :class:`~repro.fragments.fragment_tree.Fragmentation` under the content
fingerprint, so epoch bumps, re-fragmentations and MVCC snapshot pinning
govern the vector columns for free — a pinned snapshot ``FlatFragment``
carries (and keeps alive) its own frozen vector columns.

numpy is optional at import time: only the ``vector`` engine needs it, and
:func:`require_numpy` turns its absence into an actionable error instead of
an ImportError traceback.  It is *imported* whenever it is installed,
whatever the engine: ``import repro`` loads this module through
:mod:`repro.core.kernel.dispatch`.  Importing ``repro``, ``repro.service``,
``repro.updates`` and ``repro.workloads`` peaks at 40.3 MB of resident
memory with numpy importable and 27.8 MB with it blocked (CPython 3.11,
x86-64 Linux).
"""

from __future__ import annotations

import operator
from typing import Dict, Optional

from repro.xmltree.flat import KIND_ELEMENT, FlatFragment

try:  # pragma: no cover - exercised via numpy_available() in both states
    import numpy as _np
except ImportError:  # pragma: no cover - container images ship numpy
    _np = None

__all__ = [
    "MISSING_NUMPY_HINT",
    "VectorFragment",
    "numpy_available",
    "require_numpy",
    "vector_fragment",
]

#: what a refusal of the vector tier says when numpy cannot be imported
MISSING_NUMPY_HINT = (
    "the 'vector' engine needs numpy, which is not importable in this"
    " environment. Install it (`pip install numpy`, or `pip install .` which"
    " declares it) or pick another engine: pass engine='kernel' /"
    " --engine kernel (or 'reference'), or set REPRO_FRAGMENT_ENGINE=kernel."
)

#: numeric comparison ops over whole columns; same op strings as
#: repro.xpath.runtime._NUMERIC_OPS, but the operator module versions
#: broadcast over numpy arrays (non-numeric rows are masked out by
#: has_numeric, matching the kernel's explicit None check)
_COLUMN_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

def numpy_available() -> bool:
    """Whether the vector engine can run in this process."""
    return _np is not None


def require_numpy():
    """The numpy module, or an actionable error naming the alternatives."""
    if _np is None:
        raise RuntimeError(MISSING_NUMPY_HINT)
    return _np


class VectorFragment:
    """Window-encoding columns of one fragment span (see module docstring)."""

    __slots__ = (
        "np",
        "flat",
        "n",
        "post",
        "tag_id",
        "elem",
        "elem_idx",
        "parent",
        "parent_ge0",
        "text_code",
        "text_intern",
        "numeric",
        "has_numeric",
        "n_tags",
        "tag_starts",
        "tag_rows",
        "anc_idx",
        "anc_mask",
    )

    def __init__(self, flat: FlatFragment):
        np = require_numpy()
        self.np = np
        self.flat = flat
        n = flat.n
        self.n = n
        self.post = np.arange(n, dtype=np.int64) + np.asarray(flat.subtree_size, dtype=np.int64)
        self.parent = np.asarray(flat.parent, dtype=np.int64)
        self.parent_ge0 = self.parent >= 0
        self.tag_id = np.asarray(flat.tag_id, dtype=np.int64)
        kind = np.asarray(flat.kind, dtype=np.int64)
        self.elem = kind == KIND_ELEMENT
        self.elem_idx = np.nonzero(self.elem)[0]

        # Interned direct-text codes: text()=s tests become one integer
        # column comparison.  Text nodes carry -1 (they have no ex values).
        intern: Dict[str, int] = {}
        codes = np.full(n, -1, dtype=np.int64)
        for index, value in enumerate(flat.text_norm):
            if value is not None:
                code = intern.get(value)
                if code is None:
                    code = intern[value] = len(intern)
                codes[index] = code
        self.text_code = codes
        self.text_intern = intern

        # Numeric column with NaN filling the non-numeric rows; has_numeric
        # is the kernel's `value is not None` check as a mask, ANDed into
        # every val() != test (NaN fails the other comparisons by itself).
        # It cannot be read back off the column: text like "nan" is numeric
        # (float("nan")), and `nan != 5` must hold.
        numeric = np.full(n, np.nan, dtype=np.float64)
        has_numeric = np.zeros(n, dtype=bool)
        for index, value in enumerate(flat.numeric):
            if value is not None:
                numeric[index] = value
                has_numeric[index] = True
        self.numeric = numeric
        self.has_numeric = has_numeric

        # Per-tag sorted pre-order index (CSR layout over element rows),
        # one group per tag the document-wide table holds right now.
        n_tags = len(flat.tags)
        self.n_tags = n_tags
        if self.elem_idx.size:
            order = np.argsort(self.tag_id[self.elem_idx], kind="stable")
            self.tag_rows = self.elem_idx[order]
            self.tag_starts = np.searchsorted(
                self.tag_id[self.tag_rows], np.arange(n_tags + 1)
            )
        else:  # pragma: no cover - a span always contains its root element
            self.tag_rows = self.elem_idx
            self.tag_starts = np.zeros(n_tags + 1, dtype=np.int64)

        # Ancestors-or-self of virtual cut points: the only rows whose
        # qualifier values can be symbolic (depend on sub-fragment
        # variables).  A descendant of a non-member is a non-member, so the
        # window of a non-member row never sees a symbolic row and the
        # concrete columns are exact everywhere outside this set.
        anc = np.zeros(n, dtype=bool)
        parents = flat.parent
        for at in flat.virtual_indices:
            walk = at
            while walk >= 0 and not anc[walk]:
                anc[walk] = True
                walk = parents[walk]
        self.anc_mask = anc
        self.anc_idx = np.nonzero(anc)[0][::-1]  # decreasing = bottom-up

    # -- window primitives --------------------------------------------------

    def window_any_incl(self, col):
        """Per row ``i``: does ``col`` hold anywhere in ``[i, post[i])``?

        The descendant-or-self aggregation as one prefix sum: with
        ``csum[k] = sum(col[:k])``, the window ``[pre, post)`` is non-empty
        exactly when ``csum[post] - csum[pre] > 0`` (``pre[i] = i``, so
        ``csum[pre]`` is ``csum[:n]``).
        """
        np = self.np
        n = self.n
        csum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(col, dtype=np.int64, out=csum[1:])
        return (csum[self.post] - csum[:n]) > 0

    def rows_with_tag(self, tag: Optional[str]):
        """Element rows matching *tag* in pre-order (all elements if None)."""
        if tag is None:
            return self.elem_idx
        # The document's tag table may have grown since tag_starts was
        # sized; a tag interned later has no rows in this encoding.
        tid = self.flat.tag_table.index.get(tag)
        if tid is None or tid >= self.n_tags:
            return self.elem_idx[:0]
        return self.tag_rows[self.tag_starts[tid] : self.tag_starts[tid + 1]]

    # -- terminal tests -----------------------------------------------------

    def test_mask(self, test: Optional[tuple], rows=None):
        """One EMPTY-item terminal test at *rows* (every row if None).

        ``None`` is the always-true test (the element mask); ``("text", "=",
        s)`` compares the interned text codes; ``("val", op, x)`` masks the
        numeric column.  The result is the caller's: a pass computes a test
        where it reads it and drops it with the pass.
        """
        if rows is None:
            rows = slice(None)
        if test is None:
            return self.elem[rows]
        if test[0] == "text":
            return self.text_code[rows] == self.text_intern.get(test[2], -2)
        # "val": a NaN row fails every comparison but "!=" by itself
        op = test[1]
        col = _COLUMN_OPS[op](self.numeric[rows], test[2])
        return col & self.has_numeric[rows] if op == "!=" else col

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VectorFragment {self.flat.fragment_id} nodes={self.n}"
            f" tags={self.n_tags} symbolic={self.anc_idx.size}>"
        )


def vector_fragment(flat: FlatFragment) -> VectorFragment:
    """The (cached) window encoding of *flat*; requires numpy."""
    vector = flat._vector
    if vector is None:
        vector = flat._vector = VectorFragment(flat)
    return vector
