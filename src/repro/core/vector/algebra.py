"""Interned formula codes: boolean mask algebra over the hash-consed DAG.

The vector walks keep whole columns of int64 *codes* instead of columns of
Python objects: ``0`` is False, ``1`` is True, and every residual formula
of the hash-consed DAG (:mod:`repro.booleans.formula`) gets a small integer
on first appearance.  Concrete fragments therefore stay pure 0/1 integer
arrays end to end; symbolic rows (ancestors of virtual cut points, plus
whatever the init vector injects) resolve through the real ``conj``/``disj``
constructors exactly once per *distinct* operand pair — the pair memo plus
hash-consing make the column fold produce structurally identical formulas
to the kernel's per-node folds, in far fewer constructor calls.

Codes never leak: :meth:`CodeSpace.decode` returns the original Python
``bool``/formula objects (numpy ``bool_`` would break ``is_true``'s
``isinstance(value, bool)`` check, so outputs are always decoded).
"""

from __future__ import annotations

from typing import Dict, List

from repro.booleans.formula import conj, disj

__all__ = ["CodeSpace"]

#: codes are packed two-per-int64 in the unique-pair resolution; fragments
#: would need ~2**31 distinct residual formulas to overflow this
_PACK_SHIFT = 32
_PACK_MASK = (1 << _PACK_SHIFT) - 1


class CodeSpace:
    """One pass's bijection between formula values and int64 codes."""

    __slots__ = ("np", "_values", "_by_value", "_disj_memo", "_conj_memo")

    def __init__(self, np_module):
        self.np = np_module
        self._values: List[object] = [False, True]
        self._by_value: Dict[object, int] = {False: 0, True: 1}
        self._disj_memo: Dict[tuple, int] = {}
        self._conj_memo: Dict[tuple, int] = {}

    def encode(self, value) -> int:
        """The code of a Python bool or hash-consed formula."""
        if value is False:
            return 0
        if value is True:
            return 1
        code = self._by_value.get(value)
        if code is None:
            code = len(self._values)
            self._values.append(value)
            self._by_value[value] = code
        return code

    def decode(self, code: int):
        """The Python value of *code* (a plain bool for 0/1)."""
        return self._values[code]

    def decode_all(self, codes: List[int]):
        """:meth:`decode` over a list of codes, as a C-level ``map``."""
        return map(self._values.__getitem__, codes)

    # -- scalar connectives -------------------------------------------------

    def disj_code(self, left: int, right: int) -> int:
        """``disj`` over codes, with the formula identities short-circuited."""
        if left == 0:
            return right
        if right == 0 or left == right:
            return left
        if left == 1 or right == 1:
            return 1
        key = (left, right)
        code = self._disj_memo.get(key)
        if code is None:
            code = self.encode(disj(self._values[left], self._values[right]))
            self._disj_memo[key] = code
        return code

    def conj_code(self, left: int, right: int) -> int:
        """``conj`` over codes, with the formula identities short-circuited."""
        if left == 0 or right == 0:
            return 0
        if left == 1:
            return right
        if right == 1 or left == right:
            return left
        key = (left, right)
        code = self._conj_memo.get(key)
        if code is None:
            code = self.encode(conj(self._values[left], self._values[right]))
            self._conj_memo[key] = code
        return code

    # -- column connectives -------------------------------------------------

    def _resolve_pairs(self, out, left, right, rest, scalar):
        """Route the residual×residual rows through *scalar*, one call per
        distinct (left, right) pair: pack both codes into one int64, unique
        them, resolve each unique pair once, scatter back."""
        np = self.np
        rows = np.nonzero(rest)[0]
        if not rows.size:
            return
        packed = (left[rows] << _PACK_SHIFT) | right[rows]
        unique, inverse = np.unique(packed, return_inverse=True)
        resolved = np.fromiter(
            (
                scalar(int(pair >> _PACK_SHIFT), int(pair & _PACK_MASK))
                for pair in unique
            ),
            dtype=np.int64,
            count=unique.size,
        )
        out[rows] = resolved[inverse]

    def conj_cols(self, left, right):
        """Elementwise :meth:`conj_code` over two code columns."""
        np = self.np
        out = left.copy()
        true_left = left == 1
        out[true_left] = right[true_left]
        out[(left == 0) | (right == 0)] = 0
        rest = (left >= 2) & (right >= 2) & (left != right)
        self._resolve_pairs(out, left, right, rest, self.conj_code)
        return out
