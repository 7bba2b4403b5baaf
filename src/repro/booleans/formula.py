"""A tiny algebra of Boolean formulas with free variables.

The partial-evaluation algorithms (PaX3, PaX2, ParBoX) compute, for every
node of a fragment, vectors whose entries are either concrete truth values or
*residual* Boolean formulas over variables owned by other fragments.  The
formulas built here are the currency of those partial answers.

Design notes
------------
* Formulas are immutable, hashable and **hash-consed**: :class:`Var` is
  interned by name, and the :class:`And` / :class:`Or` / :class:`Not`
  constructors return the one shared instance per distinct operand tuple.
  Structural equality therefore coincides with identity for live formulas,
  so the per-fragment kernels can compare entries with ``is`` and identical
  residual formulas are shared instead of rebuilt at every node.  The
  interning tables hold weak references only; formulas no run refers to are
  collected normally.
* ``size()`` and ``variables()`` are memoized per instance.  Traffic
  accounting calls :func:`formula_size` once per exchanged entry per stage;
  with sharing plus memoization each distinct subformula is measured once
  per process instead of once per stage per item.
* The constructors :func:`conj`, :func:`disj` and :func:`neg` simplify
  eagerly (constant folding, flattening, deduplication, absorption of
  complementary literals at one level), which keeps the residual formulas
  small: in every setting the paper considers, an entry stays linear in the
  query size because each variable family appears at most once per entry.
* The complement check inside :func:`_combine` is a *lookup*, not a
  construction: ``Not`` is interned, so if no ``Not(x)`` object is alive it
  cannot be among the operands already collected, and asking
  ``Not._interned.get(x)`` answers that without allocating (and interning,
  and immediately dropping) a negation per operand.  Together with hashes
  cached at creation, folding plain variables allocates only its result.
* Flatten / dedupe-in-first-occurrence-order / absorb is associative, so
  ``disj(*parts)`` returns the very object ``reduce(disj, parts, False)``
  would — but visits each operand once, where the left fold re-walks the
  growing accumulator at every step (1 + 2 + … + k visits for k parts).  The
  n-ary call is the linear way to fold; the columnar engines aggregate a
  node's children with it, and the reference engine's ``QualAggregate`` keeps
  the binary fold as the executable spec they are compared against.
* Python ``bool`` values are valid formulas.  Every public helper accepts
  either a ``bool`` or a :class:`BoolFormula`, so algorithm code never has to
  special-case the fully-known case.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Mapping, Union

__all__ = [
    "BoolFormula",
    "Var",
    "And",
    "Or",
    "Not",
    "TRUE",
    "FALSE",
    "FormulaLike",
    "conj",
    "disj",
    "neg",
    "simplify",
    "substitute",
    "evaluate",
    "variables_of",
    "is_true",
    "is_false",
    "is_concrete",
    "formula_size",
]

_UNSET = object()


class BoolFormula:
    """Base class for non-constant Boolean formulas."""

    __slots__ = ()

    def variables(self) -> frozenset[str]:
        """Return the set of variable names occurring in the formula."""
        raise NotImplementedError

    def substitute(self, binding: Mapping[str, "FormulaLike"]) -> "FormulaLike":
        """Replace bound variables and re-simplify."""
        raise NotImplementedError

    def evaluate(self, binding: Mapping[str, bool]) -> bool:
        """Evaluate under a total assignment; raise ``KeyError`` if a
        variable is unbound."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of nodes in the formula tree (used for traffic accounting)."""
        raise NotImplementedError

    # Operator sugar used throughout the algorithm code and the tests.
    def __and__(self, other: "FormulaLike") -> "FormulaLike":
        return conj(self, other)

    def __rand__(self, other: "FormulaLike") -> "FormulaLike":
        return conj(other, self)

    def __or__(self, other: "FormulaLike") -> "FormulaLike":
        return disj(self, other)

    def __ror__(self, other: "FormulaLike") -> "FormulaLike":
        return disj(other, self)

    def __invert__(self) -> "FormulaLike":
        return neg(self)


FormulaLike = Union[bool, BoolFormula]

TRUE: bool = True
FALSE: bool = False


class Var(BoolFormula):
    """A free Boolean variable, identified by its name.

    Variable names are structured strings such as ``"sv:F3:2"`` (selection
    prefix entry 2 at the parent of fragment F3's root) but the formula layer
    treats them as opaque.  ``Var(name)`` returns the interned instance for
    *name*, so two variables with the same name are the same object.
    """

    __slots__ = ("name", "_vars", "_hash", "__weakref__")

    _interned: "weakref.WeakValueDictionary[str, Var]" = weakref.WeakValueDictionary()

    def __new__(cls, name: str) -> "Var":
        existing = cls._interned.get(name)
        if existing is not None:
            return existing
        self = super().__new__(cls)
        self.name = name
        self._vars = _UNSET
        self._hash = hash(("Var", name))
        cls._interned[name] = self
        return self

    def __init__(self, name: str):
        # All state is set in __new__; re-running __init__ on the interned
        # instance must not reset the memo fields.
        pass

    def variables(self) -> frozenset[str]:
        cached = self._vars
        if cached is _UNSET:
            cached = self._vars = frozenset((self.name,))
        return cached

    def substitute(self, binding: Mapping[str, FormulaLike]) -> FormulaLike:
        if self.name in binding:
            return simplify(binding[self.name])
        return self

    def evaluate(self, binding: Mapping[str, bool]) -> bool:
        return bool(binding[self.name])

    def size(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Var) and other.name == self.name)

    def __hash__(self) -> int:
        return self._hash


class _NaryOp(BoolFormula):
    """Shared behaviour of :class:`And` / :class:`Or`."""

    __slots__ = ("operands", "_size", "_vars", "_hash", "__weakref__")

    #: identity element of the operation (``True`` for And, ``False`` for Or)
    _identity: bool = True
    #: absorbing element (``False`` for And, ``True`` for Or)
    _absorbing: bool = False
    _symbol: str = "?"
    #: per-subclass interning table, installed by __init_subclass__
    _interned: "weakref.WeakValueDictionary[tuple, _NaryOp]"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._interned = weakref.WeakValueDictionary()

    def __new__(cls, operands: tuple[BoolFormula, ...]) -> "_NaryOp":
        existing = cls._interned.get(operands)
        if existing is not None:
            return existing
        self = super().__new__(cls)
        self.operands = operands
        self._size = _UNSET
        self._vars = _UNSET
        self._hash = _UNSET
        cls._interned[operands] = self
        return self

    def __init__(self, operands: tuple[BoolFormula, ...]):
        pass  # state lives in __new__; see Var.__init__

    def variables(self) -> frozenset[str]:
        cached = self._vars
        if cached is _UNSET:
            cached = frozenset().union(*(operand.variables() for operand in self.operands))
            self._vars = cached
        return cached

    def substitute(self, binding: Mapping[str, FormulaLike]) -> FormulaLike:
        parts = [operand.substitute(binding) for operand in self.operands]
        return _combine(type(self), parts)

    def evaluate(self, binding: Mapping[str, bool]) -> bool:
        for operand in self.operands:
            if operand.evaluate(binding) == self._absorbing:
                return self._absorbing
        return self._identity

    def size(self) -> int:
        cached = self._size
        if cached is _UNSET:
            cached = 1 + sum(operand.size() for operand in self.operands)
            self._size = cached
        return cached

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.operands!r})"

    def __str__(self) -> str:
        joiner = f" {self._symbol} "
        return "(" + joiner.join(str(operand) for operand in self.operands) + ")"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is type(self) and other.operands == self.operands
        )

    def __hash__(self) -> int:
        cached = self._hash
        if cached is _UNSET:
            cached = self._hash = hash((type(self).__name__, self.operands))
        return cached


class And(_NaryOp):
    """Conjunction of two or more non-constant formulas."""

    __slots__ = ()
    _identity = True
    _absorbing = False
    _symbol = "&"


class Or(_NaryOp):
    """Disjunction of two or more non-constant formulas."""

    __slots__ = ()
    _identity = False
    _absorbing = True
    _symbol = "|"


class Not(BoolFormula):
    """Negation of a non-constant formula."""

    __slots__ = ("operand", "_size", "_vars", "__weakref__")

    _interned: "weakref.WeakValueDictionary[BoolFormula, Not]" = weakref.WeakValueDictionary()

    def __new__(cls, operand: BoolFormula) -> "Not":
        existing = cls._interned.get(operand)
        if existing is not None:
            return existing
        self = super().__new__(cls)
        self.operand = operand
        self._size = _UNSET
        self._vars = _UNSET
        cls._interned[operand] = self
        return self

    def __init__(self, operand: BoolFormula):
        pass  # state lives in __new__; see Var.__init__

    def variables(self) -> frozenset[str]:
        cached = self._vars
        if cached is _UNSET:
            cached = self._vars = self.operand.variables()
        return cached

    def substitute(self, binding: Mapping[str, FormulaLike]) -> FormulaLike:
        return neg(self.operand.substitute(binding))

    def evaluate(self, binding: Mapping[str, bool]) -> bool:
        return not self.operand.evaluate(binding)

    def size(self) -> int:
        cached = self._size
        if cached is _UNSET:
            cached = self._size = 1 + self.operand.size()
        return cached

    def __repr__(self) -> str:
        return f"Not({self.operand!r})"

    def __str__(self) -> str:
        return f"!{self.operand}"

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Not) and other.operand == self.operand)

    def __hash__(self) -> int:
        return hash(("Not", self.operand))


def is_true(value: FormulaLike) -> bool:
    """Return ``True`` when *value* is the constant true."""
    return value is True or (isinstance(value, bool) and value)


def is_false(value: FormulaLike) -> bool:
    """Return ``True`` when *value* is the constant false."""
    return value is False or (isinstance(value, bool) and not value)


def is_concrete(value: FormulaLike) -> bool:
    """Return ``True`` when *value* carries no free variables."""
    return isinstance(value, bool)


def simplify(value: FormulaLike) -> FormulaLike:
    """Normalize a value to either a ``bool`` or a simplified formula."""
    if isinstance(value, bool):
        return value
    if isinstance(value, BoolFormula):
        return value
    # Anything truthy/falsy that is not a formula is coerced, which lets
    # algorithm code pass ints (0/1) when convenient.
    return bool(value)


def _combine(op: type, parts: Iterable[FormulaLike]) -> FormulaLike:
    """Build an n-ary And/Or with constant folding, flattening and dedup."""
    identity = op._identity
    absorbing = op._absorbing
    collected: list[BoolFormula] = []
    seen: set[BoolFormula] = set()
    for part in parts:
        if not isinstance(part, BoolFormula):
            # a constant (coerced as simplify() would): absorb or drop
            if bool(part) == absorbing:
                return absorbing
            continue
        if type(part) is op:
            inner = part.operands
        else:
            inner = (part,)
        for sub in inner:
            if sub in seen:
                continue
            # x & !x == False ; x | !x == True (single-level check).  The
            # complement is looked up, never built: *seen* holds its members
            # strongly, so a Not(sub) that is not alive cannot be among them.
            complement = sub.operand if isinstance(sub, Not) else Not._interned.get(sub)
            if complement is not None and complement in seen:
                return absorbing
            seen.add(sub)
            collected.append(sub)
    if not collected:
        return identity
    if len(collected) == 1:
        return collected[0]
    return op(tuple(collected))


def conj(*parts: FormulaLike) -> FormulaLike:
    """Conjunction of any number of formulas/booleans, simplified."""
    return _combine(And, parts)


def disj(*parts: FormulaLike) -> FormulaLike:
    """Disjunction of any number of formulas/booleans, simplified."""
    return _combine(Or, parts)


def neg(part: FormulaLike) -> FormulaLike:
    """Negation, simplified (double negation removed, constants folded)."""
    part = simplify(part)
    if isinstance(part, bool):
        return not part
    if isinstance(part, Not):
        return part.operand
    return Not(part)


def substitute(value: FormulaLike, binding: Mapping[str, FormulaLike]) -> FormulaLike:
    """Substitute variables of *value* according to *binding* and simplify.

    Unbound variables are left in place, so the result may still be a
    residual formula.
    """
    value = simplify(value)
    if isinstance(value, bool):
        return value
    return value.substitute(binding)


def evaluate(value: FormulaLike, binding: Mapping[str, bool]) -> bool:
    """Fully evaluate *value*; every free variable must be bound."""
    value = simplify(value)
    if isinstance(value, bool):
        return value
    return value.evaluate(binding)


def variables_of(value: FormulaLike) -> frozenset[str]:
    """Free variables of a formula (empty set for constants)."""
    value = simplify(value)
    if isinstance(value, bool):
        return frozenset()
    return value.variables()


def formula_size(value: FormulaLike) -> int:
    """Size of a formula for traffic accounting (constants count as 1).

    Memoized on the (shared) formula instances, so repeated accounting of the
    same residual entry across stages costs one dict-free attribute read.
    """
    value = simplify(value)
    if isinstance(value, bool):
        return 1
    return value.size()
