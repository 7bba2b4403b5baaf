"""Coordinator-side unification over the fragment tree (Procedure ``evalFT``).

After the parallel per-fragment passes, the coordinator holds, per fragment,

* the qualifier HEAD/DESC vectors of its root (with variables referring to
  its sub-fragments), and
* the selection vectors computed at the parents of its virtual nodes (with
  variables referring to its own initialization and to its sub-fragments'
  qualifier values).

``evalFT`` resolves all variables by two linear traversals of the fragment
tree: qualifier variables bottom-up (leaf fragments carry no variables), and
selection variables top-down (the root fragment's initialization is
concrete).  The result is an :class:`~repro.booleans.env.Environment`
binding every exchanged variable to a concrete truth value.
:func:`resolve_candidates` is the site side of answer retrieval: it decides
one fragment's candidate answers from the bindings shipped back to it.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Mapping, Sequence

from repro.booleans.env import Environment
from repro.booleans.formula import FormulaLike, variables_of
from repro.core.variables import desc_var_name, head_var_name, selection_var_name
from repro.fragments.fragment_tree import Fragmentation
from repro.xmltree.nodes import NodeId
from repro.xpath.plan import QueryPlan

__all__ = [
    "UnificationError",
    "unify_qualifier_vectors",
    "unify_selection_vectors",
    "require_concrete",
    "resolve_candidates",
]


class UnificationError(Exception):
    """Raised when a vector cannot be resolved to concrete truth values."""


def require_concrete(value: FormulaLike, context: str) -> bool:
    """Assert that a resolved value is a constant and return it as a bool."""
    if isinstance(value, bool):
        return value
    free = ", ".join(sorted(variables_of(value)))
    raise UnificationError(f"{context} still depends on unresolved variables: {free}")


def resolve_candidates(
    candidates: Mapping[NodeId, FormulaLike],
    bindings: Mapping[str, bool],
    context: str,
) -> List[NodeId]:
    """The candidate answers of one fragment that resolve to true, in order.

    *candidates* maps node ids to residual formulas, *bindings* are the
    concrete values shipped to the fragment and *context* (the fragment id)
    names it in errors.  Formulas are hash-consed, so the candidates of a
    fragment share a handful of distinct objects however many there are:
    each distinct formula is resolved once and its verdict fanned back out.
    Formulas are told apart by identity — hash-consing makes that equality —
    so no per-candidate Python code runs.
    """
    environment = Environment(bindings)
    formulas = list(candidates.values())
    keys = list(map(id, formulas))
    verdicts: Dict[int, bool] = {}
    for key, formula in dict(zip(keys, formulas)).items():
        value = environment.resolve(formula)
        if not isinstance(value, bool):
            node_id = list(candidates)[keys.index(key)]
            require_concrete(value, f"candidate answer {node_id} in {context}")
        verdicts[key] = value
    return list(compress(candidates, map(verdicts.__getitem__, keys)))


def unify_qualifier_vectors(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    root_vectors: Mapping[str, tuple[Sequence[FormulaLike], Sequence[FormulaLike]]],
    environment: Environment | None = None,
) -> Environment:
    """Bottom-up unification of the qualifier variables (``qh:`` / ``qd:``).

    ``root_vectors`` maps a fragment id to the (HEAD, DESC) vectors of its
    root.  Fragments missing from the mapping (pruned by the optimizer) are
    skipped: the soundness of the pruner guarantees their variables never
    influence an answer, and strict resolution downstream will flag any
    violation of that guarantee.
    """
    env = environment if environment is not None else Environment()
    for fragment_id in fragmentation.bottom_up_order():
        vectors = root_vectors.get(fragment_id)
        if vectors is None:
            continue
        head, desc = vectors
        for item_id in plan.head_item_ids:
            env.bind(head_var_name(fragment_id, item_id), env.resolve(head[item_id]))
        for item_id in plan.desc_item_ids:
            env.bind(desc_var_name(fragment_id, item_id), env.resolve(desc[item_id]))
    return env


def unify_selection_vectors(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    virtual_parent_vectors: Mapping[str, Mapping[str, Sequence[FormulaLike]]],
    environment: Environment,
) -> Environment:
    """Top-down unification of the selection variables (``sv:``).

    ``virtual_parent_vectors`` maps a fragment id to the vectors it computed
    for its sub-fragments (keyed by sub-fragment id).  The environment must
    already contain the qualifier bindings (PaX2 vectors mix both families).
    """
    for fragment_id in fragmentation.top_down_order():
        produced = virtual_parent_vectors.get(fragment_id)
        if not produced:
            continue
        for child_id, vector in produced.items():
            for entry, value in enumerate(vector):
                environment.bind(selection_var_name(child_id, entry), environment.resolve(value))
    return environment


def _concrete_binding(environment: Environment, name: str, bindings: Dict[str, bool]) -> None:
    """Add ``name`` to *bindings* when its resolved value is a constant.

    When the annotation optimizer pruned a fragment, a value exchanged by one
    of its (evaluated) ancestors may still mention the pruned fragment's
    variables; the pruner guarantees such a value can never influence an
    answer, so it is simply not shipped.  The strict concreteness check at
    the final answer-resolution step (:func:`require_concrete`) remains in
    place and would surface any violation of that guarantee.
    """
    if name not in environment:
        return
    value = environment.resolve(environment[name])
    if isinstance(value, bool):
        bindings[name] = value


def resolved_child_qualifier_bindings(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    fragment_id: str,
    environment: Environment,
) -> Dict[str, bool]:
    """Concrete ``qh:`` / ``qd:`` bindings for the sub-fragments of a fragment.

    This is the payload the coordinator ships back to a site before Stage 2
    of PaX3 (and before answer retrieval in PaX2): ``O(|Q|)`` booleans per
    fragment-tree edge.
    """
    bindings: Dict[str, bool] = {}
    for child_id in fragmentation.children(fragment_id):
        for item_id in plan.head_item_ids:
            _concrete_binding(environment, head_var_name(child_id, item_id), bindings)
        for item_id in plan.desc_item_ids:
            _concrete_binding(environment, desc_var_name(child_id, item_id), bindings)
    return bindings


def resolved_init_bindings(
    plan: QueryPlan,
    fragment_id: str,
    environment: Environment,
) -> Dict[str, bool]:
    """Concrete ``sv:`` bindings for one fragment's initialization vector."""
    bindings: Dict[str, bool] = {}
    for entry in range(plan.n_steps + 1):
        _concrete_binding(environment, selection_var_name(fragment_id, entry), bindings)
    return bindings
