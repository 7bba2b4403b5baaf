"""Naming scheme of the Boolean variables introduced by partial evaluation.

Three families of variables exist; they are the unknowns of the paper's
partial evaluation (Sections 3–4: PaX3's stages and PaX2's combined pass),
and the README's *The columnar fragment kernel* describes the passes that
introduce them:

``qh:<fragment>:<item>`` / ``qd:<fragment>:<item>``
    The unknown HEAD / DESC qualifier values of a sub-fragment's root,
    introduced by a parent fragment at each of its virtual nodes.  Resolved
    bottom-up over the fragment tree.

``sv:<fragment>:<entry>``
    The unknown selection prefix values of the *parent* of a fragment's
    root, used to initialize the selection stack of a non-root fragment.
    Resolved top-down over the fragment tree.

``qz:<node>:<k>``
    PaX2 only: the value of the ``k``-th qualifier expression at a node of
    the *same* fragment, not yet known during the pre-order half of the
    combined pass.  Always resolved locally before anything leaves the site.
"""

from __future__ import annotations

from repro.booleans.formula import Var

__all__ = [
    "head_var",
    "desc_var",
    "selection_var",
    "pending_qual_var",
    "head_var_name",
    "desc_var_name",
    "selection_var_name",
    "pending_qual_var_name",
]


def head_var_name(fragment_id: str, item_id: int) -> str:
    return f"qh:{fragment_id}:{item_id}"


def desc_var_name(fragment_id: str, item_id: int) -> str:
    return f"qd:{fragment_id}:{item_id}"


def selection_var_name(fragment_id: str, entry: int) -> str:
    return f"sv:{fragment_id}:{entry}"


def pending_qual_var_name(node_id: int, qual_index: int) -> str:
    return f"qz:{node_id}:{qual_index}"


def head_var(fragment_id: str, item_id: int) -> Var:
    """HEAD value of qualifier item *item_id* at the root of *fragment_id*."""
    return Var(head_var_name(fragment_id, item_id))


def desc_var(fragment_id: str, item_id: int) -> Var:
    """DESC value of qualifier item *item_id* at the root of *fragment_id*."""
    return Var(desc_var_name(fragment_id, item_id))


def selection_var(fragment_id: str, entry: int) -> Var:
    """Selection prefix *entry* at the parent of *fragment_id*'s root."""
    return Var(selection_var_name(fragment_id, entry))


def pending_qual_var(node_id: int, qual_index: int) -> Var:
    """PaX2 placeholder for a node's own, not-yet-computed qualifier value."""
    return Var(pending_qual_var_name(node_id, qual_index))
