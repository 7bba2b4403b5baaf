"""Document updates with incremental fragment maintenance.

The reproduction's documents were frozen until this package: any in-place
edit forced a full-document rehash and a wholesale rebuild of every cached
:class:`~repro.xmltree.flat.FlatFragment`.  Here updates are first-class —
a typed mutation (:class:`InsertSubtree`, :class:`DeleteSubtree`,
:class:`EditText`) is applied *through* the
:class:`~repro.fragments.fragment_tree.Fragmentation`, so every change is
attributed to the single fragment whose span it touches:

* the touched fragment's **epoch** is bumped
  (:meth:`~repro.fragments.fragment_tree.Fragmentation.bump_epoch`), which
  drops only that fragment's columnar encoding;
* the service version tag rolls forward in O(#fragments) from the epochs —
  no document walk on any steady-state path;
* every other fragment's arrays, dispatch tables and cached answers keyed
  under other version tags stay untouched.

This is the regime of Berkholz, Keppeler & Schweikardt, "Answering FO+MOD
queries under updates" (PODS 2017): keep an auxiliary structure (here the
per-fragment columnar encodings) maintainable in time proportional to the
update's locality, never the database size.

Entry points: :func:`apply_mutation` / :func:`apply_mutations` for the sync
engines, :meth:`repro.service.ServiceHost.apply_update` for the concurrent
service (serialized with the document's other writes while readers keep
their pinned snapshots), and
:class:`MixedWorkload` for generating read/write request streams.
"""

from repro.updates.apply import UpdateError, apply_mutation, apply_mutations, owning_fragment_id
from repro.updates.ops import (
    DeleteSubtree,
    EditText,
    InsertSubtree,
    Mutation,
    UpdateResult,
)
from repro.updates.workload import MixedOp, MixedWorkload

__all__ = [
    "DeleteSubtree",
    "EditText",
    "InsertSubtree",
    "MixedOp",
    "MixedWorkload",
    "Mutation",
    "UpdateError",
    "UpdateResult",
    "apply_mutation",
    "apply_mutations",
    "owning_fragment_id",
]
