"""The paper's contribution: PaX3, PaX2, ParBoX and their optimizations.

Each algorithm is written once, as a coordinator that yields its stages of
site rounds (:mod:`repro.core.rounds`); drivers only decide how a round
reaches its site:

* :class:`repro.core.engine.DistributedQueryEngine` — the user-facing API,
  over the sync driver,
* :func:`repro.core.pax3.run_pax3`, :func:`repro.core.pax2.run_pax2` — the
  two partial-evaluation algorithms, run by the sync driver
  (:func:`repro.core.pax2.pax2_coordinator` is PaX2 itself),
* :func:`repro.core.parbox.run_parbox` — the Boolean-query baseline of [5],
* :func:`repro.core.naive.run_naive_centralized` — the ship-everything
  baseline,
* :mod:`repro.core.pruning` — the XPath-annotation optimization and the
  schedule the PaX2 and PaX3 coordinators read.

The service's async driver is :func:`repro.service.evaluator.evaluate_query_async`.
"""

from repro.core.engine import DistributedQueryEngine
from repro.core.results import PartialAnswer, QueryResult
from repro.core.pax3 import run_pax3
from repro.core.pax2 import run_pax2
from repro.core.parbox import run_parbox
from repro.core.naive import run_naive_centralized
from repro.core.pruning import relevant_fragments

__all__ = [
    "DistributedQueryEngine",
    "PartialAnswer",
    "QueryResult",
    "run_pax3",
    "run_pax2",
    "run_parbox",
    "run_naive_centralized",
    "relevant_fragments",
]
