"""What a never-seen query costs, as exact counts (no wall clock).

Fragmentation degree is the paper's independent variable (Experiment 1):
at a fixed fragment size the work per query may grow with the number of
fragments F, but not faster.  Two things used to: every fragment compiled
(and cached, 256 deep) its own ``PlanTables``, and the root fragment folded
its F - 1 virtual children pairwise, constructing O(F^2) throw-away formula
objects.  These tests count constructor calls on FT1 at 16 / 64 / 256
fragments of ~80 nodes, and what stays alive after a long never-seen stream.
"""

import gc

import pytest

from repro.booleans import formula as formula_module
from repro.booleans.formula import And, Not, Or, Var
from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import KERNEL, VECTOR
from repro.core.kernel.tables import PlanTables
from repro.core.vector import numpy_available
from repro.workloads.scenarios import build_ft1

COLUMNAR = (KERNEL, VECTOR) if numpy_available() else (KERNEL,)

#: every fragment has open auctions, so no annotation prunes any of them and
#: the root folds one head/desc variable per virtual child
COVER = "//open_auction/current"
QUERY = "//open_auction[bidder/increase > {:.2f}]/current"


def ft1_engine(fragments: int, engine: str, bytes_per_fragment: int = 2031):
    """FT1 behind the sync PaX2 engine; the default size gives ~80-node sites."""
    scenario = build_ft1(fragments, fragments * bytes_per_fragment, seed=5)
    served = DistributedQueryEngine(
        scenario.fragmentation, scenario.placement, algorithm="pax2",
        use_annotations=True, engine=engine,
    )
    served.execute(COVER)  # encodings built: what follows is per-query cost
    return served


@pytest.fixture()
def constructions(monkeypatch):
    """Calls to ``PlanTables.__init__`` and to the formula constructors."""
    calls = {"tables": 0, "formulas": 0}

    def counting(original, key):
        def construct(*args):
            calls[key] += 1
            return original(*args)

        return construct

    monkeypatch.setattr(PlanTables, "__init__", counting(PlanTables.__init__, "tables"))
    monkeypatch.setattr(Not, "__new__", counting(Not.__new__, "formulas"))
    monkeypatch.setattr(
        formula_module._NaryOp, "__new__",
        counting(formula_module._NaryOp.__new__, "formulas"),
    )
    return calls


@pytest.mark.parametrize("engine", COLUMNAR)
def test_a_never_seen_query_is_compiled_once_and_folds_linearly(constructions, engine):
    formulas = {}
    for fragments in (16, 64, 256):
        served = ft1_engine(fragments, engine)
        assert len(served.fragmentation) == fragments
        constructions.update(tables=0, formulas=0)
        stats = served.execute(QUERY.format(12.34)).stats
        assert len(stats.fragments_evaluated) == fragments
        assert constructions["tables"] == 1, (fragments, constructions)
        formulas[fragments] = constructions["formulas"]
    # 16x the fragments: at most linearly more formula objects (pairwise
    # folding made it ~200x)
    assert 0 < formulas[256] <= 20 * formulas[16], formulas


def live_plan_tables() -> int:
    return sum(isinstance(candidate, PlanTables) for candidate in gc.get_objects())


def intern_table_sizes() -> dict:
    return {cls.__name__: len(cls._interned) for cls in (Var, And, Or, Not)}


#: the vector tier shares the plan-table cache; a stream just past the cap
#: is enough to show its own per-fragment caches hold no formulas either
STREAMS = [(KERNEL, 1000)] + ([(VECTOR, 300)] if numpy_available() else [])


@pytest.mark.parametrize("engine, requests", STREAMS)
def test_a_never_seen_stream_holds_bounded_tables_and_no_formulas(engine, requests):
    gc.collect()
    tables_before = live_plan_tables()
    interned_before = intern_table_sizes()

    # the smallest sites there are (18 nodes): what is held afterwards does
    # not depend on fragment size, the time the stream takes does
    served = ft1_engine(64, engine, bytes_per_fragment=300)
    for request in range(requests):
        served.execute(QUERY.format(request + 0.25))
    assert live_plan_tables() - tables_before <= 256

    fragmentation = served.fragmentation
    del served  # its sites keep the last query's candidate formulas
    gc.collect()
    assert intern_table_sizes() == interned_before
    assert len(fragmentation) == 64  # the document (and its caches) is still here
