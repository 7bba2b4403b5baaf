"""The engine table: each tier of the per-fragment step is one :class:`FragmentEngine` in
:data:`ENGINES` (``kernel``, the default: columnar walks; ``vector``: numpy columns;
``reference``: object-tree walks, the executable specification), so retiring a tier is
deleting its entry.  A run resolves its engine once, at its entry, and hands it on."""

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator

from repro.core.combined import evaluate_fragment_combined
from repro.core.kernel.combined import evaluate_fragment_combined_flat
from repro.core.kernel.qualifier import evaluate_fragment_qualifiers_flat
from repro.core.kernel.selection import evaluate_fragment_selection_flat
from repro.core.qualifiers import evaluate_fragment_qualifiers
from repro.core.selection import evaluate_fragment_selection
from repro.core.vector.combined import evaluate_fragment_combined_vector
from repro.core.vector.encode import MISSING_NUMPY_HINT, numpy_available, vector_fragment
from repro.core.vector.qualifier import evaluate_fragment_qualifiers_vector
from repro.core.vector.selection import evaluate_fragment_selection_vector

__all__ = ["ENGINES", "KERNEL", "REFERENCE", "VECTOR", "EngineUnavailableError", "FragmentEngine",
           "resolve_engine", "fragment_engine", "set_fragment_engine", "use_fragment_engine",
           "prewarm_fragments", "qualifier_pass", "selection_pass", "combined_pass"]

KERNEL, REFERENCE, VECTOR = "kernel", "reference", "vector"


class EngineUnavailableError(RuntimeError):
    """The selected engine cannot run in this process; the message says what to do."""


@dataclass(frozen=True)
class FragmentEngine:
    """One tier.  Its passes take ``(fragment, flat, plan, …)``, ``flat`` being the live or
    pinned encoding (``None`` for a tree walk).  A ``columnar`` tier reads only flats, so a
    pinned snapshot's can serve it.  ``prewarm(flat)`` builds what its passes read beyond the
    flat; ``unavailable`` says what to do when ``available()`` is false."""

    name: str
    columnar: bool
    qualifiers: Callable
    selection: Callable
    combined: Callable
    prewarm: Callable = lambda flat: None
    available: Callable[[], bool] = lambda: True
    unavailable: str = ""


def _on_tree(evaluate):
    """A reference pass in the record's signature; it walks the live tree."""
    def run(fragment, flat, plan, *rest):
        if flat is not None:
            raise ValueError("snapshot flats require a columnar engine")
        return evaluate(fragment, plan, *rest)
    return run


ENGINES: Dict[str, FragmentEngine] = {engine.name: engine for engine in (
    FragmentEngine(KERNEL, True, evaluate_fragment_qualifiers_flat,
                   evaluate_fragment_selection_flat, evaluate_fragment_combined_flat),
    FragmentEngine(REFERENCE, False, _on_tree(evaluate_fragment_qualifiers),
                   _on_tree(evaluate_fragment_selection), _on_tree(evaluate_fragment_combined)),
    FragmentEngine(VECTOR, True, evaluate_fragment_qualifiers_vector,
                   evaluate_fragment_selection_vector, evaluate_fragment_combined_vector,
                   prewarm=vector_fragment, available=numpy_available,
                   unavailable=MISSING_NUMPY_HINT),
)}


def _engine_from_environ() -> str:
    value = os.environ.get("REPRO_FRAGMENT_ENGINE", KERNEL)
    if value not in ENGINES:
        warnings.warn(f"ignoring REPRO_FRAGMENT_ENGINE={value!r}: choose from"
                      f" {tuple(ENGINES)}; using {KERNEL!r}", stacklevel=2)
        return KERNEL
    return value


_default_engine = _engine_from_environ()


def resolve_engine(engine=None, runnable: bool = False) -> FragmentEngine:
    """The record a name, ``None`` (the default) or a record stands for; ``runnable``
    refuses a tier this process cannot run."""
    name = _default_engine if engine is None else engine
    record = name if isinstance(name, FragmentEngine) else ENGINES.get(name)
    if record is None:
        raise ValueError(f"unknown fragment engine {name!r}; choose from {tuple(ENGINES)}")
    if runnable and not record.available():
        raise EngineUnavailableError(record.unavailable)
    return record


def fragment_engine() -> str:
    """The process-wide default engine's name (``"kernel"`` unless overridden)."""
    return _default_engine


def set_fragment_engine(engine: str) -> None:
    """Set the process-wide default engine."""
    global _default_engine
    _default_engine = resolve_engine(engine).name


@contextmanager
def use_fragment_engine(engine: str) -> Iterator[str]:
    """Temporarily switch the process-wide default engine."""
    previous = _default_engine
    set_fragment_engine(engine)
    try:
        yield _default_engine
    finally:
        set_fragment_engine(previous)


def prewarm_fragments(fragmentation, fragment_ids=None, engine=None) -> None:
    """Build what *engine*'s passes read, outside any timer and before any site visit."""
    engine = resolve_engine(engine, runnable=True)
    if engine.columnar:
        for fragment_id in fragmentation.fragment_ids() if fragment_ids is None else fragment_ids:
            engine.prewarm(fragmentation.flat(fragment_id))


def _run(stage, engine, fragmentation, fragment_id, flat, *args):
    """*engine*'s *stage* pass over one fragment; a columnar tier reads *flat* or the live one."""
    engine = resolve_engine(engine)
    if flat is None and engine.columnar:
        flat = fragmentation.flat(fragment_id)
    return getattr(engine, stage)(fragmentation[fragment_id], flat, *args)


def qualifier_pass(fragmentation, fragment_id, plan, engine=None, keep_state=True):
    """Bottom-up qualifier pass over one fragment (PaX3 stage 1, ParBoX); *keep_state*
    when a selection pass over its ``state`` follows."""
    return _run("qualifiers", engine, fragmentation, fragment_id, None, plan, keep_state)


def selection_pass(fragmentation, fragment_id, plan, qualifiers, bindings, init_vector,
                   is_root_fragment, engine=None):
    """Top-down selection pass (PaX3 stage 2) over *engine*'s qualifier ``state`` and *bindings*."""
    return _run("selection", engine, fragmentation, fragment_id, None, plan, qualifiers,
                bindings, init_vector, is_root_fragment)


def combined_pass(fragmentation, fragment_id, plan, init_vector, is_root_fragment,
                  engine=None, flat=None):
    """PaX2's combined pass over one fragment; ``flat`` pins an MVCC snapshot's encoding."""
    return _run("combined", engine, fragmentation, fragment_id, flat, plan, init_vector,
                is_root_fragment)
