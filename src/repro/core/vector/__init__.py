"""Numpy accelerator tier: whole-column window kernels over FlatFragment.

The third engine (``--engine vector``) evaluates the per-fragment passes as
vectorized operations over the XPath-accelerator window encoding — pre/post
order and per-tag index columns derived from
:class:`~repro.xmltree.flat.FlatFragment` — instead of per-node Python
dispatch.  See :mod:`repro.core.vector.encode` for the encoding and the
pass modules for the window algebra; results are bit-identical to both the
``kernel`` and ``reference`` engines and are differentially pinned to them
by the test suite (``tests/core/test_kernel_differential.py``).
"""

from repro.core.vector.encode import (
    numpy_available,
    require_numpy,
    vector_fragment,
)

__all__ = ["numpy_available", "require_numpy", "vector_fragment"]
