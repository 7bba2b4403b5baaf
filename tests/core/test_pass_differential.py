"""Each per-fragment pass, field by field, on every engine against the reference.

The end-to-end differential suites compare whole runs, and the vector
suite's per-pass checks skip without numpy.  Here every available engine
runs ``qualifier_pass``, ``selection_pass`` and ``combined_pass`` on every
fragment of drawn documents, and each output field — qualifier values,
root HEAD/DESC rows, answers, candidates' residual formulas, virtual parent
vectors, operation counts — must equal the reference's.  Non-root fragments
get the symbolic init vectors PaX2 and PaX3 give them, and the selection
pass consumes the reference qualifier pass's unresolved values.
"""

from dataclasses import fields

from hypothesis import given, settings

from repro.core.kernel.dispatch import (
    REFERENCE,
    combined_pass,
    qualifier_pass,
    selection_pass,
)
from repro.core.pruning import stage1_init_vector
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import compile_plan

from tests.conftest import available_engines, fragmented_documents

QUERIES = [
    # qualifier-free; child steps from the root leave dead subtrees
    "//a/b",
    "/r//c/*",
    "/r/a/b",
    # text() and val() comparisons
    '//a[b/text() = "x"]',
    '//*[text() = "Hello"]/b',
    "//a[val() > 12]",
    "//b[c/val() != 42]//d",
    # not(), nested and .// qualifiers
    "//a[not(b)]",
    '//*[not(c/text() = "x")]/a',
    "//a[b[c]]/d",
    "//b[c[not(.//a)]]",
    "//a[.//b]",
    '//c[.//d/text() = "Hello" and e]//b',
    "/r[.//a or b]//e[.//c]",
    # one element consulting two qualifier slots, below a dead-subtree cut
    "//*[b]/*[not(c)]",
    '/r/*[.//a]/*[b/text() = "x"]',
]


def pass_outputs(fragmentation, plan, fid, engine):
    """The three pass outputs for one fragment, the selection pass fed the
    reference qualifier pass's values."""
    is_root = fid == fragmentation.root_fragment.fragment_id
    init = stage1_init_vector(fragmentation, plan, fid, False)
    provider = None
    if plan.has_qualifiers:
        values = qualifier_pass(fragmentation, fid, plan, engine=REFERENCE).qual_values
        provider = values.__getitem__
    return {
        "qualifier": qualifier_pass(fragmentation, fid, plan, engine=engine),
        "selection": selection_pass(
            fragmentation, fid, plan, provider, init, is_root, engine=engine
        ),
        "combined": combined_pass(fragmentation, fid, plan, init, is_root, engine=engine),
    }


@settings(max_examples=200, deadline=None)
@given(fragmentation=fragmented_documents(max_nodes=40))
def test_every_pass_matches_reference_field_by_field(fragmentation):
    engines = [engine for engine in available_engines() if engine != REFERENCE]
    for query in QUERIES:
        plan = compile_plan(parse_xpath(query), source=query)
        for fid in fragmentation.fragment_ids():
            expected = pass_outputs(fragmentation, plan, fid, REFERENCE)
            for engine in engines:
                got = pass_outputs(fragmentation, plan, fid, engine)
                for name, output in expected.items():
                    for field in fields(output):
                        assert getattr(got[name], field.name) == getattr(
                            output, field.name
                        ), (query, fid, engine, name, field.name)
