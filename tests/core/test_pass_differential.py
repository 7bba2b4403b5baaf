"""Each per-fragment pass, field by field, on every engine against the reference.

The end-to-end differential suites compare whole runs, and the vector
suite's per-pass checks skip without numpy.  Here every available engine
runs ``qualifier_pass``, ``selection_pass`` and ``combined_pass`` on every
fragment of drawn documents, and each output field — root HEAD/DESC rows and
root qualifier values, answers, candidates' residual formulas, virtual
parent vectors, operation counts — must equal the reference's.  Non-root
fragments get the symbolic init vectors PaX2 and PaX3 give them.  Each
tier's selection pass reads its own qualifier pass's state (opaque, so not
compared), with the bindings of a real unification: none, all of them, and
every other one withheld, so residual formulas reach the qualifier steps.
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

from tests.conftest import available_engines, fragmented_documents, stage2_bindings

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


def pass_outputs(fragmentation, plan, fid, engine, bindings):
    """The pass outputs for one fragment, the selection pass fed the same
    tier's qualifier state under each set of *bindings*."""
    is_root = fid == fragmentation.root_fragment.fragment_id
    init = stage1_init_vector(fragmentation, plan, fid, False)
    qualifiers = qualifier_pass(fragmentation, fid, plan, engine=engine)
    outputs = {
        "qualifier": qualifiers,
        "combined": combined_pass(fragmentation, fid, plan, init, is_root, engine=engine),
    }
    for name, given in bindings.items():
        outputs[f"selection/{name}"] = selection_pass(
            fragmentation, fid, plan, qualifiers.state, given[fid], init, is_root, engine=engine
        )
    return outputs


@settings(max_examples=200, deadline=None)
@given(fragmentation=fragmented_documents(max_nodes=40))
def test_every_pass_matches_reference_field_by_field(fragmentation):
    engines = [engine for engine in available_engines() if engine != REFERENCE]
    for query in QUERIES:
        plan = compile_plan(parse_xpath(query), source=query)
        bindings = {
            "unbound": dict.fromkeys(fragmentation.fragment_ids()),
            "complete": stage2_bindings(fragmentation, plan),
            "withheld": stage2_bindings(fragmentation, plan, withhold=True),
        }
        for fid in fragmentation.fragment_ids():
            expected = pass_outputs(fragmentation, plan, fid, REFERENCE, bindings)
            for engine in engines:
                got = pass_outputs(fragmentation, plan, fid, engine, bindings)
                for name, output in expected.items():
                    for field in fields(output):
                        if field.name == "state":  # the tier's own, read by its selection pass
                            continue
                        assert getattr(got[name], field.name) == getattr(
                            output, field.name
                        ), (query, fid, engine, name, field.name)
