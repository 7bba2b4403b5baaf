"""The vector tier's ``//`` step against the kernel and the reference.

Under a symbolic init vector (every non-root fragment) a ``//`` step folds
``disj(enclosing value, previous)`` over the *marks* — the rows where the
previous column is nonzero — in one stack walk.  These tests drive it
where marks carry residual formulas at nested depths: queries with two or
three ``//`` steps and qualifiers, over drawn nested fragmentations, plus
the PaX3 selection pass over each tier's own qualifier state with every
other sub-fragment binding withheld, so qualifier marks carry residual
formulas too.  Per fragment,
answers, candidates' residual formulas, root HEAD/DESC vectors and virtual
parent vectors must be identical on every engine; end to end, so must the
traffic accounting.

A ``//`` step leaves its column as pre-order runs, not rows; the XMark
queries at the end make a qualifier step, a second ``//`` or the emit read
such a column, with annotations on and off, on FT2 and FT1.
"""

import pytest
from hypothesis import given, settings

pytest.importorskip("numpy")

from repro.core.kernel.dispatch import REFERENCE, combined_pass, qualifier_pass, selection_pass
from repro.core.pax2 import run_pax2
from repro.core.pax3 import run_pax3
from repro.core.pruning import stage1_init_vector
from repro.fragments.fragment_tree import build_fragmentation
from repro.workloads.scenarios import build_ft1, build_ft2
from repro.xmltree.nodes import ELEMENT, XMLNode, XMLTree
from repro.xmltree.parser import parse_xml
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import CHILD, DESC, SELFQUAL, compile_plan

from tests.conftest import (
    available_engines, fingerprint, fragmented_documents, stage2_bindings,
)

QUERIES = [
    "//a//b",
    "//a//b//c",
    "//a[b]//c//d",
    "//*[c]//b//a",
    "/r//a[.//b]//c",
    "//a//b[c]//d",
    "//a[not(b)]//*//c",
    "//.[c]//d",
    "//a/b//c[d]",
]

def plan_for(query):
    return compile_plan(parse_xpath(query), source=query)


def fragment_outputs(fragmentation, query, engine, use_annotations=False):
    """Every fragment's combined and selection pass outputs on *engine*."""
    plan = plan_for(query)
    bindings = stage2_bindings(fragmentation, plan, withhold=True)
    outputs = {}
    root_id = fragmentation.root_fragment.fragment_id
    for fid in fragmentation.fragment_ids():
        is_root = fid == root_id
        init = stage1_init_vector(fragmentation, plan, fid, use_annotations)
        combined = combined_pass(fragmentation, fid, plan, init, is_root, engine=engine)
        qualifiers = qualifier_pass(fragmentation, fid, plan, engine=engine).state
        selection = selection_pass(
            fragmentation, fid, plan, qualifiers, bindings[fid], init, is_root, engine=engine
        )
        outputs[fid] = (
            combined.answers, combined.candidates, combined.virtual_parent_vectors,
            combined.root_head, combined.root_desc, combined.operations,
            selection.answers, selection.candidates, selection.virtual_parent_vectors,
            selection.operations,
        )
    return outputs


def assert_engines_agree(fragmentation, query):
    expected = fragment_outputs(fragmentation, query, REFERENCE)
    runs = {
        name: run(fragmentation, query, None, True, engine=REFERENCE)
        for name, run in (("pax2", run_pax2), ("pax3", run_pax3))
    }
    for engine in available_engines():
        if engine == REFERENCE:
            continue
        assert fragment_outputs(fragmentation, query, engine) == expected, (query, engine)
        for name, run in (("pax2", run_pax2), ("pax3", run_pax3)):
            got = run(fragmentation, query, None, True, engine=engine)
            assert fingerprint(got) == fingerprint(runs[name]), (query, engine, name)
    return expected


@settings(max_examples=60, deadline=None)
@given(fragmentation=fragmented_documents(max_nodes=40))
def test_vector_desc_matches_reference_and_kernel_on_drawn_documents(fragmentation):
    for query in QUERIES:
        assert_engines_agree(fragmentation, query)


def chain(tags):
    """Elements nested one inside the next, outermost first; returns all."""
    nodes = [XMLNode(ELEMENT, tag=tags[0])]
    for tag in tags[1:]:
        nodes.append(nodes[-1].append(XMLNode(ELEMENT, tag=tag)))
    return nodes


def candidates_below(fragmentation, outputs, root):
    """The combined pass's candidates in the fragment rooted at *root*."""
    (fid,) = [fid for fid in fragmentation.fragment_ids() if fragmentation[fid].root is root]
    return outputs[fid][1]


class TestPinnedDescCases:
    def test_mark_nested_inside_another_mark(self):
        # Below the cut at x, //a//b//c's last // step has marks at both b's
        # with different codes, the inner one nested in the outer one's
        # interval.  d must read the outer mark's code once the inner one
        # closes, and y the init once the outer one does: c's parent is
        # where the next step reads it.
        tree = parse_xml(
            "<r><x><b><a><b><e/></b></a><d><c/></d></b><y><c/></y></x></r>"
        )
        x = tree.root.children[0]
        fragmentation = build_fragmentation(tree, [x.node_id])
        outputs = assert_engines_agree(fragmentation, "//a//b//c")
        assert len(set(candidates_below(fragmentation, outputs, x).values())) == 2

    def test_marked_fragment_root(self):
        # the fragment root is an a: the CHILD step hands it the init code
        # and the following // step starts from a mark at row 0
        nodes = chain(["r", "a", "b", "a", "c"])
        fragmentation = build_fragmentation(XMLTree(nodes[0]), [nodes[1].node_id])
        outputs = assert_engines_agree(fragmentation, "//a//c")
        assert candidates_below(fragmentation, outputs, nodes[1])

    def test_desc_step_directly_after_desc_step(self):
        # normalization merges //.// into one step, so a // step can only
        # follow another across a qualifier on the context node
        assert [step.kind for step in plan_for("//.//c").selection] == [DESC, CHILD]
        assert [step.kind for step in plan_for("//.[b]//c").selection][:3] == [
            DESC, SELFQUAL, DESC,
        ]
        nodes = chain(["r", "a", "b", "c", "b", "c"])
        nodes[2].append(XMLNode(ELEMENT, tag="c"))
        fragmentation = build_fragmentation(
            XMLTree(nodes[0]), [nodes[1].node_id, nodes[3].node_id]
        )
        for query in ("//.[b]//c", "//.[c]//.[b]//c"):
            assert_engines_agree(fragmentation, query)

    def test_3000_deep_document(self):
        depth = 3000
        tree = parse_xml("<a>" * depth + "<b>7</b><b>x</b>" + "</a>" * depth)
        fragmentation = build_fragmentation(
            tree, [tree.node(depth // 3).node_id, tree.node(2 * depth // 3).node_id]
        )
        for query in ("//a//a//b", "//a[b]//b", "/a//a[.//b]//b"):
            assert_engines_agree(fragmentation, query)


#: A ``//`` step leaves a column as runs; these plans make a step, or the
#: emit, read such a column row by row, and pin the walk's probes next to
#: them.  Each comment names what reads the ``//`` column.
EXPANSION_QUERIES = [
    "//open_auction//.[bidder]",  # a SELFQUAL
    "/sites/site//.",  # the emit: the plan ends in //
    "//person//*",  # a wildcard CHILD probe
    "//*[not(name)]",
    "/sites//regions//item[location]//text",
    "//.[name]",  # a SELFQUAL at the first step
    "//.",
    "//*",
    "//people//person[.//age]//.[name]",  # a SELFQUAL, then the emit
    "//item//.[.//text]//text",  # a SELFQUAL, then a second //
    "//regions//item//.",
    "//open_auction//annotation//text",
    "//closed_auction//*[price]//text",
    "/sites/site/people/person[profile/age > 30]/name",
    "//open_auction[bidder/increase > 12.5]/current",
    "/sites//.[person]//name",
]


@pytest.fixture(scope="module", params=["ft2", "ft1"])
def xmark_fragmentation(request):
    if request.param == "ft2":
        return build_ft2(total_bytes=30_000, seed=5).fragmentation
    return build_ft1(16, 16 * 2_000, seed=5).fragmentation


@pytest.mark.parametrize("use_annotations", [True, False])
def test_every_expansion_of_a_desc_column_matches_reference_and_kernel(
    xmark_fragmentation, use_annotations
):
    for query in EXPANSION_QUERIES:
        expected = fragment_outputs(xmark_fragmentation, query, REFERENCE, use_annotations)
        for engine in available_engines():
            if engine != REFERENCE:
                got = fragment_outputs(xmark_fragmentation, query, engine, use_annotations)
                assert got == expected, (query, engine)
