"""``val() op n`` means the same on every evaluator, whatever the text holds.

Numeric text includes the non-finite spellings ``float()`` accepts: an
element whose text is ``nan`` *has* a value, so ``val() != 5`` holds for it
while ``=``, ``<`` and ``>=`` do not; an element with empty or non-numeric
text has none and fails every comparison.  The vector tier once derived
"has a value" from ``~isnan(column)`` and lost the ``nan`` rows.
"""

import operator

import pytest

from repro import DistributedQueryEngine, build_fragmentation, evaluate_centralized, parse_xml
from repro.core.kernel.dispatch import KERNEL, REFERENCE, VECTOR
from repro.core.vector import numpy_available

NAN, INF = float("nan"), float("inf")
#: the text of each <b>, in document order, and the value val() must see
SAMPLES = [
    ("nan", NAN), ("5", 5.0), ("inf", INF), (" 1e3 ", 1000.0), ("$7", 7.0),  # first <s>
    ("NaN", NAN),  # second <s>, the cut: alone in its fragment
    ("-inf", -INF), ("", None), ("five", None), (" 4.5\n", 4.5), ("$", None),  # third <s>
]
DOCUMENT = "<r><s>{}</s><s>{}</s><s>{}</s></r>".format(
    *("".join(f"<b>{text}</b>" for text, _ in group) for group in (SAMPLES[:5], SAMPLES[5:6], SAMPLES[6:]))
)
OPERATORS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, ">=": operator.ge}
EVALUATORS = ["centralized", REFERENCE, KERNEL, VECTOR]


@pytest.fixture(scope="module")
def fragmentation():
    tree = parse_xml(DOCUMENT)
    return build_fragmentation(tree, [tree.root.children[1].node_id])


def answers(fragmentation, evaluator, query):
    if evaluator == "centralized":
        return evaluate_centralized(fragmentation.tree, query).answer_ids
    if evaluator == VECTOR and not numpy_available():
        pytest.skip("the vector engine needs numpy")
    return DistributedQueryEngine(fragmentation, algorithm="pax2", engine=evaluator).execute(query).answer_ids


@pytest.mark.parametrize("evaluator", EVALUATORS)
@pytest.mark.parametrize("op", OPERATORS)
def test_val_on_the_node_itself(fragmentation, evaluator, op):
    elements = [node for node in fragmentation.tree.iter_elements() if node.tag == "b"]
    expected = [
        node.node_id
        for node, (_, value) in zip(elements, SAMPLES)
        if value is not None and OPERATORS[op](value, 5)
    ]
    assert answers(fragmentation, evaluator, f"//b[val() {op} 5]") == expected


@pytest.mark.parametrize("evaluator", EVALUATORS)
@pytest.mark.parametrize("op", OPERATORS)
def test_val_below_a_step_and_across_the_cut(fragmentation, evaluator, op):
    groups = fragmentation.tree.root.children
    values = [SAMPLES[:5], SAMPLES[5:6], SAMPLES[6:]]
    expected = [
        group.node_id
        for group, samples in zip(groups, values)
        if any(value is not None and OPERATORS[op](value, 5) for _, value in samples)
    ]
    assert answers(fragmentation, evaluator, f"//s[b/val() {op} 5]") == expected
