"""The n-ary constructors are the left fold, object for object.

The columnar engines aggregate a node's children with one ``disj(*parts)``
per item where the reference engine left-folds ``acc = disj(acc, x)``.
Formulas are hash-consed, so "the same formula" is *identity*: these
properties pin operand order, deduplication and absorption, not just
meaning.  The allocation tests pin what makes the n-ary call linear: a fold
over plain variables builds nothing but its result.
"""

import functools
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans import formula as formula_module
from repro.booleans.formula import And, Not, Or, Var, conj, disj, neg

VARIABLE_NAMES = ["p", "q", "r", "s", "t"]


def parts_strategy():
    """Lists of operands as the engines meet them: constants, variables,
    negations and nested ``Or`` / ``And`` — drawn from few names, so repeated
    and complementary members (at both levels) are common."""
    literal = st.one_of(
        st.sampled_from(VARIABLE_NAMES).map(Var),
        st.sampled_from(VARIABLE_NAMES).map(lambda name: neg(Var(name))),
    )
    nested = st.one_of(
        st.lists(literal, min_size=1, max_size=4).map(lambda ops: disj(*ops)),
        st.lists(literal, min_size=1, max_size=4).map(lambda ops: conj(*ops)),
        st.lists(literal, min_size=2, max_size=3).map(lambda ops: neg(conj(*ops))),
    )
    return st.lists(st.one_of(st.booleans(), literal, nested), max_size=12)


@settings(max_examples=200)
@given(parts_strategy())
def test_nary_disj_is_the_left_fold(parts):
    assert disj(*parts) is functools.reduce(disj, parts, False)


@settings(max_examples=200)
@given(parts_strategy())
def test_nary_conj_is_the_left_fold(parts):
    assert conj(*parts) is functools.reduce(conj, parts, True)


def test_complementary_members_absorb_across_parts():
    p, q = Var("p"), Var("q")
    assert disj(p, disj(q, neg(p))) is True
    assert conj(conj(q, p), neg(p)) is False
    both = conj(p, q)
    assert disj(neg(both), q, both) is True


@pytest.fixture()
def constructions(monkeypatch):
    """Every call to ``Not.__new__`` / ``And.__new__`` / ``Or.__new__``."""
    calls = []

    def counting(original):
        def construct(cls, operand):
            calls.append(cls.__name__)
            return original(cls, operand)

        return construct

    monkeypatch.setattr(Not, "__new__", counting(Not.__new__))
    monkeypatch.setattr(
        formula_module._NaryOp, "__new__", counting(formula_module._NaryOp.__new__)
    )
    return calls


@pytest.mark.parametrize("combine, op", [(disj, Or), (conj, And)])
def test_folding_distinct_variables_builds_only_the_result(constructions, combine, op):
    variables = [Var(f"fold:{index}") for index in range(64)]
    gc.collect()
    negations_alive = len(Not._interned)
    result = combine(*variables)
    assert type(result) is op and result.operands == tuple(variables)
    assert constructions == [op.__name__]
    assert len(Not._interned) == negations_alive


def test_complement_lookup_still_sees_a_live_negation(constructions):
    p, q = Var("fold:p"), Var("fold:q")
    not_p = neg(p)
    del constructions[:]
    assert disj(not_p, q, p) is True
    assert conj(p, q, not_p) is False
    assert constructions == []


@given(st.text(max_size=20))
def test_var_hash_is_the_structural_hash(name):
    assert hash(Var(name)) == hash(("Var", name))
