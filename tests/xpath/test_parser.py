"""Unit tests for the XPath parser."""

import pytest

from repro.xpath.ast import (
    AndQual,
    ChildStep,
    DescendantStep,
    LabelTest,
    NotQual,
    OrQual,
    PathExistsQual,
    QualifiedStep,
    SelfStep,
    TextCompareQual,
    ValCompareQual,
    WildcardTest,
)
from repro.core.engine import DistributedQueryEngine
from repro.xpath.centralized import evaluate_centralized
from repro.xpath.errors import XPathSyntaxError
from repro.xpath.parser import MAX_QUERY_DEPTH, parse_xpath
from repro.workloads.queries import (
    PAPER_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)


class TestSelectionPaths:
    def test_relative_child_path(self):
        path = parse_xpath("client/broker/name")
        assert not path.absolute
        assert [step.test.tag for step in path.steps] == ["client", "broker", "name"]

    def test_absolute_path(self):
        path = parse_xpath("/sites/site")
        assert path.absolute
        assert len(path.steps) == 2

    def test_leading_descendant_is_absolute(self):
        path = parse_xpath("//broker")
        assert path.absolute
        assert isinstance(path.steps[0], DescendantStep)
        assert isinstance(path.steps[1], ChildStep)

    def test_inner_descendant(self):
        path = parse_xpath("a//b")
        assert isinstance(path.steps[1], DescendantStep)

    def test_wildcard_and_self(self):
        path = parse_xpath("./*/name")
        assert isinstance(path.steps[0], SelfStep)
        assert isinstance(path.steps[1].test, WildcardTest)

    def test_trailing_descendant(self):
        path = parse_xpath("a//")
        assert isinstance(path.steps[-1], DescendantStep)

    def test_str_round_trip_reparses(self):
        for query in ["client/broker/name", "/sites//people/person", "a[b]/c", "//x[y = '1']"]:
            rendered = str(parse_xpath(query))
            assert str(parse_xpath(rendered)) == rendered


class TestQualifiers:
    def test_path_exists_qualifier(self):
        path = parse_xpath("broker[market]")
        qualifier = path.steps[1].qualifier
        assert isinstance(qualifier, PathExistsQual)
        assert qualifier.path.steps[0].test.tag == "market"

    def test_text_comparison_explicit(self):
        path = parse_xpath('broker[name/text() = "Bache"]')
        qualifier = path.steps[1].qualifier
        assert isinstance(qualifier, TextCompareQual)
        assert qualifier.value == "Bache"

    def test_text_comparison_sugar(self):
        qualifier = parse_xpath('person[address/country = "US"]').steps[1].qualifier
        assert isinstance(qualifier, TextCompareQual)

    def test_text_not_equal(self):
        qualifier = parse_xpath('a[b/text() != "x"]').steps[1].qualifier
        assert isinstance(qualifier, NotQual)
        assert isinstance(qualifier.operand, TextCompareQual)

    def test_val_comparison_explicit_and_sugar(self):
        explicit = parse_xpath("person[profile/age/val() > 20]").steps[1].qualifier
        sugar = parse_xpath("person[profile/age > 20]").steps[1].qualifier
        for qualifier in (explicit, sugar):
            assert isinstance(qualifier, ValCompareQual)
            assert qualifier.op == ">" and qualifier.number == 20

    def test_boolean_connectives(self):
        qualifier = parse_xpath('a[b and (c or not(d))]').steps[1].qualifier
        assert isinstance(qualifier, AndQual)
        assert isinstance(qualifier.right, OrQual)
        assert isinstance(qualifier.right.right, NotQual)

    def test_descendant_inside_qualifier(self):
        qualifier = parse_xpath('broker[//stock/code/text() = "goog"]').steps[1].qualifier
        assert isinstance(qualifier, TextCompareQual)
        assert isinstance(qualifier.path.steps[0], DescendantStep)

    def test_leading_slash_inside_qualifier_is_relative(self):
        # The paper writes "[/address/country=...]"; the slash is tolerated.
        qualifier = parse_xpath('person[/address/country = "US"]').steps[1].qualifier
        assert isinstance(qualifier, TextCompareQual)
        assert qualifier.path.steps[0].test.tag == "address"

    def test_nested_qualifier(self):
        path = parse_xpath("a[b[c > 1]/d]")
        outer = path.steps[1].qualifier
        assert isinstance(outer, PathExistsQual)
        nested = [s for s in outer.path.steps if isinstance(s, QualifiedStep)]
        assert len(nested) == 1

    def test_multiple_qualifiers_on_one_step(self):
        path = parse_xpath("a[b][c]")
        assert sum(isinstance(step, QualifiedStep) for step in path.steps) == 2

    def test_boolean_root_query(self):
        path = parse_xpath('.[//stock/code/text() = "goog"]')
        assert isinstance(path.steps[0], SelfStep)
        assert isinstance(path.steps[1], QualifiedStep)


class TestPaperQueries:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_paper_queries_parse(self, name):
        path = parse_xpath(PAPER_QUERIES[name])
        assert path.absolute
        assert path.steps

    def test_q3_structure(self):
        path = parse_xpath(PAPER_QUERIES["Q3"])
        tags = [step.test.tag for step in path.steps if isinstance(step, ChildStep)]
        assert tags == ["sites", "site", "people", "person", "creditcard"]
        qualifier = next(s.qualifier for s in path.steps if isinstance(s, QualifiedStep))
        assert isinstance(qualifier, AndQual)


class TestParserErrors:
    @pytest.mark.parametrize(
        "query",
        [
            "",
            "   ",
            "a/",
            "/",
            "a[b",
            "a]b",
            "a[and]",
            "a[not b]",
            "a[b = ]",
            'a[text() > "x"]',
            "a[b/text() = 5]",
            "a[b/val() = 'x']",
            "a b",
            "a[b/text() < 'x']",
        ],
    )
    def test_malformed_queries_rejected(self, query):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(query)

    def test_error_points_at_position(self):
        try:
            parse_xpath("a[b = ]")
        except XPathSyntaxError as error:
            assert error.position is not None
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")


def or_chain(width: int) -> str:
    return "//broker[" + " or ".join(["name"] * width) + "]/name"


def nested(depth: int) -> str:
    return "//broker" + "[." * depth + "]" * depth + "/name"


HOSTILE = 10_000


class TestQueryDepthBound:
    """Hostile nesting and width end in one XPathSyntaxError naming the bound,
    found before any recursive descent; every query inside it evaluates."""

    @pytest.mark.parametrize("query", [
        nested(HOSTILE),
        "//a" + "[b" * HOSTILE,
        or_chain(HOSTILE),
        "//a[" + " and ".join(["b"] * HOSTILE) + "]",
        "//a[" + "not(" * HOSTILE + "b" + ")" * HOSTILE + "]",
        "//a[" + "(" * HOSTILE + "b" + ")" * HOSTILE + "]",
    ], ids=["nested", "nested-unclosed", "or-chain", "and-chain", "not", "parentheses"])
    def test_hostile_queries_end_in_a_syntax_error(self, query):
        with pytest.raises(XPathSyntaxError, match=f"deeper than {MAX_QUERY_DEPTH} levels"):
            parse_xpath(query)

    @pytest.mark.parametrize("query, over", [
        (or_chain(MAX_QUERY_DEPTH - 1), or_chain(MAX_QUERY_DEPTH)),
        (nested(MAX_QUERY_DEPTH - 1), nested(MAX_QUERY_DEPTH)),
    ], ids=["or-chain", "nested"])
    def test_queries_at_the_bound_evaluate(self, query, over):
        with pytest.raises(XPathSyntaxError, match="deeper than"):
            parse_xpath(over)
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        expected = evaluate_centralized(fragmentation.tree, query).answer_ids
        assert expected
        for algorithm in ("pax2", "pax3"):
            engine = DistributedQueryEngine(fragmentation, algorithm=algorithm)
            assert engine.run(query).answer_ids == expected, algorithm
