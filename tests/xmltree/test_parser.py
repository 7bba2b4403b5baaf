"""Unit tests for the XML parser."""

import gc
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fragments.fragment_tree import build_fragmentation
from repro.workloads.scenarios import build_ft1, build_ft2
from repro.xmltree.errors import XMLSyntaxError
from repro.xmltree.nodes import XMLTree
from repro.xmltree.parser import parse_xml
from repro.xmltree.serializer import serialize


def node_list(tree):
    """The document as a flat list: a tag per element, ``("#text", value)`` per text node."""
    return [node.tag if node.is_element else ("#text", node.value) for node in tree.iter_nodes()]


class TestBasicParsing:
    def test_simple_document(self):
        tree = parse_xml("<a><b>hi</b><c/></a>")
        assert tree.root.tag == "a"
        assert [c.tag for c in tree.root.element_children()] == ["b", "c"]
        assert tree.root.children[0].text() == "hi"

    def test_whitespace_between_elements_dropped(self):
        tree = parse_xml("<a>\n  <b>x</b>\n  <c>y</c>\n</a>")
        assert tree.size() == 5  # a, b, text, c, text

    def test_whitespace_kept_on_request(self):
        tree = parse_xml("<a> <b>x</b></a>", keep_whitespace_text=True)
        assert any(node.is_text and node.value == " " for node in tree.iter_nodes())

    def test_attributes_are_ignored(self):
        tree = parse_xml('<item id="42" status="new"><name>x</name></item>')
        assert tree.root.tag == "item"
        assert tree.root.children[0].tag == "name"

    def test_attribute_value_containing_gt(self):
        tree = parse_xml('<a note="5 > 3"><b/></a>')
        assert tree.root.children[0].tag == "b"

    def test_self_closing_tags(self):
        tree = parse_xml("<a><b/><c/></a>")
        assert [c.tag for c in tree.root.children] == ["b", "c"]

    def test_declaration_comment_cdata(self):
        doc = (
            '<?xml version="1.0"?><!-- top --><root><!-- inner -->'
            "<item><![CDATA[5 < 6 & more]]></item></root>"
        )
        tree = parse_xml(doc)
        assert tree.root.children[0].text() == "5 < 6 & more"

    def test_entities_unescaped(self):
        tree = parse_xml("<a>&lt;tag&gt; &amp; &quot;x&quot; &#65;&#x42;</a>")
        assert tree.root.text() == '<tag> & "x" AB'

    def test_doctype_skipped(self):
        tree = parse_xml("<!DOCTYPE sites><sites><site/></sites>")
        assert tree.root.tag == "sites"


class TestErrors:
    @pytest.mark.parametrize(
        "document",
        [
            "",
            "   ",
            "<a><b></a>",
            "<a>",
            "<a></a><b></b>",
            "<a><b></b></a>trailing text",
            "<a attr=unquoted></a>",
            "<a><![CDATA[unterminated</a>",
            "<>bad</>",
        ],
    )
    def test_malformed_documents_rejected(self, document):
        with pytest.raises(XMLSyntaxError):
            parse_xml(document)

    def test_error_carries_position(self):
        try:
            parse_xml("<a><b></c></a>")
        except XMLSyntaxError as error:
            assert error.position is not None
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "document",
        [
            "<a><b>hello</b><c><d>1</d><d>2</d></c></a>",
            "<clientele><client><name>Anna</name><country>US</country></client></clientele>",
            "<x><y/><z>5 &amp; 6</z></x>",
        ],
    )
    def test_parse_serialize_parse_is_stable(self, document):
        tree1 = parse_xml(document)
        text1 = serialize(tree1)
        tree2 = parse_xml(text1)
        assert serialize(tree2) == text1
        assert tree2.size() == tree1.size()

    def test_pretty_serialization_reparses_identically(self):
        tree = parse_xml("<a><b>hi</b><c><d>x</d></c></a>")
        pretty = serialize(tree, pretty=True, declaration=True)
        assert "  " in pretty and pretty.startswith("<?xml")
        assert parse_xml(pretty).element_count() == tree.element_count()

    def test_serialized_text_is_pinned_byte_for_byte(self):
        document = "<a>t<b>hi</b><c><d>x &lt; y</d><e/></c>u &amp; v</a>"
        tree = parse_xml(document)
        assert serialize(tree) == document
        assert serialize(tree, pretty=True, declaration=True) == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            "<a>\n  t\n  <b>hi</b>\n  <c>\n    <d>x &lt; y</d>\n    <e/>\n  </c>\n  u &amp; v\n</a>\n"
        )


class TestAcceptedInputs:
    """The parser contract, accepted side: input -> the exact node list."""

    @pytest.mark.parametrize(
        "document, expected",
        [
            # a comment, a PI or a CDATA boundary ends the current text run
            ("<a>x<!-- c -->y</a>", ["a", ("#text", "x"), ("#text", "y")]),
            ("<a>x<?pi data?>y</a>", ["a", ("#text", "x"), ("#text", "y")]),
            ("<a>x<![CDATA[<y>]]>z</a>", ["a", ("#text", "x"), ("#text", "<y>"), ("#text", "z")]),
            ("<a>x<![CDATA[]]>z</a>", ["a", ("#text", "x"), ("#text", "z")]),
            ("<a><![CDATA[ ]]>z</a>", ["a", ("#text", "z")]),
            # entity and character references do not
            ("<a>x&amp;y&#65;&#x42;z</a>", ["a", ("#text", "x&yABz")]),
            ("<a>&lt;b&gt;</a>", ["a", ("#text", "<b>")]),
            # attributes are parsed and dropped, whatever their values hold
            ('<a k="1 > 0" j=\'/>\'><b k="&amp;"/></a>', ["a", "b"]),
            # line ends are normalised
            ("<a>l1\r\nl2\rl3</a>", ["a", ("#text", "l1\nl2\nl3")]),
            # prolog and epilog are skipped; names may be non-ASCII
            ('<?xml version="1.0"?>\n<!DOCTYPE é>\n<é>ü</é>\n<!-- end -->\n', ["é", ("#text", "ü")]),
            ("<a>\n  <b>x</b>\n  <c/>\n</a>", ["a", "b", ("#text", "x"), "c"]),
        ],
    )
    def test_exact_node_list(self, document, expected):
        assert node_list(parse_xml(document)) == expected

    def test_keep_whitespace_text(self):
        tree = parse_xml("<a> <b>x</b>\n<!-- c --> </a> ", keep_whitespace_text=True)
        assert node_list(tree) == [
            "a", ("#text", " "), "b", ("#text", "x"), ("#text", "\n"), ("#text", " "),
        ]

    def test_entity_inside_a_long_text_run_stays_one_node(self):
        half = "x" * 100_000  # many times expat's text buffer
        tree = parse_xml(f"<a>{half}&amp;{half}</a>")
        assert node_list(tree) == ["a", ("#text", f"{half}&{half}")]

    def test_tags_and_texts_are_interned(self):
        tree = parse_xml("<a><b>same text</b><b>same text</b></a>")
        first, second = tree.root.children
        assert first.tag is second.tag
        assert first.children[0].value is second.children[0].value

    def test_nodes_are_numbered_in_document_order_without_a_walk(self):
        tree = parse_xml("<a>t<b><c/>u</b><!-- x -->v<d/></a>")
        assert [node.node_id for node in tree.iter_nodes()] == list(range(tree.size()))
        assert all(tree.node(node.node_id) is node for node in tree.iter_nodes())
        assert all(child.parent is node for node in tree.iter_nodes() for child in node.children)


#: each entity is ten of the one before: &lol9; would expand to 10^9 "lol"s
BILLION_LAUGHS = (
    '<?xml version="1.0"?><!DOCTYPE lolz [<!ENTITY lol0 "lol">'
    + "".join(f'<!ENTITY lol{n} "{f"&lol{n - 1};" * 10}">' for n in range(1, 10))
    + "]><lolz>&lol9;</lolz>"
)


class TestRejectedInputs:
    """The parser contract, rejected side: always XMLSyntaxError, and
    ``position`` is a character offset of the offending spot (the end of the
    input when something is missing)."""

    @pytest.mark.parametrize(
        "document, position, found_there",
        [
            ("", 0, ""),
            (" \n ", 3, ""),
            ("<a>", 3, ""),
            ("<a><![CDATA[open</a>", 20, ""),
            ("<a><b></c></a>", 8, "c"),
            ("<a/><b/>", 4, "<"),
            ("<a/>tail", 4, "t"),
            ("<a k=v/>", 5, "v"),
            ("<>x</>", 1, ">"),
            # well-formedness the hand-written scanner let through
            ("<a>x & y</a>", 6, " "),
            ("<a>&nbsp;</a>", 3, "&"),
            ('<a k="1" k="2"/>', 9, "k"),
            ('<a k="<"/>', 6, "<"),
            ("<a>&#0;</a>", 3, "&"),
            ("<a>\x00</a>", 3, "\x00"),
            # positions count characters, not UTF-8 bytes
            ("<a>ééé<b></c></a>", 11, "c"),
            ("<é>€€&nbsp;</é>", 5, "&"),
            # lone surrogates cannot be handed to expat at all
            ("<a>\ud800</a>", 3, "\ud800"),
            # entity declarations are refused, not expanded (the position is
            # where expat stood inside the declaration when it reported it)
            ('<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>', 24, '"'),
            ('<!DOCTYPE a [<!ENTITY % p "x">]><a/>', 26, '"'),
            ('<!DOCTYPE a [<!ENTITY e SYSTEM "file:///etc/passwd">]><a>&e;</a>', 51, ">"),
            # behind an external DTD expat would skip an unknown reference
            ('<!DOCTYPE a SYSTEM "a.dtd"><a>b&e;c</a>', 31, "&"),
        ],
    )
    def test_typed_error_with_character_position(self, document, position, found_there):
        with pytest.raises(XMLSyntaxError) as caught:
            parse_xml(document)
        assert caught.value.position == position
        assert document[position : position + 1] == found_there
        assert f"(at offset {position})" in str(caught.value)

    def test_billion_laughs_fails_fast(self):
        started = time.perf_counter()
        with pytest.raises(XMLSyntaxError, match="entity declarations are not supported"):
            parse_xml(BILLION_LAUGHS)
        assert time.perf_counter() - started < 1.0


#: pieces that make arbitrary text look enough like XML to get past the prolog
XMLISH = st.lists(
    st.one_of(
        st.sampled_from([
            "<a>", "</a>", "<b>", "</b>", "<c/>", "<a k='v'>", "&amp;", "&#65;", "&x;", "&", "<",
            "<!--", "-->", "<![CDATA[", "]]>", "<?pi", "?>", "<!DOCTYPE a [", "<!ENTITY e 'x'>",
            "]>", " ", "\r\n", "text", "é", "\ud800", "\x00",
        ]),
        st.text(max_size=5),
    ),
    max_size=30,
).map("".join)


class TestNothingButTreesAndSyntaxErrors:
    @settings(max_examples=300, deadline=None)
    @given(document=st.one_of(st.text(), XMLISH), keep=st.booleans(), gc_on=st.booleans())
    def test_any_text_parses_or_raises_the_typed_error(self, document, keep, gc_on):
        was_enabled = gc.isenabled()
        (gc.enable if gc_on else gc.disable)()
        try:
            try:
                tree = parse_xml(document, keep_whitespace_text=keep)
            except XMLSyntaxError as error:
                assert error.position is None or 0 <= error.position <= len(document)
            else:
                assert isinstance(tree, XMLTree)
                assert [node.node_id for node in tree.iter_nodes()] == list(range(tree.size()))
            assert gc.isenabled() == gc_on  # left as found, also on the error path
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestAgainstGeneratedTrees:
    """Identity against trees the generator built node by node (never
    parsed), so nothing here leans on a parser to define the expectation."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_ft1(fragment_count=4, total_bytes=30_000, seed=3),
            lambda: build_ft1(fragment_count=8, total_bytes=20_000, seed=19),
            lambda: build_ft2(total_bytes=40_000, seed=5),
            lambda: build_ft2(total_bytes=25_000, seed=23),
        ],
    )
    def test_parse_of_serialize_is_the_same_document(self, build):
        original = build().tree
        parsed = parse_xml(serialize(original))
        assert parsed.size() == original.size()
        assert (
            build_fragmentation(parsed, []).content_fingerprint()
            == build_fragmentation(original, []).content_fingerprint()
        )
        for index, node in enumerate(parsed.iter_nodes()):
            assert node.node_id == index
            assert parsed.node(index) is node
        # pretty-printing only adds whitespace-only runs, which are dropped
        assert node_list(parse_xml(serialize(original, pretty=True, declaration=True))) == node_list(original)
