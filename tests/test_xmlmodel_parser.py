"""Unit tests for the from-scratch XML parser (repro.xmlmodel.parser)."""

import pickle

import pytest

from repro.xmlmodel import (
    Comment,
    Element,
    ProcessingInstruction,
    Text,
    XMLSyntaxError,
    parse,
    parse_file,
    parse_many,
    serialize,
)


class TestBasicParsing:
    def test_minimal_document(self):
        doc = parse("<db/>")
        assert doc.root.tag == "db"
        assert doc.root.children == []

    def test_nested_elements(self):
        doc = parse("<db><book><title>DB Design</title></book></db>")
        assert doc.root.find("book").find_text("title") == "DB Design"

    def test_attributes_double_quotes(self):
        doc = parse('<book publisher="mkp" year="1998"/>')
        assert doc.root.get_attribute("publisher") == "mkp"
        assert doc.root.get_attribute("year") == "1998"

    def test_attributes_single_quotes(self):
        doc = parse("<book publisher='mkp'/>")
        assert doc.root.get_attribute("publisher") == "mkp"

    def test_mixed_quotes_value_content(self):
        doc = parse("<a x='say \"hi\"'/>")
        assert doc.root.get_attribute("x") == 'say "hi"'

    def test_empty_attribute(self):
        doc = parse('<a x=""/>')
        assert doc.root.get_attribute("x") == ""

    def test_whitespace_around_equals(self):
        doc = parse('<a x = "1"/>')
        assert doc.root.get_attribute("x") == "1"

    def test_self_closing_with_space(self):
        doc = parse("<db ><book /></db >")
        assert doc.root.find("book") is not None

    def test_text_preserved_exactly(self):
        doc = parse("<a>  two  spaces  </a>")
        assert doc.root.text == "  two  spaces  "

    def test_strip_whitespace_mode(self):
        doc = parse("<db>\n  <x>1</x>\n</db>", strip_whitespace=True)
        assert all(not isinstance(c, Text) for c in doc.root.children)

    def test_strip_whitespace_keeps_real_text(self):
        doc = parse("<x>  real  </x>", strip_whitespace=True)
        assert doc.root.text == "  real  "


class TestReferences:
    def test_predefined_entities(self):
        doc = parse("<a>&amp;&lt;&gt;&quot;&apos;</a>")
        assert doc.root.text == "&<>\"'"

    def test_decimal_char_reference(self):
        assert parse("<a>&#65;</a>").root.text == "A"

    def test_hex_char_reference(self):
        assert parse("<a>&#x41;&#x20AC;</a>").root.text == "A€"

    def test_entities_in_attributes(self):
        doc = parse('<a x="a&amp;b&#x21;"/>')
        assert doc.root.get_attribute("x") == "a&b!"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&nbsp;</a>")

    def test_bare_ampersand_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>fish & chips</a>")

    def test_null_char_reference_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&#0;</a>")

    def test_out_of_range_reference_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&#1114112;</a>")

    def test_empty_char_reference_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&#;</a>")


class TestStructuralNodes:
    def test_comment(self):
        doc = parse("<a><!-- note --></a>")
        assert isinstance(doc.root.children[0], Comment)
        assert doc.root.children[0].value == " note "

    def test_comment_with_double_dash_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><!-- bad -- comment --></a>")

    def test_processing_instruction(self):
        doc = parse("<a><?php echo 1; ?></a>")
        pi = doc.root.children[0]
        assert isinstance(pi, ProcessingInstruction)
        assert pi.target == "php"
        assert pi.data == "echo 1; "

    def test_pi_xml_target_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><?xml bad?></a>")

    def test_cdata(self):
        doc = parse("<a><![CDATA[<not> & parsed]]></a>")
        assert doc.root.text == "<not> & parsed"

    def test_cdata_merges_with_text(self):
        doc = parse("<a>x<![CDATA[&]]>y</a>")
        assert doc.root.text == "x&y"
        assert len(doc.root.children) == 1

    def test_xml_declaration(self):
        doc = parse('<?xml version="1.0" encoding="UTF-8"?><db/>')
        assert doc.root.tag == "db"

    def test_doctype_skipped(self):
        doc = parse('<!DOCTYPE db SYSTEM "db.dtd"><db/>')
        assert doc.root.tag == "db"

    def test_doctype_internal_subset_skipped(self):
        text = '<!DOCTYPE db [ <!ELEMENT db (#PCDATA)> ]><db>x</db>'
        assert parse(text).root.text == "x"

    def test_prolog_comment_captured(self):
        doc = parse("<!-- header --><db/>")
        assert len(doc.prolog) == 1
        assert isinstance(doc.prolog[0], Comment)

    def test_epilog_comment_captured(self):
        doc = parse("<db/><!-- trailer -->")
        assert len(doc.epilog) == 1


class TestWellFormedness:
    def test_mismatched_tags(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><b></a></b>")

    def test_unterminated_element(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><b></b>")

    def test_duplicate_attribute(self):
        with pytest.raises(XMLSyntaxError):
            parse('<a x="1" x="2"/>')

    def test_unquoted_attribute(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a x=1/>")

    def test_lt_in_attribute(self):
        with pytest.raises(XMLSyntaxError):
            parse('<a x="a<b"/>')

    def test_content_after_root(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/><b/>")

    def test_text_outside_root(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/>stray")

    def test_missing_root(self):
        with pytest.raises(XMLSyntaxError):
            parse("   ")

    def test_cdata_terminator_in_text(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>bad ]]> text</a>")

    def test_missing_attr_space(self):
        with pytest.raises(XMLSyntaxError):
            parse('<a x="1"y="2"/>')

    def test_unterminated_comment(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><!-- never closed</a>")

    def test_unterminated_cdata(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><![CDATA[never closed</a>")

    def test_garbage_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse("<1bad/>")

    def test_error_positions(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse("<a>\n<b>\n</c>\n</a>")
        assert excinfo.value.line >= 1
        assert excinfo.value.column >= 1
        assert "line" in str(excinfo.value)

    def test_non_string_input(self):
        with pytest.raises(TypeError):
            parse(b"<a/>")  # type: ignore[arg-type]


class TestRoundTrip:
    CASES = [
        "<db/>",
        "<db><book/><book/></db>",
        '<book publisher="mkp"><title>Readings in Database Systems</title></book>',
        "<a>text &amp; entities &lt;here&gt;</a>",
        "<a><!--c--><b>x</b><?pi data?></a>",
        "<a>mixed <b>bold</b> tail</a>",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_serialize_fixpoint(self, text):
        assert serialize(parse(text)) == text

    def test_paper_figure1_document(self):
        """The literal db1.xml fragment from Figure 1 of the paper parses."""
        text = (
            "<db>"
            '<book publisher="mkp">'
            "<title>Readings in Database Systems</title>"
            "<author>Stonebraker</author>"
            "<author>Hellerstein</author>"
            "<editor>Harrypotter</editor>"
            "<year>1998</year>"
            "</book>"
            '<book publisher="acm">'
            "<title>Database Design</title>"
            "<writer>Berstein</writer>"
            "<writer>Newcomer</writer>"
            "<editor>Gamer</editor>"
            "<year>1998</year>"
            "</book>"
            "</db>"
        )
        doc = parse(text)
        books = doc.root.child_elements("book")
        assert len(books) == 2
        assert books[0].find_text("year") == "1998"
        assert serialize(doc) == text


class TestParseFile:
    def test_parse_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<db><x>1</x></db>", encoding="utf-8")
        doc = parse_file(str(path))
        assert doc.root.find_text("x") == "1"


class TestEndOfLineNormalization:
    """XML 1.0 §2.11: \\r\\n and bare \\r become \\n before parsing."""

    def test_crlf_in_text(self):
        assert parse("<a>x\r\ny</a>").root.text == "x\ny"

    def test_bare_cr_in_text(self):
        assert parse("<a>x\ry</a>").root.text == "x\ny"

    def test_cr_in_cdata(self):
        assert parse("<a><![CDATA[x\r\ny\rz]]></a>").root.text == "x\ny\nz"

    def test_cr_in_attribute(self):
        assert parse('<a v="x\ry"/>').root.get_attribute("v") == "x\ny"

    def test_character_reference_cr_survives(self):
        assert parse("<a>&#13;&#xD;</a>").root.text == "\r\r"

    def test_cr_as_markup_whitespace(self):
        doc = parse('<a\r\nx="1"\r/>')
        assert doc.root.get_attribute("x") == "1"

    def test_error_lines_count_normalized_newlines(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse("<a>\r\n<b>\r\n</c>\r\n</a>")
        assert excinfo.value.line == 2


class TestByteOrderMark:
    """XML 1.0 §4.3.3: a leading U+FEFF is an encoding signature."""

    def test_leading_bom_is_skipped(self):
        doc = parse("\ufeff<a>1</a>")
        assert doc.root.tag == "a"
        assert doc.root.text == "1"
        assert serialize(doc) == serialize(parse("<a>1</a>"))

    def test_xml_declaration_may_follow_the_bom(self):
        doc = parse('\ufeff<?xml version="1.0"?><a>1</a>')
        assert serialize(doc) == serialize(parse("<a>1</a>"))

    def test_only_one_bom_is_skipped(self):
        with pytest.raises(XMLSyntaxError):
            parse("\ufeff\ufeff<a/>")

    def test_bom_after_the_root_is_content_after_document_end(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/>\ufeff")


class TestScannerDepth:
    def test_deep_nesting_needs_no_recursion(self):
        depth = 3000
        text = "<d>" * depth + "x" + "</d>" * depth
        doc = parse(text)
        node, levels = doc.root, 1
        while node.children and isinstance(node.children[0], Element):
            node = node.children[0]
            levels += 1
        assert levels == depth
        assert node.text == "x"


class TestParseBuiltIndexes:
    """The scanner populates the tree's indexes during the parse."""

    TEXT = ('<db><book publisher="mkp"><title>A</title></book>'
            "<book><title>B</title></book><note/></db>")

    def test_child_index_matches_children(self):
        root = parse(self.TEXT).root
        books = root.children_by_tag("book")
        assert books == [c for c in root.children
                         if isinstance(c, Element) and c.tag == "book"]
        assert root.children_by_tag("missing") == []

    def test_descendant_index_matches_walk(self):
        root = parse(self.TEXT).root
        assert (root.descendants_by_tag("title")
                == list(root.iter_elements("title")))

    def test_order_index_matches_lazy_rebuild(self):
        eager = parse(self.TEXT).root
        lazy = parse(self.TEXT).root
        lazy._order_cache = None

        def ranks(root, order):
            out = []
            for node in root.iter():
                out.append(order[id(node)])
                if isinstance(node, Element):
                    out.extend(order[(id(node), name)]
                               for name in node.attributes)
            return out

        assert (ranks(eager, eager.order_index())
                == ranks(lazy, lazy.order_index()))

    def test_mutation_invalidates_parse_built_indexes(self):
        root = parse(self.TEXT).root
        first = root.children_by_tag("book")[0]
        first.detach()
        assert len(root.children_by_tag("book")) == 1
        assert id(first) not in root.order_index()
        assert first not in root.descendants_by_tag("book")

    def test_pickle_drops_order_cache_and_rebuilds(self):
        doc = parse(self.TEXT)
        clone = pickle.loads(pickle.dumps(doc))
        assert clone.root._order_cache is None
        assert serialize(clone) == self.TEXT
        assert clone.root.order_index()[id(clone.root)] == 0


class TestParseMany:
    TEXTS = ["<a><b>1</b></a>", "<c/>", '<d x="1">t</d>']

    def test_serial_preserves_order(self):
        docs = parse_many(self.TEXTS)
        assert [serialize(d) for d in docs] == self.TEXTS

    def test_empty_batch(self):
        assert parse_many([]) == []

    def test_strip_whitespace_mode(self):
        docs = parse_many(["<db>\n  <x>1</x>\n</db>"], strip_whitespace=True)
        assert all(not isinstance(c, Text) for c in docs[0].root.children)

    def test_process_pool_matches_serial(self):
        pooled = parse_many(self.TEXTS * 3, processes=2)
        assert [serialize(d) for d in pooled] == self.TEXTS * 3

    def test_process_pool_documents_fully_usable(self):
        doc = parse_many(self.TEXTS, processes=2)[0]
        assert doc.root.children_by_tag("b")[0].text == "1"
        assert doc.root.order_index()[id(doc.root)] == 0

    def test_syntax_error_propagates_from_pool(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_many(["<a/>", "<a><b></a>"], processes=2)
        assert excinfo.value.line >= 1

    def test_pool_falls_back_to_serial_for_unpicklably_deep_trees(self):
        depth = 4000
        text = "<d>" * depth + "x" + "</d>" * depth
        docs = parse_many([text, "<a/>"], processes=2)
        assert serialize(docs[1]) == "<a/>"
        assert docs[0].root.tag == "d"
