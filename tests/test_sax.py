"""Streaming XML reader: supported subset, errors, streaming bounds."""

import io
import itertools
import tracemalloc

import pytest

from helpers import documents_for, flatten_tree, next_event, random_grammar, serialize_tree
from xmlgram.events import (
    Element,
    EndTag,
    StartTag,
    TextEvt,
    TextNode,
    build_tree,
)
from xmlgram.sax import MAX_TOKEN, _CHUNK, MalformedXml, SaxReader, UnsupportedFeature, XmlReadError
from xmlgram.sax import read_events


def events(text: str, **kw) -> list:
    return list(read_events(text, **kw))


def test_self_closing_expands_to_start_end():
    assert events('<B n="foo"/>') == [StartTag("B", {"n": "foo"}), EndTag("B")]


def test_sibling_elements():
    assert events("<A><B/><C/></A>") == [
        StartTag("A", {}),
        StartTag("B", {}),
        EndTag("B"),
        StartTag("C", {}),
        EndTag("C"),
        EndTag("A"),
    ]


def test_text_content():
    assert events("<A>hi</A>") == [StartTag("A", {}), TextEvt("hi"), EndTag("A")]


def test_entity_decoding_in_text_and_attrs():
    got = events('<A k="a&amp;b&quot;c">x &lt; y &gt; z &apos;</A>')
    assert got[0] == StartTag("A", {"k": 'a&b"c'})
    assert got[1] == TextEvt("x < y > z '")


def test_unknown_entity_rejected():
    with pytest.raises(MalformedXml):
        events("<A>&bogus;</A>")


def test_whitespace_only_text_dropped_by_default():
    assert events("<A>\n  <B/>\n</A>") == [
        StartTag("A", {}),
        StartTag("B", {}),
        EndTag("B"),
        EndTag("A"),
    ]


def test_keep_whitespace_flag():
    got = events("<A> <B/></A>", keep_whitespace=True)
    assert got[1] == TextEvt(" ")


def test_comments_skipped_and_text_coalesces():
    assert events("<A>hi<!-- note -->there</A>") == [
        StartTag("A", {}),
        TextEvt("hithere"),
        EndTag("A"),
    ]


def test_xml_declaration_skipped():
    assert events('<?xml version="1.0" encoding="UTF-8"?>\n<A/>') == [
        StartTag("A", {}),
        EndTag("A"),
    ]


def test_single_quoted_attributes():
    assert events("<A k='v'/>")[0] == StartTag("A", {"k": "v"})


def test_mismatched_end_tag():
    with pytest.raises(MalformedXml) as exc:
        events("<A><B></A></B>")
    assert "mismatched end tag" in str(exc.value)


def test_stray_end_tag():
    with pytest.raises(MalformedXml):
        events("<A/></A>")


def test_unclosed_element():
    with pytest.raises(MalformedXml) as exc:
        events("<A><B>")
    assert "unexpected end of input" in str(exc.value)


def test_stray_lt_in_text():
    with pytest.raises(MalformedXml):
        events("<A>a < b</A>")


def test_bad_attribute_syntax():
    with pytest.raises(MalformedXml) as exc:
        events("<A k=v/>")
    assert (exc.value.line, exc.value.column) == (1, 6)


def test_duplicate_attribute():
    with pytest.raises(MalformedXml) as exc:
        events('<A k="1" k="2"/>')
    assert "duplicate" in str(exc.value)


def test_multiple_roots_rejected():
    with pytest.raises(MalformedXml):
        events("<A/><B/>")


def test_text_outside_root_rejected():
    with pytest.raises(MalformedXml):
        events("<A/>junk")


def test_doctype_unsupported():
    with pytest.raises(UnsupportedFeature):
        events("<!DOCTYPE html><A/>")


def test_cdata_unsupported():
    with pytest.raises(UnsupportedFeature):
        events("<A><![CDATA[x]]></A>")


def test_processing_instruction_unsupported():
    with pytest.raises(UnsupportedFeature):
        events("<A><?php 1 ?></A>")


def test_namespace_prefix_unsupported():
    with pytest.raises(UnsupportedFeature):
        events("<ns:A/>")
    with pytest.raises(UnsupportedFeature):
        events('<A ns:k="1"/>')


def test_error_position_line_column():
    with pytest.raises(MalformedXml) as exc:
        events("<A>\n  <B></C>\n</A>")
    assert exc.value.line == 2


def test_attr_value_may_contain_gt():
    assert events('<A k="x>y"/>')[0] == StartTag("A", {"k": "x>y"})


_corpus = [
    Element("A", {}, ()),
    Element("A", {"k": "v"}, (TextNode("hi"),)),
    Element(
        "Doc",
        {"a": "1", "b": "two"},
        (
            Element("Sec", {}, (TextNode("x & y < z"),)),
            Element("Sec", {"t": 'q"q', "w": "tab\tlf\ncr\r"}, (Element("Leaf", {}, ()),)),
            TextNode("tail"),
        ),
    ),
]


def test_composition_law_reader_equals_flatten():
    for tree in _corpus:
        assert events(serialize_tree(tree), keep_whitespace=True) == flatten_tree(tree)


def test_reader_state_is_bounded_on_long_documents():
    n = 50_000
    doc = "<A>" + "".join(f'<B i="{i}"/>' for i in range(n)) + "</A>"
    reader = SaxReader(io.StringIO(doc))
    count = sum(1 for _ in reader)
    assert count == 2 * n + 2
    # no chunk handed to the parser is larger than the chunk size
    assert reader.max_window < (1 << 16) + 4096


class _LazyDocument:
    """A file-like source that joins ``parts`` as it is read; ``read_chars``
    counts what it has handed out."""

    def __init__(self, parts):
        self._parts = iter(parts)
        self._pending = ""
        self.read_chars = 0

    def read(self, size: int) -> str:
        while len(self._pending) < size:
            part = next(self._parts, None)
            if part is None:
                break
            self._pending += part
        out, self._pending = self._pending[:size], self._pending[size:]
        self.read_chars += len(out)
        return out


def test_reader_memory_does_not_grow_with_document_length():
    peaks = []
    for n in (10_000, 40_000):
        siblings = (f'<B i="{i}"/>' for i in range(n))
        reader = SaxReader(_LazyDocument(itertools.chain(["<A>"], siblings, ["</A>"])))
        tracemalloc.start()
        try:
            count = sum(1 for _ in reader)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert count == 2 * n + 2
        assert reader.max_window == _CHUNK
    # 4x the document (about 0.6 MB) leaves the peak within one chunk's events
    assert peaks[1] < peaks[0] + 64 * 1024, peaks


@pytest.mark.parametrize("head", ["<A><!--", '<A><B k="'])
def test_an_unclosed_token_stops_the_reader_past_its_cap(head):
    """Expat keeps a token whole until it ends, so the reader gives up once
    it has fed ``MAX_TOKEN`` characters without expat moving on.  The source
    ends only after four times that, where expat would report the token.
    The peak is about three times the cap: expat doubles its buffer by
    copying it into a new one."""
    source = _LazyDocument(itertools.chain([head], itertools.repeat("x" * 1000, 4 * MAX_TOKEN // 1000)))
    reader = SaxReader(source)
    assert next_event(reader) == StartTag("A", {})
    tracemalloc.start()
    try:
        with pytest.raises(MalformedXml, match="longer than") as error:
            next_event(reader)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (error.value.line, error.value.column) == (1, 4)  # where the token starts
    assert source.read_chars <= MAX_TOKEN + 3 * _CHUNK
    assert peak < 4 * MAX_TOKEN, peak


def test_long_text_and_comment_runs_pass_the_token_cap():
    """Text reaches the handlers once per expat buffer, and each comment ends
    a token, so neither leaves expat standing still for ``MAX_TOKEN``."""
    text = "y" * (MAX_TOKEN + 3 * _CHUNK)
    assert list(SaxReader(_LazyDocument(["<A>", text, "</A>"]))) == [
        StartTag("A", {}),
        TextEvt(text),
        EndTag("A"),
    ]
    comments = itertools.repeat("<!-- c -->", 2 * MAX_TOKEN // 10)
    reader = SaxReader(_LazyDocument(itertools.chain(["<A>"], comments, ["<B/></A>"])))
    assert list(reader) == [StartTag("A", {}), StartTag("B", {}), EndTag("B"), EndTag("A")]


def test_every_end_tag_of_a_name_is_one_object():
    got = events("<A><B/><B>x</B><C/><B k='1'/></A>")
    ends = [event for event in got if type(event) is EndTag and event.tag == "B"]
    assert len(ends) == 3
    assert all(end is ends[0] for end in ends)
    assert ends[0] == EndTag("B") and ends[0] != EndTag("C")
    assert got[-1] == EndTag("A")


def test_incremental_pull():
    reader = SaxReader("<A><B/></A>")
    assert next_event(reader) == StartTag("A", {})
    assert next_event(reader) == StartTag("B", {})
    assert next_event(reader) == EndTag("B")
    assert next_event(reader) == EndTag("A")
    assert next_event(reader) is None
    assert next_event(reader) is None


def test_reader_accepts_file_objects(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text("<A><B/></A>", encoding="utf-8")
    with open(path, "r", encoding="utf-8") as handle:
        assert len(list(SaxReader(handle))) == 4


def test_build_tree_from_reader_round_trip():
    tree = _corpus[2]
    assert build_tree(read_events(serialize_tree(tree), keep_whitespace=True)) == tree


def test_events_before_an_error_are_delivered_first():
    reader = SaxReader("<A><B/><C></A>")
    assert [next_event(reader) for _ in range(4)] == [
        StartTag("A", {}),
        StartTag("B", {}),
        EndTag("B"),
        StartTag("C", {}),
    ]
    with pytest.raises(MalformedXml):
        next_event(reader)


def test_text_coalesces_across_chunk_boundaries():
    body = "x" * (3 * _CHUNK)
    assert events(f"<A>{body}<!-- c -->{body}</A>") == [StartTag("A", {}), TextEvt(2 * body), EndTag("A")]


# Where the expat reader departs from the earlier hand-written tokenizer, on
# purpose: expat follows XML 1.0.  One row per difference; CHANGES.md lists
# the same rows.  An outcome is the event list or (error class, line, column).
READER_DECISIONS = [
    ("<A>&#65;&#x42;</A>", [StartTag("A", {}), TextEvt("AB"), EndTag("A")], "character-references-decoded"),
    ('<A k="a\nb\tc\rd"/>', [StartTag("A", {"k": "a b c d"}), EndTag("A")], "attribute-whitespace-normalised"),
    ("<A>a\r\nb</A>", [StartTag("A", {}), TextEvt("a\nb"), EndTag("A")], "crlf-in-text-reads-as-lf"),
    ("<A>\x01</A>", (MalformedXml, 1, 4), "control-character-rejected"),
    ("<A>]]></A>", (MalformedXml, 1, 6), "cdata-end-in-text-rejected"),
    ("<A><!-- a -- b --></A>", (MalformedXml, 1, 13), "double-hyphen-in-comment-rejected"),
    ("\ufeff<A/>", [StartTag("A", {}), EndTag("A")], "leading-bom-accepted"),
    (' <?xml version="1.0"?><A/>', (MalformedXml, 1, 2), "xml-declaration-after-whitespace-rejected"),
    ("<?xml?><A/>", (MalformedXml, 1, 6), "empty-xml-declaration-rejected"),
    ('<A k="1"m="2"/>', (MalformedXml, 1, 9), "attributes-without-space-rejected"),
    ('<A/><?xml version="1.0"?>', (MalformedXml, 1, 5), "xml-declaration-after-root-malformed"),
    ("<!DOCTYPE A><A/>", (UnsupportedFeature, 1, 12), "doctype-reported-at-its-end"),
    ("<é/>", (MalformedXml, 1, 1), "element-name-outside-the-grammar-language-rejected"),
    ('<A>\n <B é="1"/></A>', (MalformedXml, 2, 2), "attribute-name-outside-the-grammar-language-rejected"),
    (
        '<?xml version="1.0" encoding="ISO-8859-1"?><A>\xe9</A>'.encode("latin-1"),
        [StartTag("A", {}), TextEvt("\xe9"), EndTag("A")],
        "bytes-honour-declared-encoding",
    ),
]


@pytest.mark.parametrize(
    "source, outcome", [pytest.param(s, o, id=i) for s, o, i in READER_DECISIONS]
)
def test_reader_decisions_are_pinned(source, outcome):
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    if isinstance(outcome, list):
        assert events(source) == outcome
        return
    cls, line, column = outcome
    with pytest.raises(XmlReadError) as exc:
        events(source)
    assert (type(exc.value), exc.value.line, exc.value.column) == (cls, line, column)


def test_unencodable_string_is_malformed_where_it_occurs():
    with pytest.raises(MalformedXml) as exc:
        events("<A>\n<B/>x\ud800</A>")
    assert (exc.value.line, exc.value.column) == (2, 6)


def test_generated_documents_read_back_from_their_text():
    """The test generators never put two text nodes side by side, which
    XML text could not encode."""
    for seed in range(300):
        grammar = random_grammar(seed)
        for doc in documents_for(grammar, grammar.clauses[0].name, seed):
            assert build_tree(read_events(serialize_tree(doc), keep_whitespace=True)) == doc
