"""Streaming XML reader: supported subset, errors, streaming bounds."""

import contextlib
import gc
import io
import itertools
import pathlib
import random
import tracemalloc
from xml.parsers import expat

import pytest

from hypothesis import given, strategies as st

from helpers import ReferenceSaxReader, documents_for, flatten_tree, next_event, random_grammar
from helpers import random_tree, reference_form, serialize_tree
from xmlgram import sax
from xmlgram.events import (
    Element,
    TextEvt,
    TextNode,
    build_tree,
)
from xmlgram.sax import MAX_TOKEN, _CHUNK, MalformedXml, SaxReader, UnsupportedFeature, XmlReadError
from xmlgram.sax import read_events


def events(text: str, **kw) -> list:
    return list(read_events(text, **kw))


@contextlib.contextmanager
def chunk_size(size: int):
    """Read ``size`` characters or bytes at a time, in both readers."""
    saved, sax._CHUNK = sax._CHUNK, size
    try:
        yield
    finally:
        sax._CHUNK = saved


def test_self_closing_expands_to_start_end():
    assert events('<B n="foo"/>') == [("B", {"n": "foo"}), "B"]


def test_sibling_elements():
    assert events("<A><B/><C/></A>") == [
        ("A", {}),
        ("B", {}),
        "B",
        ("C", {}),
        "C",
        "A",
    ]


def test_text_content():
    assert events("<A>hi</A>") == [("A", {}), TextEvt("hi"), "A"]


def test_entity_decoding_in_text_and_attrs():
    got = events('<A k="a&amp;b&quot;c">x &lt; y &gt; z &apos;</A>')
    assert got[0] == ("A", {"k": 'a&b"c'})
    assert got[1] == TextEvt("x < y > z '")


def test_unknown_entity_rejected():
    with pytest.raises(MalformedXml):
        events("<A>&bogus;</A>")


def test_whitespace_only_text_dropped_by_default():
    assert events("<A>\n  <B/>\n</A>") == [
        ("A", {}),
        ("B", {}),
        "B",
        "A",
    ]


def test_keep_whitespace_flag():
    got = events("<A> <B/> \n </A>", keep_whitespace=True)
    assert got == [("A", {}), TextEvt(" "), ("B", {}), "B", TextEvt(" \n "), "A"]


def test_comments_skipped_and_text_coalesces():
    """Text before an end tag is flushed whole, across comments and, one
    character per chunk, across chunk boundaries."""
    for size in (_CHUNK, 1):
        with chunk_size(size):
            got = events("<A>hi<!-- note -->the<!---->re</A>")
        assert got == [("A", {}), TextEvt("hithere"), "A"]


def test_xml_declaration_skipped():
    assert events('<?xml version="1.0" encoding="UTF-8"?>\n<A/>') == [
        ("A", {}),
        "A",
    ]


def test_single_quoted_attributes():
    assert events("<A k='v'/>")[0] == ("A", {"k": "v"})


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
    assert events('<A k="x>y"/>')[0] == ("A", {"k": "x>y"})


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
    assert next_event(reader) == ("A", {})
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
        ("A", {}),
        TextEvt(text),
        "A",
    ]
    comments = itertools.repeat("<!-- c -->", 2 * MAX_TOKEN // 10)
    reader = SaxReader(_LazyDocument(itertools.chain(["<A>"], comments, ["<B/></A>"])))
    assert list(reader) == [("A", {}), ("B", {}), "B", "A"]


def test_every_end_tag_of_a_name_is_one_object():
    """An end tag is its name, the one ``str`` expat interns per name, so an
    element costs one new event object, its start tag's pair."""
    got = events("<A><B/><B>x</B><C/><B k='1'/></A>")
    ends = [event for event in got if type(event) is str and event == "B"]
    assert len(ends) == 3
    assert all(end is ends[0] for end in ends)
    assert [event for event in got if type(event) is tuple and event[0] == "B"][0][0] is ends[0]
    assert got[-1] == "A"


def test_incremental_pull():
    reader = SaxReader("<A><B/></A>")
    assert next_event(reader) == ("A", {})
    assert next_event(reader) == ("B", {})
    assert next_event(reader) == "B"
    assert next_event(reader) == "A"
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
        ("A", {}),
        ("B", {}),
        "B",
        ("C", {}),
    ]
    with pytest.raises(MalformedXml):
        next_event(reader)


def test_text_coalesces_across_chunk_boundaries():
    body = "x" * (3 * _CHUNK)
    assert events(f"<A>{body}<!-- c -->{body}</A>") == [("A", {}), TextEvt(2 * body), "A"]


# Where the expat reader departs from the earlier hand-written tokenizer, on
# purpose: expat follows XML 1.0.  One row per difference; CHANGES.md lists
# the same rows.  An outcome is the event list or (error class, line, column).
READER_DECISIONS = [
    ("<A>&#65;&#x42;</A>", [("A", {}), TextEvt("AB"), "A"], "character-references-decoded"),
    ('<A k="a\nb\tc\rd"/>', [("A", {"k": "a b c d"}), "A"], "attribute-whitespace-normalised"),
    ("<A>a\r\nb</A>", [("A", {}), TextEvt("a\nb"), "A"], "crlf-in-text-reads-as-lf"),
    ("<A>\x01</A>", (MalformedXml, 1, 4), "control-character-rejected"),
    ("<A>]]></A>", (MalformedXml, 1, 6), "cdata-end-in-text-rejected"),
    ("<A><!-- a -- b --></A>", (MalformedXml, 1, 13), "double-hyphen-in-comment-rejected"),
    ("\ufeff<A/>", [("A", {}), "A"], "leading-bom-accepted"),
    (' <?xml version="1.0"?><A/>', (MalformedXml, 1, 2), "xml-declaration-after-whitespace-rejected"),
    ("<?xml?><A/>", (MalformedXml, 1, 6), "empty-xml-declaration-rejected"),
    ('<A k="1"m="2"/>', (MalformedXml, 1, 9), "attributes-without-space-rejected"),
    ('<A/><?xml version="1.0"?>', (MalformedXml, 1, 5), "xml-declaration-after-root-malformed"),
    ("<!DOCTYPE A><A/>", (UnsupportedFeature, 1, 12), "doctype-reported-at-its-end"),
    ("<é/>", (MalformedXml, 1, 1), "element-name-outside-the-grammar-language-rejected"),
    ('<A>\n <B é="1"/></A>', (MalformedXml, 2, 2), "attribute-name-outside-the-grammar-language-rejected"),
    (
        '<?xml version="1.0" encoding="ISO-8859-1"?><A>\xe9</A>'.encode("latin-1"),
        [("A", {}), TextEvt("\xe9"), "A"],
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


# -- the handler swap: end tags through ``list.append`` until text pends ------


def test_end_tags_after_a_flush_go_straight_to_the_list():
    """A flush puts ``append`` back as the end handler: a flushing handler
    left in place would emit an empty text run before the second ``</B>``."""
    assert events("<A>x<B/><B/></A>") == [("A", {}), TextEvt("x"), ("B", {}), "B", ("B", {}), "B", "A"]
    assert events("<A><B>x</B></A>") == [("A", {}), ("B", {}), TextEvt("x"), "B", "A"]
    reader = SaxReader(io.StringIO("<A>x<B/></A>"))
    parser = reader._parser
    assert parser.EndElementHandler == reader._events.append
    next_event(reader)  # the whole document is one chunk: all of it has been parsed
    assert parser.EndElementHandler == reader._events.append


def _parser_garbage(read) -> list:
    """Parsers and reader handlers among the objects that only the cycle
    collector would free after ``read()``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        read()
        gc.collect()
        return [
            o
            for o in gc.garbage
            if type(o) is expat.XMLParserType or getattr(o, "__module__", None) == "xmlgram.sax"
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize(
    "doc",
    ["<A>x<B/></A>", "<A>text</B>", "<A>x<a:b/></A>", "<A>x<!DOCTYPE A></A>", "<A>x\ud800</A>", "<A>x"],
    ids=["finished", "mismatch-with-text-pending", "namespace", "doctype", "unencodable", "unclosed"],
)
def test_a_parse_leaves_no_reference_cycle(doc):
    def read():
        try:
            list(SaxReader(doc))
        except XmlReadError:
            pass

    assert _parser_garbage(read) == []


# -- differential against the reference reader -------------------------------


def reader_outcome(reader_class, source, keep_whitespace=False):
    """The events a reader yields, in the reference form, and the error it
    ends with as (class, message, line, column)."""
    got = []
    try:
        for event in reader_class(source, keep_whitespace=keep_whitespace):
            got.append(reference_form(event))
    except XmlReadError as exc:
        return got, (type(exc), exc.message, exc.line, exc.column)
    return got, None


def assert_readers_agree(make_source, keep_whitespace=False):
    new = reader_outcome(SaxReader, make_source(), keep_whitespace)
    assert new == reader_outcome(ReferenceSaxReader, make_source(), keep_whitespace)
    return new


_PADDING = ["", "", "", " ", "\n  ", "<!-- c -->", " <!--x-->\n"]


def decorated_document(rng: random.Random) -> str:
    """A random tree's XML, with comments and whitespace before some tags."""
    parts = serialize_tree(random_tree(rng, max_depth=4)).split("<")
    out = [parts[0]]
    for part in parts[1:]:
        out += [rng.choice(_PADDING), "<", part]
    return "".join(out) + rng.choice(_PADDING)


@pytest.mark.parametrize("size", [1, 7, 8192])
def test_reader_matches_the_reference_on_random_documents(size):
    rng = random.Random(size)
    failed = 0
    with chunk_size(size):
        for _ in range(150):
            doc = decorated_document(rng)
            for keep in (False, True):
                _, error = assert_readers_agree(lambda: io.StringIO(doc), keep)
                assert_readers_agree(lambda: io.BytesIO(doc.encode()), keep)
            failed += error is not None
    assert 0 < failed < 30  # a text root is no document; every other one reads


_ERROR_DOCS = [
    "<A>text</B>",
    "<A>x<a:b/></A>",
    '<A>x<B a:k="1"/></A>',
    "<A>x<!DOCTYPE A></A>",
    "<A>x<![CDATA[y]]></A>",
    "<A> <?pi x?></A>",
    "<A>x<\u00e9/></A>",
    "<A>x&bogus;</A>",
    "<A>x\ud800</A>",
    "<A>x",
    "<A>x</A>y",
    '<?xml version="1.0" encoding="UTF-32"?><A/>',
]


@pytest.mark.parametrize("size", [1, 7, 8192])
@pytest.mark.parametrize("doc", _ERROR_DOCS)
def test_reader_matches_the_reference_on_errors(size, doc):
    data = doc.encode("utf-8", "surrogatepass")
    with chunk_size(size):
        assert_readers_agree(lambda: io.StringIO(doc))  # which ignores the declared encoding
        _, error = assert_readers_agree(lambda: io.BytesIO(data))
    assert error is not None


SEQ_DOC = (pathlib.Path(__file__).resolve().parent.parent / "samples" / "seq.xml").read_bytes()
# (position, bytes to cut there, bytes to insert there)
edits = st.tuples(st.integers(0, len(SEQ_DOC)), st.integers(0, 3), st.binary(max_size=4))


@given(st.lists(edits, min_size=1, max_size=4), st.sampled_from([1, 7, 8192]))
def test_reader_matches_the_reference_on_mutated_bytes(edit_list, size):
    doc = bytearray(SEQ_DOC)
    for pos, cut, insert in edit_list:
        doc[pos : pos + cut] = insert
    with chunk_size(size):
        assert_readers_agree(lambda: io.BytesIO(bytes(doc)))
