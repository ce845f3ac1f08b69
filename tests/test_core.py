"""Core types: tree/event conversion, value rendering."""

import dataclasses
import gc
import json
import sys
import tracemalloc
from itertools import chain

import pytest

from hypothesis import given, strategies as st

from helpers import cons_chain, flatten_tree, plain, reference_render_term, serialize_tree
from xmlgram import ast
from xmlgram.events import (
    Element,
    TextEvt,
    TextNode,
    build_tree,
)
from xmlgram.sax import read_events
from xmlgram.values import (
    _CHUNK,
    EMPTY_CONS,
    NULL,
    BoolVal,
    ConsList,
    IntVal,
    ListVal,
    NullVal,
    TermVal,
    TupleVal,
    render_json,
    render_term,
    write_value,
)


# -- flatten / rebuild --------------------------------------------------------


def test_flatten_nested_element():
    tree = Element("A", {"x": "1"}, (Element("B", {}, ()),))
    assert flatten_tree(tree) == [
        ("A", {"x": "1"}),
        ("B", {}),
        "B",
        "A",
    ]


def test_flatten_text_leaf():
    assert flatten_tree(TextNode("hi")) == [TextEvt("hi")]


def test_flatten_empty_element():
    assert flatten_tree(Element("A", {}, ())) == [("A", {}), "A"]


trees = st.recursive(
    st.one_of(
        st.builds(TextNode, st.text("abxy \t\n\r", max_size=4)),
        st.builds(
            Element,
            st.sampled_from(["A", "B", "C"]),
            st.dictionaries(st.sampled_from(["k", "m"]), st.text("ab<>&\"' \t\n\r", max_size=4), max_size=2),
            st.just(()),
        ),
    ),
    lambda kids: st.builds(
        Element,
        st.sampled_from(["A", "B"]),
        st.dictionaries(st.sampled_from(["k", "m"]), st.text("ab\t\n\r", max_size=3), max_size=1),
        st.lists(kids, max_size=3).map(tuple),
    ),
    max_leaves=8,
)


@given(trees)
def test_flatten_round_trips_through_build(tree):
    assert build_tree(flatten_tree(tree)) == tree


@pytest.mark.parametrize(
    "events, message",
    [
        (["a"], "unexpected end tag a"),
        ([("a", {}), "b"], "mismatched end tag /b inside a"),
        ([TextEvt("x"), "a"], "trailing event after document: 'a'"),
        ([("a", {}), ("b", {}), "b"], "unterminated element a"),
        ([], "empty event stream"),
    ],
    ids=["stray-end", "mismatch", "trailing", "unterminated", "empty"],
)
def test_build_tree_rejects_ill_nested_events(events, message):
    with pytest.raises(ValueError) as exc:
        build_tree(events)
    assert str(exc.value) == message


@given(trees)
def test_flatten_is_balanced(tree):
    depth = 0
    for event in flatten_tree(tree):
        if type(event) is tuple:
            depth += 1
        elif type(event) is str:
            depth -= 1
        assert depth >= 0
    assert depth == 0


def test_serialize_escapes_attrs_and_text():
    tree = Element("A", {"k": 'a"<&'}, (TextNode("x < & y"),))
    text = serialize_tree(tree)
    assert '"' not in text.split("=", 1)[1].split(">", 1)[0].strip('"') or "&quot;" in text
    assert "&lt;" in text and "&amp;" in text


def test_flatten_and_serialize_a_deep_chain():
    # Compared as event lists and strings, because Element equality recurses.
    tags = ["A" if i % 2 else "B" for i in range(3_000)]
    tree = TextNode("x")
    for tag in reversed(tags):
        tree = Element(tag, {}, (tree,))
    opening = [(tag, {}) for tag in tags]
    closing = list(reversed(tags))
    assert flatten_tree(tree) == opening + [TextEvt("x")] + closing
    text = serialize_tree(tree)
    assert text == "".join(f"<{t}>" for t in tags) + "x" + "".join(f"</{t}>" for t in reversed(tags))
    assert list(read_events(text)) == flatten_tree(tree)


# -- values -------------------------------------------------------------------


def test_value_kinds_are_distinct():
    assert BoolVal(True) != IntVal(1)
    assert NullVal() == NULL
    # A string value is a plain ``str``; it equals no value of another kind,
    # from either side, however alike their text.
    for text, other in [("1", IntVal(1)), ("true", BoolVal(True)), ("Nil", TermVal("Nil", ()))]:
        assert text != other and other != text
        assert not (text == other) and not (other == text)
        assert len({text, other}) == 2 and len({other: 0, text: 1}) == 2
        assert {text: 0}.get(other) is None and {other: 0}.get(text) is None


def test_equal_values_hash_alike_and_dedupe_in_a_set():
    # Equal values must collapse as set members and dict keys, distinct kinds not.
    def make():
        return [
            "".join(("a", "b")), IntVal(1), BoolVal(True), NullVal(), TermVal("Nil", ()),
            TermVal("P", ("a", IntVal(1))), ListVal((IntVal(1),)), TupleVal((NULL, NULL)),
        ]

    for a, b in zip(make(), make()):
        assert a == b and a is not b and hash(a) == hash(b)
    assert len(set(make() + make())) == len(make())
    assert len({BoolVal(True), IntVal(1), "1"}) == 3


def test_events_compare_structurally():
    # A start tag is a (tag, attrs) pair, an end tag its name, text a TextEvt:
    # no two forms are equal, however alike their text.
    assert ("A", {"k": "v"}) == ("A", {"k": "v"}) and ("A", {"k": "v"}) != ("A", {"k": "w"})
    assert TextEvt("x") == TextEvt("x") and TextEvt("x") != TextEvt("y")
    assert ("A", {}) != "A" and TextEvt("A") != "A" and "A" != TextEvt("A")
    assert TextEvt("A") != ("A", {}) and ("A", {}) != TextEvt("A")


def test_values_and_events_keep_no_instance_dict():
    # Slotted classes: no per-instance __dict__, so each object is smaller.
    e = ast.VarRef("x")
    nodes = [
        e, ast.StrLit("s"), ast.IntLit(1), ast.BoolLit(True), ast.NullLit(),
        ast.Construct("C", (e,)), ast.ListLit((e,)), ast.ConsExpr(e, e),
        ast.Fold("a", "b", e, e, e), ast.Compare("=", e, e), ast.Or(((ast.Ok(),), ())),
        ast.Bind(("x",), ()), ast.Star(()), ast.Empty(), ast.Any(), ast.Ok(), ast.Text(),
        ast.Call("R"), ast.Actions((e,)), ast.ElementSpec("A", (), (), ()),
        ast.Clause("R", (), ()), ast.Grammar("G", ()),
    ]
    node_classes = {
        c for c in vars(ast).values() if dataclasses.is_dataclass(c) and c is not ast._Node
    }
    assert {type(n) for n in nodes} == node_classes
    instances = nodes + [
        IntVal(1), BoolVal(True), NullVal(), TermVal("Nil", ()), ConsList(("a",)),
        ListVal(()), TupleVal((NULL, NULL)), TextEvt("x"),
    ]
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance).__name__
    # Nodes key the closure memo of ``compile_expr``: equal nodes hash alike,
    # spans aside.
    span = ast.SourceSpan(3, 4)
    assert ast.Call("R", (e,), span=span) == ast.Call("R", (e,))
    assert hash(ast.Call("R", (e,), span=span)) == hash(ast.Call("R", (e,)))
    assert len({ast.StrLit("s"), ast.StrLit("s", span=span), ast.StrLit("t")}) == 2


def test_render_term_shapes():
    value = TermVal(
        "Cons", ("a", TermVal("Cons", ("b", TermVal("Nil", ()))))
    )
    assert render_term(value) == 'Cons("a",Cons("b",Nil))'
    assert render_term(ListVal((IntVal(1), BoolVal(False)))) == "[1,false]"
    assert render_term(TupleVal((IntVal(10), IntVal(20)))) == "(10,20)"
    assert render_term(NULL) == "null"
    assert render_term(TermVal("Leaf", ())) == "Leaf"


def test_render_term_deep_chain():
    chain = TermVal("Nil", ())
    for i in range(50_000):
        chain = TermVal("Cons", (IntVal(i), chain))
    text = render_term(chain)
    assert text.startswith("Cons(49999,")
    assert text.endswith("Nil" + ")" * 50_000)


def test_deep_chain_equality():
    def make(n):
        node = TermVal("Nil", ())
        for i in range(n):
            node = TermVal("Cons", (IntVal(i), node))
        return node

    assert make(30_000) == make(30_000)
    assert make(30_000) != make(30_001)


def test_terms_differing_in_constructor_or_arity_are_unequal():
    pairs = [
        (TermVal("A", ("x",)), TermVal("B", ("x",))),
        (TermVal("A", ("x",)), TermVal("A", ("x", "y"))),
        (TermVal("A", ()), TermVal("A", ("x",))),
        # the same, found along the last argument
        (TermVal("Cons", ("x", TermVal("Nil"))), TermVal("Cons", ("x", TermVal("End")))),
        (TermVal("Cons", ("x", TermVal("Nil"))), TermVal("Cons", ("x", TermVal("Nil", ("y",))))),
    ]
    for a, b in pairs:
        assert a != b and b != a
        assert not a == b


def test_a_compact_list_equals_its_cons_chain_both_ways():
    items = ("a", IntVal(1), TermVal("P", ("b",)), ConsList(("c", NULL)))
    for n in range(len(items) + 1):
        compact, chain = ConsList(items[:n]), cons_chain(items[:n])
        assert compact == chain and chain == compact
        assert not compact != chain and not chain != compact
        assert hash(compact) == hash(chain)
        assert compact in {chain} and chain in {compact} and len({compact, chain}) == 1
        assert {chain: 0}[compact] == 0 and {compact: 0}[chain] == 0
        assert (compact.ctor, len(compact.args)) == (chain.ctor, len(chain.args))
        assert render_term(compact) == render_term(chain)
        assert render_json(compact) == render_json(chain)
    # A tail is the same tuple from a later item.
    assert ConsList(items).args[1] == ConsList(items, 1) == cons_chain(items[1:])
    assert ConsList(items, 4) == TermVal("Nil", ()) == ConsList(())
    unequal = [
        (ConsList(("a",)), cons_chain(["b"])),
        (ConsList(("a",)), cons_chain(["a", "b"])),
        (ConsList(("a", "b")), ConsList(("a",))),
        (ConsList(("a",)), TermVal("Cons", ("a", TermVal("End", ())))),
        (ConsList(()), TermVal("Nil", ("y",))),
        (ConsList(()), ListVal(())),
        (ConsList(("a",)), "a"),
    ]
    for a, b in unequal:
        assert a != b and b != a and not a == b and not b == a


def test_a_compact_list_compares_with_a_chain_by_indexing_its_tuple(monkeypatch):
    # Each cell's ``args`` would make a tail ``ConsList`` and an argument tuple.
    def no_tail(self):
        raise AssertionError("a tail was made")

    items = ("a", IntVal(1), TermVal("P", ("b",)), ConsList(("c", NULL)), "d")
    equal = [(ConsList(items), cons_chain(items)), (ConsList(items, 2), cons_chain(items[2:]))]
    unequal = [
        (ConsList(items), cons_chain(("x",) + items[1:])),  # at the head
        (ConsList(items), cons_chain(items[:2] + (TermVal("P", ("x",)),) + items[3:])),  # in the middle
        (ConsList(items), cons_chain(items[:-1])),  # shorter
        (ConsList(items), cons_chain(items + ("e",))),  # longer
        (ConsList(items), TermVal("Cons", ("a", TermVal("End", ())))),  # the tail's constructor
        (ConsList(items[:1]), TermVal("Cons", ("a", TermVal("End", ())))),
        (ConsList(items[:1]), TermVal("Snoc", ("a", TermVal("Nil", ())))),  # a cell's constructor
        (ConsList(items[:1]), TermVal("Cons", ("a", TermVal("Nil", ("y",))))),
        (ConsList(items[:1]), TermVal("Cons", ("a", "Nil"))),
        (ConsList(items[:1]), TermVal("Cons", ("a", TermVal("Nil", ()), "z"))),
    ]
    monkeypatch.setattr(ConsList, "args", property(no_tail))
    for a, b in equal:
        assert a == b and b == a and not a != b and not b != a
    for a, b in unequal:
        assert a != b and b != a and not a == b and not b == a


def test_a_chain_may_end_in_a_compact_list():
    # ``Cons(x, xs)`` in a grammar, where ``xs`` is a repetition's result.
    mixed = TermVal("Cons", ("x", ConsList(("y", "z"))))
    for other in (cons_chain(["x", "y", "z"]), ConsList(("x", "y", "z"))):
        assert mixed == other and other == mixed and hash(mixed) == hash(other)
        assert len({mixed, other}) == 1
        assert render_term(mixed) == render_term(other) == 'Cons("x",Cons("y",Cons("z",Nil)))'
        assert render_json(mixed) == render_json(other)
    assert mixed != cons_chain(["x", "y"]) and cons_chain(["x", "y", "z", "w"]) != mixed


def test_a_long_compact_list_compares_and_prints_without_recursion():
    items = tuple(f"b{i}" for i in range(30_000))
    compact = ConsList(items)
    assert compact == cons_chain(items) and cons_chain(items) == compact
    assert compact != cons_chain(items[:-1] + ("x",))
    # The dataclass ``repr`` of a term recursed once per cell.
    text = repr(compact)
    assert text.startswith("ConsList(('b0', 'b1',") and text.endswith("'b29999'))")
    assert repr(ConsList(("a", IntVal(1)), 1)) == "ConsList((IntVal(value=1),))"
    assert repr(TermVal("Cons", ("x", ConsList(())))) == "TermVal(ctor='Cons', args=('x', ConsList(())))"


def test_render_json():
    value = TermVal("P", ("s", ListVal((IntVal(1),)), NULL, BoolVal(True)))
    assert json.loads(render_json(value)) == {
        "ctor": "P",
        "args": ["s", [1], None, True],
    }
    assert render_json(TupleVal((IntVal(1), IntVal(2)))) == '{"tuple": [1, 2]}'


# Strings with non-ASCII, control and lone-surrogate characters, which the
# renderers must quote exactly as json.dumps does.
strings = st.text(st.characters(exclude_categories=()), max_size=4) | st.sampled_from(
    ["", "\x00\x1f\x7f", "\ud800", "\udfff x", "é\u2028😀", '"\\/']
)

values = st.recursive(
    st.one_of(
        strings,
        st.builds(IntVal, st.integers()),
        st.builds(BoolVal, st.booleans()),
        st.just(NULL),
    ),
    lambda kids: st.one_of(
        st.builds(
            TermVal, st.sampled_from(["Nil", "Cons", "P", "é\"q"]), st.lists(kids, max_size=3).map(tuple)
        ),
        st.builds(ListVal, st.lists(kids, max_size=3).map(tuple)),
        st.lists(kids, max_size=4).flatmap(
            lambda items: st.builds(ConsList, st.just(tuple(items)), st.integers(0, len(items)))
        ),
        # Runs of strings longer than a chunk holds, with other items between.
        st.lists(st.tuples(strings, st.integers(0, 150), kids), min_size=1, max_size=2).map(
            lambda parts: ConsList(tuple(chain.from_iterable([s] * n + [kid] for s, n, kid in parts)))
        ),
        st.builds(TupleVal, st.lists(kids, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=12,
)


@given(values)
def test_render_json_text_equals_json_dumps(value):
    assert render_json(value) == json.dumps(plain(value), sort_keys=True)


@given(values)
def test_render_term_equals_the_recursive_reference(value):
    assert render_term(value) == reference_render_term(value)


def test_strings_render_as_json_dumps_quotes_them():
    texts = ['say "hi"', "back\\slash\\", "\x00\x01\x1f\x7f\t\n\r", "é ñ 中文 😀 \u2028", "\ud800", ""]
    for text in texts:
        quoted = json.dumps(text)
        assert render_term(text) == quoted and render_json(text) == quoted
        assert render_term(TermVal("P", (text, ListVal((text,))))) == f"P({quoted},[{quoted}])"
        assert render_json(TermVal("P", (text, ListVal((text,))))) == json.dumps(
            {"args": [text, [text]], "ctor": "P"}, sort_keys=True
        )


@pytest.mark.parametrize("render", [render_term, render_json])
def test_render_peak_is_a_small_multiple_of_the_output(render):
    # The value exists before tracing starts, so the peak is what rendering
    # adds: the chunks and their join, about twice the output, plus one
    # chunk of pieces and the work stack.  Both shapes measured 2.02 to
    # 2.06 times the output.
    items = [f"item {i}" for i in range(6_000)]
    for value in (cons_chain(items), ConsList(tuple(items))):
        gc.collect()
        tracemalloc.start()
        try:
            text = render(value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count('"item ') == 6_000 and len(text) > 100_000
        assert peak < 2.5 * len(text), type(value).__name__


@pytest.mark.parametrize("fmt", ["term", "json"])
def test_streamed_render_peak_is_well_below_the_output(fmt):
    # 800 strings of about 2 KB in one list, like a document of long
    # paragraphs: a chunk limit that counts pieces must still cut this into
    # many chunks, so that a writer which keeps nothing holds a small part
    # of the text at any time.
    value = ListVal(tuple(f"{i:03d} " + "lorem ipsum " * 170 for i in range(800)))
    sizes = []
    gc.collect()
    tracemalloc.start()
    try:
        write_value(value, fmt, lambda chunk: sizes.append(len(chunk)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) > 1_600_000 and len(sizes) > 4
    assert peak < sum(sizes) / 2


@pytest.mark.parametrize("fmt", ["term", "json"])
def test_streamed_render_of_a_compact_list_is_well_below_the_output(fmt):
    # As above, for a repetition's value: its strings are rendered in runs,
    # and a run counts toward the chunk as the pieces it stands for.
    value = ConsList(tuple(f"{i:03d} " + "lorem ipsum " * 170 for i in range(800)))
    sizes = []
    gc.collect()
    tracemalloc.start()
    try:
        write_value(value, fmt, lambda chunk: sizes.append(len(chunk)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) > 1_600_000 and len(sizes) > 4
    assert peak < sum(sizes) / 2


def test_a_long_mixed_compact_list_renders_as_its_chain():
    # Runs of strings longer than a chunk holds, broken by terms, lists and
    # leaves, and runs of one; the first and the last item are not strings.
    items = [TermVal("T", ("a",))]
    for i in range(3):
        items += [f"s{i}.{j}" for j in range(2 * _CHUNK)]
        items += [ListVal(("x", ConsList(("y", "z")))), "one", IntVal(i), EMPTY_CONS, "é\"\n"]
    items += [f"t{j}" for j in range(_CHUNK + 3)] + [NULL]
    value = ConsList(tuple(items))
    for fmt, render in (("term", render_term), ("json", render_json)):
        chunks = []
        write_value(value, fmt, chunks.append)
        assert "".join(chunks) == render(cons_chain(items)), fmt
        assert len(chunks) > 2
    # The reference renderers recurse once per cell: a shorter part.
    short = ConsList(tuple(items[: 2 * _CHUNK + 100]), 2 * _CHUNK - 100)
    assert render_term(short) == reference_render_term(short)
    assert render_json(short) == json.dumps(plain(short), sort_keys=True)


@pytest.mark.parametrize("fmt", ["term", "json"])
def test_lists_that_end_back_to_back_render_in_bounded_chunks(fmt):
    # The last item of each list is a list, so the closing texts of two lists
    # follow each other; every write is one chunk, one run or one batch.
    inner = ConsList(tuple(f"s{j}" for j in range(300)))
    value = ConsList((inner,) * 300)
    chunks = []
    write_value(value, fmt, chunks.append)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # the references recurse once per cell
    try:
        if fmt == "term":
            expected = reference_render_term(value)
        else:
            expected = json.dumps(plain(value), sort_keys=True)
    finally:
        sys.setrecursionlimit(limit)
    assert "".join(chunks) == expected
    # The longest text the renderer emits here, the quoted strings included.
    longest = len(",Cons(" if fmt == "term" else ', {"args": [], "ctor": "Nil"}')
    assert "" not in chunks
    assert max(map(len, chunks)) <= (_CHUNK + 1) * longest
    # Here a chunk fills up at the last closing text, so nothing is left.
    chunks = []
    write_value(ListVal((ListVal(("a",) * 126), "b")), fmt, chunks.append)
    assert len(chunks) == 1 and chunks[0]


def test_render_json_deep_chain():
    node = TermVal("Nil", ())
    for i in range(30_000):
        node = TermVal("Cons", (IntVal(i), node))
    text = render_json(node)
    assert text.startswith('{"args": [29999, {"args": [29998, ')
    assert text.count('"ctor": "Cons"') == 30_000


def _serializable(tree) -> bool:
    """Empty and adjacent text nodes have no faithful XML serialization."""
    if isinstance(tree, TextNode):
        return tree.text != ""
    last_text = False
    for child in tree.children:
        is_text = isinstance(child, TextNode)
        if is_text and last_text:
            return False
        if not _serializable(child):
            return False
        last_text = is_text
    return True


@given(trees.filter(lambda t: isinstance(t, Element) and _serializable(t)))
def test_serialize_then_events_matches_flatten(tree):
    # Defer to the reader module for the full composition law; here just the
    # builder inverse on serialized output (only elements can be documents).
    from xmlgram.sax import read_events

    rebuilt = build_tree(read_events(serialize_tree(tree), keep_whitespace=True))
    assert rebuilt == tree
