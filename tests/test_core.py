"""Core types: environments, tree/event conversion, value rendering."""

import dataclasses
import gc
import json
import tracemalloc

import pytest

from hypothesis import given, strategies as st

from helpers import flatten_tree, plain, reference_render_term, serialize_tree
from xmlgram import ast
from xmlgram.events import (
    Element,
    EndTag,
    StartTag,
    TextEvt,
    TextNode,
    build_tree,
)
from xmlgram.sax import read_events
from xmlgram.values import (
    NULL,
    BoolVal,
    IntVal,
    ListVal,
    NullVal,
    TermVal,
    TupleVal,
    env_merge,
    render_json,
    render_term,
)


def test_env_merge_disjoint():
    assert env_merge({"x": IntVal(1)}, {"y": IntVal(2)}) == {"x": IntVal(1), "y": IntVal(2)}


def test_env_merge_right_shadows():
    assert env_merge({"x": IntVal(1)}, {"x": IntVal(2)}) == {"x": IntVal(2)}


def test_env_merge_identity():
    assert env_merge({}, {}) == {}


small_values = st.sampled_from([IntVal(0), IntVal(1), "a", NULL])
envs = st.dictionaries(st.sampled_from("vwxyz"), small_values, max_size=4)


@given(envs, envs, envs)
def test_env_merge_associative(a, b, c):
    assert env_merge(env_merge(a, b), c) == env_merge(a, env_merge(b, c))


@given(envs)
def test_env_merge_empty_is_identity(env):
    assert env_merge(env, {}) == env
    assert env_merge({}, env) == env


# -- flatten / rebuild --------------------------------------------------------


def test_flatten_nested_element():
    tree = Element("A", {"x": "1"}, (Element("B", {}, ()),))
    assert flatten_tree(tree) == [
        StartTag("A", {"x": "1"}),
        StartTag("B", {}),
        EndTag("B"),
        EndTag("A"),
    ]


def test_flatten_text_leaf():
    assert flatten_tree(TextNode("hi")) == [TextEvt("hi")]


def test_flatten_empty_element():
    assert flatten_tree(Element("A", {}, ())) == [StartTag("A", {}), EndTag("A")]


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


@given(trees)
def test_flatten_is_balanced(tree):
    depth = 0
    for event in flatten_tree(tree):
        if isinstance(event, StartTag):
            depth += 1
        elif isinstance(event, EndTag):
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
    opening = [StartTag(tag, {}) for tag in tags]
    closing = [EndTag(tag) for tag in reversed(tags)]
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
    assert StartTag("A", {"k": "v"}) == StartTag("A", {"k": "v"})
    assert StartTag("A") == StartTag("A", {})
    assert StartTag("A", {"k": "v"}) != StartTag("A", {"k": "w"})
    assert EndTag("A") == EndTag("A") and EndTag("A") != EndTag("B")
    assert TextEvt("x") == TextEvt("x") and TextEvt("x") != TextEvt("y")
    assert StartTag("A") != EndTag("A") and TextEvt("A") != EndTag("A")


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
    node_classes = {c for c in vars(ast).values() if dataclasses.is_dataclass(c)}
    assert {type(n) for n in nodes} == node_classes
    instances = nodes + [
        IntVal(1), BoolVal(True), NullVal(), TermVal("Nil", ()),
        ListVal(()), TupleVal((NULL, NULL)), StartTag("A", {}), EndTag("A"), TextEvt("x"),
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
    # adds: the output itself, one chunk of pieces and the work stack.
    value = TermVal("Nil", ())
    for i in range(6_000):
        value = TermVal("Cons", (f"item {i}", value))
    gc.collect()
    tracemalloc.start()
    try:
        text = render(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count('"item ') == 6_000 and len(text) > 100_000
    assert peak < 4 * len(text)


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
