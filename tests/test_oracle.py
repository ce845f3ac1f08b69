"""Reference interpreter: derivation enumeration over materialized trees."""

import pathlib

import pytest

from helpers import TEST_GRAMMAR, cons_chain
from xmlgram.ast import Any, Call, Empty, Grammar
from xmlgram.engine import Machine, ParseFailure, compile_grammar
from xmlgram.events import Element, TextNode, build_tree
from xmlgram.frontend import parse_grammar
from xmlgram.oracle import Oracle, OracleLimitExceeded
from xmlgram.sax import read_events
from xmlgram.values import NULL, IntVal, TermVal, TupleVal, render_term

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def _g(source: str) -> Grammar:
    return parse_grammar(source)


def test_empty_requires_no_trees():
    g = _g("@Grammar G R ::= EMPTY. end")
    results = list(Oracle(g).satisfy((Empty(),), (), {"k": NULL}))
    assert results == [((), {"k": NULL}, NULL)]
    assert list(Oracle(g).satisfy((Empty(),), (Element("T", {}, ()),), {})) == []


def test_any_consumes_one_tree_yielding_null():
    g = _g("@Grammar G R ::= ANY. end")
    trees = (Element("T", {}, ()), TextNode("x"))
    results = list(Oracle(g).satisfy((Any(),), trees, {}))
    assert results == [(trees[1:], {}, NULL)]


def test_call_through_test_grammar():
    g = _g(TEST_GRAMMAR)
    doc = Element("A", {}, (Element("B", {"name": "x"}, ()),))
    results = list(Oracle(g).satisfy((Call("A", ()),), (doc,), {}))
    values = [v for remaining, _, v in results if not remaining]
    assert values == [TermVal("Cons", ("x", TermVal("Nil", ())))]


def test_accepts_binds_the_start_rule_parameters_to_args():
    g = _g("@Grammar G R(a, b) ::= <R/> {P(b, a)}. end")
    doc = Element("R", {}, ())
    assert Oracle(g).accepts("R", doc, ("x", "y")).values == (TermVal("P", ("y", "x")),)
    for args in [(), ("x",), ("x", "y", "z")]:
        with pytest.raises(ParseFailure) as exc:
            Oracle(g).accepts("R", doc, args)
        assert (exc.value.reason, exc.value.position) == ("CallArityMismatch", 0)
        assert exc.value.message == f"rule R takes 2 argument(s), got {len(args)}"
    assert Oracle(g).accepts("Undefined", doc).value is None


def test_accepts_empty_star_yields_nil():
    g = _g(TEST_GRAMMAR)
    result = Oracle(g).accepts("A", Element("A", {}, ()))
    assert result.value == TermVal("Nil", ())
    assert not result.ambiguous


def test_accepts_unknown_tag_rejects():
    g = _g(TEST_GRAMMAR)
    assert Oracle(g).accepts("A", Element("X", {}, ())).value is None


def test_multi_value_rule_returns_tuple():
    g = _g("@Grammar G X ::= [v, w] = Y {v, w}. Y ::= {10, 20}. end")
    result = Oracle(g).accepts("Y", Element("ignored", {}, ()))
    assert result.value is None  # Y consumes nothing, document remains
    results = list(Oracle(g).satisfy((Call("Y", ()),), (), {}))
    assert results == [((), {}, TupleVal((IntVal(10), IntVal(20))))]


def test_or_symmetry():
    left = _g('@Grammar G R ::= <P/> {1} | <Q/> {2}. end')
    right = _g('@Grammar G R ::= <Q/> {2} | <P/> {1}. end')
    for doc in (Element("P", {}, ()), Element("Q", {}, ()), Element("Z", {}, ())):
        a = set(map(repr, Oracle(left).accepts("R", doc).values))
        b = set(map(repr, Oracle(right).accepts("R", doc).values))
        assert a == b


def test_ambiguity_reported_and_any_value_returned():
    g = _g("@Grammar G R ::= <P/> {1} | <P/> {2}. end")
    result = Oracle(g).accepts("R", Element("P", {}, ()))
    assert result.ambiguous
    assert set(result.values) == {IntVal(1), IntVal(2)}
    assert result.value in result.values


def test_star_yields_longest_match_first():
    g = _g("@Grammar G R ::= <T> xs = I* </T> {xs}. I ::= <I/> {1}. end")
    doc = Element("T", {}, (Element("I", {}, ()), Element("I", {}, ())))
    result = Oracle(g).accepts("R", doc)
    two = TermVal("Cons", (IntVal(1), TermVal("Cons", (IntVal(1), TermVal("Nil", ())))))
    assert result.value == two
    assert not result.ambiguous  # shorter matches leave children unconsumed


def test_star_yields_every_shorter_match_after_the_longest():
    g = _g("@Grammar G R ::= xs = I* {xs}. I ::= <I/> {1}. end")
    trees = (Element("I", {}, ()),) * 1_000  # more items than the recursion limit allows frames
    results = list(Oracle(g, max_steps=100_000).satisfy((Call("R", ()),), trees, {}))
    assert [len(rest) for rest, _, _ in results] == list(range(1_001))
    assert results[0][2] == cons_chain([IntVal(1)] * 1_000)
    assert results[-1][2] == TermVal("Nil", ())


def test_star_value_equals_and_hashes_like_its_chain():
    g = _g("@Grammar G R ::= xs = I* {xs}. I ::= <I n/> {n}. end")
    trees = tuple(Element("I", {"n": str(i)}, ()) for i in range(300))
    results = list(Oracle(g, max_steps=100_000).satisfy((Call("R", ()),), trees, {}))
    for rest, _, value in results[::37]:
        chain = cons_chain([str(i) for i in range(300 - len(rest))])
        assert value == chain and hash(value) == hash(chain)


@pytest.mark.parametrize("budget", [0, -5])
def test_step_budget_below_one_is_rejected(budget):
    with pytest.raises(ValueError, match=f"max_steps must be at least 1, got {budget}"):
        Oracle(_g("@Grammar G R ::= OK. end"), max_steps=budget)


def test_long_repetition_agrees_with_the_engine():
    grammar = _g((SAMPLES / "seq.xg").read_text())
    events = list(read_events("<A>" + '<B name="x"/>' * 1_000 + "</A>"))
    compiled = compile_grammar(grammar)
    expected = Machine(compiled.table, compiled.start, iter(events)).run()
    result = Oracle(grammar, max_steps=100_000).accepts(compiled.start, build_tree(events))
    assert result.value == expected and not result.ambiguous


def test_element_must_consume_all_children():
    g = _g("@Grammar G R ::= <T> OK </T> {1}. end")
    leaf = Element("T", {}, ())
    stuffed = Element("T", {}, (Element("X", {}, ()),))
    assert Oracle(g).accepts("R", leaf).value == IntVal(1)
    assert Oracle(g).accepts("R", stuffed).value is None


def test_missing_declared_attribute_rejects():
    g = _g("@Grammar G R ::= <T n=name/> {n}. end")
    assert Oracle(g).accepts("R", Element("T", {"name": "v"}, ())).value == "v"
    assert Oracle(g).accepts("R", Element("T", {"other": "v"}, ())).value is None


def test_undeclared_attributes_ignored():
    g = _g("@Grammar G R ::= <T/> {1}. end")
    assert Oracle(g).accepts("R", Element("T", {"extra": "1"}, ())).value == IntVal(1)


def test_guard_selects_branch_and_else_fallback():
    g = _g(
        '@Grammar G R ::= <T k when k = "a" > P else Q </T>. P ::= <P/> {1}. Q ::= <Q/> {2}. end'
    )
    a = Element("T", {"k": "a"}, (Element("P", {}, ()),))
    z = Element("T", {"k": "z"}, (Element("Q", {}, ()),))
    wrong = Element("T", {"k": "a"}, (Element("Q", {}, ()),))
    assert Oracle(g).accepts("R", a).value == IntVal(1)
    assert Oracle(g).accepts("R", z).value == IntVal(2)
    assert Oracle(g).accepts("R", wrong).value is None  # guard commits to branch set


def test_first_true_guard_wins():
    g = _g(
        "@Grammar G R ::= <T when true > P when true > Q else EMPTY </T>."
        " P ::= <P/> {1}. Q ::= <Q/> {2}. end"
    )
    assert Oracle(g).accepts("R", Element("T", {}, (Element("P", {}, ()),))).value == IntVal(1)
    assert not Oracle(g).accepts("R", Element("T", {}, (Element("Q", {}, ()),))).accepted
    # overlapping guards yield one value, not one per true guard
    g = _g('@Grammar G R ::= <R k when k = "y" > {1} when k <> "n" > {2} else {3} </R>. end')
    result = Oracle(g).accepts("R", Element("R", {"k": "y"}, ()))
    assert result.values == (IntVal(1),) and not result.ambiguous


def test_bindings_thread_into_later_components():
    g = _g("@Grammar G R ::= <T a/> <U b/> {Pair(a, b)}. end")
    doc_pair = (Element("T", {"a": "1"}, ()), Element("U", {"b": "2"}, ()))
    results = list(Oracle(g).satisfy(parse_grammar(
        "@Grammar H R ::= <T a/> <U b/> {Pair(a, b)}. end").clauses[0].body, doc_pair, {}))
    values = [v for remaining, _, v in results if not remaining]
    assert values == [TermVal("Pair", ("1", "2"))]


def test_mismatched_bind_arity_fails_derivation():
    g = _g("@Grammar G R ::= [v, w] = S {v}. S ::= {1}. end")
    assert list(Oracle(g).satisfy(g.clauses[0].body, (), {})) == []


def test_derivation_cap():
    # unbounded ambiguity: every split of ANY ANY* — keep the cap tiny
    g = _g("@Grammar G R ::= xs = ANY* ys = ANY* {1}. end")
    trees = tuple(Element("E", {}, ()) for _ in range(8))
    with pytest.raises(OracleLimitExceeded):
        list(Oracle(g, max_steps=50).satisfy(g.clauses[0].body, trees, {}))


def test_left_recursion_terminates():
    # R calls itself before consuming input: compiling rejects it, and the
    # oracle run on it unchecked ends in its limit instead of looping.
    g = _g("@Grammar G R ::= R {1}. R ::= {2}. end")
    assert [str(e) for e in compile_grammar(g).errors] == [
        "rule R: left recursion: call to R can recur before consuming input at 1:18"
    ]
    with pytest.raises(OracleLimitExceeded):
        Oracle(g).accepts("R", Element("T", {}, ()))
    with pytest.raises(OracleLimitExceeded):
        list(Oracle(g).satisfy((Call("R", ()),), (), {}))


def test_reentry_counts_per_sibling_list():
    # The ends of different elements' children are different positions, at
    # each of which the normal form's repetition rule calls R0 once more; a
    # search that merged them would cut derivations the grammar has.
    from xmlgram.normalize import normalize_grammar
    from xmlgram.sax import read_events
    from xmlgram.events import build_tree

    g = _g("@Grammar G R0 ::= <Ta> (R0 ANY)* </Ta> { null }. end")
    doc = build_tree(list(read_events("<Ta><Ta><Ta/>hello</Ta>hello</Ta>")))
    assert Oracle(g).accepts("R0", doc).accepted
    assert Oracle(normalize_grammar(g)).accepts("R0", doc).accepted


def test_accepts_compares_values_as_an_action_does():
    # Two derivations whose values nest 1,200 deep, down all but their last
    # argument: comparing them passes the recursion limit.
    from xmlgram.evaluate import EvalError

    g = _g("""@Grammar G
      R ::= <A> xs = B* </A> { xs->iterate(e acc = Z | W(acc, e)) }
          | <A> xs = B* </A> { xs->iterate(e acc = Z | W(acc, "y")) }.
      B ::= <B/> {"x"}.
    end""")
    doc = Element("A", {}, (Element("B", {}, ()),) * 1200)
    with pytest.raises(EvalError) as exc:
        Oracle(g).accepts("R", doc)
    assert str(exc.value) == "values nested too deeply to compare"
    shallow = Oracle(g).accepts("R", Element("A", {}, (Element("B", {}, ()),) * 2))
    assert [render_term(v) for v in shallow.values] == ['W(W(Z,"x"),"x")', 'W(W(Z,"y"),"y")']
