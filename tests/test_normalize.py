"""Grammar rewriting: star removal, alternation lifting and the element bind hoist."""

import random

import pytest

from helpers import (
    MODELS_GRAMMAR,
    TEST_GRAMMAR,
    TEST_GRAMMAR_NORMALIZED,
    alpha_eq_grammars,
    random_grammar,
    reference_is_normal_form,
    reference_walk,
    sample_document,
)
from xmlgram.ast import Bind, Call, ElementSpec, Grammar, Or, Star, walk
from xmlgram.engine import Machine, compile_grammar
from xmlgram.events import Element, build_tree
from xmlgram.frontend import parse_grammar
from xmlgram.normalize import is_normal_form, normalize_grammar
from xmlgram.oracle import Oracle, OracleLimitExceeded
from xmlgram.pretty import pretty_grammar
from xmlgram.sax import read_events
from xmlgram.values import TermVal
from xmlgram.wellformed import check_grammar


def _contains_kind(grammar: Grammar, kind) -> bool:
    def walk(seq):
        for item in seq:
            if isinstance(item, kind):
                return True
            if isinstance(item, Or):
                if any(walk(b) for b in item.branches):
                    return True
            elif isinstance(item, (Bind, Star)):
                if walk(item.body):
                    return True
            elif isinstance(item, ElementSpec):
                if any(walk(b) for _, b in item.guarded) or walk(item.else_body):
                    return True
        return False

    return any(walk(c.body) for c in grammar.clauses)


def test_lift_disjunction_removes_all_or_nodes():
    g = parse_grammar(TEST_GRAMMAR)
    out = normalize_grammar(g)
    assert not _contains_kind(out, Or)


def test_lift_disjunction_on_or_free_grammar_is_identity():
    g = parse_grammar("@Grammar G R ::= <T/> {1}. S ::= R. end")
    assert normalize_grammar(g) == g


def test_whole_body_alternation_splits_without_fresh_rules():
    g = parse_grammar("@Grammar G R ::= P | Q | S. P ::= <P/>. Q ::= <Q/>. S ::= <S/>. end")
    out = normalize_grammar(g)
    assert [c.name for c in out.clauses if c.name == "R"] == ["R", "R", "R"]
    assert len(out.clauses) == len(g.clauses) + 2
    assert not _contains_kind(out, Or)


def test_nested_alternation_under_binding():
    # the nested alternation flattens, so one fresh rule holds all three leaves
    g = parse_grammar(
        "@Grammar G R ::= x = (P | (Q | S)) {x}. P ::= <P/>. Q ::= <Q/>. S ::= <S/>. end"
    )
    out = normalize_grammar(g)
    assert not _contains_kind(out, Or)
    fresh = [c for c in out.clauses if "$" in c.name]
    assert len({c.name for c in fresh}) == 1
    leaf_targets = {
        c.body[0].name for c in fresh if isinstance(c.body[0], Call) and "$" not in c.body[0].name
    }
    assert leaf_targets == {"P", "Q", "S"}


def test_remove_star_produces_cons_and_nil_definitions():
    g = parse_grammar(TEST_GRAMMAR)
    out = normalize_grammar(g)
    assert not _contains_kind(out, Star)
    # the repetition is lifted first, so its rule is A$1
    cons_def, nil_def = [c for c in out.clauses if c.name == "A$1"]
    assert [type(i).__name__ for i in cons_def.body] == ["Bind", "Bind", "Actions"]
    assert nil_def.body[0].exprs[0].ctor == "Nil"


def test_remove_star_is_identity_on_star_free():
    g = parse_grammar("@Grammar G R ::= <T/>. R ::= S. S ::= {1}. end")
    assert normalize_grammar(g) == g


def test_removed_star_consumes_repeated_children():
    g = parse_grammar("@Grammar G R ::= <A> ANY* </A> {1}. end")
    out = normalize_grammar(g)
    doc = Element("A", {}, (Element("B", {}, ()), Element("C", {}, ())))
    assert Oracle(out).accepts("R", doc).value is not None


def test_element_branches_with_calls_and_guards_stay_in_place():
    g = parse_grammar(
        '@Grammar G R ::= <T k when k = "a" > P Q else Q x = P {x} </T>.'
        " S ::= <U a> y = W(a) <V> Q </V> </U> {y}. P ::= <P/>. Q ::= <Q/>. W(a) ::= <W/> {a}."
        " end"
    )
    assert check_grammar(g) == []
    assert normalize_grammar(g) == g


def test_hoisted_binding_moves_out_of_element():
    g = parse_grammar("@Grammar G R ::= <T> x = S </T> {x}. S ::= <S/> {1}. end")
    out = normalize_grammar(g)
    first = out.clauses[0].body[0]
    assert isinstance(first, Bind) and first.names == ("x",)
    el = first.body[0]
    assert isinstance(el, ElementSpec)
    assert el.else_body == (Call("S", ()),)
    assert len(out.clauses) == len(g.clauses)


def test_repetition_item_variable_is_renamed_away_from_a_parameter():
    # The lifted rule takes ``x`` as a parameter, so the cons definition
    # cannot also bind its item as ``x``: fresh_var renames it ``x$2``.
    g = parse_grammar("@Grammar G R ::= <R> x = TEXT xs = (<I/> {x})* </R> {xs}. end")
    assert pretty_grammar(normalize_grammar(g)) == (
        "@Grammar G\n"
        "  R ::= <R> x = TEXT xs = R$1(x) </R> { xs }.\n"
        "  R$1(x) ::= x$2 = (<I/> { x }) xs = R$1(x) { Cons(x$2, xs) }.\n"
        "  R$1(x) ::= { Nil }.\n"
        "end\n"
    )
    doc = "<R>a<I/><I/></R>"
    value = Machine(compile_grammar(g).table, "R", read_events(doc)).run()
    assert value == TermVal("Cons", ("a", TermVal("Cons", ("a", TermVal("Nil", ())))))
    assert Oracle(g).accepts("R", build_tree(read_events(doc))).values == (value,)


def test_normal_form_predicate():
    g = parse_grammar(TEST_GRAMMAR)
    assert not is_normal_form(g)
    assert is_normal_form(normalize_grammar(g))


def test_walk_and_normal_form_match_their_references():
    """The plain-loop walk yields the items the generator yields, the same
    objects in the same order, and the normal-form test agrees with the one
    built on it, on grammars with and without alternation and repetition."""
    answers = set()
    for seed in range(3000):
        raw = random_grammar(seed)
        for g in (raw, normalize_grammar(raw)):
            for clause in g.clauses:
                mine, reference = walk(clause.body), list(reference_walk(clause.body))
                assert len(mine) == len(reference), f"seed {seed}"
                assert all(a is b for a, b in zip(mine, reference)), f"seed {seed}"
            answers.add(is_normal_form(g))
            assert is_normal_form(g) == reference_is_normal_form(g), f"seed {seed}"
    assert answers == {False, True}


def test_normalized_test_grammar_matches_published_form():
    mine = normalize_grammar(parse_grammar(TEST_GRAMMAR))
    published = parse_grammar(TEST_GRAMMAR_NORMALIZED)
    counts = {}
    for c in mine.clauses:
        counts[c.name] = counts.get(c.name, 0) + 1
    assert sorted(counts.values()) == [1, 1, 1, 2, 2]
    assert alpha_eq_grammars(mine, published)


def test_normalize_is_idempotent():
    for source in (TEST_GRAMMAR, MODELS_GRAMMAR):
        once = normalize_grammar(parse_grammar(source))
        assert normalize_grammar(once) == once


def test_normalize_deterministic():
    a = normalize_grammar(parse_grammar(MODELS_GRAMMAR))
    b = normalize_grammar(parse_grammar(MODELS_GRAMMAR))
    assert a == b


def test_normalized_grammar_is_well_formed():
    for source in (TEST_GRAMMAR, MODELS_GRAMMAR):
        out = normalize_grammar(parse_grammar(source))
        assert check_grammar(out) == []


def test_models_normal_form_shape():
    out = normalize_grammar(parse_grammar(MODELS_GRAMMAR))
    assert is_normal_form(out)
    # whole-body alternations split in place: three PackageElement definitions
    assert len([c for c in out.clauses if c.name == "PackageElement"]) == 3
    assert len([c for c in out.clauses if c.name == "ClassElement"]) == 2
    # one fresh star rule pair per repetition
    fresh_names = {c.name for c in out.clauses if "$" in c.name}
    assert len(fresh_names) == 3


@pytest.mark.parametrize("seed", range(300))
def test_language_preserved_on_random_grammars(seed):
    """accepts(g) and accepts(normalize(g)) agree on value sets."""
    g = random_grammar(seed)
    compiled = compile_grammar(g)
    assert compiled.errors == [], f"seed {seed}"
    normal = compiled.normal
    assert is_normal_form(normal)
    assert check_grammar(normal) == []
    start = g.clauses[0].name
    rng = random.Random(seed + 5000)
    docs = [t for t in (sample_document(g, start, rng) for _ in range(4)) if t is not None]
    from helpers import random_tree

    docs += [random_tree(rng) for _ in range(2)]
    for doc in docs:
        if not isinstance(doc, Element):
            continue
        try:
            before = Oracle(g, max_steps=30000).accepts(start, doc)
            after = Oracle(normal, max_steps=30000).accepts(start, doc)
        except OracleLimitExceeded:
            continue
        assert before.accepted == after.accepted, f"seed {seed}"
        if before.accepted:
            # the normal form's repetition values are Cons terms, which a
            # ConsList from the user grammar's repetition equals and hashes like
            assert set(before.values) == set(after.values), f"seed {seed}"


def test_calls_made_by_normalization_span_their_operator():
    # the repetition's body rebinds k, so it gets a rule of its own (R$2)
    g = parse_grammar(
        "@Grammar G\nR ::= <R> k = TEXT xs = (<I/> p = {k} k = TEXT {p})* (<A/> | <B/>) </R> {xs}.\nend"
    )
    calls = [
        (item.name, str(item.span))
        for clause in normalize_grammar(g).clauses
        for item in walk(clause.body)
        if isinstance(item, Call)
    ]
    star, bar = "2:52", "2:60"
    assert calls == [("R$1", star), ("R$3", bar), ("R$2", star), ("R$1", star)]
