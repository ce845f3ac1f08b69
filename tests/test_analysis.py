"""Nullability, first/follow fixpoint, predict table, LL(1) check."""

import time

import pytest

from helpers import TEST_GRAMMAR, TEST_GRAMMAR_NORMALIZED, alpha_eq_grammars
from xmlgram.analysis import (
    NotNormalForm,
    PredictTable,
    UndefinedClause,
    build_predict_table,
    check_ll1,
    compute_sets,
    first_null,
    render_table_kv,
    render_table_text,
)
from xmlgram.ast import (
    Actions,
    Any,
    Bind,
    Call,
    Clause,
    ElementSpec,
    Empty,
    Grammar,
    IntLit,
    Ok,
    Star,
    Text,
)
from xmlgram.engine import Machine, compile_grammar
from xmlgram.events import ANY_TOKEN, END_OF_INPUT, TEXT_TOKEN, build_tree
from xmlgram.frontend import parse_grammar
from xmlgram.normalize import normalize_grammar
from xmlgram.oracle import Oracle
from xmlgram.sax import read_events
from xmlgram.values import NULL, TermVal


def norm(source: str) -> Grammar:
    return normalize_grammar(parse_grammar(source))


@pytest.fixture(scope="module")
def test_tables():
    g = norm(TEST_GRAMMAR)
    analysis = compute_sets(g, "A")
    table = build_predict_table(g, analysis)
    return g, analysis, table


def _star_name(grammar: Grammar) -> str:
    """The fresh rule implementing the repetition (has a Nil definition)."""
    for c in grammar.clauses:
        if "$" in c.name and len(c.body) == 1 and isinstance(c.body[0], Actions):
            return c.name
    raise AssertionError("no nil definition found")


def _alt_name(grammar: Grammar) -> str:
    for c in grammar.clauses:
        if "$" in c.name and len(c.body) == 1 and isinstance(c.body[0], Call):
            return c.name
    raise AssertionError("no alternative-forwarding definition found")


# -- null ---------------------------------------------------------------------


def test_first_null_cases():
    first = {"n": {"a"}}
    assert first_null((Ok(), Empty(), Actions((IntLit(1),))), set(), first) == (set(), True)
    assert first_null((Any(), Text()), set(), first) == ({ANY_TOKEN}, False)
    assert first_null((Text(),), set(), first) == ({TEXT_TOKEN}, False)
    assert first_null((Call("n", ()), Text()), {"n"}, first) == ({"a", TEXT_TOKEN}, False)
    assert first_null((Call("n", ()), Text()), set(), first) == ({"a"}, False)
    assert first_null((Call("undefined", ()),), set(), first) == (set(), False)
    bind = Bind(("x",), (Ok(), Call("n", ())))
    assert first_null((bind,), {"n"}, first) == ({"a"}, True)
    assert first_null((bind, ElementSpec("T", (), (), (Ok(),))), {"n"}, first) == ({"a", "T"}, False)
    assert first_null((Text(), Star((Any(),))), set(), first) == ({TEXT_TOKEN}, False)
    with pytest.raises(NotNormalForm):
        first_null((Ok(), Star((Any(),))), set(), first)


# -- first / follow -----------------------------------------------------------


def test_sets_on_normalized_test_grammar(test_tables):
    g, analysis, _ = test_tables
    star = _star_name(g)
    alt = _alt_name(g)
    assert analysis.nullable[star] is True
    assert analysis.nullable["A"] is False
    assert analysis.first[star] == {"B", "C"}
    assert analysis.first[alt] == {"B", "C"}
    assert analysis.first["B"] == {"B"}
    assert analysis.follow[star] == {"/A"}
    assert analysis.follow["A"] == {END_OF_INPUT}


def test_no_consuming_element_means_empty_first():
    g = norm("@Grammar G X ::= EMPTY {1}. end")
    analysis = compute_sets(g, "X")
    assert analysis.nullable["X"] is True
    assert analysis.first["X"] == set()


def test_follow_includes_first_of_next_component():
    g = norm("@Grammar G S ::= N <T/> {1}. N ::= OK. end")
    analysis = compute_sets(g, "S")
    assert "T" in analysis.follow["N"]


def test_follow_propagates_through_nullable_suffix():
    g = norm("@Grammar G S ::= <W> N M </W> {1}. N ::= OK. M ::= OK. end")
    analysis = compute_sets(g, "S")
    # M is nullable, so inside <W> the follow of N includes /W; likewise M.
    assert "/W" in analysis.follow["N"]
    assert "/W" in analysis.follow["M"]


def test_follow_of_many_nullable_calls_is_linear():
    # Each call's follow set is the first set of the rest of the sequence;
    # re-walking that rest at every call is quadratic (2,000 calls: 5.9 s).
    source = "@Grammar G R ::= <a> " + "N " * 3_000 + "</a> {1}. N ::= OK. end"
    grammar = parse_grammar(source)
    t0 = time.perf_counter()
    compiled = compile_grammar(grammar)
    elapsed = time.perf_counter() - t0
    assert not compiled.errors and not compiled.table.conflicts
    assert compiled.table.entries[("N", "/a")] is not None
    assert elapsed < 1.0, f"compiling 3,000 calls took {elapsed:.2f} s"


@pytest.mark.parametrize("callees_first", [False, True])
def test_first_sets_of_a_long_chain_settle_in_linear_time(callees_first):
    # N0 ::= x = N1 {x}. ... N2000 ::= <a/> {1}.  Rounds over every clause
    # would take one round per link when the chain runs against their order.
    links = [f"N{i} ::= x = N{i + 1} {{x}}." for i in range(2_000)]
    if callees_first:
        links.reverse()
    grammar = norm("@Grammar G " + " ".join(links) + " N2000 ::= <a/> {1}. end")
    t0 = time.perf_counter()
    analysis = compute_sets(grammar, "N0")
    elapsed = time.perf_counter() - t0
    assert analysis.first["N0"] == {"a"} and analysis.follow["N2000"] == {END_OF_INPUT}
    assert elapsed < 1.0, f"2,000 chained rules took {elapsed:.2f} s"


def test_undefined_clause_strict_and_lenient():
    g = norm("@Grammar G S ::= <T> Missing </T> {1}. end")
    analysis = compute_sets(g, "S")  # lenient: Missing never matches
    assert analysis.first["S"] == {"T"}
    with pytest.raises(UndefinedClause):
        compute_sets(g, "NoSuchStart")


def test_compute_sets_rejects_non_normal_grammar():
    g = parse_grammar(TEST_GRAMMAR)
    with pytest.raises(NotNormalForm):
        compute_sets(g, "A")


# -- predict table --------------------------------------------------------------


def test_predict_table_matches_published_example(test_tables):
    g, _, table = test_tables
    star = _star_name(g)
    alt = _alt_name(g)
    expected_cells = {
        ("A", "A"),
        (star, "B"),
        (star, "C"),
        (star, "/A"),
        (alt, "B"),
        (alt, "C"),
        ("B", "B"),
        ("C", "C"),
    }
    assert set(table.entries) == expected_cells
    ok, conflicts = check_ll1(table)
    assert ok and conflicts == []
    # the /A cell holds the Nil definition
    nil_def = table.entries[(star, "/A")]
    assert isinstance(nil_def.body[0], Actions)
    assert nil_def.body[0].exprs[0].ctor == "Nil"


def test_predict_b_on_b_is_the_published_clause(test_tables):
    g, _, table = test_tables
    entry = table.entries[("B", "B")]
    published = parse_grammar("@Grammar T B ::= <B n = name> OK </B> {n}. end")
    assert entry == published.clauses[0]


def test_conflicting_definitions_are_reported():
    g = norm("@Grammar G X ::= <A/> {1}. X ::= <A/> {2}. end")
    table = build_predict_table(g, compute_sets(g, "X"))
    ok, conflicts = check_ll1(table)
    assert not ok
    assert len(conflicts) == 1
    report = conflicts[0]
    assert report.clause == "X"
    assert report.token == "A"
    assert len(report.definitions) == 2
    # first definition wins the cell, nothing is silently dropped
    assert table.entries[("X", "A")] is report.definitions[0]


def test_empty_grammar_is_trivially_ll1():
    table = build_predict_table(Grammar("E", ()), compute_sets_empty())
    ok, conflicts = check_ll1(table)
    assert ok and conflicts == []


def compute_sets_empty():
    from xmlgram.analysis import AnalysisResult

    return AnalysisResult({}, {}, {})


def test_wildcard_default_entry():
    source = "@Grammar G S ::= <T> xs = ANY* </T> {xs}. end"
    g = norm(source)
    analysis = compute_sets(g, "S")
    table = build_predict_table(g, analysis)
    ok, _ = check_ll1(table)
    assert ok
    star = _star_name(g)
    assert (star, ANY_TOKEN) in table.entries
    assert table.entries[(star, "/T")].body[0].exprs[0].ctor == "Nil"
    assert (star, "Anything") not in table.entries and (star, TEXT_TOKEN) not in table.entries
    # The machine takes the exact end-tag entry over the wildcard default,
    # and the default for a tag with no column and for text.
    events = list(read_events("<T><Anything/>words<U>x</U></T>"))
    expected = Oracle(parse_grammar(source)).accepts("S", build_tree(events)).value
    chain = TermVal("Nil", ())
    for _ in range(3):
        chain = TermVal("Cons", (NULL, chain))
    assert expected == chain
    assert Machine(table, "S", iter(events)).run() == expected


def test_two_wildcard_defaults_conflict():
    g = norm("@Grammar G X ::= ANY {1}. X ::= ANY {2}. end")
    table = build_predict_table(g, compute_sets(g, "X"))
    ok, conflicts = check_ll1(table)
    assert not ok
    assert conflicts[0].token == ANY_TOKEN


def test_text_token_row():
    g = norm("@Grammar G S ::= <T> x = TEXT </T> {x}. end")
    analysis = compute_sets(g, "S")
    assert analysis.first["S"] == {"T"}
    table = build_predict_table(g, analysis)
    assert check_ll1(table)[0]


# -- rendering ------------------------------------------------------------------


def test_definition_index_counts_per_name():
    g = norm("@Grammar G X ::= <A/> {1}. X ::= <B/> {2}. end")
    table = build_predict_table(g, compute_sets(g, "X"))
    assert render_table_kv(g, table) == "X\tA\t0\nX\tB\t1\n"


def test_kv_rendering_is_linear_in_the_definitions():
    k = 8000
    clauses = tuple(Clause("R", (), (ElementSpec(f"T{i}", (), (), (Ok(),)),)) for i in range(k))
    table = PredictTable({("R", f"T{i}"): clause for i, clause in enumerate(clauses)})
    started = time.perf_counter()
    kv = render_table_kv(Grammar("G", clauses), table)
    assert time.perf_counter() - started < 0.5
    assert kv.splitlines() == sorted(f"R\tT{i}\t{i}" for i in range(k))


def test_kv_rendering_is_stable_and_sorted(test_tables):
    g, _, table = test_tables
    kv1 = render_table_kv(g, table)
    kv2 = render_table_kv(g, build_predict_table(g, compute_sets(g, "A")))
    assert kv1 == kv2
    lines = kv1.strip().split("\n")
    assert lines == sorted(lines)
    assert all(len(line.split("\t")) == 3 for line in lines)


def test_text_rendering_has_rows_and_columns(test_tables):
    g, _, table = test_tables
    text = render_table_text(g, table)
    lines = text.strip().split("\n")
    header = lines[0].split()
    assert header == ["A", "/A", "B", "C"]
    assert len(lines) == 1 + len({c.name for c in g.clauses})


def _recursion_errors(source: str) -> list:
    return [str(e) for e in compile_grammar(parse_grammar(source)).errors]


@pytest.mark.parametrize(
    "source",
    [
        "@Grammar G R ::= <a> R </a> {1}. end",  # a call inside an element is at a new position
        "@Grammar G R ::= <a> x = R </a> {x}. R ::= <b/> {2}. end",
        "@Grammar G R ::= <a/> R {1}. R ::= {2}. end",  # consumes before the call
        "@Grammar G R ::= N x = (<i/> N)* {x}. N ::= OK. end",
    ],
)
def test_recursion_after_consuming_input_is_legal(source):
    assert _recursion_errors(source) == []


def test_left_recursion_through_nullable_calls_is_an_error():
    source = "@Grammar G\nA ::= N B <x/> {1}.\nB ::= N {2} A.\nN ::= OK.\nN ::= <n/>.\nend"
    assert _recursion_errors(source) == [
        "rule B: left recursion: call to A can recur before consuming input at 3:13"
    ]


@pytest.mark.parametrize("body", ["{1}", "N", "N | <a/>", "<a/> | OK"])
def test_repetition_body_that_consumes_nothing_is_an_error(body):
    source = f"@Grammar G\nR ::= <r> xs = ({body})* </r> {{xs}}.\nN ::= OK.\nN ::= <n/>.\nend"
    star = f"2:{len(body) + 18}"
    assert _recursion_errors(source) == [
        f"rule R: repetition body can match without consuming input at {star}"
    ]
