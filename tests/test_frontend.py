"""Grammar language: lexing, parsing, diagnostics, printing round trips."""

import gc
import importlib.util
import string
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import MODELS_GRAMMAR, TEST_GRAMMAR, TEST_GRAMMAR_NORMALIZED, random_grammar
from helpers import reference_tokens
from xmlgram.ast import (
    Actions,
    Any,
    Bind,
    Call,
    Compare,
    Construct,
    ElementSpec,
    Empty,
    Fold,
    Grammar,
    IntLit,
    ListLit,
    Ok,
    Or,
    SourceSpan,
    Star,
    StrLit,
    Text,
    VarRef,
)
from xmlgram.frontend import GrammarParseError, ParseDiagnostic, lex, parse_grammar, try_parse_grammar
from xmlgram.pretty import pretty_grammar


def test_empty_grammar():
    assert parse_grammar("@Grammar E end") == Grammar("E", ())


def test_test_grammar_structure():
    g = parse_grammar(TEST_GRAMMAR)
    assert [c.name for c in g.clauses] == ["A", "B", "C"]
    a = g.clauses[0]
    assert a.params == ()
    expected_element = ElementSpec(
        "A",
        (),
        (),
        (Bind(("b",), (Star((Or(((Call("B", ()),), (Call("C", ()),))),)),)),),
    )
    assert a.body == (expected_element, Actions((VarRef("b"),)))


def test_self_closing_element_means_ok_body():
    g = parse_grammar("@Grammar G R ::= <B n=name/> {n}. end")
    explicit = parse_grammar("@Grammar G R ::= <B n = name> OK </B> {n}. end")
    assert g.clauses[0].body == explicit.clauses[0].body
    el = g.clauses[0].body[0]
    assert el == ElementSpec("B", (("n", "name"),), (), (Ok(),))


def test_bare_attribute_is_var_equals_attr():
    g = parse_grammar("@Grammar G R ::= <Attribute name type/>. end")
    el = g.clauses[0].body[0]
    assert el.attrs == (("name", "name"), ("type", "type"))


def test_models_grammar_parses_clean():
    g, diagnostics = try_parse_grammar(MODELS_GRAMMAR)
    assert g is not None
    assert diagnostics == []
    assert [c.name for c in g.clauses] == [
        "Attribute",
        "Class",
        "ClassElement",
        "Operation",
        "Package",
        "PackageElement",
        "Assoc",
    ]
    # the iterate action parses to a fold with an addChild step
    class_clause = g.clauses[1]
    action = class_clause.body[-1]
    fold = action.exprs[0]
    assert isinstance(fold, Fold)
    assert fold.over == VarRef("elements")
    assert fold.step == Construct("addChild", (VarRef(fold.acc_var), VarRef(fold.elem_var)))


def test_missing_rule_dot_reports_at_end_token():
    g, diagnostics = try_parse_grammar("@Grammar X A ::= <A/> end")
    assert g is None
    assert len(diagnostics) == 1
    assert "'.'" in diagnostics[0].message
    # the offending token is `end` on line 1
    assert diagnostics[0].span.line == 1
    assert diagnostics[0].span.length == len("end")


def test_resynchronization_reports_later_errors_too():
    source = """@Grammar X
      A ::= <A/ > .
      B ::= <B> </C>.
    end"""
    g, diagnostics = try_parse_grammar(source)
    assert g is None
    assert len(diagnostics) >= 2
    assert any("mismatched closing tag" in d.message for d in diagnostics)


def test_resynchronization_skips_the_dots_of_method_calls():
    source = (
        "@Grammar G A ::= <a/> {C.add(1}.add(2).add(3)}. B ::= <b/> {C.add(x)}."
        " T(x, y) ::= <t/> {x} ). end"
    )
    g, diagnostics = try_parse_grammar(source)
    assert g is None
    assert [str(d) for d in diagnostics] == [
        "1:31: error: expected ')', found '}'",
        "1:93: error: expected '.' at end of rule, found ')'",
    ]


@pytest.mark.parametrize(
    "body, diagnostic",
    [
        ("x = .", "2:11: error: expected a component after '=', found '.'"),
        ("<a/> {C.foo(1)}.", "2:15: error: unknown method 'foo' (only .add is supported)"),
        ("<a/> { , }.", "2:14: error: expected an expression, found ','"),
        ("<a/> {l->fold(i a = 1 | a)}.", "2:16: error: expected 'iterate' after '->', found 'fold'"),
    ],
)
def test_diagnostic_golden(body, diagnostic):
    g, diagnostics = try_parse_grammar(f"@Grammar G\nR ::= {body}\nend")
    assert g is None
    assert [str(d) for d in diagnostics] == [diagnostic]


def test_duplicate_parameters_rejected():
    g, diagnostics = try_parse_grammar("@Grammar X A(p, p) ::= OK. end")
    assert g is None
    assert any("duplicate parameter" in d.message for d in diagnostics)


def test_duplicate_attribute_vars_rejected():
    g, diagnostics = try_parse_grammar("@Grammar X A ::= <T n=a n=b/>. end")
    assert g is None
    assert any("duplicate attribute variable" in d.message for d in diagnostics)


def test_unterminated_grammar():
    g, diagnostics = try_parse_grammar("@Grammar X A ::= OK.")
    assert g is None
    assert any("unterminated grammar" in d.message for d in diagnostics)


def test_unknown_character():
    g, diagnostics = try_parse_grammar("@Grammar X A ::= OK ; . end")
    assert g is None
    assert any("unknown character" in d.message for d in diagnostics)


def test_internal_names_rejected_by_default():
    source = "@Grammar X A$1 ::= OK. end"
    g, diagnostics = try_parse_grammar(source)
    assert g is None
    assert any("reserved character" in d.message for d in diagnostics)
    g2, diagnostics2 = try_parse_grammar(source, allow_internal_names=True)
    assert g2 is not None and diagnostics2 == []


def test_parse_grammar_raises_with_diagnostics():
    with pytest.raises(GrammarParseError) as exc:
        parse_grammar("@Grammar X A ::= <A/> end")
    assert exc.value.diagnostics


def test_keywords_and_literals():
    g = parse_grammar(
        '@Grammar K R ::= EMPTY | ANY | TEXT | OK { true, false, null, 7, "s", Seq{1,2} }. end'
    )
    body = g.clauses[0].body
    assert len(body) == 1 and isinstance(body[0], Or)


@pytest.mark.parametrize("grouped", ["A | (B | C)", "(A | B) | C", "((A) | ((B | C)))"])
def test_nested_alternation_flattens(grouped):
    flat = parse_grammar("@Grammar G R ::= A | B | C. end")
    assert flat.clauses[0].body == (Or(((Call("A"),), (Call("B"),), (Call("C"),))),)
    assert parse_grammar(f"@Grammar G R ::= {grouped}. end") == flat


def test_alternation_in_a_longer_branch_stays_nested():
    g = parse_grammar("@Grammar G R ::= A | (B | C) D. end")
    inner = Or(((Call("B"),), (Call("C"),)))
    assert g.clauses[0].body == (Or(((Call("A"),), (inner, Call("D")))),)


def test_guard_syntax():
    src = '@Grammar G R ::= <T k when k = "a" > OK when k <> "a" > ANY else TEXT </T>. end'
    g = parse_grammar(src)
    el = g.clauses[0].body[0]
    assert len(el.guarded) == 2
    (g1, b1), (g2, b2) = el.guarded
    assert g1 == Compare("=", VarRef("k"), StrLit("a"))
    assert g2 == Compare("<>", VarRef("k"), StrLit("a"))
    assert b1 == (Ok(),)
    assert b2 == (Any(),)
    assert el.else_body == (Text(),)


def test_multi_name_binding():
    g = parse_grammar("@Grammar G R ::= [v, w] = S {v}. S ::= {1, 2}. end")
    bind = g.clauses[0].body[0]
    assert bind == Bind(("v", "w"), (Call("S", ()),))


def test_call_with_arguments():
    g = parse_grammar('@Grammar G R(p) ::= S(p, "x", 3). S(a, b, c) ::= OK. end')
    call = g.clauses[0].body[0]
    assert call == Call("S", (VarRef("p"), StrLit("x"), IntLit(3)))


def test_uppercase_bare_name_in_action_is_constructor():
    g = parse_grammar("@Grammar G R ::= { Nil, nil }. end")
    action = g.clauses[0].body[0]
    assert action.exprs[0] == Construct("Nil", ())
    assert action.exprs[1] == VarRef("nil")


def test_cons_and_list_expressions():
    g = parse_grammar("@Grammar G R ::= x = S { x : Seq{} }. S ::= {1}. end")
    action = g.clauses[0].body[1]
    cons = action.exprs[0]
    assert cons.head == VarRef("x")
    assert cons.tail == ListLit(())


def test_comments_ignored():
    g = parse_grammar("@Grammar G // comment\n R ::= OK. // more\n end")
    assert len(g.clauses) == 1


def test_eof_after_a_trailing_comment_is_at_the_end_of_the_line():
    _, diagnostics = try_parse_grammar("@Grammar X A ::= OK. // a long comment here")
    assert [str(d) for d in diagnostics] == ["1:44: error: unterminated grammar: expected 'end'"]


def test_string_ends_at_its_line_even_after_a_backslash():
    _, diagnostics = try_parse_grammar('@Grammar X\nA ::= <a/> {"x\\\ny"}.\nB ::= ; .\nend')
    assert [str(d) for d in diagnostics] == [
        "2:13: error: unterminated string literal",
        "3:1: error: expected '}', found 'y'",
        "3:2: error: unterminated string literal",
        "4:7: error: unknown character ';'",
    ]


def test_integer_digits_are_decimal_digits():
    g = parse_grammar("@Grammar G R ::= <a/> {٣}. end")
    assert g.clauses[0].body[1] == Actions((IntLit(3),))


# One source with every punctuation token, every keyword, the grammar marker
# and an unknown one, a negative integer, every escape, an unterminated
# string, CRLF line ends, non-ASCII identifiers and '$' names.
GOLDEN_SOURCE = (
    "@Grammar Gé // the grammar\r\n"
    '  R(p, q$1) ::= <a x=y/> [u, v] = S* | (T) {u : v, p = q, p <> q, Seq{-12, "a\\n\\t\\"\\\\b"}}.\r\n'
    '  S ::= EMPTY ANY TEXT OK </ > -> iterate when else true false null ñame_2 @Bogus ; "open\r\n'
    "end\r\n"
)

# (kind, text, line, column, length) per token.
GOLDEN_TOKENS = [
    ("@Grammar", "@Grammar", 1, 1, 8), ("IDENT", "Gé", 1, 10, 2),
    ("IDENT", "R", 2, 3, 1), ("(", "(", 2, 4, 1), ("IDENT", "p", 2, 5, 1),
    (",", ",", 2, 6, 1), ("IDENT", "q$1", 2, 8, 3), (")", ")", 2, 11, 1),
    ("::=", "::=", 2, 13, 3), ("<", "<", 2, 17, 1), ("IDENT", "a", 2, 18, 1),
    ("IDENT", "x", 2, 20, 1), ("=", "=", 2, 21, 1), ("IDENT", "y", 2, 22, 1),
    ("/>", "/>", 2, 23, 2), ("[", "[", 2, 26, 1), ("IDENT", "u", 2, 27, 1),
    (",", ",", 2, 28, 1), ("IDENT", "v", 2, 30, 1), ("]", "]", 2, 31, 1),
    ("=", "=", 2, 33, 1), ("IDENT", "S", 2, 35, 1), ("*", "*", 2, 36, 1),
    ("|", "|", 2, 38, 1), ("(", "(", 2, 40, 1), ("IDENT", "T", 2, 41, 1),
    (")", ")", 2, 42, 1), ("{", "{", 2, 44, 1), ("IDENT", "u", 2, 45, 1),
    (":", ":", 2, 47, 1), ("IDENT", "v", 2, 49, 1), (",", ",", 2, 50, 1),
    ("IDENT", "p", 2, 52, 1), ("=", "=", 2, 54, 1), ("IDENT", "q", 2, 56, 1),
    (",", ",", 2, 57, 1), ("IDENT", "p", 2, 59, 1), ("<>", "<>", 2, 61, 2),
    ("IDENT", "q", 2, 64, 1), (",", ",", 2, 65, 1), ("IDENT", "Seq", 2, 67, 3),
    ("{", "{", 2, 70, 1), ("INT", "-12", 2, 71, 3), (",", ",", 2, 74, 1),
    ("STRING", 'a\n\t"\\b', 2, 76, 12), ("}", "}", 2, 88, 1), ("}", "}", 2, 89, 1),
    (".", ".", 2, 90, 1),
    ("IDENT", "S", 3, 3, 1), ("::=", "::=", 3, 5, 3), ("EMPTY", "EMPTY", 3, 9, 5),
    ("ANY", "ANY", 3, 15, 3), ("TEXT", "TEXT", 3, 19, 4), ("OK", "OK", 3, 24, 2),
    ("</", "</", 3, 27, 2), (">", ">", 3, 30, 1), ("->", "->", 3, 32, 2),
    ("IDENT", "iterate", 3, 35, 7), ("when", "when", 3, 43, 4), ("else", "else", 3, 48, 4),
    ("true", "true", 3, 53, 4), ("false", "false", 3, 58, 5), ("null", "null", 3, 64, 4),
    ("IDENT", "ñame_2", 3, 69, 6), ("STRING", "open\r", 3, 85, 6),
    ("end", "end", 4, 1, 3),
    # the parser looks one token ahead, so the list ends in two EOF tokens
    ("EOF", "", 5, 1, 0), ("EOF", "", 5, 1, 0),
]

GOLDEN_LEXER_DIAGNOSTICS = [
    "3:76: error: unknown marker '@Bogus'",
    "3:83: error: unknown character ';'",
    "3:85: error: unterminated string literal",
]


def test_token_stream_golden():
    diagnostics = []
    toks = lex(GOLDEN_SOURCE, diagnostics)
    spans = map(toks.span, range(len(toks.kinds)))
    assert [(k, t, s.line, s.column, s.length) for k, t, s in zip(toks.kinds, toks.texts, spans)] == (
        GOLDEN_TOKENS
    )
    assert [str(d) for d in diagnostics] == GOLDEN_LEXER_DIAGNOSTICS
    _, diagnostics = try_parse_grammar(GOLDEN_SOURCE)
    assert [str(d) for d in diagnostics] == [
        "2:8: error: identifier 'q$1' uses reserved character '$'",
        "3:27: error: expected '.' at end of rule, found '</'",
    ] + GOLDEN_LEXER_DIAGNOSTICS


# Characters that start, end or break a token, or that the lexer reports.
MUTATION_CHARS = '"\\@½ñ$\r\t\n/-<>:=|*' + string.digits + string.ascii_letters
# (position, delete the character there, or else insert this one)
lexer_edits = st.tuples(st.integers(0, 10**6), st.booleans(), st.sampled_from(MUTATION_CHARS))


@settings(max_examples=300)
@given(st.integers(0, 2999), st.lists(lexer_edits, max_size=8))
def test_lexer_matches_reference_lexer(seed, edit_list):
    text = pretty_grammar(random_grammar(seed))
    for where, delete, char in edit_list:
        at = where % (len(text) + 1)
        text = text[:at] + text[at + 1 :] if delete else text[:at] + char + text[at:]
    expected_diagnostics = []
    expected = reference_tokens(text, expected_diagnostics)
    diagnostics = []
    toks = lex(text, diagnostics)
    spans = map(toks.span, range(len(toks.kinds)))
    assert list(zip(toks.kinds, toks.texts, spans)) == expected
    assert diagnostics == expected_diagnostics


@pytest.mark.parametrize(
    "source",
    [
        "",
        "R",
        "R  \n",
        "R // a comment at the end",
        "// a comment\n@Grammar G end",
        "x = -5 -> - y",
        '"a\\"b" "" "open',
        "@Bogus @Grammar",
        "½½ ½x Ⅷ12Ⅷ -1 ٣ é",  # numerals start no word, and a word may start after one
        "a$b $ ; #",
        '"open\n-1 "a" ; ½ -2',  # rare chunks before and after the first error
    ],
    ids=[
        "empty", "one-token", "trailing-blanks", "trailing-comment", "leading-comment",
        "negative-int", "strings", "markers", "numerals", "unknown-characters", "errors-among-rare",
    ],
)
def test_lexer_rare_chunks_match_reference_lexer(source):
    """Chunks that their text or first character do not classify are lexed
    again alone; one that holds an error and so is not one token sends the
    whole source through the slow path, which must report each diagnostic
    once and give every token its offsets."""
    expected_diagnostics = []
    expected = reference_tokens(source, expected_diagnostics)
    diagnostics = []
    toks = lex(source, diagnostics)
    assert list(zip(toks.kinds, toks.texts, map(toks.span, range(len(toks.kinds))))) == expected
    assert diagnostics == expected_diagnostics


def test_lexer_keeps_the_diagnostics_it_was_given():
    """The slow path drops only the diagnostics that this call reported."""
    diagnostics = [ParseDiagnostic(SourceSpan(9, 9), "earlier")]
    lex('"open\n;', diagnostics)
    assert [str(d) for d in diagnostics] == [
        "9:9: error: earlier",
        "1:1: error: unterminated string literal",
        "2:1: error: unknown character ';'",
    ]


def _bench_grammar_source(seed: int) -> str:
    """The grammar of the benchmark's ``grammar`` workload for ``seed``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.generate("grammar", seed, path.parent.parent).grammar


def test_lexer_allocates_no_object_per_token():
    """Tokens are entries in lists of strings and integers, which the garbage
    collector does not track, so lexing allocates a handful of tracked
    objects however many tokens there are."""
    source = _bench_grammar_source(1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        toks = lex(source, [])
        allocated = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert len(toks.kinds) > 9000
    assert allocated < 50


def test_empty_body_clause():
    g = parse_grammar("@Grammar G R ::= . end")
    assert g.clauses[0].body == ()


ROUND_TRIP_SOURCES = [
    TEST_GRAMMAR,
    TEST_GRAMMAR_NORMALIZED,
    MODELS_GRAMMAR,
    "@Grammar E end",
    "@Grammar G R ::= . end",
    '@Grammar G R ::= <T a b=c when a = "1" > OK else x = TEXT {x} </T>. end',
    "@Grammar G R ::= (S T)* | EMPTY. S ::= ANY. T ::= {null}. end",
    "@Grammar G R ::= [a, b] = S { a : b, Seq{a, 1}, P(a).add(b) }. S ::= {1, 2}. end",
    '@Grammar G R(p) ::= S(p) { l->iterate(i a = Nil | Cons(i, a)) }. S(x) ::= { x = "y" }. end',
    "@Grammar G R ::= A | (B | C) | (D | E) F | x = (A | B) {x}. end",
    # a bare call before a group prints as S(), or it would read as S(...)
    "@Grammar G R ::= S() (TEXT | ANY) x = S() (T | S)* {x}. S ::= OK. T ::= OK. end",
    # a boolean literal, a parenthesised operand, and comparisons and conses as operands
    "@Grammar G R ::= <a/> {false, (1), (1 = 2) = true, (1 : Nil) = Nil}. end",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_pretty_print_round_trip(source):
    g = parse_grammar(source)
    printed = pretty_grammar(g)
    assert parse_grammar(printed) == g
    # printing is stable once canonical
    assert pretty_grammar(parse_grammar(printed)) == printed


def test_round_trip_of_generated_grammars():
    from helpers import random_grammar

    for seed in range(400):
        g = random_grammar(seed)
        printed = pretty_grammar(g)
        assert parse_grammar(printed) == g, f"seed {seed}:\n{printed}"


def test_star_spans_its_operator():
    g = parse_grammar("@Grammar G\nR ::= x = (<a/> B)* <c/>* {x}.\nend")
    bind, star = g.clauses[0].body[:2]
    assert isinstance(star, Star)
    assert (bind.body[0].span, star.span) == (SourceSpan(2, 19, 1), SourceSpan(2, 25, 1))


@pytest.mark.parametrize("body", ["A | <b/> (C | D) | E", "(A | <b/> (C | D)) | E"])
def test_alternation_spans_its_first_bar(body):
    (alternation,) = parse_grammar(f"@Grammar G\nR ::= {body}.\nend").clauses[0].body
    assert isinstance(alternation, Or) and len(alternation.branches) == 3
    assert alternation.span == SourceSpan(2, body.index("|") + 7, 1)
