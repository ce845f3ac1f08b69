"""Command-line interface: exit codes, formats, oracle agreement."""

import collections
import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from helpers import LEAF_FAILURES, MODELS_DOC, MODELS_GRAMMAR, TEST_GRAMMAR, documents_for
from helpers import random_grammar
from helpers import serialize_tree
from xmlgram import cli
from xmlgram.ast import Grammar
from xmlgram.cli import main
from xmlgram.engine import compile_grammar
from xmlgram.frontend import MAX_NESTING, parse_grammar
from xmlgram.pretty import pretty_grammar
from xmlgram.values import _CHUNK, TermVal, render_json, render_term


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_state(files, capsys, collecting):
    """Commands run with automatic collection off; ``main`` leaves it as it
    found it, whether the command succeeds or fails."""
    grammar = files("test.xg", TEST_GRAMMAR)
    good = files("good.xml", '<A><B name="x"/></A>')
    bad = files("bad.xml", "<A><D/></A>")
    enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["parse", grammar, good, "--start", "A"]) == 0
        after_success = gc.isenabled()
        assert main(["parse", grammar, bad, "--start", "A"]) == 1
        after_failure = gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()
    assert after_success is after_failure is collecting


def test_commands_run_with_automatic_collection_off(files, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(gc.isenabled()) or 0)
    assert main(["check", files("test.xg", TEST_GRAMMAR)]) == 0
    assert seen == [False]


def test_check_ok(files, capsys):
    path = files("test.xg", TEST_GRAMMAR)
    assert main(["check", path]) == 0


def test_check_reports_unbound_variable(files, capsys):
    source = """@Grammar W0
      W ::= (x = X | y = Y) Z(x).
      X ::= <X/>. Y ::= <Y/>. Z(v) ::= <Z/>.
    end"""
    path = files("w.xg", source)
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert "variable x may be unbound" in err


def test_check_reports_syntax_errors(files, capsys):
    path = files("bad.xg", "@Grammar X A ::= <A/> end")
    assert main(["check", path]) == 1
    assert "expected" in capsys.readouterr().err


# One malformed grammar per expectation of the parser and per kind of lexical
# error, with the diagnostics ``check`` prints for it, one per line.
SYNTAX_ERRORS = [
    pytest.param("Grammar G end", "1:1: error: expected '@Grammar', found 'Grammar'", id="marker"),
    pytest.param("@Grammar 5 end", "1:10: error: expected grammar name, found '5'", id="grammar-name"),
    pytest.param("@Grammar G R(a b) ::= OK. end", "1:16: error: expected ')', found 'b'", id="params"),
    pytest.param("@Grammar G R(a, a) ::= OK. end", "1:17: error: duplicate parameter 'a'", id="param-twice"),
    pytest.param("@Grammar G R = OK. end", "1:14: error: expected '::=', found '='", id="rule-head"),
    pytest.param(
        "@Grammar G R ::= OK end", "1:21: error: expected '.' at end of rule, found 'end'", id="rule-end"
    ),
    pytest.param(
        "@Grammar G R ::= OK",
        "1:20: error: expected '.' at end of rule, found 'EOF'\n1:20: error: unterminated grammar: expected 'end'",
        id="rule-at-eof",
    ),
    pytest.param("@Grammar G R ::= OK.", "1:21: error: unterminated grammar: expected 'end'", id="no-end"),
    pytest.param("@Grammar G R ::= {1 2}. end", "1:21: error: expected '}', found '2'", id="actions"),
    pytest.param(
        '@Grammar G R ::= {"" ""}. end', "1:22: error: expected '}', found \"\"", id="empty-string"
    ),
    pytest.param('@Grammar G R ::= {1 "x"}. end', "1:21: error: expected '}', found \"x\"", id="string-token"),
    pytest.param("@Grammar G R ::= (OK. end", "1:21: error: expected ')', found '.'", id="group"),
    pytest.param("@Grammar G R ::= [a b] = OK. end", "1:21: error: expected ']', found 'b'", id="bind-names"),
    pytest.param(
        "@Grammar G R ::= [a, a] = OK. end", "1:22: error: duplicate binding name 'a'", id="bind-twice"
    ),
    pytest.param("@Grammar G R ::= [a] OK. end", "1:22: error: expected '=', found 'OK'", id="bind"),
    pytest.param(
        "@Grammar G R ::= x = . end",
        "1:22: error: expected a component after '=', found '.'",
        id="bind-target",
    ),
    pytest.param("@Grammar G R ::= S(1 2). end", "1:22: error: expected ')', found '2'", id="call-args"),
    pytest.param(
        "@Grammar G R ::= <a when true OK </a>. end",
        "1:31: error: expected '>' after guard, found 'OK'",
        id="guard",
    ),
    pytest.param(
        "@Grammar G R ::= <a OK </a>. end", "1:21: error: expected '>' or '/>', found 'OK'", id="start-tag"
    ),
    pytest.param("@Grammar G R ::= <a> OK. end", "1:24: error: expected '</', found '.'", id="end-tag"),
    pytest.param(
        "@Grammar G R ::= <a> OK </a . end", "1:29: error: expected '>', found '.'", id="end-tag-close"
    ),
    pytest.param(
        "@Grammar G R ::= <a> OK </b>. end",
        "1:27: error: mismatched closing tag </b> for <a>",
        id="end-tag-name",
    ),
    pytest.param("@Grammar G R ::= {Seq{}.add 1}. end", "1:29: error: expected '(', found '1'", id="add"),
    pytest.param("@Grammar G R ::= {Seq{}.add(1 2)}. end", "1:31: error: expected ')', found '2'", id="add-arg"),
    pytest.param(
        "@Grammar G R ::= {Seq{}.put(1)}. end",
        "1:25: error: unknown method 'put' (only .add is supported)",
        id="method",
    ),
    pytest.param(
        "@Grammar G R ::= {Seq{}->fold(x a = 1 | 2)}. end",
        "1:26: error: expected 'iterate' after '->', found 'fold'",
        id="iterate-name",
    ),
    pytest.param(
        "@Grammar G R ::= {Seq{}->iterate x}. end", "1:34: error: expected '(', found 'x'", id="iterate"
    ),
    pytest.param(
        "@Grammar G R ::= {Seq{}->iterate(x a 1 | 2)}. end",
        "1:38: error: expected '=', found '1'",
        id="iterate-init",
    ),
    pytest.param(
        "@Grammar G R ::= {Seq{}->iterate(x a = 1 2)}. end",
        "1:42: error: expected '|', found '2'",
        id="iterate-step",
    ),
    pytest.param(
        "@Grammar G R ::= {Seq{}->iterate(x a = 1 | 2 3)}. end",
        "1:46: error: expected ')', found '3'",
        id="iterate-end",
    ),
    pytest.param("@Grammar G R ::= {Seq{1 2}}. end", "1:25: error: expected '}', found '2'", id="list"),
    pytest.param("@Grammar G R ::= {C(1 2)}. end", "1:23: error: expected ')', found '2'", id="construct"),
    pytest.param("@Grammar G R ::= {(1 2)}. end", "1:22: error: expected ')', found '2'", id="parens"),
    pytest.param("@Grammar G R ::= {)}. end", "1:19: error: expected an expression, found ')'", id="expr"),
    pytest.param(
        "@Grammar G R ::= OK. end R", "1:26: error: trailing input after 'end'", id="trailing-input"
    ),
    pytest.param("@Grammar G R ::= OK; . end", "1:20: error: unknown character ';'", id="character"),
    pytest.param("@Grammar G R ::= @x OK. end", "1:18: error: unknown marker '@x'", id="unknown-marker"),
    pytest.param(
        '@Grammar G\nR ::= <a/> {"ab}.\nend',
        "2:13: error: unterminated string literal\n3:1: error: expected '}', found 'end'",
        id="string",
    ),
    pytest.param("@Grammar G R ::= ½x. end", "1:18: error: unknown character '½'", id="numeral"),
]


@pytest.mark.parametrize("grammar, errors", SYNTAX_ERRORS)
def test_syntax_errors_golden(files, capsys, grammar, errors):
    path = files("bad.xg", grammar)
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "".join(f"{path}:{line}\n" for line in errors.splitlines())
    assert captured.out == ""


def test_check_invalid_utf8_grammar_is_a_language_error(files, capsys):
    path = files("bad.xg", "")
    pathlib.Path(path).write_bytes(b'@Grammar G R ::= <a/> {"\xff"}. end')
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == f"{path}: error: invalid UTF-8 at byte 24\n"


def test_grammar_file_may_start_with_a_bom(files, capsys):
    path = files("bom.xg", "\ufeff" + TEST_GRAMMAR)
    assert main(["check", path]) == 0
    assert capsys.readouterr().err == ""


def test_invalid_utf8_offset_counts_the_bom(files, capsys):
    path = files("bad.xg", "")
    pathlib.Path(path).write_bytes(b'\xef\xbb\xbf@Grammar G R ::= <a/> {"\xff"}. end')
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == f"{path}: error: invalid UTF-8 at byte 27\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_grammar_line_ends_are_counted_alike(files, capsys, newline):
    path = files("g.xg", "")
    pathlib.Path(path).write_bytes(newline.join(["@Grammar G", 'R ::= <a/> {"x', "; .", "end"]).encode())
    assert main(["check", path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{path}:2:13: error: unterminated string literal",
        f"{path}:3:1: error: unknown character ';'",
        f"{path}:3:3: error: expected '}}', found '.'",
    ]


def _nth_column(text: str, sub: str, n: int) -> int:
    """1-based column of the n-th occurrence of ``sub`` in one-line ``text``."""
    at = -1
    for _ in range(n):
        at = text.index(sub, at + 1)
    return at + 1


def _nested_elements(n: int) -> str:
    return "".join(f"<e{i}>" for i in range(n)) + "".join(f"</e{i}>" for i in reversed(range(n)))


# A rule body nesting n levels deep, the text of the token that opens a level,
# and which occurrence of that text, counted from MAX_NESTING, is one level too deep.
NESTINGS = {
    "elements": (_nested_elements, "<e", 1),
    "groups": (lambda n: "(" * (n - 1) + "<a/>" + ")" * (n - 1), "(", 1),
    "constructors": (lambda n: "<a/> {" + "C(" * (n - 2) + "1" + ")" * (n - 2) + "}", "C(", 0),
    "binds": (lambda n: "".join(f"x{i} = " for i in range(n - 1)) + "<a/>", "x", 1),
    "methods": (lambda n: "<a/> {C" + ".add(1)" * (n - 3) + "}", "1", -2),
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_past_the_bound_is_a_diagnostic(files, capsys, kind):
    body, opener, nth = NESTINGS[kind]
    source = f"@Grammar G R ::= {body(10_000)}. end"
    path = files("deep.xg", source)
    assert main(["check", path]) == 1
    column = _nth_column(source, opener, MAX_NESTING + nth)
    assert capsys.readouterr().err.splitlines() == [
        f"{path}:1:{column}: error: nesting deeper than {MAX_NESTING} levels"
    ]


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_at_the_bound_compiles_and_round_trips(files, capsys, kind):
    body = NESTINGS[kind][0](MAX_NESTING)
    path = files("deep.xg", f"@Grammar G R ::= {body} {{1}}. end")
    for command in ("check", "normalize", "tables"):
        assert main([command, path]) == 0, capsys.readouterr().err
    grammar = parse_grammar(pathlib.Path(path).read_text())
    assert parse_grammar(pretty_grammar(grammar)) == grammar


@pytest.mark.parametrize("method", [".add(1)", "->iterate(e a = 1 | a)"], ids=["add", "iterate"])
def test_method_on_an_expression_at_the_bound_is_a_diagnostic(files, capsys, method):
    # the innermost argument is an expression MAX_NESTING levels deep; a
    # method applied to it would nest one level more
    levels = MAX_NESTING - 2
    source = f"@Grammar G R ::= <a/> {{{'C(' * levels}x{method}{')' * levels}}}. end"
    path = files("deep.xg", source)
    assert main(["check", path]) == 1
    column = source.index(method[:2]) + 1
    assert capsys.readouterr().err.splitlines() == [
        f"{path}:1:{column}: error: nesting deeper than {MAX_NESTING} levels"
    ]


@pytest.mark.parametrize("action", ["{²}", "{-²}", "{1²}"])
def test_non_decimal_digit_is_an_unknown_character(files, capsys, action):
    path = files("sup.xg", f"@Grammar G R ::= <a/> {action}. end")
    assert main(["check", path]) == 1
    assert "error: unknown character '²'" in capsys.readouterr().err


def test_wide_alternation_compiles_in_linear_size(files, capsys):
    k = 2000
    alternation = " | ".join(f"<T{i}/> {{{i}}}" for i in range(k))
    source = f"@Grammar G R ::= <a> x = ({alternation}) </a> {{x}}. end"
    started = time.perf_counter()
    compiled = compile_grammar(parse_grammar(source))
    assert time.perf_counter() - started < 1.0
    assert not compiled.errors and not compiled.table.conflicts
    assert len(compiled.normal.clauses) <= k + 2
    assert len(compiled.table.entries) <= 2 * k + 1
    definitions = collections.Counter(c.name for c in compiled.normal.clauses)
    assert sorted(definitions.values())[-2:] == [1, k]  # one fresh rule holds every branch
    assert main(["check", files("wide.xg", source)]) == 0


def test_check_reports_conflicts(files, capsys):
    path = files("conf.xg", "@Grammar G X ::= <A/> {1}. X ::= <A/> {2}. end")
    assert main(["check", path]) == 1
    assert "conflict" in capsys.readouterr().err


def test_check_missing_file_is_io_error(files, capsys):
    assert main(["check", "/no/such/file.xg"]) == 2


def test_check_models_warns_but_passes(files, capsys):
    path = files("models.xg", MODELS_GRAMMAR)
    assert main(["check", path]) == 0
    assert "warning" in capsys.readouterr().err


def test_tables_text_format(files, capsys):
    path = files("test.xg", TEST_GRAMMAR)
    assert main(["tables", path]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split()
    assert header == ["A", "/A", "B", "C"]


def test_tables_kv_format_stable(files, capsys):
    path = files("test.xg", TEST_GRAMMAR)
    assert main(["tables", path, "--format", "kv"]) == 0
    first = capsys.readouterr().out
    assert main(["tables", path, "--format", "kv"]) == 0
    second = capsys.readouterr().out
    assert first == second
    rows = [line.split("\t") for line in first.strip().splitlines()]
    assert all(len(row) == 3 for row in rows)
    assert [r for r in rows if r[0] == "A"] == [["A", "A", "0"]]


def test_tables_conflicted_still_prints_then_fails(files, capsys):
    path = files("conf.xg", "@Grammar G X ::= <A/> {1}. X ::= <A/> {2}. end")
    assert main(["tables", path]) == 1
    captured = capsys.readouterr()
    assert captured.out.strip()  # table printed
    assert "conflict" in captured.err


def test_tables_empty_grammar(files, capsys):
    path = files("e.xg", "@Grammar E end")
    assert main(["tables", path]) == 0


def test_normalize_output_reparses_to_normal_form(files, capsys):
    path = files("test.xg", TEST_GRAMMAR)
    assert main(["normalize", path]) == 0
    out = capsys.readouterr().out
    reparsed = parse_grammar(out, allow_internal_names=True)
    from xmlgram.normalize import is_normal_form, normalize_grammar

    assert is_normal_form(reparsed)
    assert reparsed == normalize_grammar(parse_grammar(TEST_GRAMMAR))


def test_parse_term_output(files, capsys):
    g = files("test.xg", TEST_GRAMMAR)
    d = files("doc.xml", '<A><B name="x"/><C name="y"/></A>')
    assert main(["parse", g, d, "--start", "A"]) == 0
    assert capsys.readouterr().out.strip() == 'Cons("x",Cons("y",Nil))'


def test_parse_default_start_is_first_rule(files, capsys):
    g = files("test.xg", TEST_GRAMMAR)
    d = files("doc.xml", "<A></A>")
    assert main(["parse", g, d]) == 0
    assert capsys.readouterr().out.strip() == "Nil"


def test_parse_json_output(files, capsys):
    g = files("test.xg", TEST_GRAMMAR)
    d = files("doc.xml", '<A><B name="x"/></A>')
    assert main(["parse", g, d, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"ctor": "Cons", "args": ["x", {"ctor": "Nil", "args": []}]}


def test_parse_oracle_agrees_with_engine(files, capsys):
    g = files("models.xg", MODELS_GRAMMAR)
    d = files("doc.xml", MODELS_DOC)
    assert main(["parse", g, d, "--start", "Package"]) == 0
    engine_out = capsys.readouterr().out
    assert main(["parse", g, d, "--start", "Package", "--oracle"]) == 0
    oracle_out = capsys.readouterr().out
    assert engine_out == oracle_out


def test_parse_oracle_takes_the_first_true_guard(files, capsys):
    source = '@Grammar G R ::= <R k when k = "y" > {1} when k <> "n" > {2} else {3} </R>. end'
    g = files("g.xg", source)
    d = files("doc.xml", '<R k="y"/>')
    for extra in ([], ["--oracle"]):
        assert main(["parse", g, d, *extra]) == 0
        assert capsys.readouterr() == ("1\n", "")


def test_parse_rejects_wrong_document(files, capsys):
    g = files("test.xg", TEST_GRAMMAR)
    d = files("doc.xml", "<X/>")
    assert main(["parse", g, d]) == 1
    assert "NoPredictEntry" in capsys.readouterr().err


def test_parse_malformed_xml(files, capsys):
    g = files("test.xg", TEST_GRAMMAR)
    d = files("doc.xml", '<A>\n<B name="x"></A>')
    assert main(["parse", g, d]) == 1
    err = capsys.readouterr().err
    assert "mismatched end tag" in err
    assert "2:" in err  # line:column of the offending tag


def test_parse_missing_document_is_io_error(files):
    g = files("test.xg", TEST_GRAMMAR)
    assert main(["parse", g, "/no/doc.xml"]) == 2


def test_parse_keep_whitespace_changes_outcome(files, capsys):
    source = "@Grammar G R ::= <T> x = TEXT </T> {x}. end"
    g = files("t.xg", source)
    d = files("doc.xml", "<T>  </T>")
    assert main(["parse", g, d]) == 1  # whitespace dropped: no text event
    assert main(["parse", g, d, "--keep-whitespace"]) == 0
    assert capsys.readouterr().out.strip() == '"  "'


def test_normalize_models_round_trip(files, capsys):
    path = files("models.xg", MODELS_GRAMMAR)
    assert main(["normalize", path]) == 0
    out = capsys.readouterr().out
    reparsed = parse_grammar(out, allow_internal_names=True)
    assert pretty_grammar(reparsed) == out


# One grammar for every rewrite path: a star inside an alternation inside an
# element (Doc), guarded branches with calls left in place (Item), the lone
# `x = Call` hoist (Leaf), a whole-body alternation split (Word), a nested
# alternation with common bindings (Pick), and an alternation that may bind
# a name already in scope again (Redo).
REWRITES_GRAMMAR = """@Grammar Rewrites
  Doc ::= <Doc> v = (Item* | <None/> {Nil}) </Doc> {v}.
  Item ::= <Item k when k = "pair" > a = Leaf b = Leaf else a = Leaf b = OK </Item> {Pair(a, b)}.
  Leaf ::= <Leaf> w = Word </Leaf> {w}.
  Word ::= t = TEXT {t} | <Br/> {"nl"}.
  Pick ::= (c = Leaf {c} | (c = Item {c} | c = Doc {c})) {c}.
  Redo ::= <Redo> w = TEXT (w = Leaf | <Keep/>) </Redo> {w}.
end"""

REWRITES_NORMALIZED = (
    '@Grammar Rewrites\n'
    '  Doc ::= v = <Doc> Doc$1 </Doc> { v }.\n'
    '  Doc$1 ::= Doc$2.\n'
    '  Doc$1 ::= <None/> { Nil }.\n'
    '  Doc$2 ::= x = Item xs = Doc$2 { Cons(x, xs) }.\n'
    '  Doc$2 ::= { Nil }.\n'
    '  Item ::= <Item k when k = "pair" > a = Leaf b = Leaf else a = Leaf b = OK </Item> { Pair(a, b) }.\n'
    '  Leaf ::= w = <Leaf> Word </Leaf> { w }.\n'
    '  Word ::= t = TEXT { t }.\n'
    '  Word ::= <Br/> { "nl" }.\n'
    '  Pick ::= [v$7,c] = Pick$3 { v$7 } { c }.\n'
    '  Pick$3 ::= v$4 = (c = Leaf { c }) { v$4, c }.\n'
    '  Pick$3 ::= v$5 = (c = Item { c }) { v$5, c }.\n'
    '  Pick$3 ::= v$6 = (c = Doc { c }) { v$6, c }.\n'
    '  Redo ::= <Redo> w = TEXT [v$11,w] = Redo$8(w) { v$11 } </Redo> { w }.\n'
    '  Redo$8(w) ::= v$9 = w = Leaf { v$9, w }.\n'
    '  Redo$8(w) ::= v$10 = <Keep/> { v$10, w }.\n'
    'end\n'
)


def test_normalize_golden_names_and_order(files, capsys):
    path = files("rewrites.xg", REWRITES_GRAMMAR)
    assert main(["normalize", path]) == 0
    assert capsys.readouterr().out == REWRITES_NORMALIZED


# A grammar whose predict table has TEXT and ANY columns next to tag columns.
MIXED_GRAMMAR = """@Grammar Mixed
  Doc ::= <Doc> ns = Note* <Tail> ANY* </Tail> </Doc> {ns}.
  Note ::= <Note> p = Part </Note> {p}.
  Part ::= t = TEXT {Text(t)} | <Skip> ANY </Skip> {Skipped}.
end"""

MIXED_TABLE_TEXT = (
    "       Doc                                                  Note                                 Skip                            Tail     /Tail    TEXT                  ANY\n"
    "Doc    <Doc> ns = Doc$1 <Tail> Doc$2 </Tail> </Doc> { ns }\n"
    "Doc$1                                                       x = Note xs = Doc$1 { Cons(x, xs) }                                  { Nil }\n"
    "Doc$2                                                                                                                                     { Nil }                        x = ANY xs = Doc$2 { Cons(x, xs) }\n"
    "Note                                                        p = <Note> Part </Note> { p }\n"
    "Part                                                                                             <Skip> ANY </Skip> { Skipped }                    t = TEXT { Text(t) }\n"
)

MIXED_TABLE_KV = (
    "Doc\tDoc\t0\n"
    "Doc$1\tNote\t0\n"
    "Doc$1\tTail\t1\n"
    "Doc$2\t/Tail\t1\n"
    "Doc$2\tANY\t0\n"
    "Note\tNote\t0\n"
    "Part\tSkip\t1\n"
    "Part\tTEXT\t0\n"
)


@pytest.mark.parametrize("fmt, expected", [("text", MIXED_TABLE_TEXT), ("kv", MIXED_TABLE_KV)])
def test_tables_golden_text_and_any_columns(files, capsys, fmt, expected):
    path = files("mixed.xg", MIXED_GRAMMAR)
    assert main(["tables", path, "--format", fmt]) == 0
    assert capsys.readouterr().out == expected


def test_check_conflict_messages_golden(files, capsys):
    path = files("conf.xg", "@Grammar G X ::= ANY {1}. X ::= ANY {2}. T ::= TEXT {1}. T ::= TEXT {2}. end")
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == (
        f"{path}: conflict: predict(T, TEXT) has 2 candidates\n"
        f"{path}: conflict: predict(X, ANY) has 2 candidates\n"
    )


# Two grammars that once drew from the test generator, pinned as text: the
# oracle's answers on them depended on how far it let a rule re-enter itself.
NULLABLE_REPETITION_BODY = """@Grammar Gen
  R0 ::= <Ta u1=p> u2 = R1 </Ta> u3 = R2 { W(u3) }.
  R1 ::= { null } { null }.
  R2 ::= u4 = (R2 OK)* { W(u4) }.
  R2 ::= u7 = <Tc u5=p u6=q/>* { null }.
end
"""
LEFT_RECURSIVE_ALTERNATIVE = """@Grammar Gen
  R0 ::= u2 = ({ 2 } u1 = <Td/>)* (R1 | u2 = R0) { W(u2) }.
  R1 ::= { 3 } u3 = R2 { W(u3) }.
  R1 ::= u4 = TEXT { W(u4) }.
  R2 ::= u5 = R0() (u5 = TEXT | { W(u5) } { W(u5) }) { W(u5) }.
  R2 ::= (OK | u6 = TEXT { 6 }) { "k" }.
end
"""


@pytest.mark.parametrize(
    "grammar, messages",
    [
        (
            NULLABLE_REPETITION_BODY,
            [
                "rule R2: left recursion: call to R2 can recur before consuming input at 4:16",
                "rule R2: repetition body can match without consuming input at 4:22",
            ],
        ),
        (
            LEFT_RECURSIVE_ALTERNATIVE,
            [
                "rule R2: left recursion: call to R0 can recur before consuming input at 5:15",
                "rule R0: left recursion: call to R0 can recur before consuming input at 2:46",
            ],
        ),
    ],
    ids=["nullable-repetition-body", "left-recursive-alternative"],
)
def test_check_rejects_recursion_without_consuming_input(files, capsys, grammar, messages):
    path = files("rec.xg", grammar)
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == "".join(f"{path}: {m}\n" for m in messages)


@pytest.mark.parametrize(
    "grammar, document, message",
    [
        (TEST_GRAMMAR, '<A><D/></A>', "NoPredictEntry at event 1: no prediction for rule A$1 on D"),
        (MIXED_GRAMMAR, "<Doc>hello</Doc>", "NoPredictEntry at event 1: no prediction for rule Doc$1 on TEXT"),
        (MIXED_GRAMMAR, "<Doc><Note></Note></Doc>", "NoPredictEntry at event 2: no prediction for rule Part on /Note"),
    ],
)
def test_parse_no_predict_entry_message_golden(files, capsys, grammar, document, message):
    g = files("g.xg", grammar)
    d = files("doc.xml", document)
    assert main(["parse", g, d]) == 1
    assert capsys.readouterr().err == f"{d}: parse failed: {message}\n"


@pytest.mark.parametrize(
    "grammar, document, message",
    [
        (
            "@Grammar G R ::= <T a/> {a->iterate(e acc = 0 | acc)}. end",
            '<T a="x"/>',
            'EvalError at event 2: cannot iterate over "x"',
        ),
        (
            "@Grammar G R ::= <T/> {addChild(1, 2)}. end",
            "<T/>",
            "EvalError at event 2: addChild expects a term and a value",
        ),
    ],
)
def test_parse_evaluation_error_is_a_parse_failure(files, capsys, grammar, document, message):
    g = files("g.xg", grammar)
    d = files("doc.xml", document)
    assert main(["parse", g, d]) == 1
    assert capsys.readouterr().err == f"{d}: parse failed: {message}\n"


@pytest.mark.parametrize("grammar, document, keep_whitespace, message", LEAF_FAILURES.values(), ids=list(LEAF_FAILURES))
def test_parse_failure_in_a_leaf_item_golden(files, capsys, grammar, document, keep_whitespace, message):
    g = files("g.xg", grammar)
    d = files("doc.xml", document)
    assert main(["parse", g, d] + ["--keep-whitespace"] * keep_whitespace) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{d}: parse failed: {message}\n"
    assert captured.out == ""


def test_parse_evaluation_error_on_a_long_list_is_one_short_line(files, capsys):
    # The message shows the value as render_term text cut short; repr would
    # recurse down the 100,000 cells of the list and raise RecursionError.
    g = files("g.xg", "@Grammar G A ::= <A> b = B* </A> { W(b)->iterate(e a = 0 | a) }. B ::= <B/> {Z}. end")
    d = files("doc.xml", "<A>" + "<B/>" * 100_000 + "</A>")
    assert main(["parse", g, d]) == 1
    shown = "W(" + "Cons(Z," * 11 + "…"
    message = f"EvalError at event 200002: cannot iterate over {shown}"
    assert capsys.readouterr().err == f"{d}: parse failed: {message}\n"


def test_comparing_values_nested_too_deeply_is_a_parse_failure_not_a_traceback(files):
    # From a flat document: each fold nests its 5,000 items along the first argument.
    fold = "xs->iterate(e acc = Nil | Node(acc, e))"
    g = files("g.xg", f"@Grammar G R ::= <R> xs = B* </R> {{ {fold} = {fold} }}. B ::= <B/> {{1}}. end")
    d = files("doc.xml", "<R>" + "<B/>" * 5_000 + "</R>")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "xmlgram.cli", "parse", g, d],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    message = "EvalError at event 10002: values nested too deeply to compare"
    assert proc.stderr == f"{d}: parse failed: {message}\n"


def test_parse_failure_on_long_text_is_one_short_line(files, capsys):
    g = files("g.xg", "@Grammar G A ::= <A> <B/> </A> {1}. end")
    d = files("doc.xml", "<A>" + "x" * 1_000_000 + "</A>")
    assert main(["parse", g, d]) == 1
    message = "TagMismatch at event 1: expected <B>, found text '" + "x" * 78 + "…"
    assert capsys.readouterr().err == f"{d}: parse failed: {message}\n"


def test_parse_json_output_of_long_repetition(files, capsys):
    n = 20_000
    g = files("test.xg", TEST_GRAMMAR)
    d = files("doc.xml", "<A>" + '<B name="x"/>' * n + "</A>")
    assert main(["parse", g, d, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.count('"Cons"') == n
    assert out.startswith('{"args": ["x", {"args": ["x", ')
    assert out.endswith('{"args": [], "ctor": "Nil"}' + '], "ctor": "Cons"}' * n + "\n")


@pytest.mark.parametrize("fmt", ["term", "json"])
@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["engine", "oracle"])
def test_parse_writes_its_output_in_chunks(files, monkeypatch, fmt, oracle):
    """Both paths and both formats write the value chunk by chunk, never as
    one string, and end with a newline of its own."""
    n = 300  # the oracle recurses once per sibling
    g = files("test.xg", TEST_GRAMMAR)
    d = files("doc.xml", "<A>" + '<B name="x"/>' * n + "</A>")
    writes = []
    monkeypatch.setattr(sys, "stdout", collections.namedtuple("Out", "write")(writes.append))
    assert main(["parse", g, d, "--format", fmt] + oracle) == 0
    value = TermVal("Nil")
    for _ in range(n):
        value = TermVal("Cons", ("x", value))
    assert "".join(writes) == (render_json if fmt == "json" else render_term)(value) + "\n"
    assert len(writes) > 3 and writes[-1] == "\n"


def test_parse_lets_the_grammar_go_before_the_machine_runs(files, capsys, monkeypatch):
    """Only the oracle reads the user's grammar; the machine needs its table,
    so the parsed grammar is freed before the run and only the normal form
    (the same name) is left."""
    held = []

    class Spy(cli.Machine):
        def run(self):
            held.extend(o for o in gc.get_objects() if type(o) is Grammar and o.name == "Held")
            return super().run()

    monkeypatch.setattr(cli, "Machine", Spy)
    g = files("g.xg", TEST_GRAMMAR.replace("@Grammar Test", "@Grammar Held"))
    assert main(["parse", g, files("doc.xml", '<A><B name="x"/></A>')]) == 0
    assert capsys.readouterr().out == 'Cons("x",Nil)\n'
    assert len(held) == 1 and held[0].loops  # the normal form names its loops


def test_parse_json_chunks_stay_bounded_to_the_end(files, monkeypatch):
    """The closing texts at the end of a long list are chunked like the
    rest, so no chunk, the last one included, outgrows the piece limit."""
    n = 2_000
    g = files("test.xg", TEST_GRAMMAR)
    d = files("doc.xml", "<A>" + '<B name="x"/>' * n + "</A>")
    writes = []
    monkeypatch.setattr(sys, "stdout", collections.namedtuple("Out", "write")(writes.append))
    assert main(["parse", g, d, "--format", "json"]) == 0
    closing = '], "ctor": "Cons"}'
    out = "".join(writes)
    assert out.count(closing) == n and writes[-1] == "\n"
    # a chunk holds at most _CHUNK + 1 pieces, none longer than ``closing``
    bound = (_CHUNK + 1) * len(closing)
    assert max(len(chunk) for chunk in writes) <= bound < len(out) / 10


@pytest.mark.parametrize("command", ["check", "tables", "parse"])
def test_undefined_start_rule_is_reported(files, capsys, command):
    for grammar in [TEST_GRAMMAR, "@Grammar E end"]:  # a grammar without rules too
        g = files("test.xg", grammar)
        argv = [command, g] + ([files("doc.xml", "<A></A>")] if command == "parse" else [])
        assert main(argv + ["--start", "Nope"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{g}: rule Nope: start rule is not defined\n"
        assert captured.out == ""


@pytest.mark.parametrize("extra", [[], ["--oracle"]], ids=["engine", "oracle"])
def test_parse_invalid_utf8_is_malformed_xml(files, tmp_path, capsys, extra):
    g = files("test.xg", TEST_GRAMMAR)
    d = tmp_path / "bad.xml"
    d.write_bytes(b'<A><B name="\xff"/></A>')
    assert main(["parse", g, str(d)] + extra) == 1
    assert capsys.readouterr().err == f"{d}:1:13: not well-formed (invalid token)\n"


@pytest.mark.parametrize("extra", [[], ["--oracle"]], ids=["engine", "oracle"])
def test_parse_start_rule_with_parameters_fails_alike_on_both_paths(files, capsys, extra):
    # The command line passes the start rule no arguments; the grammar is fine.
    g = files("r.xg", "@Grammar G R(a) ::= <R/> {a}. end")
    d = files("r.xml", "<R/>")
    assert main(["check", g]) == 0
    capsys.readouterr()
    assert main(["parse", g, d] + extra) == 1
    captured = capsys.readouterr()
    message = "CallArityMismatch at event 0: rule R takes 1 argument(s), got 0"
    assert captured.err == f"{d}: parse failed: {message}\n" and captured.out == ""


@pytest.mark.parametrize("extra", [[], ["--oracle"]], ids=["engine", "oracle"])
@pytest.mark.parametrize("encoding", ["bogus-enc", "shift_jis", "utf-32"])
def test_parse_unusable_declared_encoding_is_unsupported(files, tmp_path, capsys, extra, encoding):
    # expat asks Python for an encoding it does not know: an unknown one, or
    # a multi-byte one other than UTF-8 and UTF-16.
    g = files("test.xg", TEST_GRAMMAR)
    d = tmp_path / "doc.xml"
    d.write_bytes(f'<?xml version="1.0" encoding="{encoding}"?><A><B name="x"/></A>'.encode())
    assert main(["parse", g, str(d)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{d}:1:31: encoding {encoding!r} is not supported\n"
    assert captured.out == ""


def test_parse_oracle_budget_must_be_an_integer(files, capsys, monkeypatch):
    monkeypatch.setenv("XMLGRAM_MAX_DERIVATIONS", "abc")
    g = files("test.xg", TEST_GRAMMAR)
    d = files("doc.xml", '<A><B name="x"/></A>')
    assert main(["parse", g, d, "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: XMLGRAM_MAX_DERIVATIONS must be a positive integer, got 'abc'\n"
    assert captured.out == ""
    assert main(["parse", g, d]) == 0  # the engine does not read it


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_parse_oracle_budget_below_one_is_a_usage_error(capsys, monkeypatch, budget):
    monkeypatch.setenv("XMLGRAM_MAX_DERIVATIONS", budget)
    assert main(["parse", str(SAMPLES / "seq.xg"), str(SAMPLES / "seq.xml"), "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: XMLGRAM_MAX_DERIVATIONS must be a positive integer, got '{budget}'\n"
    assert captured.out == ""


def test_parse_oracle_evaluation_error_is_a_parse_failure(files, capsys):
    g = files("g.xg", "@Grammar G R ::= <T/> {addChild(1, 2)}. end")
    d = files("doc.xml", "<T/>")
    assert main(["parse", g, d, "--oracle"]) == 1
    assert capsys.readouterr().err == f"{d}: parse failed: EvalError: addChild expects a term and a value\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        ([], "GuardNonBoolean at event 0: guard evaluated to non-boolean 1"),
        (["--oracle"], "GuardNonBoolean: guard evaluated to non-boolean 1"),
    ],
    ids=["engine", "oracle"],
)
def test_parse_non_boolean_guard_golden(files, capsys, flags, message):
    # Both paths name the failure alike; only the engine knows the event.
    g = files("g.xg", "@Grammar G R ::= <R when 1 > OK else OK </R>. end")
    d = files("doc.xml", "<R/>")
    assert main(["parse", g, d] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{d}: parse failed: {message}\n"
    assert captured.out == ""


def test_parse_oracle_step_limit_is_a_parse_failure(files, capsys, monkeypatch):
    monkeypatch.setenv("XMLGRAM_MAX_DERIVATIONS", "1")
    g = files("test.xg", TEST_GRAMMAR)
    d = files("doc.xml", '<A><B name="x"/></A>')
    assert main(["parse", g, d, "--oracle"]) == 1
    err = capsys.readouterr().err
    assert err == f"{d}: parse failed: OracleLimitExceeded: more than 1 derivation steps\n"


def test_parse_oracle_values_too_deep_to_compare_are_a_parse_failure(files, capsys):
    # Two derivations whose values nest 1,200 deep, down all but their last argument.
    g = files("g.xg", """@Grammar G
      R ::= <A> xs = B* </A> { xs->iterate(e acc = Z | W(acc, e)) }
          | <A> xs = B* </A> { xs->iterate(e acc = Z | W(acc, "y")) }.
      B ::= <B/> {"x"}.
    end""")
    d = files("doc.xml", "<A>" + "<B/>" * 1200 + "</A>")
    assert main(["parse", g, d, "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{d}: parse failed: EvalError: values nested too deeply to compare\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags", [[], ["--oracle"]])
def test_parse_reports_a_read_error_before_an_action_that_fails_after_it(files, capsys, flags):
    # The engine reads the event after </R> as it consumes </R>, before the action runs.
    g = files("g.xg", '@Grammar G R ::= <R> x = TEXT </R> { "s".add(x) }. end')
    d = files("doc.xml", "<R>t</R><junk/>")
    assert main(["parse", g, d] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{d}:1:9: junk after document element\n"
    assert captured.out == ""


def test_parse_oracle_deep_document_is_a_parse_failure(files, capsys):
    g = files("g.xg", "@Grammar G R ::= <T> kids = R* </T> {Node(kids)}. end")
    d = files("doc.xml", "<T>" * 1000 + "</T>" * 1000)
    assert main(["parse", g, d, "--oracle"]) == 1
    message = "OracleLimitExceeded: derivation nests elements or rule calls deeper than the recursion limit"
    assert capsys.readouterr().err == f"{d}: parse failed: {message}\n"
    assert main(["parse", g, d]) == 0  # the engine streams it


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"
SEQ_DOC = (SAMPLES / "seq.xml").read_bytes()
# (position, bytes to cut there, bytes to insert there)
edits = st.tuples(st.integers(0, len(SEQ_DOC)), st.integers(0, 3), st.binary(max_size=4))


@given(st.lists(edits, min_size=1, max_size=4))
def test_parse_never_tracebacks_on_mutated_bytes(tmp_path_factory, edit_list):
    doc = bytearray(SEQ_DOC)
    for pos, cut, insert in edit_list:
        doc[pos : pos + cut] = insert
    path = tmp_path_factory.getbasetemp() / "mutated.xml"
    path.write_bytes(bytes(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["parse", str(SAMPLES / "seq.xg"), str(path)])
    assert code in (0, 1, 2), err.getvalue()


GRAMMARS = [(SAMPLES / name).read_bytes() for name in ("seq.xg", "models.xg")]
SEQ_GRAMMAR = GRAMMARS[0].decode()
# (position, bytes to cut there, bytes to insert there, times to repeat them)
edit_at = (st.integers(0, max(map(len, GRAMMARS))), st.integers(0, 3))
grammar_edits = st.one_of(
    st.tuples(
        *edit_at,
        st.one_of(
            st.sampled_from(
                [b"(", b"<", b"|", b"{", b"<e>", b"C(", b"x = ", b")", b".", b"7"]
                + [c.encode() for c in "²½Ⅷé٣"]
            ),
            st.binary(max_size=3),
        ),
        # 4,400 digits in a row are past CPython's limit for converting a string to an int
        st.sampled_from([1, 2, 3, 400, 4400]),
    ),
    # the same as an action, where an integer literal is parsed
    st.tuples(*edit_at, st.just(b"{" + b"7" * 4400 + b"}"), st.just(1)),
)


@given(
    st.sampled_from(GRAMMARS),
    st.lists(grammar_edits, min_size=1, max_size=4),
    st.sampled_from(["check", "tables"]),
)
def test_check_never_tracebacks_on_mutated_grammars(tmp_path_factory, grammar, edit_list, command):
    text = bytearray(grammar)
    for pos, cut, insert, times in edit_list:
        text[pos : pos + cut] = insert * times
    path = tmp_path_factory.getbasetemp() / "mutated.xg"
    path.write_bytes(bytes(text))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    assert code in (0, 1, 2), err.getvalue()


@settings(max_examples=60)
@given(
    st.integers(0, 2999),
    st.integers(0, 6),
    st.sampled_from(["whole", "half", "junk"]),
    st.sampled_from([[], ["--oracle"]]),
)
def test_parse_never_tracebacks_on_generated_pairs(tmp_path_factory, seed, pick, cut, extra):
    grammar = random_grammar(seed)
    docs = [serialize_tree(doc) for doc in documents_for(grammar, grammar.clauses[0].name, seed)]
    text = docs[pick % len(docs)] if docs else "<Ta/>"
    text = {"whole": text, "half": text[: len(text) // 2], "junk": text + "<J/>"}[cut]
    base = tmp_path_factory.getbasetemp()
    (base / "generated.xg").write_text(pretty_grammar(grammar), encoding="utf-8")
    (base / "generated.xml").write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["parse", str(base / "generated.xg"), str(base / "generated.xml")] + extra)
    assert code in (0, 1, 2), err.getvalue()


@pytest.mark.parametrize(
    "fmt, head",
    [("term", b'Cons("0123456789",Cons('), ("json", b'{"args": ["0123456789"')],
    ids=["term", "json"],
)
def test_closed_stdout_is_an_io_error_not_a_traceback(files, fmt, head):
    """``xmlgram parse … | head -c 100``: the reader closes the pipe while the
    value is being written, between one chunk and the next."""
    grammar = files("g.xg", "@Grammar G R ::= <r> xs = S* </r> {xs}. S ::= <s v=v/> {v}. end")
    doc = files("big.xml", "<r>" + '<s v="0123456789"/>' * 20_000 + "</r>")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "xmlgram.cli", "parse", grammar, doc, "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.read(100).startswith(head)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2, err
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert err == "error: cannot write output: broken pipe\n"


@pytest.mark.parametrize(
    "grammar, document, argv, code, err, out",
    [
        pytest.param(
            "@Grammar G R ::= <R/> {x}. end", None, ["normalize"], 1,
            "{g}: rule R: variable x may be unbound at 1:24\n", "", id="normalize-bad-grammar",
        ),
        pytest.param(
            "@Grammar G end", "<R/>", ["parse"], 1,
            "{g}: grammar has no rules\n", "", id="parse-no-rules",
        ),
        pytest.param(
            "@Grammar G R ::= <R/> {1}. end", "<S/>", ["parse", "--oracle"], 1,
            "{d}: parse failed: no derivation\n", "", id="oracle-no-derivation",
        ),
        pytest.param(
            "@Grammar G R ::= <R/> {1} | <R/> {2}. end", "<R/>", ["parse", "--oracle"], 0,
            "warning: grammar is ambiguous for this document (2 distinct values)\n", "1\n",
            id="oracle-ambiguity-warning",
        ),
        pytest.param(
            "@Grammar G R ::= <R/> {" + "9" * 5000 + "}. end", "<R/>", ["parse"], 1,
            "{g}:1:24: error: integer literal has too many digits\n", "", id="integer-past-digit-limit",
        ),
        pytest.param(
            "@Grammar G R ::= <Gé n=name/> {n} | <G n=né/> {n}. end", None, ["check"], 0,
            "{g}: warning: rule R: tag 'Gé' is a name the XML reader rejects (never matches) at 1:18\n"
            "{g}: warning: rule R: attribute 'né' is a name the XML reader rejects (never matches) at 1:37\n",
            "", id="lint-reader-names",
        ),
    ]
    + [
        # ``A$2`` is a rule that normalization makes, not one of the grammar's
        pytest.param(
            SEQ_GRAMMAR, document, argv + ["--start", "A$2"], 1,
            "{g}: rule A$2: start rule is not defined\n", "", id="generated-start-" + "-".join(argv),
        )
        for argv, document in [
            (["check"], None),
            (["tables"], None),
            (["parse"], '<B name="x"/>'),
            (["parse", "--oracle"], '<B name="x"/>'),
        ]
    ],
)
def test_diagnostics_golden(files, capsys, grammar, document, argv, code, err, out):
    """Exit code, the whole of stderr, and stdout: empty whenever the command fails."""
    g = files("g.xg", grammar)
    paths = [g] if document is None else [g, files("doc.xml", document)]
    assert main(argv[:1] + paths + argv[1:]) == code
    captured = capsys.readouterr()
    assert captured.err == err.format(g=g, d=paths[-1])
    assert captured.out == out
