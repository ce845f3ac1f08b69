"""The table-driven machine: transitions, failures, streaming bounds."""

import gc
import io
import pathlib

import pytest

from helpers import MODELS_DOC, MODELS_GRAMMAR, TEST_GRAMMAR, flatten_tree, run
from xmlgram.analysis import build_predict_table, check_ll1, compute_sets
from xmlgram.engine import (
    BIND_ARITY_MISMATCH,
    GUARD_NON_BOOLEAN,
    MISSING_ATTRIBUTE,
    NO_PREDICT_ENTRY,
    TAG_MISMATCH,
    UNEXPECTED_END_OF_EVENTS,
    IncompleteParse,
    Machine,
    ParseFailure,
    Program,
)
from xmlgram.events import EndTag, StartTag, TextEvt
from xmlgram.frontend import parse_grammar
from xmlgram.normalize import normalize_grammar
from xmlgram.oracle import Oracle
from xmlgram.sax import SaxReader, read_events
from xmlgram.values import IntVal, NullVal, TermVal


def make_table(source: str, start: str):
    g = normalize_grammar(parse_grammar(source))
    analysis = compute_sets(g, start)
    table = build_predict_table(g, analysis)
    ok, conflicts = check_ll1(table)
    assert ok, conflicts
    return g, table


@pytest.fixture(scope="module")
def test_lang():
    return make_table(TEST_GRAMMAR, "A")


def test_single_rule_call_synthesizes_attribute(test_lang):
    _, table = test_lang
    events = [StartTag("B", {"name": "foo"}), EndTag("B")]
    assert run(table, "B", events) == "foo"


def test_full_document(test_lang):
    _, table = test_lang
    events = list(read_events('<A><B name="x"/><C name="y"/></A>'))
    value = run(table, "A", events)
    assert value == TermVal(
        "Cons", ("x", TermVal("Cons", ("y", TermVal("Nil", ()))))
    )


def test_empty_repetition_is_nil(test_lang):
    _, table = test_lang
    assert run(table, "A", read_events("<A></A>")) == TermVal("Nil", ())


def test_tag_mismatch(test_lang):
    _, table = test_lang
    events = [StartTag("B", {"name": "x"}), EndTag("B")]
    with pytest.raises(ParseFailure) as exc:
        run(table, "A", events)
    # predicting A on token B finds no entry
    assert exc.value.reason == NO_PREDICT_ENTRY
    assert exc.value.position == 0


def test_no_predict_entry_at_end_of_input_names_the_sentinel(test_lang):
    _, table = test_lang
    with pytest.raises(ParseFailure) as exc:
        run(table, "A", [])
    assert str(exc.value) == "NoPredictEntry at event 0: no prediction for rule A on /$"


def test_element_head_mismatch():
    _, table = make_table("@Grammar G R ::= <T> S </T> {1}. S ::= <S/> {2}. end", "R")
    with pytest.raises(ParseFailure) as exc:
        run(table, "R", read_events("<T><X/></T>"))
    assert exc.value.reason == NO_PREDICT_ENTRY  # S predicted on X fails first
    with pytest.raises(ParseFailure) as exc2:
        run(table, "R", [StartTag("T", {}), StartTag("S", {}), EndTag("S"), EndTag("S")])
    assert exc2.value.reason == TAG_MISMATCH


def test_any_consumes_text(test_lang):
    _, table = make_table("@Grammar G R ::= <T> x = ANY </T> {x}. end", "R")
    value = run(table, "R", [StartTag("T", {}), TextEvt("junk"), EndTag("T")])
    assert value == NullVal()


def test_any_skips_balanced_subtree():
    _, table = make_table("@Grammar G R ::= <T> ANY </T> {7}. end", "R")
    events = list(read_events("<T><A><B/>text<C><D/></C></A></T>"))
    assert run(table, "R", events) == IntVal(7)


def test_missing_attribute(test_lang):
    _, table = test_lang
    with pytest.raises(ParseFailure) as exc:
        run(table, "B", [StartTag("B", {"nom": "x"}), EndTag("B")])
    assert exc.value.reason == MISSING_ATTRIBUTE


def test_undeclared_attributes_ignored(test_lang):
    _, table = test_lang
    events = [StartTag("B", {"name": "x", "extra": "1"}), EndTag("B")]
    assert run(table, "B", events) == "x"


def test_incomplete_parse(test_lang):
    _, table = test_lang
    events = list(read_events('<B name="x"/>')) + [StartTag("B", {"name": "y"}), EndTag("B")]
    with pytest.raises(IncompleteParse):
        run(table, "B", events)


def test_unexpected_end_of_events(test_lang):
    _, table = test_lang
    with pytest.raises(ParseFailure) as exc:
        run(table, "B", [StartTag("B", {"name": "x"})])
    assert exc.value.reason == UNEXPECTED_END_OF_EVENTS


def test_guard_first_match_wins():
    source = (
        '@Grammar G R ::= <T k when k <> "z" > P when true > Q else Q </T>.'
        " P ::= <P/> {1}. Q ::= <Q/> {2}. end"
    )
    _, table = make_table(source, "R")
    assert run(table, "R", read_events('<T k="a"><P/></T>')) == IntVal(1)
    assert run(table, "R", read_events('<T k="z"><Q/></T>')) == IntVal(2)


def test_guard_non_boolean():
    _, table = make_table("@Grammar G R ::= <T k when k > OK else OK </T>. end", "R")
    with pytest.raises(ParseFailure) as exc:
        run(table, "R", read_events('<T k="x"></T>'))
    assert exc.value.reason == GUARD_NON_BOOLEAN


def test_bind_arity_mismatch():
    _, table = make_table("@Grammar G R ::= [v, w] = S {v}. S ::= <S/> {1}. end", "R")
    with pytest.raises(ParseFailure) as exc:
        run(table, "R", read_events("<S/>"))
    assert exc.value.reason == BIND_ARITY_MISMATCH


def test_rule_arguments():
    source = '@Grammar G R ::= <T m> P(m) </T> {1}. P(q) ::= <V w when w = q > OK </V> {q}. end'
    _, table = make_table(source, "R")
    assert run(table, "R", read_events('<T m="1"><V w="1"/></T>')) == IntVal(1)


def test_run_with_start_arguments():
    source = "@Grammar G P(q) ::= <V/> {q}. end"
    _, table = make_table(source, "P")
    value = run(table, "P", read_events("<V/>"), args=("given",))
    assert value == "given"


def test_every_instruction_kind_agrees_with_oracle():
    # Calls with arguments, elements with guards, binds of pairs, actions,
    # OK, EMPTY, TEXT, ANY over text and nested elements: every branch of
    # the driver loop runs, and the value matches the reference interpreter.
    source = """@Grammar G
      R ::= <R> [a,b] = P("k") xs = Q* <E> EMPTY </E> </R> {Out(a, b, xs)}.
      P(k) ::= <P v when v = k > t = TEXT else t = OK </P> {t, k}.
      Q ::= <Q> ANY ANY </Q> {Skipped}.
    end"""
    grammar = parse_grammar(source)
    _, table = make_table(source, "R")
    docs = [
        '<R><P v="k">hi</P><E/></R>',
        '<R><P v="z"/><Q>x<W><V/>y</W></Q><Q><W/>z</Q><E/></R>',
    ]
    from xmlgram.events import build_tree

    for doc in docs:
        events = list(read_events(doc))
        expected = Oracle(grammar, max_steps=100_000).accepts("R", build_tree(events)).value
        assert expected is not None
        assert Machine(table, "R", iter(events)).run() == expected


def test_terminal_state_shape(test_lang):
    _, table = test_lang
    machine = Machine(table, "A", read_events("<A></A>"))
    machine.run()
    assert machine.program == []
    assert machine.dump == []
    assert len(machine.values) == 1
    assert machine.lookahead is None  # input exhausted


def test_event_conservation(test_lang):
    _, table = test_lang
    events = list(read_events('<A><B name="x"/></A>'))
    machine = Machine(table, "A", iter(events))
    machine.run()
    assert machine.position == len(events)


def test_dump_depth_tracks_nesting_not_siblings(test_lang):
    _, table = test_lang
    wide = "<A>" + '<B name="x"/>' * 500 + "</A>"
    machine = Machine(table, "A", read_events(wide))
    machine.run()
    assert machine.max_dump_depth <= 3

    source = "@Grammar G R ::= <T> kids = R* </T> {Node(kids)}. end"
    _, deep_table = make_table(source, "R")
    deep_doc = "<T>" * 40 + "</T>" * 40
    machine2 = Machine(deep_table, "R", read_events(deep_doc))
    machine2.run()
    assert machine2.max_dump_depth >= 30  # frames for genuinely nested calls


def test_engine_agrees_with_oracle_on_models():
    g = parse_grammar(MODELS_GRAMMAR)
    normal = normalize_grammar(g)
    table = build_predict_table(normal, compute_sets(normal, "Package"))
    assert check_ll1(table)[0]
    from helpers import MODELS_DOC
    from xmlgram.events import build_tree

    events = list(read_events(MODELS_DOC))
    engine_value = run(table, "Package", iter(events))
    oracle_value = Oracle(g, max_steps=100_000).accepts("Package", build_tree(events)).value
    assert engine_value == oracle_value


def test_flattened_tree_and_reader_agree(test_lang):
    _, table = test_lang
    from xmlgram.events import build_tree

    doc = '<A><B name="x"/><C name="y"/></A>'
    events = list(read_events(doc))
    assert run(table, "A", flatten_tree(build_tree(events))) == run(table, "A", iter(events))


# (grammar, start, documents, cells that chain resolution shares, cells it
# leaves as calls, a document the machine rejects and its failure)
CHAINS = [
    pytest.param(
        "@Grammar G S ::= <S> v = N </S> {v}. N ::= X. X ::= <x/> {1}. X ::= {0}. end",
        "S", ["<S><x/></S>", "<S></S>"],
        [(("N", "x"), ("X", "x")), (("N", "/S"), ("X", "/S"))], [],
        "<S><y/></S>", "NoPredictEntry at event 1: no prediction for rule N on y",
        id="chain-to-nullable",
    ),
    pytest.param(
        "@Grammar G S ::= <S> v = N </S> {v}. N ::= W. W ::= ANY. end",
        "S", ["<S><q><r/></q></S>", "<S>t</S>"],
        [], [(("N", "*"), ("W", "*"))],
        "<S></S>", "UnexpectedEvent at event 1: expected an element or text, found </S>",
        id="chain-to-wildcard-row",
    ),
    pytest.param(
        "@Grammar G S ::= <S k> v = N(k) </S> {v}. N(a) ::= X(a). X(b) ::= <x/> {b}. end",
        "S", ['<S k="1"><x/></S>'],
        [], [(("N", "x"), ("X", "x"))],
        '<S k="1"></S>', "NoPredictEntry at event 1: no prediction for rule N on /S",
        id="parameterized-chain",
    ),
    pytest.param(
        "@Grammar G S ::= <S> v = N </S> {v}. N ::= M. M ::= X. X ::= <x/> {1}. X ::= <y/> {2}. end",
        "S", ["<S><x/></S>", "<S><y/></S>"],
        [(("N", "x"), ("X", "x")), (("N", "y"), ("X", "y")), (("M", "y"), ("X", "y"))], [],
        "<S><z/></S>", "NoPredictEntry at event 1: no prediction for rule N on z",
        id="chain-of-chains",
    ),
    pytest.param(
        TEST_GRAMMAR,
        "A", ['<A><B name="x"/><C name="y"/></A>', "<A></A>"],
        [(("A$2", "B"), ("B", "B")), (("A$2", "C"), ("C", "C"))], [],
        "<A><D/></A>", "NoPredictEntry at event 1: no prediction for rule A$1 on D",
        id="fresh-chain-from-normalization",
    ),
]


@pytest.mark.parametrize("source, start, docs, shared, kept, bad_doc, failure", CHAINS)
def test_chain_rules_resolve_and_agree_with_oracle(source, start, docs, shared, kept, bad_doc, failure):
    from xmlgram.events import build_tree

    grammar = parse_grammar(source)
    _, table = make_table(source, start)
    rows = Program(table).rows
    for (rule, token), (target, target_token) in shared:
        assert rows[rule][token] is rows[target][target_token]
    for (rule, token), (target, target_token) in kept:
        assert rows[rule][token] is not rows[target][target_token]
    oracle = Oracle(grammar, max_steps=100_000)
    for doc in docs:
        events = list(read_events(doc))
        expected = oracle.accepts(start, build_tree(events)).value
        assert expected is not None and run(table, start, iter(events)) == expected
    events = list(read_events(bad_doc))
    assert not oracle.accepts(start, build_tree(events)).accepted
    with pytest.raises(ParseFailure) as exc:
        run(table, start, iter(events))
    assert str(exc.value) == failure


def test_machine_refuses_a_conflicted_table():
    # The chain clauses `R ::= X.` and `X ::= R.` form a cycle that a run on
    # <a/> would go round forever; the machine refuses before reading an event.
    g = normalize_grammar(parse_grammar("@Grammar G R ::= X. X ::= R. X ::= <a/> {1}. end"))
    table = build_predict_table(g, compute_sets(g, "R"))

    def events():
        raise AssertionError("an event was read")
        yield

    with pytest.raises(ValueError, match=r"predict\(X, a\) has 2 candidates"):
        Machine(table, "R", events())
    with pytest.raises(ValueError, match=r"predict\(X, a\) has 2 candidates"):
        run(table, "R", read_events("<a/>"))


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


@pytest.mark.parametrize("n", [0, 1, 10, 1000])
def test_leaf_siblings_take_at_most_3_5_steps_per_event(n):
    # One step per event; the name keeps an older, looser figure.  A leaf
    # element is one op with its action, and the loop's NEXT the other: 2
    # steps per sibling, 2 events each.  The root and the loop's ends take 5.
    _, table = make_table((SAMPLES / "seq.xg").read_text(), "A")
    events = list(read_events("<A>" + '<B name="x"/>' * n + "</A>"))
    machine = Machine(table, "A", iter(events))
    machine.run()
    assert machine.steps <= len(events) + 5


def test_a_sibling_leaves_two_tracked_objects_behind():
    """A string value is the ``str`` the reader made, which the garbage
    collector does not track, so each ``<B name=".."/>`` of a long list adds
    only its ``Cons`` term and that term's argument tuple to what the
    collector walks."""
    _, table = make_table((SAMPLES / "seq.xg").read_text(), "A")

    def tracked(n):
        doc = "<A>" + "".join(f'<B name="b{i}"/>' for i in range(n)) + "</A>"
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            value = Machine(table, "A", iter(SaxReader(io.StringIO(doc)))).run()
            return gc.get_count()[0] - before, value
        finally:
            if enabled:
                gc.enable()

    n = 1_000
    (small, _), (large, value) = tracked(n), tracked(4 * n)
    assert (large - small) / (3 * n) < 2.5
    assert value.args[0] == "b0"


def test_models_document_takes_at_most_4_3_steps_per_event():
    # 2.1 steps per event; the name keeps an older, looser figure.
    _, table = make_table((SAMPLES / "models.xg").read_text(), "Package")
    events = list(read_events(MODELS_DOC))
    machine = Machine(table, "Package", iter(events))
    machine.run()
    assert machine.steps <= 2.1 * len(events)


# (rules with the start rule R, documents) for the shapes a loop handles
# differently; every document's value is compared with the oracle's.
LOOPS = {
    "zero-iterations": (
        "R ::= <R> <P> xs = I* </P> ys = ANY* </R> {Pair(xs, ys)}. I ::= <I n/> {n}.",
        ["<R><P></P></R>"],
    ),
    "any": ("R ::= <R> xs = ANY* </R> {xs}.", ["<R>t<a><b/>u</a><c/></R>", "<R><a/></R>"]),
    "parameters": (
        'R ::= <R k> xs = (<I n/> {Pair(k, n)})* </R> {xs}.',
        ['<R k="1"><I n="a"/><I n="b"/></R>', '<R k="2"></R>'],
    ),
    "nested": (
        "R ::= <R k> xs = (<L> ys = (<I n/> {Pair(k, n)})* </L> {ys})* </R> {xs}.",
        ['<R k="1"><L><I n="a"/><I n="b"/></L><L></L><L><I n="c"/></L></R>'],
    ),
    "dump-frame": (
        "R ::= <R> xs = (a = A <B/> {a})* </R> {xs}. A ::= <A n/> {n}.",
        ['<R><A n="1"/><B/><A n="2"/><B/></R>'],
    ),
    "whole-body": (
        "R ::= <R> xs = L </R> {xs}. L ::= I*. I ::= <I n/> {n}.",
        ['<R><I n="a"/><I n="b"/></R>', "<R></R>"],
    ),
    "chain-through-alternation": (
        "R ::= <R> xs = (I | J)* </R> {xs}. I ::= <I n/> {n}. J ::= <J> x = TEXT </J> {x}.",
        ['<R><I n="a"/><J>b</J><I n="c"/></R>'],
    ),
}


@pytest.mark.parametrize("case", sorted(LOOPS))
def test_repetition_runs_as_a_loop_and_agrees_with_oracle(case):
    from xmlgram.events import build_tree

    rules, docs = LOOPS[case]
    source = f"@Grammar G {rules} end"
    normal, table = make_table(source, "R")
    program = Program(table)
    assert normal.loops and set(program.loops) == normal.loops
    assert normal.loops.isdisjoint(program.rows)  # a loop row and no other
    oracle = Oracle(parse_grammar(source), max_steps=100_000)
    for doc in docs:
        events = list(read_events(doc))
        expected = oracle.accepts("R", build_tree(events)).value
        assert expected is not None
        machine = Machine(table, "R", iter(events))
        assert machine.run() == expected, doc
        if case == "dump-frame":
            assert machine.max_dump_depth == 2  # the loop's frame and A's


def test_start_rule_can_be_a_repetition():
    from xmlgram.events import build_tree

    source = "@Grammar G R ::= <R k> xs = (<I n/> {Pair(k, n)})* </R> {xs}. end"
    normal, table = make_table(source, "R$1")
    assert normal.loops == {"R$1"}
    events = list(read_events('<I n="a"/>'))
    args = ("k",)
    expected = Oracle(normal).accepts("R$1", build_tree(events), args).value
    pair = TermVal("Pair", ("k", "a"))
    assert expected == TermVal("Cons", (pair, TermVal("Nil")))
    assert Machine(table, "R$1", iter(events), args).run() == expected
    with pytest.raises(ParseFailure) as exc:
        Machine(table, "R$1", iter(events)).run()
    assert str(exc.value) == "CallArityMismatch at event 0: rule R$1 takes 1 argument(s), got 0"


def test_evaluation_error_in_an_item_matches_the_oracle():
    from xmlgram.evaluate import EvalError
    from xmlgram.events import build_tree

    source = "@Grammar G R ::= <R> xs = (<I a/> {a->iterate(e acc = 0 | acc)})* </R> {xs}. end"
    _, table = make_table(source, "R")
    events = list(read_events('<R><I a="x"/></R>'))
    with pytest.raises(EvalError) as expected:
        Oracle(parse_grammar(source)).accepts("R", build_tree(events))
    with pytest.raises(ParseFailure) as exc:
        Machine(table, "R", iter(events)).run()
    assert exc.value.reason == "EvalError" and exc.value.message == str(expected.value)
    assert str(exc.value) == 'EvalError at event 3: cannot iterate over "x"'


def test_failure_on_text_shows_a_short_prefix_of_it():
    _, table = make_table("@Grammar G A ::= <A> <B/> </A> {1}. end", "A")
    events = [StartTag("A", {}), TextEvt("x" * 1_000_000), EndTag("A")]
    with pytest.raises(ParseFailure) as exc:
        Machine(table, "A", iter(events)).run()
    shown = "'" + "x" * 78 + "…"
    assert str(exc.value) == f"TagMismatch at event 1: expected <B>, found text {shown}"


def test_program_shares_closures_of_equal_expressions():
    source = """@Grammar G
      S ::= <S> a = A b = B </S> {Pair(a, b)}.
      A ::= <A> x = I* </A> {x}.
      B ::= <B> x = I* </B> {x}.
      I ::= <I n=name/> {n}.
    end"""
    _, table = make_table(source, "S")
    program = Program(table)
    rows = program.rows

    def last_closure(rule, token):
        _, ops = rows[rule][token]
        return ops[0][-1]  # ops run in reverse: ops[0] is the clause's last op

    # {x} after each element, fused into its bind
    assert last_closure("A", "A") is last_closure("B", "B")
    assert last_closure("S", "S") is not last_closure("A", "A")
    # both repetitions run I's compiled clause as their item, with its {n}
    loops = program.loops
    assert sorted(loops) == ["A$1", "B$2"] and not set(loops) & set(rows)
    assert loops["A$1"].row["I"] is loops["B$2"].row["I"] is rows["I"]["I"][1]
