"""The table-driven machine: transitions, failures, streaming bounds."""

import gc
import io
import pathlib

import pytest

from helpers import LEAF_FAILURES, MODELS_DOC, MODELS_GRAMMAR, TEST_GRAMMAR, cons_chain
from helpers import ReferenceMachine, ReferenceProgram, flatten_tree, run
from xmlgram.analysis import build_predict_table, check_ll1, compute_sets
from xmlgram.engine import (
    BIND_ARITY_MISMATCH,
    CALL_ARITY,
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
from xmlgram.events import TextEvt
from xmlgram.frontend import parse_grammar
from xmlgram.normalize import normalize_grammar
from xmlgram.oracle import Oracle
from xmlgram.sax import SaxReader, read_events
from xmlgram.values import EMPTY_CONS, ConsList, IntVal, NullVal, TermVal, render_term


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
    events = [("B", {"name": "foo"}), "B"]
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


def test_empty_repetitions_share_one_value():
    _, table = make_table(
        "@Grammar G R ::= <R> xs = B* <S/> ys = B* </R> {P(xs, ys)}. B ::= <B/> {1}. end", "R"
    )
    xs, ys = run(table, "R", read_events("<R><S/></R>")).args
    assert xs is ys is EMPTY_CONS
    assert xs == TermVal("Nil", ()) and TermVal("Nil", ()) == xs
    assert hash(xs) == hash(TermVal("Nil", ())) and render_term(xs) == "Nil"
    # A repetition with items still gets a list of its own.
    xs, ys = run(table, "R", read_events("<R><B/><S/></R>")).args
    assert xs == ConsList((IntVal(1),)) and ys is EMPTY_CONS


def test_tag_mismatch(test_lang):
    _, table = test_lang
    events = [("B", {"name": "x"}), "B"]
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
        run(table, "R", [("T", {}), ("S", {}), "S", "S"])
    assert exc2.value.reason == TAG_MISMATCH


def test_any_consumes_text(test_lang):
    _, table = make_table("@Grammar G R ::= <T> x = ANY </T> {x}. end", "R")
    value = run(table, "R", [("T", {}), TextEvt("junk"), "T"])
    assert value == NullVal()


def test_any_skips_balanced_subtree():
    _, table = make_table("@Grammar G R ::= <T> ANY </T> {7}. end", "R")
    events = list(read_events("<T><A><B/>text<C><D/></C></A></T>"))
    assert run(table, "R", events) == IntVal(7)


@pytest.mark.parametrize(
    "last, reason, message, position",
    [
        ([], UNEXPECTED_END_OF_EVENTS, "expected </A>", 3),
        (["B"], TAG_MISMATCH, "expected </A>, found </B>", 3),
        ([("B", {}), "A"], TAG_MISMATCH, "expected </B>, found </A>", 4),
    ],
    ids=["end-of-input", "mismatch", "mismatch-two-levels-in"],
)
def test_any_skip_needs_the_skipped_end_tag(last, reason, message, position):
    # expat rejects these streams, so only a hand-built event list reaches this
    _, table = make_table("@Grammar G R ::= <T> ANY </T> {7}. end", "R")
    events = [("T", {}), ("A", {}), TextEvt("x")] + last
    with pytest.raises(ParseFailure) as exc:
        Machine(table, "R", iter(events)).run()
    assert (exc.value.reason, exc.value.message, exc.value.position) == (reason, message, position)


def test_missing_attribute(test_lang):
    _, table = test_lang
    with pytest.raises(ParseFailure) as exc:
        run(table, "B", [("B", {"nom": "x"}), "B"])
    assert exc.value.reason == MISSING_ATTRIBUTE


def test_undeclared_attributes_ignored(test_lang):
    _, table = test_lang
    events = [("B", {"name": "x", "extra": "1"}), "B"]
    assert run(table, "B", events) == "x"


def test_incomplete_parse(test_lang):
    _, table = test_lang
    events = list(read_events('<B name="x"/>')) + [("B", {"name": "y"}), "B"]
    with pytest.raises(IncompleteParse):
        run(table, "B", events)


def test_unexpected_end_of_events(test_lang):
    _, table = test_lang
    with pytest.raises(ParseFailure) as exc:
        run(table, "B", [("B", {"name": "x"})])
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


def test_call_arity_mismatch_at_a_call():
    # The start call's argument count is checked as the machine is built;
    # the grammar's own calls are checked before a table is built.
    _, table = make_table("@Grammar G P(q) ::= <V/> {q}. end", "P")
    with pytest.raises(ParseFailure) as exc:
        run(table, "P", read_events("<V/>"))
    assert exc.value.reason == CALL_ARITY
    assert str(exc.value) == "CallArityMismatch at event 0: rule P takes 1 argument(s), got 0"


def test_call_arity_mismatch_in_an_unchecked_table_fails_before_any_event():
    # build_predict_table does not check arities; the program does, for every
    # call, whether or not the document would reach it.
    g = normalize_grammar(parse_grammar("@Grammar G R ::= <a/> {1}. R ::= <b/> P. P(q) ::= <c/> {q}. end"))
    table = build_predict_table(g, compute_sets(g, "R"))
    with pytest.raises(ParseFailure) as exc:
        Machine(table, "R", read_events("<a/>"))
    assert str(exc.value) == "CallArityMismatch at event 0: rule P takes 1 argument(s), got 0"


@pytest.mark.parametrize("document", ['<R><G k="a"/></R>', '<R><G k="b"></G></R>'])
def test_discarded_guarded_element_pushes_no_value(document):
    # CALL R, START R, START G, TAG_END G, ACTIONS, TAG_END R on the reference
    # machine: no null is pushed for the discarded element and popped again
    _, table = make_table('@Grammar G R ::= <R> <G k when k = "a" > OK else OK </G> {1} </R>. end', "R")
    machine = ReferenceMachine(table, "R", read_events(document))
    assert machine.run() == IntVal(1)
    assert machine.steps == 6
    assert run(table, "R", read_events(document)) == IntVal(1)


@pytest.mark.parametrize(
    "document, found", [("<R><X/></R>", "<X>"), ("<R>text</R>", "text 'text'")]
)
def test_empty_rejects_content(document, found):
    _, table = make_table("@Grammar G R ::= <R> EMPTY </R> {1}. end", "R")
    assert run(table, "R", read_events("<R></R>")) == IntVal(1)
    with pytest.raises(ParseFailure) as exc:
        run(table, "R", read_events(document))
    assert str(exc.value) == f"UnexpectedEvent at event 1: expected no more content, found {found}"


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
    machine = ReferenceMachine(table, "A", read_events("<A></A>"))
    machine.run()
    assert machine.program == []
    assert len(machine.values) == 1
    assert machine.lookahead is None  # input exhausted
    machine = Machine(table, "A", read_events("<A></A>"))
    machine.run()
    assert (machine.lookahead, machine.position) == (None, 2)


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
    assert machine2.max_dump_depth >= 30  # environments saved for genuinely nested calls


SIBLINGS = "<R>" + "<a/>" * 20_000 + "</R>"


def test_right_recursion_without_a_pending_op_runs_in_constant_space():
    # The recursive call ends L's body, so it saves no environment.
    _, table = make_table("@Grammar G R ::= <R> L </R> {1}. L ::= <a/> L. L ::= . end", "R")
    machine = Machine(table, "R", read_events(SIBLINGS))
    assert machine.run() == IntVal(1)
    assert machine.max_dump_depth <= 1


def test_right_recursion_through_a_clause_past_the_source_cap_runs_in_constant_space(compiled):
    # The clause is cut into units; the rest, in tail position, is tail-called.
    from xmlgram.engine import MAX_SOURCE

    body = " ".join(f"<a{i}/>" for i in range(40))
    source = f"@Grammar G R ::= <R> L </R> {{1}}. L ::= {body} L. L ::= . end"
    one = "".join(f"<a{i}/>" for i in range(40))
    _, table = make_table(source, "R")
    machine = Machine(table, "R", read_events("<R>" + one * 500 + "</R>"))
    assert machine.run() == IntVal(1)
    assert machine.max_dump_depth <= 1
    assert len(compiled) >= 2 and max(map(len, compiled)) <= MAX_SOURCE + 500
    failing = "<R>" + one * 2 + one.replace("<a30/>", "") + "</R>"
    assert _both_machines(source, "R", [failing]) == ["TagMismatch at event 221: expected <a30>, found <a31>"]


def test_right_recursion_with_a_pending_action_saves_an_environment_per_level():
    # Each level's action runs after the level below it: one saved environment each.
    source = "@Grammar G R ::= <R> x = L </R> {x}. L ::= <a/> xs = L {xs}. L ::= {Nil}. end"
    _, table = make_table(source, "R")
    machine = Machine(table, "R", read_events(SIBLINGS))
    assert machine.run() == TermVal("Nil")
    assert machine.max_dump_depth >= 20_000


@pytest.mark.parametrize(
    "rules, document, value, steps, depth",
    [
        pytest.param("R ::= <r/> S. S ::= <s/> {1}.", "<x><r/><s/></x>", "1", 9, 1, id="call-ends-clause"),
        pytest.param("R ::= <r> S </r>. S ::= <s/> {1}.", "<x><r><s/></r></x>", "1", 11, 2, id="call-before-end-tag"),
        pytest.param("R ::= S {2}. S ::= <s/> {1}.", "<x><s/></x>", "2", 11, 2, id="call-then-action"),
        pytest.param("R ::= v = S {v}. S ::= <s/> {1}.", "<x><s/></x>", "1", 10, 2, id="call-then-fused-bind"),
        pytest.param("R ::= I*. I ::= <i/> {1}.", "<x><i/><i/></x>", "Cons(1,Cons(1,Nil))", 10, 2, id="loop-ends-clause"),
        pytest.param(
            "R ::= xs = I* {xs}. I ::= <i/> {1}.", "<x><i/><i/></x>", "Cons(1,Cons(1,Nil))", 11, 2,
            id="loop-then-fused-bind",
        ),
    ],
)
def test_a_call_saves_its_environment_unless_nothing_in_its_clause_follows(rules, document, value, steps, depth):
    # On the reference machine, X's call to R is followed by its end tag, so
    # it saves one environment; R's own call saves another only when its
    # clause goes on after it, and a loop's NEXT holds one while the loop runs.
    _, table = make_table(f"@Grammar G X ::= <x> v = R </x> {{v}}. {rules} end", "X")
    assert render_term(run(table, "X", read_events(document))) == value
    machine = ReferenceMachine(table, "X", read_events(document))
    assert render_term(machine.run()) == value
    assert (machine.steps, machine.max_dump_depth) == (steps, depth)


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
        "@Grammar G S ::= <S k> v = N(k) </S> {v}. N(a) ::= X(a). X(a) ::= <x/> {a}. X(a) ::= <y/> {P(a)}. end",
        "S", ['<S k="1"><x/></S>', '<S k="2"><y/></S>'],
        [(("N", "x"), ("X", "x")), (("N", "y"), ("X", "y"))], [],
        '<S k="1"></S>', "NoPredictEntry at event 1: no prediction for rule N on /S",
        id="pass-through-chain",
    ),
    pytest.param(
        "@Grammar G S ::= <S j k> v = N(j, k) </S> {v}. N(a, b) ::= X(b, a). X(a, b) ::= <x/> {P(a, b)}. end",
        "S", ['<S j="1" k="2"><x/></S>'],
        [], [(("N", "x"), ("X", "x"))],
        '<S j="1" k="2"><y/></S>', "NoPredictEntry at event 1: no prediction for rule N on y",
        id="chain-that-reorders-arguments",
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
    rows = ReferenceProgram(table).rows
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
def test_leaf_siblings_take_one_step_each_plus_a_constant(n):
    # The reference machine's NEXT runs each leaf item in place, in one step;
    # the rest of the parse, around the repetition, takes 6 whatever its
    # length.  The engine runs the whole parse in one unit: one step.
    _, table = make_table((SAMPLES / "seq.xg").read_text(), "A")
    events = list(read_events("<A>" + '<B name="x"/>' * n + "</A>"))
    machine = ReferenceMachine(table, "A", iter(events))
    machine.run()
    assert machine.steps == n + 6
    machine = Machine(table, "A", iter(events))
    machine.run()
    assert machine.steps == 1


@pytest.mark.parametrize("grammar, document, keep_whitespace, message", LEAF_FAILURES.values(), ids=list(LEAF_FAILURES))
def test_failure_in_a_leaf_item_golden(grammar, document, keep_whitespace, message):
    _, table = make_table(grammar, "A")
    with pytest.raises(ParseFailure) as exc:
        run(table, "A", read_events(document, keep_whitespace))
    assert str(exc.value) == message


def test_a_loop_mixes_leaf_and_other_items_and_leaves_read_its_parameters():
    from xmlgram.events import build_tree

    source = """@Grammar G
      R ::= <R p=k> xs = (<B n=name/> {P(p, n)} | <C> t = TEXT </C> {t})* </R> {xs}.
    end"""
    _, table = make_table(source, "R")
    (loop,) = ReferenceProgram(table).loops.values()
    assert type(loop["B"][0]) is int and type(loop["C"][0]) is tuple  # a leaf, then ops
    oracle = Oracle(parse_grammar(source))
    docs = [
        '<R k="1"><B name="a"/><B name="b"/><C>hi</C><B name="c"/><C>x</C><C>y</C></R>',
        '<R k="2"><C>x</C><B name="a"/></R>',
        '<R k="3"></R>',
    ]
    for doc in docs:
        events = list(read_events(doc))
        expected = oracle.accepts("R", build_tree(events)).value
        assert expected is not None and run(table, "R", iter(events)) == expected
    assert render_term(run(table, "R", read_events(docs[1]))) == 'Cons("x",Cons(P("2","a"),Nil))'
    events = list(read_events('<R k="1"><B name="a"/><C><B name="b"/></C></R>'))
    assert not oracle.accepts("R", build_tree(events)).accepted
    with pytest.raises(ParseFailure, match=r"^UnexpectedEvent at event 4: expected text, found <B>$"):
        run(table, "R", iter(events))


def test_a_sibling_leaves_no_tracked_object_behind():
    """A string value is the ``str`` the reader made, which the garbage
    collector does not track, and a repetition's value is one ``ConsList``
    over one tuple, so a ``<B name=".."/>`` of a long list adds nothing to
    what the collector walks."""
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
    assert (large - small) / (3 * n) < 0.1
    assert value.args[0] == "b0"


@pytest.mark.parametrize("n", [0, 1, 4_000])
def test_a_repetition_value_is_its_cons_chain(n):
    _, table = make_table((SAMPLES / "seq.xg").read_text(), "A")
    doc = "<A>" + "".join(f'<B name="b{i}"/>' for i in range(n)) + "</A>"
    value = Machine(table, "A", iter(SaxReader(io.StringIO(doc)))).run()
    chain = cons_chain([f"b{i}" for i in range(n)])
    assert type(value) is ConsList
    assert value == chain and chain == value and hash(value) == hash(chain)
    assert value in {chain} and chain in {value}
    # The dataclass ``repr`` of a Cons term recursed once per cell.
    assert repr(value) == f"ConsList({tuple(f'b{i}' for i in range(n))!r})"


def test_a_parse_leaves_no_cyclic_garbage():
    """With automatic collection off, as the CLI runs, a parse leaves the
    collector nothing to find, however long the document: the reader drops
    its expat parser and handlers, which refer to each other, at the end."""
    _, table = make_table((SAMPLES / "seq.xg").read_text(), "A")

    def garbage(n):
        doc = "<A>" + '<B name="x"/>' * n + "</A>"
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            Machine(table, "A", iter(SaxReader(io.StringIO(doc)))).run()
            return gc.collect()
        finally:
            if enabled:
                gc.enable()

    assert garbage(1_000) == 0
    assert garbage(4_000) == 0


def test_models_document_takes_at_most_4_3_steps_per_event():
    # 2.1 steps per event on the reference machine; the name keeps an older,
    # looser figure.  The engine enters one unit, for the one Package.
    _, table = make_table((SAMPLES / "models.xg").read_text(), "Package")
    events = list(read_events(MODELS_DOC))
    machine = ReferenceMachine(table, "Package", iter(events))
    machine.run()
    assert machine.steps <= 2.1 * len(events)
    machine = Machine(table, "Package", iter(events))
    machine.run()
    assert machine.steps == 1


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
    program = ReferenceProgram(table)
    assert normal.loops and set(program.loops) == normal.loops
    assert normal.loops.isdisjoint(program.rows)  # a loop row and no other
    oracle = Oracle(parse_grammar(source), max_steps=100_000)
    for doc in docs:
        events = list(read_events(doc))
        expected = oracle.accepts("R", build_tree(events)).value
        assert expected is not None
        assert Machine(table, "R", iter(events)).run() == expected, doc
        if case == "dump-frame":
            machine = ReferenceMachine(table, "R", iter(events))
            assert machine.run() == expected
            assert machine.max_dump_depth == 2  # the environments saved by the loop and by A


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


def test_a_loop_must_be_called_with_its_own_parameters():
    # Its items run in the caller's environment, where the loop's parameters
    # must hold the arguments; a hand-built Grammar.loops can break that.
    from xmlgram.analysis import NotNormalForm
    from xmlgram.ast import Grammar

    source = """@Grammar G
      R ::= <R k> xs = L(k, k) </R> {xs}.
      L(a, b) ::= x = <I/> {a} xs = L(a, b) {Cons(x, xs)}.
      L(a, b) ::= {Nil}.
    end"""
    g = parse_grammar(source)
    g = Grammar(g.name, g.clauses, loops=frozenset({"L"}))
    table = build_predict_table(g, compute_sets(g, "R"))
    for program in (Program, ReferenceProgram):
        with pytest.raises(NotNormalForm, match="loop L is not called with its own parameters"):
            program(table)


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
    events = [("A", {}), TextEvt("x" * 1_000_000), "A"]
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
    program = ReferenceProgram(table)
    rows = program.rows

    def last_closure(rule, token):
        _, ops = rows[rule][token]
        return ops[0][-1]  # ops run in reverse: ops[0] is the clause's last op

    # {x} after each element, fused into its bind
    assert last_closure("A", "A") is last_closure("B", "B")
    assert last_closure("S", "S") is not last_closure("A", "A")
    # both repetitions run I's compiled clause as their item, with its {n}:
    # one fused op, which each loop row holds itself as a leaf entry
    loops = program.loops
    assert sorted(loops) == ["A$1", "B$2"] and not set(loops) & set(rows)
    (leaf,) = rows["I"]["I"][1]
    assert loops["A$1"]["I"] is loops["B$2"]["I"] is leaf


# -- depth: no document nesting and no chain of rules turns into Python recursion

DEEP = 100_000


def _parse_cli(tmp_path, grammar, document, fmt="term"):
    from xmlgram.cli import main

    (tmp_path / "g.xg").write_text(grammar)
    (tmp_path / "d.xml").write_text(document)
    return main(["parse", str(tmp_path / "g.xg"), str(tmp_path / "d.xml"), "--format", fmt])


@pytest.mark.parametrize("fmt", ["term", "json"])
def test_a_document_nested_100_000_deep_parses_at_the_default_recursion_limit(tmp_path, capsys, fmt):
    import sys

    limit = sys.getrecursionlimit()
    grammar = "@Grammar G R ::= <A> xs = R* </A> {N(xs)}. end"
    assert _parse_cli(tmp_path, grammar, "<A>" * DEEP + "</A>" * DEEP, fmt) == 0
    assert sys.getrecursionlimit() == limit
    out = capsys.readouterr().out
    n = DEEP - 1
    if fmt == "term":
        assert out == "N(Cons(" * n + "N(Nil)" + ",Nil))" * n + "\n"
    else:
        nil = '{"args": [], "ctor": "Nil"}'
        tail = f', {nil}], "ctor": "Cons"}}], "ctor": "N"}}'
        assert out == '{"args": [{"args": [' * n + f'{{"args": [{nil}], "ctor": "N"}}' + tail * n + "\n"


def test_a_document_nested_100_000_deep_through_a_cycle_of_two_rules(tmp_path, capsys):
    grammar = "@Grammar G R ::= <A> xs = S* </A> {N(xs)}. S ::= <B> y = R </B> {M(y)}. end"
    k = DEEP // 2
    assert _parse_cli(tmp_path, grammar, "<A><B>" * k + "<A></A>" + "</B></A>" * k) == 0
    assert capsys.readouterr().out == "N(Cons(M(" * k + "N(Nil)" + "),Nil))" * k + "\n"


def test_no_module_raises_the_recursion_limit():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    assert not [p for p in src.rglob("*.py") if "setrecursionlimit" in p.read_text()]


def _both_machines(source, start, documents, table=None):
    """The engine's outcome on each document, after checking that the
    reference machine's is the same: a rendered value, or a failure with
    the machine's position and lookahead.  ``table`` is ``source``'s, if
    it is built already."""
    if table is None:
        _, table = make_table(source, start)
    outcomes = []
    for document in documents:
        pair = []
        for make in (Machine, ReferenceMachine):
            machine = make(table, start, read_events(document))
            try:
                pair.append(render_term(machine.run()))
            except ParseFailure as exc:
                pair.append((str(exc), machine.position, machine.lookahead))
        assert pair[0] == pair[1], document
        outcomes.append(pair[0] if type(pair[0]) is str else pair[0][0])
    return outcomes


def _deepest(make):
    """``make(n)`` for the largest ``n`` that the front end accepts."""
    from xmlgram.frontend import MAX_NESTING, try_parse_grammar

    n = MAX_NESTING
    while try_parse_grammar(make(n))[1]:
        n -= 1
    return n, make(n)


@pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
def test_a_clause_nesting_as_many_elements_as_the_front_end_allows(guarded):
    def make(n):
        if guarded:
            opens = "".join(f'<E{i} k when k = "a" > ' for i in range(n))
            closes = "".join(f' else {{"no{i}"}} </E{i}>' for i in reversed(range(n)))
        else:
            opens = "".join(f"<E{i} k> " for i in range(n))
            closes = "".join(f" </E{i}>" for i in reversed(range(n)))
        return f"@Grammar G R ::= {opens} x = TEXT {{Pair(x, k)}} {closes}. end"

    n, source = _deepest(make)
    assert n >= 95
    inside = "".join(f'<E{i} k="a">' for i in range(n)) + "hi" + "".join(f"</E{i}>" for i in reversed(range(n)))
    cut = "".join(f'<E{i} k="a">' for i in range(60)) + '<E60 k="b">' + "".join(f"</E{i}>" for i in reversed(range(61)))
    outcomes = _both_machines(source, "R", [inside, cut])
    assert outcomes[0] == 'Pair("hi","a")'
    assert outcomes[1] == ('"no60"' if guarded else "TagMismatch at event 61: expected <E61>, found </E60>")


def _nesting_chain(rules, n, guarded):
    """``rules`` rules, each nesting ``n`` elements round a call of the next,
    which has no other call site, so that a unit may inline it; and a
    document that opens every element."""
    text = []
    for r in range(rules):
        if guarded:
            opens = "".join(f'<E{r}x{i} k when k = "a" > ' for i in range(n))
            closes = "".join(f' else {{"no{r}"}} </E{r}x{i}>' for i in reversed(range(n)))
        else:
            opens = "".join(f"<E{r}x{i} k> " for i in range(n))
            closes = "".join(f" </E{r}x{i}>" for i in reversed(range(n)))
        text.append(f"R{r} ::= {opens} x = R{r + 1} {{Pair(x, k)}} {closes}.")
    source = "@Grammar G " + " ".join(text) + f" R{rules} ::= <Leaf/> {{Leaf}}. end"
    tags = [f"E{r}x{i}" for r in range(rules) for i in range(n)]
    document = "".join(f'<{t} k="a">' for t in tags) + "<Leaf/>" + "".join(f"</{t}>" for t in reversed(tags))
    return source, document


@pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
def test_a_chain_of_rules_each_nesting_as_many_elements_as_the_front_end_allows(guarded):
    # The levels a unit inlines add up across rules; past MAX_DEPTH the next
    # rule is called as a unit, so no grammar within the front end's bound
    # makes building the code recurse past the default limit.
    from xmlgram.frontend import MAX_NESTING

    rules = 7
    n, source = _deepest(lambda n: _nesting_chain(rules, n, guarded)[0])
    assert n >= MAX_NESTING - 5
    document = _nesting_chain(rules, n, guarded)[1]
    if guarded:  # the guard fails at E5x40, which is empty
        start, end = document.index('<E5x40 k="a">'), document.index("</E5x39>")
        cut = document[:start] + '<E5x40 k="b"></E5x40>' + document[end:]
    else:
        cut = document.replace('<E5x40 k="a">', "<E5x40>")
    outcomes = _both_machines(source, "R0", [document, cut])
    assert outcomes[0] == "Pair(" * rules + "Leaf" + ',"a")' * rules
    if guarded:
        assert outcomes[1] == "Pair(" * 5 + '"no5"' + ',"a")' * 5
    else:
        assert outcomes[1] == f"MissingAttribute at event {5 * n + 40}: element <E5x40> lacks attribute 'k'"


def _frames() -> int:
    import sys

    frame, count = sys._getframe(), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


def _lifted_chain(inner):
    """A rule of 48 nested groups, each lifted into a rule that a unit always
    inlines, the innermost calling ``D ::= inner``."""
    body = "z = D {z}"
    for i in reversed(range(48)):
        body = f"(<a{i}/> {{{i}}} | y{i} = {body} {{y{i}}})"
    return f"R0 ::= x = {body} {{x}}. D ::= {inner}."


@pytest.mark.parametrize(
    "body",
    [
        _lifted_chain("<E> " * 60 + "x = TEXT {" + "F(" * 38 + "x" + ")" * 38 + "}" + " </E>" * 60),
        _lifted_chain("<E> x = TEXT </E> {" + "F(" * 98 + "x" + ")" * 98 + "}"),
        _deepest(lambda n: _nesting_chain(7, n, False)[0])[1][len("@Grammar G ") : -len(" end")],
        _deepest(lambda n: _nesting_chain(7, n, True)[0])[1][len("@Grammar G ") : -len(" end")],
    ],
    ids=["lifted-then-elements", "lifted-then-expression", "elements", "guarded"],
)
def test_building_the_code_recurses_no_deeper_than_a_few_hundred_frames(body):
    import sys

    _, table = make_table(f"@Grammar G {body} end", "R0")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 500)
    try:
        Machine(table, "R0", iter(()))  # builds every unit
    finally:
        sys.setrecursionlimit(limit)
    assert table.program.units


def test_an_action_nesting_as_many_expressions_as_the_front_end_allows():
    def make(n):
        expr, failing = "x", "x.add(1)"
        for _ in range(n):
            expr, failing = f"F({expr})", f"F({failing})"
        return f"@Grammar G R ::= <A> x = TEXT </A> {{{expr}}}. S ::= <A> x = TEXT </A> {{{failing}}}. end"

    n, source = _deepest(make)
    assert n >= 95
    assert _both_machines(source, "R", ["<A>t</A>"]) == ["F(" * n + '"t"' + ")" * n]
    assert _both_machines(source, "S", ["<A>t</A>"]) == ["EvalError at event 3: addChild expects a term and a value"]


def _chain(size):
    """A chain of ``size`` rules cycling four shapes, as ``bench/workloads.grammar``
    builds it: a repetition of an alternation, a guard, ``ANY`` and ``TEXT``;
    a document that nests once per rule, and the value the parse must give."""
    rules, opens, closes, heads = [], [], [], []
    for i in range(size):
        tag, nxt = f"T{i}", f"R{i + 1}"
        if i % 4 == 0:
            alts = " | ".join(f"<{tag}v{j} v=val/> {{v}}" for j in range(6))
            rules.append(f"R{i} ::= <{tag} k=key> xs = ({alts} | <{tag}m/> {{M}})* n = {nxt} </{tag}> {{{tag}(k, xs, n)}}.")
            opens.append(f'<{tag} key="k{i}"><{tag}v{i % 6} val="a"/><{tag}m/>')
            heads.append(f'{tag}("k{i}",Cons("a",Cons(M,Nil)),')
        elif i % 4 == 1:
            rules.append(f'R{i} ::= <{tag} k=key when k = "g" > a = {nxt} {{G(a)}} else a = {nxt} {{H(a)}} </{tag}>.')
            opens.append(f'<{tag} key="{"g" if i % 8 == 1 else "h"}">')
            heads.append("G(" if i % 8 == 1 else "H(")
        elif i % 4 == 2:
            rules.append(f"R{i} ::= <{tag} k=key> ANY n = {nxt} </{tag}> {{{tag}(k, n)}}.")
            opens.append(f'<{tag} key="k{i}"><S><x/>s</S>')
            heads.append(f'{tag}("k{i}",')
        else:
            rules.append(f"R{i} ::= <{tag} k=key> t = TEXT n = {nxt} </{tag}> {{{tag}(k, t, n)}}.")
            opens.append(f'<{tag} key="k{i}">w{i}')
            heads.append(f'{tag}("k{i}","w{i}",')
        closes.append(f"</{tag}>")
    rules.append(f"R{size} ::= <Leaf/> {{Leaf}}.")
    source = "@Grammar Chain " + " ".join(rules) + " end"
    document = "".join(opens) + "<Leaf/>" + "".join(reversed(closes))
    return source, document, "".join(heads) + "Leaf" + ")" * size


@pytest.fixture
def compiled(monkeypatch):
    """The source texts the engine compiles while a test runs."""
    import builtins

    from xmlgram import engine

    texts = []

    def counting(text, *args):
        texts.append(text)
        return builtins.compile(text, *args)

    monkeypatch.setattr(engine, "compile", counting, raising=False)
    return texts


def test_a_chain_of_1600_rules_parses_and_compiles_each_shape_once(compiled):
    source, document, expected = _chain(1600)
    texts = compiled
    assert _both_machines(source, "R0", [document]) == [expected]
    assert len(texts) <= 6  # a few unit shapes, however long the chain
    bad = document.replace('<T803 key="k803">', '<T803 key="k803"><X/>', 1)
    assert _both_machines(source, "R0", [bad])[0].startswith("UnexpectedEvent")


def test_steps_count_the_driver_transitions_and_depth_the_continuations():
    # Each nested R is a call round a cycle: one step into it and one back.
    _, table = make_table("@Grammar G R ::= <A> xs = R* </A> {N(xs)}. end", "R")
    for n in (1, 2, 50):
        machine = Machine(table, "R", read_events("<A>" * n + "</A>" * n))
        machine.run()
        assert (machine.steps, machine.max_dump_depth) == (2 * n - 1, n - 1)


def test_repetitions_nested_past_the_loop_cap_agree_with_the_reference_machine():
    # Loops nested deeper than a unit may hold run as units of their own,
    # entered with the parameters of their items.
    depth = 16
    body = "<I/> {Leaf(k)}"
    for i in reversed(range(depth)):
        body = f"<L{i}> xs = ({body})* </L{i}> {{xs}}"
    source = f"@Grammar G R ::= <R k> x = {body} </R> {{Pair(k, x)}}. end"
    inner = "".join(f"<L{i}>" for i in range(depth)) + "<I/><I/>" + "".join(f"</L{i}>" for i in reversed(range(depth)))
    empty = "<L0></L0>"
    documents = [f'<R k="a">{inner}</R>', f'<R k="a">{empty}</R>', f'<R k="a">{inner}<X/></R>']
    outcomes = _both_machines(source, "R", documents)
    assert outcomes[1] == 'Pair("a",Nil)'
    assert outcomes[2] == "TagMismatch at event 37: expected </R>, found <X>"


def test_an_alternation_of_120_elements_agrees_with_the_reference_machine():
    # A lifted rule is inlined at its one call site however large it is.
    n = 120
    alternation = " | ".join(f"<T{i} v/> {{I{i}(v)}}" for i in range(n))
    source = f"@Grammar G R ::= <R> xs = ({alternation})* </R> {{xs}}. end"
    document = "<R>" + "".join(f'<T{i} v="{i}"/>' for i in range(0, n, 7)) + "</R>"
    outcomes = _both_machines(source, "R", [document, "<R><T3/></R>", "<R><U/></R>"])
    assert outcomes[0].startswith('Cons(I0("0"),Cons(I7("7"),')
    assert outcomes[1] == "MissingAttribute at event 1: element <T3> lacks attribute 'v'"


WIDE = 3_100  # alternatives: one ``if``/``elif`` chain this long is past CPython's compiler recursion


@pytest.mark.parametrize("form", ["repetition", "clauses"])
def test_a_row_of_3_100_alternatives_parses_as_the_reference_machine_does(tmp_path, capsys, form):
    alternation = " | ".join(f"<T{i} v/> {{I{i}(v)}}" for i in range(WIDE))
    last = WIDE - 1
    if form == "repetition":
        grammar = f"@Grammar G R ::= <R> xs = ({alternation})* </R> {{xs}}. end"
        document = f'<R><T0 v="a"/><T1000 v="b"/><T{last} v="c"/></R>'
        value = f'Cons(I0("a"),Cons(I1000("b"),Cons(I{last}("c"),Nil)))'
    else:
        grammar = f"@Grammar G R ::= <R> x = S </R> {{x}}. S ::= {alternation}. end"
        document = f'<R><T{last} v="c"/></R>'
        value = f'I{last}("c")'
    failing = f"<R><T{last}/></R>"
    failure = f"MissingAttribute at event 1: element <T{last}> lacks attribute 'v'"
    outcomes = _both_machines(grammar, "R", [document, failing, "<R><U/></R>"])
    assert outcomes[:2] == [value, failure]
    assert outcomes[2].startswith("NoPredictEntry at event 1: no prediction for rule ")
    assert _parse_cli(tmp_path, grammar, document) == 0
    assert capsys.readouterr().out == value + "\n"


@pytest.mark.parametrize(
    "rules, documents, outcomes",
    [
        pytest.param(
            "R ::= <A/> {x}.", ["<A/>"], ["EvalError at event 2: unbound variable: x"], id="unbound"
        ),
        pytest.param(
            'R ::= <A k when k = "a" > x = TEXT else OK </A> {x}.',
            ['<A k="a">t</A>', '<A k="b"></A>'],
            ['"t"', "EvalError at event 2: unbound variable: x"],
            id="bound-by-one-branch",
        ),
        pytest.param(
            "R ::= <A> X </A> {1}.", ["<A></A>"], ["NoPredictEntry at event 1: no prediction for rule X on /A"],
            id="undefined-rule",
        ),
        pytest.param(
            "R ::= <A v/> {Seq{v, 1, true, Seq{}}}.", ['<A v="x"/>'], ['["x",1,true,[]]'], id="list"
        ),
        pytest.param("R ::= <A/> {}.", ["<A/>"], ["null"], id="no-action-value"),
    ],
)
def test_unchecked_grammars_fail_as_on_the_reference_machine(rules, documents, outcomes):
    # ``make_table`` skips the well-formedness check, so a name can be unbound.
    assert _both_machines(f"@Grammar G {rules} end", "R", documents) == outcomes


def test_units_of_one_shape_get_their_own_constants_of_every_kind(compiled):
    """Four rules of one shape, each a unit of its own (it is called from two
    branches), holding every kind of constant a shape's recipes make again:
    strings, integers, booleans, token sets, closures, the names a closure
    reads, callees and nested units."""
    deep = 61  # guarded elements: the innermost ones become a nested unit
    rules = []
    for i in range(4):
        nxt = f"R{i + 1}"
        deepest = "F(" * 45 + "Pair(w, y)" + ")" * 45  # past MAX_EXPR: a closure
        opens = "".join(f'<G{i}x{j} g when g = "y{i}" > ' for j in range(deep))
        closes = "".join(f' else {{N{i}}} </G{i}x{j}>' for j in reversed(range(deep)))
        rules += [
            f'R{i} ::= <T{i} k=key when k = "g{i}" > w = W{i} v = {opens} {{Pair(w, k)}} {closes}'
            f" y = {nxt} {{P{i}({i}, true, v, {deepest})}} else y = {nxt} {{Q{i}(false, y)}} </T{i}>.",
            f"W{i} ::= z = V{i} {{z}}.",
            f'V{i} ::= <A{i}/> {{{i + 10}}} | <B{i}/> {{"b{i}"}}.',
        ]
    rules.append("R4 ::= <Leaf/> {Leaf}.")
    source = "@Grammar G " + " ".join(rules) + " end"

    def document(taken):
        parts = []
        for i in range(4):
            if i in taken:
                inner = "".join(f'<G{i}x{j} g="y{i}">' for j in range(deep))
                inner += "".join(f"</G{i}x{j}>" for j in reversed(range(deep)))
                parts.append(f'<T{i} key="g{i}"><{"A" if i % 2 else "B"}{i}/>{inner}')
            else:
                parts.append(f'<T{i} key="h">')
        return "".join(parts) + "<Leaf/>" + "".join(f"</T{i}>" for i in reversed(range(4)))

    texts = compiled
    outcomes = _both_machines(source, "R0", [document({0, 1, 2, 3}), document({1, 3}), document(set())])
    assert outcomes[2] == "Q0(false,Q1(false,Q2(false,Q3(false,Leaf))))"
    assert outcomes[0].startswith('P0(0,true,Pair("b0","g0"),' + "F(" * 45 + 'Pair("b0",P1(1,true,Pair(11,"g1"),')
    assert outcomes[1].startswith('Q0(false,P1(1,true,Pair(11,"g1"),') and "Q2(false,P3(3,true," in outcomes[1]
    assert len(texts) < 2 * 4  # a unit and its nested unit per shape, not per rule


@pytest.mark.parametrize(
    "action, documents, outcomes",
    [
        pytest.param(
            "{xs->iterate(e p = P(k) | p.add(e))}",
            ['<R k="a"><I n="1"/><I n="2"/></R>', '<R k="a"></R>'],
            ['P("a","1","2")', 'P("a")'],
            id="adds-a-repetition",
        ),
        pytest.param(
            "xs = {Seq{k}} {xs->iterate(e p = P(k) | p.add(e))}",
            ['<R k="a"><I n="1"/></R>'],
            ['P("a","a")'],
            id="adds-a-rebound-name",
        ),
        pytest.param(
            "{xs->iterate(e p = k | p.add(e))}",
            ['<R k="a"><I n="1"/></R>', '<R k="a"></R>'],
            ["EvalError at event 4: addChild expects a term and a value", '"a"'],
            id="adds-to-a-string",
        ),
    ],
)
def test_a_fold_that_adds_a_repetition_agrees_with_the_reference_machine(action, documents, outcomes):
    source = f"@Grammar G R ::= <R k> xs = (<I n/> {{n}})* </R> {action}. end"
    assert _both_machines(source, "R", documents) == outcomes


@pytest.mark.parametrize(
    "document",
    ['<A><B name="x"/><B name="y"/>&</A>', '<A><B name="x"/><B', "<A>junk<", "<A><C><x/>&</C></A>"],
    ids=["after-leaves", "inside-a-tag", "after-text", "inside-any"],
)
def test_a_read_error_leaves_the_position_and_lookahead_where_the_reference_machine_does(document):
    from xmlgram.sax import XmlReadError

    rules = "A ::= <A> xs = (B | C | t = TEXT)* </A> {xs}. B ::= <B n=name/> {n}. C ::= <C> ANY </C> {0}."
    _, table = make_table(f"@Grammar G {rules} end", "A")
    states = []
    for make in (Machine, ReferenceMachine):
        machine = make(table, "A", iter(SaxReader(io.StringIO(document))))
        with pytest.raises(XmlReadError):
            machine.run()
        states.append((machine.position, machine.lookahead))
    assert states[0] == states[1] and states[0][0] > 0


# -- one branch per form, and a cap on each unit's source ----------------------------


def _one_form_rows(n):
    """A grammar whose rows each hold ``n`` alternatives of one form, which
    differ in their tags, attribute and variable names, constructors,
    literals, guards' strings and the rules they call."""
    rules = []
    loop = " | ".join(f"<L{i} a{i}=val{i}/> {{C{i}(a{i})}}" for i in range(n))
    rules.append(f"R ::= <R> xs = ({loop})* ys = (A0 | {' | '.join(f'A{i}' for i in range(1, n))})* z = S </R> {{Top(xs, ys, z)}}.")
    for i in range(n):
        # A nested repetition reads each token into ``tok``; B is inlined and
        # names itself when it predicts nothing; U is a unit of its own.
        rules.append(f"A{i} ::= <T{i} k> zs = (<x/> {{X{i}}} | <y/> {{Y{i}}})* b = B{i} u = U{i} </T{i}> {{P{i}(k, zs, b, u)}}.")
        rules.append(f'B{i} ::= <b/> {{{i}}} | <c/> {{"c{i}"}}.')
        rules.append(f"U{i} ::= <u/> {{U{i}}} | <w/> {{W{i}}}.")
        rules.append(f"V{i} ::= U{i}.")  # U's other call site
    alternatives = " | ".join(f'<S{i} v when v = "g{i}" > {{G{i}(v)}} else {{"h{i}"}} </S{i}>' for i in range(n))
    rules.append(f"S ::= {alternatives}.")
    return "@Grammar G " + " ".join(rules) + " end"


def test_rows_of_one_form_share_one_branch_and_match_the_reference_machine(compiled):
    source = _one_form_rows(12)
    part = '<T7 k="q"><y/><x/><c/><w/></T7>'
    documents = [
        f'<R><L3 val3="a"/><L11 val11="b"/>{part}<T0 k="r"><b/><u/></T0><S5 v="g5"/></R>',
        '<R><S9 v="no"/></R>',
        "<R><L4/></R>",  # a missing attribute
        '<R><L4 val4="a"><x/></L4></R>',  # a wrong end tag
        '<R><T6 k="q"><y/><b/><u/><x/></T6></R>',  # after the nested repetition
        '<R><T2 k="q"><x/><d/></T2></R>',  # no prediction inside the shared branch
        '<R><T9 k="q"><c/><d/></T9></R>',  # the unit it calls fails
    ]
    outcomes = _both_machines(source, "R", documents)
    assert outcomes[0] == 'Top(Cons(C3("a"),Cons(C11("b"),Nil)),Cons(P7("q",Cons(Y7,Cons(X7,Nil)),"c7",W7),Cons(P0("r",Nil,0,U0),Nil)),G5("g5"))'
    assert outcomes[1] == 'Top(Nil,Nil,"h9")'
    assert outcomes[2] == "MissingAttribute at event 1: element <L4> lacks attribute 'val4'"
    assert outcomes[3] == "TagMismatch at event 2: expected </L4>, found <x>"
    assert outcomes[4] == "TagMismatch at event 8: expected </T6>, found <x>"
    assert outcomes[5] == "NoPredictEntry at event 4: no prediction for rule A2$9 on d"  # the nested repetition's
    assert outcomes[6] == "NoPredictEntry at event 4: no prediction for rule U9 on d"
    # The code does not grow with the rows' width.
    wide = []
    for n in (12, 48):
        compiled.clear()
        Machine(make_table(_one_form_rows(n), "R")[1], "R", iter(()))  # builds every unit
        wide.append(sum(map(len, compiled)))
    assert wide[1] - wide[0] < 500, wide  # the longer token sets, and numbers of more digits


def test_a_row_of_more_forms_than_one_chain_holds_matches_the_reference_machine(compiled):
    from xmlgram.engine import MAX_TESTS

    # Each alternative has a form of its own: how deep its action nests and
    # how many arguments it has.  The forms are tested in two blocks.
    n = MAX_TESTS + 40

    def action(i):
        return f"C({'D(' * (i // 16)}k{')' * (i // 16)}{', 1' * (i % 16)})"

    alternatives = " | ".join(f"<T{i} k/> {{{action(i)}}}" for i in range(n))
    source = f"@Grammar G R ::= <R> xs = ({alternatives})* </R> {{xs}}. end"
    last = n - 1
    documents = [f'<R><T3 k="x"/><T{last} k="y"/></R>', f"<R><T{last}/></R>"]
    outcomes = _both_machines(source, "R", documents)
    value = action(last).replace("k", '"y"').replace(" ", "")
    assert outcomes[0] == f'Cons(C("x",1,1,1),Cons({value},Nil))'
    assert outcomes[1] == f"MissingAttribute at event 1: element <T{last}> lacks attribute 'k'"
    assert compiled[-1].count("if tok ") > n  # the unit's tests: one per form and one per block


LARGE = 5_000  # siblings or alternatives: as one unit, 1 to 1.5 MB of source


def _large(kind, n):
    """A grammar of one clause of ``n`` sibling elements (the first of two
    clauses, for ``alternative``), of a repetition of ``n`` alternatives, or
    of a rule of ``n`` clauses; a document and its value, and a failing one
    and its failure."""
    if kind in ("siblings", "alternative"):
        elements = " ".join(f"<E{i}/>" for i in range(n))
        other = " | <Other/> {Other}" if kind == "alternative" else ""
        grammar = f"@Grammar G R ::= <R> {elements} </R> {{Done}}{other}. end"
        document = "<R>" + "".join(f"<E{i}/>" for i in range(n)) + "</R>"
        failing = document.replace(f"<E{n // 2}/>", "")
        failure = f"TagMismatch at event {n + 1}: expected <E{n // 2}>, found <E{n // 2 + 1}>"
        return grammar, document, "Done", failing, failure
    if kind == "repetition":
        alternatives = " | ".join(f"<E{i} v=val/> {{v}}" for i in range(n))
        grammar = f"@Grammar G R ::= <R> xs = ({alternatives})* </R> {{xs}}. end"
        document = f'<R><E0 val="a"/><E{n - 1} val="b"/></R>'
        failing = f'<R><E5 val="a"/><E{n // 2}/></R>'
        failure = f"MissingAttribute at event 3: element <E{n // 2}> lacks attribute 'val'"
        return grammar, document, 'Cons("a",Cons("b",Nil))', failing, failure
    alternatives = " | ".join(f"<E{i} v=val/> {{C{i}(v)}}" for i in range(n))
    grammar = f"@Grammar G R ::= <R> x = S </R> {{x}}. S ::= {alternatives}. end"
    document = f'<R><E{n - 1} val="b"/></R>'
    failing = f'<R><E{n // 3} val="b"><x/></E{n // 3}></R>'
    failure = f"TagMismatch at event 2: expected </E{n // 3}>, found <x>"
    return grammar, document, f'C{n - 1}("b")', failing, failure


@pytest.mark.parametrize("kind", ["siblings", "alternative", "repetition", "clauses"])
def test_a_large_clause_or_row_compiles_in_units_of_bounded_source(tmp_path, capsys, monkeypatch, compiled, kind):
    from xmlgram import cli
    from xmlgram.engine import MAX_SOURCE

    tables, compile_grammar = [], cli.compile_grammar

    def keeping(*args):  # the table the CLI builds, for the reference machine
        result = compile_grammar(*args)
        tables.append(result.table)
        return result

    monkeypatch.setattr(cli, "compile_grammar", keeping)
    grammar, document, value, failing, failure = _large(kind, LARGE)
    assert _parse_cli(tmp_path, grammar, document) == 0
    assert capsys.readouterr().out == value + "\n"
    assert len(compiled) <= 3  # for the siblings: the clause's unit, and one text for each unit of the rest but the last
    assert max(map(len, compiled)) <= MAX_SOURCE + 500  # the cap, one element and the head
    assert _both_machines(grammar, "R", [document, failing], tables[0]) == [value, failure]


@pytest.mark.parametrize("kind", ["siblings", "repetition", "clauses"])
def test_building_a_large_clause_or_row_takes_linear_memory(kind):
    import tracemalloc

    peaks = []
    for n in (50, 400):
        _, table = make_table(_large(kind, n)[0], "R")
        tracemalloc.start()
        try:
            Machine(table, "R", iter(()))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Linear code reads about 8 and quadratic code about 64.  One unit of all
    # 400 items, as one compile() of it, took about 30 KB per item.
    assert peaks[1] < 16 * peaks[0], peaks
    assert peaks[1] < 4_000 * 400, peaks


@pytest.mark.parametrize(
    "rules, documents, outcomes",
    [
        pytest.param(
            "S ::= <a/> {A(1)} | x = <b j> {j} </b> <c j/> {P(x, j)}.",
            ['<R><b j="1"></b><c j="2"/></R>', "<R><a/></R>", "<R><b/></R>"],
            ['P("1","2")', "A(1)", "MissingAttribute at event 1: element <b> lacks attribute 'j'"],
            id="a-temp",
        ),
        pytest.param(
            "S ::= <a> xs = (<i/> {1})* </a> {xs} | <b> z = {G(1)} y = {G(2)} </b> {y->iterate(e p = P(z) | p.add(e))}.",
            ["<R><b></b></R>", "<R><a><i/><i/></a></R>"],
            ["EvalError at event 3: cannot iterate over G(2)", "Cons(1,Cons(1,Nil))"],
            id="a-repetition",
        ),
    ],
)
def test_a_branch_reads_no_local_that_an_earlier_branch_of_its_row_left(rules, documents, outcomes):
    # Each branch of a row numbers its placeholders from 0, so the second
    # branch here reuses the local that the first kept a temp or a list in.
    source = f"@Grammar G R ::= <R> s = S </R> {{s}}. {rules} end"
    assert _both_machines(source, "R", documents) == outcomes
