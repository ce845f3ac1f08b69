"""The table-driven machine: transitions, failures, streaming bounds."""

import gc
import io
import pathlib

import pytest

from helpers import LEAF_FAILURES, MODELS_DOC, MODELS_GRAMMAR, TEST_GRAMMAR, cons_chain
from helpers import flatten_tree, run
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
    # CALL R, START R, START G, TAG_END G, ACTIONS, TAG_END R: no null is
    # pushed for the discarded element and popped again
    _, table = make_table('@Grammar G R ::= <R> <G k when k = "a" > OK else OK </G> {1} </R>. end', "R")
    machine = Machine(table, "R", read_events(document))
    assert machine.run() == IntVal(1)
    assert machine.steps == 6


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
    machine = Machine(table, "A", read_events("<A></A>"))
    machine.run()
    assert machine.program == []
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
    assert machine2.max_dump_depth >= 30  # environments saved for genuinely nested calls


SIBLINGS = "<R>" + "<a/>" * 20_000 + "</R>"


def test_right_recursion_without_a_pending_op_runs_in_constant_space():
    # The recursive call ends L's body, so it saves no environment.
    _, table = make_table("@Grammar G R ::= <R> L </R> {1}. L ::= <a/> L. L ::= . end", "R")
    machine = Machine(table, "R", read_events(SIBLINGS))
    assert machine.run() == IntVal(1)
    assert machine.max_dump_depth <= 1


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
    # X's call to R is followed by its end tag, so it saves one environment;
    # R's own call saves another only when its clause goes on after it, and
    # a loop's NEXT holds one for as long as the loop runs.
    _, table = make_table(f"@Grammar G X ::= <x> v = R </x> {{v}}. {rules} end", "X")
    machine = Machine(table, "X", read_events(document))
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
def test_leaf_siblings_take_one_step_each_plus_a_constant(n):
    # The loop's NEXT runs each leaf item in place, in one step; the rest of
    # the parse, around the repetition, takes 6 whatever its length.
    _, table = make_table((SAMPLES / "seq.xg").read_text(), "A")
    events = list(read_events("<A>" + '<B name="x"/>' * n + "</A>"))
    machine = Machine(table, "A", iter(events))
    machine.run()
    assert machine.steps == n + 6


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
    (loop,) = Program(table).loops.values()
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
    with pytest.raises(NotNormalForm, match="loop L is not called with its own parameters"):
        Program(table)


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
    program = Program(table)
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
