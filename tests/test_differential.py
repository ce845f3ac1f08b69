"""Differential testing: the table-driven engine against the reference
interpreter on generated grammars and documents.

For every conflict-free generated grammar, the engine (running the
normalized grammar) and the reference interpreter (running the original)
must agree on accept/reject, and on accepted documents the engine's value
must be among the reference derivation values (the reference enumerates all
of them; the engine is its deterministic refinement).  The interpreter run
on the normalized grammar must agree exactly as well.
"""

import collections
from dataclasses import dataclass
from typing import Optional

import pytest

from helpers import documents_for, flatten_tree, random_grammar
from xmlgram.analysis import build_predict_table, check_ll1, compute_sets
from xmlgram.engine import Machine, MachineInvariantError, ParseFailure, compile_grammar
from xmlgram.frontend import parse_grammar
from xmlgram.normalize import is_normal_form, normalize_grammar
from xmlgram.oracle import Oracle, OracleLimitExceeded
from xmlgram.wellformed import check_grammar

ORACLE_BUDGET = 40_000


@dataclass
class Outcome:
    accepted: bool
    value: Optional[object] = None
    values: tuple = ()


def engine_outcome(table, start, doc) -> Outcome:
    try:
        value = Machine(table, start, iter(flatten_tree(doc))).run()
        return Outcome(True, value)
    except ParseFailure:
        return Outcome(False)


def oracle_outcome(grammar, start, doc) -> Optional[Outcome]:
    try:
        result = Oracle(grammar, max_steps=ORACLE_BUDGET).accepts(start, doc)
    except OracleLimitExceeded:
        return None
    return Outcome(result.accepted, result.value, result.values)


def build_pipeline(seed):
    """Returns (grammar, normalized, table, start), or None when the CLI
    would refuse the grammar: a compile error or an LL(1) conflict."""
    grammar = random_grammar(seed)
    compiled = compile_grammar(grammar)
    if compiled.errors or compiled.table.conflicts:
        return None
    assert is_normal_form(compiled.normal)
    return grammar, compiled.normal, compiled.table, compiled.start


def test_compile_filter_keeps_the_same_seeds():
    """``build_pipeline`` filters with ``compile_grammar``, which also rejects
    left recursion.  The generator draws none, so it keeps exactly the seeds
    that well-formedness and LL(1) alone keep, and the differential tests run
    the same pairs as with those two checks (criterion 5 filters the same
    way, from seed 10,001)."""
    for seed in [*range(1, 151), *range(10_001, 10_091)]:
        grammar = random_grammar(seed)
        kept = not check_grammar(grammar)
        if kept:
            normal = normalize_grammar(grammar)
            start = grammar.clauses[0].name
            kept = check_ll1(build_predict_table(normal, compute_sets(normal, start)))[0]
        assert (build_pipeline(seed) is not None) == kept, seed


def check_pair(grammar, normal, table, start, doc) -> Optional[bool]:
    """One differential comparison; None when the oracle ran out of budget."""
    reference = oracle_outcome(grammar, start, doc)
    if reference is None:
        return None
    engine = engine_outcome(table, start, doc)
    assert engine.accepted == reference.accepted, (grammar, doc)
    if engine.accepted:
        assert engine.value in reference.values, (grammar, doc, engine.value, reference.values)
        on_normal = oracle_outcome(normal, start, doc)
        if on_normal is not None:
            assert on_normal.accepted
            assert engine.value in on_normal.values, (normal, doc)
    return engine.accepted


@pytest.mark.parametrize("block", range(8))
def test_engine_matches_oracle_on_generated_pairs(block):
    pairs = accepted = 0
    seed = block * 1000
    while pairs < 30:
        seed += 1
        built = build_pipeline(seed)
        if built is None:
            continue
        grammar, normal, table, start = built
        for doc in documents_for(grammar, start, seed):
            verdict = check_pair(grammar, normal, table, start, doc)
            if verdict is None:
                continue
            pairs += 1
            accepted += verdict
    # the corpus must exercise both outcomes to mean anything
    assert accepted > 0
    assert pairs - accepted > 0


def test_machine_invariant_never_trips_on_corpus():
    """The one-value terminal invariant holds across the corpus (it would
    raise MachineInvariantError, distinct from an input-rejecting failure)."""
    tested = 0
    for seed in range(200, 320):
        built = build_pipeline(seed)
        if built is None:
            continue
        grammar, normal, table, start = built
        for doc in documents_for(grammar, start, seed, n_sampled=2, n_random=1):
            try:
                Machine(table, start, iter(flatten_tree(doc))).run()
            except ParseFailure:
                pass
            except MachineInvariantError as exc:  # pragma: no cover
                raise AssertionError(f"seed {seed}: {exc}") from exc
            tested += 1
    assert tested > 30


def test_fixed_regression_grammars():
    """Shapes that once diverged or are easy to get wrong, pinned."""
    cases = [
        # value of an element whose branch exports bindings
        (
            "@Grammar R1 S ::= <R> [v,w] = P {v} </R>. P ::= <Q a b/> {a, b}. end",
            "S",
            ['<R><Q a="1" b="2"/></R>'],
        ),
        # alternation with exported binding, value observed through a bind
        (
            "@Grammar R2 S ::= <R> out = (x = M {Left(x)} | x = N {Right(x)}) {Pair(out, x)} </R>."
            ' M ::= <M/> {"m"}. N ::= <N/> {"n"}. end',
            "S",
            ["<R><M/></R>", "<R><N/></R>", "<R></R>"],
        ),
        # nullable rule called inside an element, predicted on the end tag
        (
            "@Grammar R3 S ::= <T> N </T> {1}. N ::= EMPTY. end",
            "S",
            ["<T></T>", "<T><X/></T>"],
        ),
        # repetition over guarded elements
        (
            '@Grammar R4 S ::= <L> xs = I* </L> {xs}.'
            ' I ::= <I k when k = "y" > OK </I> {k} | <J/> {"j"}. end',
            "S",
            ['<L><I k="y"/><J/></L>', '<L><I k="n"/></L>', "<L></L>"],
        ),
        # text nodes and ANY mixing
        (
            "@Grammar R5 S ::= <T> x = TEXT ANY </T> {x}. end",
            "S",
            ["<T>words<Sub/></T>", "<T>words</T>", "<T><Sub/>words</T>"],
        ),
    ]
    from xmlgram.events import build_tree
    from xmlgram.sax import read_events

    for source, start, docs in cases:
        grammar = parse_grammar(source)
        assert check_grammar(grammar) == []
        normal = normalize_grammar(grammar)
        table = build_predict_table(normal, compute_sets(normal, start))
        assert check_ll1(table)[0], source
        for doc_text in docs:
            doc = build_tree(read_events(doc_text))
            assert check_pair(grammar, normal, table, start, doc) is not None


def _leaf(i: int) -> str:
    return f"<T{i}/> {{{i}}}"


# k-way alternations in each position the rewrites treat differently:
# (rule with ALT where the alternation goes, branch i, document taking branch i).
KWAY_SHAPES = {
    "whole_body": ("S ::= ALT.", _leaf, lambda i: f"<T{i}/>"),
    "bind": ("S ::= <R> x = (ALT) </R> {Got(x)}.", _leaf, lambda i: f"<R><T{i}/></R>"),
    "element": ("S ::= <R> ALT </R>.", _leaf, lambda i: f"<R><T{i}/></R>"),
    "star": ("S ::= <R> xs = (ALT)* </R> {xs}.", _leaf, lambda i: f"<R><T{i}/><T0/><T{i}/></R>"),
    # every branch binds a and x, odd ones also y, which is not exported
    "common_bindings": (
        "S ::= <R> v = (ALT) </R> {Res(v, a, x)}.",
        lambda i: f"<T{i} a> x = TEXT </T{i}>{' y = <U/>' if i % 2 else ''} {{Br(a, {i})}}",
        lambda i: f'<R><T{i} a="p{i}">w{i}</T{i}>' + ("<U/>" if i % 2 else "") + "</R>",
    ),
}


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("shape", sorted(KWAY_SHAPES))
def test_kway_alternation_matches_oracle(shape, k):
    from xmlgram.events import build_tree
    from xmlgram.sax import read_events

    rule, branch, document = KWAY_SHAPES[shape]
    alternation = " | ".join(branch(i) for i in range(k))
    grammar = parse_grammar(f"@Grammar K {rule.replace('ALT', alternation)} end")
    assert check_grammar(grammar) == []
    normal = normalize_grammar(grammar)
    # one rule, fresh or S itself, holds one clause per branch
    assert max(collections.Counter(c.name for c in normal.clauses).values()) == k
    table = build_predict_table(normal, compute_sets(normal, "S"))
    assert check_ll1(table)[0]
    accepted = [document(i) for i in range(k)]
    rejected = ["<X/>", "<R><X/></R>", f"<R><T{k}/></R>"]
    if shape != "star":
        rejected.append("<R><T0/><T0/></R>")
    for text in accepted + rejected:
        doc = build_tree(read_events(text))
        assert check_pair(grammar, normal, table, "S", doc) is (text in accepted), text


# A branch that binds a name already in scope again: the new value reaches
# the rest of the body, on the engine as on the oracle, but not the next
# iteration of a repetition.  Each case is (source with start rule R,
# documents that take each branch).
REBINDING_CASES = {
    "guarded_element": (
        '@Grammar G R ::= <R> x = TEXT <A k when k = "y" > x = B else OK </A> {x} </R>.'
        " B ::= TEXT. end",
        ['<R>outer<A k="y">inner</A></R>', '<R>outer<A k="n"></A></R>'],
    ),
    "element_with_calls": (
        "@Grammar G R ::= <R> x = TEXT <A> x = B C </A> {x} </R>. B ::= TEXT. C ::= <C/>. end",
        ["<R>outer<A>inner<C/></A></R>"],
    ),
    "alternation_of_elements": (
        "@Grammar G R ::= <R> x = TEXT (<D> x = TEXT </D> | <C/>) {x} </R>. end",
        ["<R>outer<D>inner</D></R>", "<R>outer<C/></R>"],
    ),
    "alternation_of_calls": (
        "@Grammar G R ::= <R> x = TEXT (x = B | C) {x} </R>. B ::= <B> TEXT </B>. C ::= <C/>. end",
        ["<R>outer<B>inner</B></R>", "<R>outer<C/></R>"],
    ),
    # every iteration runs where the repetition is: each one reads the outer k
    "repetition": (
        "@Grammar G R ::= <R> k = TEXT xs = (<I/> p = {k} k = TEXT {p})* </R> {xs}. end",
        ["<R>a<I/>b<I/>c<I/>d</R>", "<R>a</R>"],
    ),
}


@pytest.mark.parametrize("case", sorted(REBINDING_CASES))
def test_rebinding_a_name_in_scope_matches_oracle(case):
    from xmlgram.events import build_tree
    from xmlgram.sax import read_events

    source, docs = REBINDING_CASES[case]
    grammar = parse_grammar(source)
    assert check_grammar(grammar) == []
    normal = normalize_grammar(grammar)
    table = build_predict_table(normal, compute_sets(normal, "R"))
    assert check_ll1(table)[0]
    for text in docs:
        doc = build_tree(read_events(text))
        reference = oracle_outcome(grammar, "R", doc)
        assert reference.accepted and len(reference.values) == 1, text
        assert engine_outcome(table, "R", doc).value == reference.value, text
        assert oracle_outcome(normal, "R", doc).values == reference.values, text
