"""Acceptance suite.

Each test is one acceptance criterion and prints a single PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them inline).
"""

import functools
import io
import random
import time

from helpers import (
    MODELS_DOC,
    MODELS_GRAMMAR,
    TEST_GRAMMAR,
    TEST_GRAMMAR_NORMALIZED,
    alpha_eq_grammars,
    flatten_tree,
    random_grammar,
    random_tree,
    sample_document,
)
from xmlgram.analysis import build_predict_table, check_ll1, compute_sets
from xmlgram.ast import Actions, Grammar
from xmlgram.engine import Machine, ParseFailure, compile_grammar
from xmlgram.events import (
    ANY_TOKEN,
    TEXT_TOKEN,
    Element,
    TextNode,
    build_tree,
)
from xmlgram.frontend import parse_grammar
from xmlgram.normalize import is_normal_form, normalize_grammar
from xmlgram.oracle import Oracle, OracleLimitExceeded
from xmlgram.sax import SaxReader, read_events
from xmlgram.values import StrVal, TermVal
from xmlgram.wellformed import check_grammar


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorate


def _build(source: str, start: str):
    grammar = parse_grammar(source)
    assert check_grammar(grammar) == []
    normal = normalize_grammar(grammar)
    analysis = compute_sets(normal, start)
    table = build_predict_table(normal, analysis)
    return grammar, normal, analysis, table


def _fresh_names(normal: Grammar):
    """Map the two generated rule names to their roles: (star, alternative)."""
    star = alt = None
    for c in normal.clauses:
        if "$" not in c.name:
            continue
        if len(c.body) == 1 and isinstance(c.body[0], Actions):
            star = c.name
        elif len(c.body) == 1:
            alt = c.name
    assert star and alt
    return star, alt


@criterion(1, "predict table for the worked example matches the published table")
def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    _, normal, _, table = _build(TEST_GRAMMAR, "A")
    star, alt = _fresh_names(normal)
    expected = {
        ("A", "A"),
        (star, "B"),
        (star, "C"),
        (star, "/A"),
        (alt, "B"),
        (alt, "C"),
        ("B", "B"),
        ("C", "C"),
    }
    assert set(table.entries) == expected
    # cell contents, matched per row
    assert table.entries[("A", "A")] is normal.clauses[0]
    cons_def = table.entries[(star, "B")]
    assert table.entries[(star, "C")] is cons_def
    assert cons_def.body[-1].exprs[0].ctor == "Cons"
    nil_def = table.entries[(star, "/A")]
    assert nil_def.body[0].exprs[0].ctor == "Nil"
    assert table.entries[(alt, "B")].body[0].name == "B"
    assert table.entries[(alt, "C")].body[0].name == "C"
    assert table.entries[("B", "B")].name == "B"
    assert table.entries[("C", "C")].name == "C"
    ok, conflicts = check_ll1(table)
    assert ok and conflicts == []
    assert time.monotonic() - t0 < 1.0


@criterion(2, "predict(B, B) is structurally the published clause")
def test_criterion_2_predict_b():
    _, _, _, table = _build(TEST_GRAMMAR, "A")
    published = parse_grammar("@Grammar T B ::= <B n = name> OK </B> {n}. end").clauses[0]
    assert table.entries[("B", "B")] == published


@criterion(3, "normalizing the worked example reproduces the published normal form")
def test_criterion_3_normal_form():
    mine = normalize_grammar(parse_grammar(TEST_GRAMMAR))
    published = parse_grammar(TEST_GRAMMAR_NORMALIZED)
    counts = {}
    for c in mine.clauses:
        counts[c.name] = counts.get(c.name, 0) + 1
    assert counts["A"] == 1 and counts["B"] == 1 and counts["C"] == 1
    assert sorted(v for k, v in counts.items() if "$" in k) == [2, 2]
    assert is_normal_form(mine)
    assert alpha_eq_grammars(mine, published)


@criterion(4, "scope checking rejects the counterexample and accepts the model grammar")
def test_criterion_4_wellformedness():
    counterexample = parse_grammar(
        """@Grammar W0
             W ::= (x = X | y = Y) Z(x).
             X ::= <X/>. Y ::= <Y/>. Z(v) ::= <Z/>.
           end"""
    )
    errors = check_grammar(counterexample)
    assert len(errors) == 1
    assert errors[0].variable == "x"
    models = parse_grammar(MODELS_GRAMMAR)
    assert check_grammar(models) == []


@criterion(5, "engine and reference interpreter agree on >= 200 generated pairs")
def test_criterion_5_differential():
    t0 = time.monotonic()
    pairs = accepted = 0
    disagreements = []
    seed = 10_000
    while pairs < 200:
        seed += 1
        grammar = random_grammar(seed)
        if len(grammar.clauses) > 6:
            continue
        compiled = compile_grammar(grammar)  # the grammars the CLI accepts
        if compiled.errors or compiled.table.conflicts:
            continue
        start, table = compiled.start, compiled.table
        rng = random.Random(seed * 13 + 1)
        docs = [d for d in (sample_document(grammar, start, rng) for _ in range(4)) if d]
        docs += [t for t in (random_tree(rng) for _ in range(3)) if isinstance(t, Element)]
        oracle = Oracle(grammar, max_steps=40_000)
        for doc in docs:
            try:
                reference = oracle.accepts(start, doc)
            except OracleLimitExceeded:
                continue
            try:
                value = Machine(table, start, iter(flatten_tree(doc))).run()
                engine_accepts, engine_value = True, value
            except ParseFailure:
                engine_accepts, engine_value = False, None
            pairs += 1
            if engine_accepts != reference.accepted:
                disagreements.append((seed, doc, engine_accepts, reference.accepted))
            elif engine_accepts and engine_value not in reference.values:
                disagreements.append((seed, doc, engine_value, reference.values))
            accepted += engine_accepts
    elapsed = time.monotonic() - t0
    assert disagreements == []
    assert pairs >= 200
    assert accepted > 20 and pairs - accepted > 20  # both outcomes well represented
    assert elapsed < 60.0, f"differential suite took {elapsed:.1f}s"


# -- criterion 6: null/first vs exhaustive enumeration -------------------------

# Each entry: (source, tags to enumerate, attr values to try).  Start rule is
# the first rule.  Languages are small enough that every first-set token has
# a witness within the enumeration bounds.
SMALL_SUITE = [
    ("@Grammar S01 X ::= OK. end", ["P"], []),
    ("@Grammar S02 X ::= EMPTY {1}. end", ["P"], []),
    ("@Grammar S03 X ::= {42}. end", ["P"], []),
    ("@Grammar S04 X ::= <P/> {1}. end", ["P", "Q"], []),
    ("@Grammar S05 X ::= TEXT. end", ["P"], []),
    ("@Grammar S06 X ::= ANY. end", ["P", "Q"], []),
    ("@Grammar S07 X ::= Y. Y ::= OK. end", ["P"], []),
    ("@Grammar S08 X ::= Y <P/>. Y ::= OK. end", ["P", "Q"], []),
    ("@Grammar S09 X ::= Y <P/>. Y ::= <Q/>. end", ["P", "Q"], []),
    ("@Grammar S10 X ::= <P/> | OK. end", ["P", "Q"], []),
    ("@Grammar S11 X ::= <P/> | <Q/>. end", ["P", "Q"], []),
    ("@Grammar S12 X ::= xs = <P/>* {xs}. end", ["P", "Q"], []),
    ("@Grammar S13 X ::= <P> X </P> {1} | OK. end", ["P"], []),
    ('@Grammar S14 X ::= <P a when a = "on" > OK else TEXT </P> {a}. end', ["P"], ["on", "off"]),
    ("@Grammar S15 X ::= x = <P/> {x}. end", ["P"], []),
    ("@Grammar S16 X ::= A B. A ::= OK | <P/>. B ::= <Q/>. end", ["P", "Q"], []),
    ("@Grammar S17 X ::= A B. A ::= OK | <P/>. B ::= OK | <Q/>. end", ["P", "Q"], []),
    ("@Grammar S18 X ::= <P> Y </P> {1}. Y ::= OK | <Q/> {2}. end", ["P", "Q"], []),
    ("@Grammar S19 X ::= TEXT | <P/>. end", ["P"], []),
    ("@Grammar S20 X ::= xs = Y* {xs}. Y ::= <P/> {1}. end", ["P", "Q"], []),
    ("@Grammar S21 X ::= <P> <Q> OK </Q> </P> {1}. end", ["P", "Q"], []),
    ("@Grammar S22 X ::= EMPTY. end", ["P"], []),
    ("@Grammar S23 X ::= Y Y. Y ::= <P/> {1} | OK. end", ["P", "Q"], []),
    ("@Grammar S24 X ::= <P> EMPTY </P> {1}. end", ["P"], []),
]


def _enumerate_trees(tags, attr_values):
    """All trees over the alphabet with depth <= 3 and small width."""
    attr_variants = [{}] + [{"a": v} for v in attr_values]
    depth1 = [Element(t, dict(av), ()) for t in tags for av in attr_variants]
    depth1.append(TextNode("w"))
    depth2 = [
        Element(t, dict(av), kids)
        for t in tags
        for av in attr_variants
        for kids in [(k,) for k in depth1] + [(a, b) for a in depth1 for b in depth1]
    ]
    depth3 = [
        Element(t, {}, (kid,))
        for t in tags
        for kid in depth2
    ]
    return depth1, depth1 + depth2 + depth3


def _oracle_startable(grammar, start, singles, pairs_pool):
    """Tags (and text) that can begin input the start rule consumes."""
    from xmlgram.ast import Call

    oracle = Oracle(grammar, max_steps=20_000)
    startable = set()

    def probe(seq):
        head = seq[0]
        for remaining, _, _ in oracle.satisfy((Call(start, ()),), seq, {}):
            if len(remaining) < len(seq):
                if isinstance(head, TextNode):
                    startable.add("TEXT")
                else:
                    startable.add(head.tag)
                return

    for tree in singles:
        probe((tree,))
    for head in pairs_pool:
        for tail in pairs_pool:
            probe((head, tail))
    return startable


@criterion(6, "nullability and first sets match exhaustive enumeration on the fixed suite")
def test_criterion_6_first_sets():
    from xmlgram.ast import Call

    assert len(SMALL_SUITE) >= 20
    mismatches = []
    for source, tags, attr_values in SMALL_SUITE:
        grammar = parse_grammar(source)
        assert check_grammar(grammar) == [], source
        normal = normalize_grammar(grammar)
        start = grammar.clauses[0].name
        analysis = compute_sets(normal, start)

        # nullable: a derivation over no input exists
        for name in {c.name for c in grammar.clauses}:
            oracle_null = any(True for _ in Oracle(normal).satisfy((Call(name, ()),), (), {}))
            if analysis.nullable[name] != oracle_null:
                mismatches.append((source, name, "nullable", analysis.nullable[name], oracle_null))

        depth1, all_trees = _enumerate_trees(tags, attr_values)
        startable = _oracle_startable(normal, start, all_trees, depth1)
        first = analysis.first[start]
        wildcard = ANY_TOKEN in first
        for tag in tags:
            analysis_says = wildcard or tag in first
            oracle_says = tag in startable
            if analysis_says != oracle_says:
                mismatches.append((source, start, tag, analysis_says, oracle_says))
        analysis_text = wildcard or TEXT_TOKEN in first
        if analysis_text != ("TEXT" in startable):
            mismatches.append((source, start, "TEXT", analysis_text, "TEXT" in startable))
    assert mismatches == [], mismatches


@criterion(7, "a 100k-sibling document streams with bounded dump depth in under 5s")
def test_criterion_7_streaming():
    _, normal, _, table = _build(TEST_GRAMMAR, "A")
    n = 100_000
    doc = "<A>" + "".join(f'<B name="s{i}"/>' for i in range(n)) + "</A>"
    t0 = time.monotonic()
    reader = SaxReader(io.StringIO(doc))
    machine = Machine(table, "A", iter(reader))
    value = machine.run()
    elapsed = time.monotonic() - t0
    assert machine.max_dump_depth <= 10, machine.max_dump_depth
    assert elapsed < 5.0, f"streaming parse took {elapsed:.2f}s"
    # the synthesized chain has one link per sibling
    count = 0
    node = value
    while isinstance(node, TermVal) and node.ctor == "Cons":
        count += 1
        node = node.args[1]
    assert count == n and node == TermVal("Nil", ())


@criterion(8, "the model grammar parses the sample document to the reference value")
def test_criterion_8_models_end_to_end():
    grammar, normal, _, table = _build(MODELS_GRAMMAR, "Package")
    assert check_ll1(table)[0]
    events = list(read_events(MODELS_DOC))
    engine_value = Machine(table, "Package", iter(events)).run()
    reference = Oracle(grammar, max_steps=200_000).accepts("Package", build_tree(events))
    assert reference.accepted and not reference.ambiguous
    assert engine_value == reference.value
    # spot-check the shape: Package(name, Class(..2 attributes, 1 operation..), Association)
    assert engine_value.ctor == "Package"
    assert engine_value.args[0] == StrVal("shop")
    cls = engine_value.args[1]
    assert cls.ctor == "Class" and len(cls.args) == 5  # name, isAbstract, 2 attrs, 1 op
    assert [a.ctor for a in cls.args[2:]] == ["Attribute", "Attribute", "Operation"]
    assoc = engine_value.args[2]
    assert assoc.ctor == "Association"
    assert [a.ctor for a in assoc.args[1:]] == ["End", "End"]
