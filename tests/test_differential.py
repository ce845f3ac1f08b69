"""Differential testing: the table-driven engine against the reference
interpreter on generated grammars and documents, and against the reference
machine, the op interpreter it replaced.

For every conflict-free generated grammar, the engine (running the
normalized grammar) and the reference interpreter (running the original)
must agree on accept/reject, and on accepted documents the reference must
find exactly one derivation value, the engine's (the reference enumerates
them all; an LL(1) grammar leaves one).  The interpreter run on the
normalized grammar must agree exactly as well.  The engine and the reference
machine must give the same value or the same failure, message and position
on every document, whole or with a random insert that the reader rejects.
"""

import collections
import io
import itertools
import random
from dataclasses import dataclass
from typing import Optional

import pytest

from helpers import MachineInvariantError, ReferenceMachine, documents_for, flatten_tree, random_grammar
from helpers import serialize_tree
from xmlgram.analysis import build_predict_table, check_ll1, compute_sets
from xmlgram.engine import Machine, ParseFailure, compile_grammar
from xmlgram.frontend import parse_grammar
from xmlgram.normalize import is_normal_form, normalize_grammar
from xmlgram.oracle import Oracle, OracleLimitExceeded
from xmlgram.sax import SaxReader, XmlReadError
from xmlgram.values import render_term
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
        assert reference.values == (engine.value,), (grammar, doc, engine.value, reference.values)
        on_normal = oracle_outcome(normal, start, doc)
        if on_normal is not None:
            assert on_normal.accepted
            assert on_normal.values == (engine.value,), (normal, doc)
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
    """The reference machine's one-value terminal invariant holds across the
    corpus (it would raise MachineInvariantError, distinct from an
    input-rejecting failure), and the engine's generated code raises nothing
    but a ``ParseFailure``."""
    tested = 0
    for seed in range(200, 320):
        built = build_pipeline(seed)
        if built is None:
            continue
        grammar, normal, table, start = built
        for doc in documents_for(grammar, start, seed, n_sampled=2, n_random=1):
            for machine in (Machine, ReferenceMachine):
                try:
                    machine(table, start, iter(flatten_tree(doc))).run()
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


def _machine_outcome(machine, table, start, text):
    """The rendered value, or the failure's class and message (which holds
    its reason and position), the events the machine consumed and its
    lookahead (each machine's own marker while the first event is unread)."""
    run = machine(table, start, iter(SaxReader(io.StringIO(text))))
    try:
        return render_term(run.run())
    except (ParseFailure, XmlReadError) as exc:
        lookahead = "unread" if type(run.lookahead) is object else run.lookahead
        return type(exc).__name__, str(exc), run.position, lookahead


@pytest.mark.parametrize("block", range(6))
def test_engine_matches_the_reference_machine_byte_for_byte(block):
    """``random_grammar`` seeds 0–2999 with their ``documents_for`` documents,
    each as it is and with one random insert of ``<``, ``&``, ``</x>`` or
    ``junk``: the same rendered value, or the same failure."""
    runs = values = 0
    for seed in range(block * 500, block * 500 + 500):
        grammar = random_grammar(seed)
        compiled = compile_grammar(grammar)
        if compiled.errors or compiled.table is None or compiled.table.conflicts:
            continue
        rng = random.Random(seed)
        for doc in documents_for(grammar, compiled.start, seed):
            text = serialize_tree(doc)
            at = rng.randrange(len(text) + 1)
            for variant in (text, text[:at] + rng.choice(["<", "&", "</x>", "junk"]) + text[at:]):
                engine = _machine_outcome(Machine, compiled.table, compiled.start, variant)
                reference = _machine_outcome(ReferenceMachine, compiled.table, compiled.start, variant)
                assert engine == reference, (seed, variant)
                runs += 1
                values += type(engine) is str
    assert values > 100 and runs - values > 100  # both outcomes well represented


def _copies(seed, count):
    """``count`` copies of the body of ``random_grammar(seed)``, each with
    its rules and tags renamed; the start rule, the seed's documents and a
    function that renames a document for copy ``k``.  None when the seed's
    grammar is rejected."""
    import re

    from helpers import TAGS
    from xmlgram.pretty import pretty_grammar

    grammar = random_grammar(seed)
    compiled = compile_grammar(grammar)
    if compiled.errors or compiled.table is None or compiled.table.conflicts:
        return None
    text = pretty_grammar(grammar)
    body = text[text.index("\n") + 1 : text.rindex("end")]
    names = sorted({clause.name for clause in grammar.clauses}, key=len, reverse=True)
    tags = [[f"{tag}{'x' * (k % 2)}{k}" for tag in TAGS] for k in range(count)]
    copies = []
    for k in range(count):
        copy = body
        for name in names:
            copy = re.sub(rf"\b{re.escape(name)}\b", f"{name}_{k}", copy)
        for tag, renamed in zip(TAGS, tags[k]):
            copy = re.sub(rf"\b{tag}\b", renamed, copy)
        copies.append(copy)

    def rename(document, k):
        for tag, renamed in zip(TAGS, tags[k]):
            document = re.sub(rf"(</?){tag}\b", rf"\g<1>{renamed}", document)
        return document

    texts = [serialize_tree(doc) for doc in documents_for(grammar, compiled.start, seed)]
    return copies, compiled.start, texts, rename


def _renamed_copies(seed):
    """Three copies of ``random_grammar(seed)`` under one start rule, each
    with its rules and tags renamed, so that units of one shape hold other
    strings; and four documents, each of three of the seed's documents,
    renamed to match and wrapped in the start rule's element.  None when
    the seed's grammar is rejected."""
    made = _copies(seed, 3)
    if made is None:
        return None
    copies, start, texts, rename = made
    top = f"Top ::= <Top> a = {start}_0 b = {start}_1 c = {start}_2 </Top> {{T(a, b, c)}}.\n"
    built = compile_grammar(parse_grammar("@Grammar M\n" + top + "".join(copies) + "end\n"), "Top")
    if built.errors or built.table is None or built.table.conflicts:
        return None
    rng = random.Random(seed)
    documents = []
    for _ in range(4):
        parts = [rename(rng.choice(texts), k) for k in range(3)]
        documents.append("<Top>" + "".join(parts) + "</Top>")
    return built.table, documents


@pytest.mark.parametrize("block", range(3))
def test_units_that_share_a_compiled_shape_match_the_reference_machine(block):
    """The engine compiles one factory per unit shape and gives each unit of
    the shape its own constants.  Grammars of three renamed copies of
    ``random_grammar`` seeds 0–1499 make units of one shape with other
    strings: they must parse as the reference machine does."""
    runs = units = 0
    for seed in range(block * 500, block * 500 + 500):
        built = _renamed_copies(seed)
        if built is None:
            continue
        table, documents = built
        for document in documents:
            engine = _machine_outcome(Machine, table, "Top", document)
            assert engine == _machine_outcome(ReferenceMachine, table, "Top", document), (seed, document)
            runs += 1
        units += len(table.program.units)
    assert runs > 500 and units > 200


@pytest.mark.parametrize("form", ["repetition", "rule"])
def test_alternatives_of_one_form_share_a_branch_and_match_the_reference_machine(form):
    """Four renamed copies of ``random_grammar`` seeds 0–149, each inside an
    element of its own, as the alternatives of one repetition or of one
    rule: their branches have one form and differ in their strings, so the
    engine shares them.  Documents pick copies, as they are and with one
    random insert."""
    runs = shared = 0
    for seed in range(150):
        made = _copies(seed, 4)
        if made is None:
            continue
        copies, start, texts, rename = made
        alternatives = " | ".join(f"<W{k}> x = {start}_{k} </W{k}> {{C{k}(x)}}" for k in range(4))
        if form == "repetition":
            top = f"Top ::= <Top> xs = ({alternatives})* </Top> {{xs}}.\n"
        else:
            top = f"Top ::= <Top> x = Alt </Top> {{x}}.\nAlt ::= {alternatives}.\n"
        built = compile_grammar(parse_grammar("@Grammar M\n" + top + "".join(copies) + "end\n"), "Top")
        if built.errors or built.table is None or built.table.conflicts:
            continue
        rng = random.Random(seed)
        for _ in range(2):
            picked = rng.sample(range(4), 2 if form == "repetition" else 1)
            document = "<Top>" + "".join(f"<W{k}>{rename(rng.choice(texts), k)}</W{k}>" for k in picked) + "</Top>"
            at = rng.randrange(len(document) + 1)
            for variant in (document, document[:at] + rng.choice(["<", "</x>", "junk"]) + document[at:]):
                engine = _machine_outcome(Machine, built.table, "Top", variant)
                assert engine == _machine_outcome(ReferenceMachine, built.table, "Top", variant), (seed, variant)
                runs += 1
        defaults = (k for unit in built.table.program.units for k in unit.__defaults__ or ())
        shared += any(type(k) is dict for k in defaults)  # a constant read at the token
    assert runs > 250 and shared > 50


# Pairs of rules alike but for one fact that their code depends on and
# that is no string: a boolean, a comparison, ``.add``, and which strings are
# equal.  Each has two clauses and two call sites, so it is a unit.
PAIRED_RULES = {
    "bool": ("<A v/> {F(v, true)}", "<A v/> {F(v, false)}"),
    "compare": ('<A v when v = "x" > OK else OK </A> {v}', '<A v when v <> "x" > OK else OK </A> {v}'),
    "add": ("<A v/> {G(v).add(v)}", "<A v/> {H(G(v), v)}"),
    "equal-strings": ('<A v/> {F(v, "A")}', '<A v/> {F(v, "B")}'),
}


def _paired_table():
    rules, calls = [], []
    for i, (first, second) in enumerate(PAIRED_RULES.values()):
        for j, body in enumerate((first, second)):
            name = f"P{i}x{j}"
            rules.append(f"{name} ::= {body} | <Z{i}x{j}/> {{0}}.")
            calls += [f"a{i}x{j} = {name}", f"b{i}x{j} = {name}"]
    source = "@Grammar P Top ::= <Top> " + " ".join(calls) + " </Top> {0}. " + " ".join(rules) + " end"
    compiled = compile_grammar(parse_grammar(source), "Top")
    assert not compiled.errors and not compiled.table.conflicts
    return compiled.table


def test_each_unit_made_from_a_shared_factory_is_the_unit_generated_for_it(monkeypatch):
    """Every unit of renamed-copy grammars (``random_grammar`` seeds 0–1499)
    and of ``PAIRED_RULES``, generated again without the shape memo, has the
    text of the factory the memo gave it, and the constants the memo made
    from recipes: so a shape's key holds everything its code depends on."""
    import builtins
    import types

    from xmlgram import engine

    source = {}  # each compiled code object, nested ones too: the text it came from

    def recording(text, *args):
        code = builtins.compile(text, *args)
        codes = [code]
        while codes:
            inner = codes.pop()
            source[inner] = text
            codes.extend(k for k in inner.co_consts if isinstance(k, types.CodeType))
        return code

    monkeypatch.setattr(engine, "compile", recording, raising=False)

    def same(program, made, consts, recipes, text):
        assert source[made.__code__] == text
        assert len(made.__defaults__) == len(consts) == len(recipes)
        for value, fresh, recipe in zip(made.__defaults__, consts, recipes):
            if recipe[0] == "n":  # a nested unit, with its own factory and constants
                nested = program.units[fresh]
                same(program, program.units[value], nested.__defaults__, recipe[2], source[nested.__code__])
            else:
                assert value == fresh, recipe

    tables = (built[0] for built in map(_renamed_copies, range(1500)) if built is not None)
    units = compiles = 0
    for table in itertools.chain([_paired_table()], tables):
        before = len(source)
        Machine(table, "Top", iter(()))  # builds every unit the start rule needs
        program = table.program
        compiles += len({text for code, text in list(source.items())[before:]})
        units += len(program.units)
        for rule, index in list(program.index.items()):
            unit = engine._Unit(program, engine._Shape(program, rule))
            factory = unit.rule(rule)
            same(program, program.units[index], unit.consts, unit.recipes, source[factory.__code__])
    assert units - compiles > 500  # units that reuse a factory
