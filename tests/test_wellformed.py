"""Variable scoping analysis and the well-formedness check."""

import random

from helpers import MODELS_GRAMMAR, TEST_GRAMMAR, random_grammar, sample_document
from xmlgram.ast import (
    Actions,
    Bind,
    Call,
    Compare,
    Construct,
    ElementSpec,
    Fold,
    Grammar,
    Clause,
    Or,
    Star,
    StrLit,
    VarRef,
)
from xmlgram.frontend import parse_grammar
from xmlgram.oracle import Oracle, OracleLimitExceeded
from xmlgram.wellformed import check_grammar, lint_grammar, scope


def _free(seq):
    """Variables ``seq`` uses without binding them first, in source order."""
    uses = []
    scope(seq, frozenset(), uses)
    return [use.name for use in uses if isinstance(use, VarRef)]


def _bound(seq):
    return scope(seq, frozenset(), [])


def test_free_vars_of_call_args():
    call = Call("Z", (VarRef("x"),))
    uses = []
    assert scope((call,), frozenset(), uses) == frozenset()
    assert uses == [call, VarRef("x")]
    assert _free((call,)) == ["x"]
    uses = []
    assert scope((call,), frozenset({"x"}), uses) == {"x"}
    assert uses == [call]


def test_free_vars_sequential_binding():
    seq = (Bind(("x",), (Call("X", ()),)), Call("Z", (VarRef("x"),)))
    assert _free(seq) == []
    assert _free(seq[::-1]) == ["x"]


def test_free_vars_or_of_binders():
    node = Or(((Bind(("x",), (Call("X", ()),)),), (Bind(("y",), (Call("Y", ()),)),)))
    assert _free((node,)) == []
    # a name bound by only one branch is not in scope after the alternation
    assert _free((node, Actions((VarRef("x"), VarRef("y"))))) == ["x", "y"]


def test_bound_vars_of_bind():
    assert _bound((Bind(("x",), (Call("X", ()),)),)) == {"x"}
    assert scope((Bind(("x",), (Call("X", ()),)),), frozenset({"p"}), []) == {"p", "x"}


def test_bound_vars_or_is_intersection():
    node = Or(((Bind(("x",), (Call("X", ()),)),), (Bind(("y",), (Call("Y", ()),)),)))
    assert _bound((node,)) == set()
    both = Or(
        (
            (Bind(("x",), (Call("X", ()),)),),
            (Bind(("x",), (Call("Y", ()),)), Bind(("z",), (Call("Y", ()),))),
        )
    )
    assert _bound((both,)) == {"x"}
    assert scope((both,), frozenset({"p"}), []) == {"p", "x"}


def test_bound_vars_star_is_empty():
    star = Star((Bind(("x",), (Call("X", ()),)), Actions((VarRef("x"),))))
    assert _bound((star,)) == set()
    assert scope((star,), frozenset({"p"}), []) == {"p"}
    assert _free((star,)) == []


def test_bound_vars_element_attrs_and_branches():
    el = ElementSpec("T", (("n", "name"),), (), (Bind(("b",), (Call("X", ()),)),))
    assert _bound((el,)) == {"n", "b"}
    guarded = ElementSpec(
        "T",
        (),
        ((Compare("=", StrLit("a"), StrLit("a")), (Bind(("u",), (Call("X", ()),)),)),),
        (Bind(("v",), (Call("X", ()),)),),
    )
    # branches bind different names: nothing common survives
    assert _bound((guarded,)) == set()
    # attrs are in scope in guards and branches, later bindings are not
    uses_attr = ElementSpec(
        "T",
        (("n", "name"),),
        ((Compare("=", VarRef("n"), VarRef("u")), (Bind(("u",), (Call("X", ()),)),)),),
        (Actions((VarRef("n"), VarRef("m"))),),
    )
    assert _free((uses_attr,)) == ["u", "m"]


def test_scope_respects_fold_shadowing():
    fold = Fold("e", "a", VarRef("i"), Construct("Cons", (VarRef("e"), VarRef("a"))), VarRef("xs"))
    assert _free((Actions((fold,)),)) == ["i", "xs"]


def test_check_reports_in_walk_order():
    # Arity errors and unbound uses interleave in source order; a call's
    # arity error comes before the uses in its arguments.
    g = parse_grammar(
        "@Grammar G\n"
        "  R ::= <a> S(y) S(y, y) </a> { z }.\n"
        "  S(p) ::= <b/> T(p, p) {p}.\n"
        "  T(q) ::= OK.\n"
        "end"
    )
    assert [str(e) for e in check_grammar(g)] == [
        "rule R: variable y may be unbound at 2:15",
        "rule R: call to S with 2 argument(s), expected 1 at 2:18",
        "rule R: variable y may be unbound at 2:20",
        "rule R: variable y may be unbound at 2:23",
        "rule R: variable z may be unbound at 2:33",
        "rule S: call to T with 2 argument(s), expected 1 at 3:17",
    ]


def test_unbound_after_disjunction_is_reported():
    # (x = X() | y = Y()) Z(x): x is not guaranteed after the alternation.
    source = """@Grammar W0
      W ::= (x = X | y = Y) Z(x).
      X ::= <X/>. Y ::= <Y/>. Z(v) ::= <Z/>.
    end"""
    g = parse_grammar(source)
    errors = check_grammar(g)
    assert len(errors) == 1
    err = errors[0]
    assert err.variable == "x"
    assert err.rule == "W"
    assert "variable x may be unbound" in str(err)


def test_models_grammar_is_well_formed():
    g = parse_grammar(MODELS_GRAMMAR)
    assert check_grammar(g) == []
    # the dangling Arg call is only a warning
    warnings = lint_grammar(g)
    assert len(warnings) == 1
    assert "Arg" in warnings[0].message
    assert warnings[0].severity == "warning"


def test_lint_warns_about_names_the_reader_rejects():
    """Grammar identifiers may be non-ASCII; the XML reader's names may not,
    so an element or attribute with such a name never matches."""
    g = parse_grammar(
        "@Grammar G R ::= <a x=y> (<Gé/>)* <b when true > <c٣ v=n٣/> else OK </b> </a> {x}. end"
    )
    rejects = "is a name the XML reader rejects (never matches)"
    assert [(w.rule, w.message, w.severity) for w in lint_grammar(g)] == [
        ("R", f"tag 'Gé' {rejects}", "warning"),
        ("R", f"tag 'c٣' {rejects}", "warning"),
        ("R", f"attribute 'n٣' {rejects}", "warning"),
    ]


def test_test_grammar_is_well_formed():
    assert check_grammar(parse_grammar(TEST_GRAMMAR)) == []


def test_parameter_visible_in_guard():
    source = """@Grammar P0
      P(n) ::= <T when n = "a" > OK else ANY </T>.
    end"""
    assert check_grammar(parse_grammar(source)) == []


def test_attr_var_visible_after_element():
    source = "@Grammar G R ::= <B n=name/> {n}. end"
    assert check_grammar(parse_grammar(source)) == []


def test_binding_inside_element_visible_after_element():
    # the repetition binding escapes the element, like the worked example
    assert check_grammar(parse_grammar(TEST_GRAMMAR)) == []
    source = "@Grammar G R ::= <T> x = S </T> {x}. S ::= {1}. end"
    assert check_grammar(parse_grammar(source)) == []


def test_binding_inside_star_does_not_escape():
    source = "@Grammar G R ::= (x = S)* {x}. S ::= <S/>. end"
    errors = check_grammar(parse_grammar(source))
    assert [e.variable for e in errors] == ["x"]


def test_guard_may_not_use_later_bindings():
    source = """@Grammar G
      R ::= <T when z = "a" > OK else ANY </T> z = S. S ::= {1}.
    end"""
    errors = check_grammar(parse_grammar(source))
    assert [e.variable for e in errors] == ["z"]


def test_call_arity_mismatch_is_error():
    source = "@Grammar G R ::= S(1). S(a, b) ::= OK. end"
    errors = check_grammar(parse_grammar(source))
    assert len(errors) == 1
    assert "argument" in errors[0].message


def test_inconsistent_definition_arity_is_error():
    g = Grammar(
        "G",
        (
            Clause("S", ("a",), (Actions((VarRef("a"),)),)),
            Clause("S", (), (Actions((StrLit("x"),)),)),
        ),
    )
    errors = check_grammar(g)
    assert any("parameter count" in e.message for e in errors)


def test_fold_binds_its_own_variables():
    source = "@Grammar G R ::= xs = S { xs->iterate(e a = Nil | Cons(e, a)) }. S ::= {Seq{}}. end"
    assert check_grammar(parse_grammar(source)) == []


def test_accepted_grammars_never_hit_unbound_lookup():
    """Fuzz: on well-formed grammars the interpreter never raises an
    unbound-variable error, for accepting and rejecting documents alike."""
    from xmlgram.evaluate import UnboundVariable
    from helpers import random_tree

    checked = 0
    for seed in range(60):
        g = random_grammar(seed)
        if check_grammar(g):
            continue
        start = g.clauses[0].name
        oracle = Oracle(g, max_steps=3000)
        rng = random.Random(seed * 977)
        docs = [t for t in (sample_document(g, start, rng) for _ in range(3)) if t]
        docs += [random_tree(rng) for _ in range(3)]
        for doc in docs:
            if not isinstance(doc, type(docs[0])):
                continue
            try:
                oracle.accepts(start, doc)
                checked += 1
            except OracleLimitExceeded:
                pass
            except UnboundVariable as exc:  # pragma: no cover - the assertion
                raise AssertionError(f"seed {seed}: unbound {exc}") from exc
    assert checked > 50
