"""Expression evaluation: literals, constructors, folds, guards.

``compile_expr`` is the one evaluator in the package; the tests that pin
its meaning call it.  ``reference_eval`` in ``helpers`` walks the
expression tree instead, and the differential tests hold the two alike."""

import sys
import time

import pytest
from hypothesis import given, strategies as st

from helpers import cons_chain, reference_eval, reference_eval_actions, reference_eval_guard
from xmlgram.ast import (
    BoolLit,
    Compare,
    ConsExpr,
    Construct,
    Fold,
    IntLit,
    ListLit,
    NullLit,
    StrLit,
    VarRef,
)
from xmlgram.evaluate import (
    ADD_CHILD,
    EvalError,
    NonBooleanGuard,
    NotAList,
    UnboundVariable,
    compile_actions,
    compile_expr,
    eval_expr,
    list_elements,
    truth,
)
from xmlgram.values import (
    NULL,
    BoolVal,
    ConsList,
    IntVal,
    ListVal,
    NullVal,
    TermVal,
    TupleVal,
)
from xmlgram.wellformed import free_expr
from xmlgram import evaluate as evaluate_module


def value_of(expr, env):
    return compile_expr(expr, {})(env)


def guard_of(expr, env):
    return truth(value_of(expr, env))


def test_var_lookup():
    assert value_of(VarRef("x"), {"x": IntVal(3)}) == IntVal(3)


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        value_of(VarRef("nope"), {})


def test_literals():
    env = {}
    assert value_of(StrLit("s"), env) == "s"
    assert value_of(IntLit(-2), env) == IntVal(-2)
    assert value_of(BoolLit(True), env) == BoolVal(True)
    assert value_of(NullLit(), env) == NULL


def test_cons_construction():
    expr = Construct("Cons", (VarRef("x"), Construct("Nil", ())))
    result = value_of(expr, {"x": "a"})
    assert result == TermVal("Cons", ("a", TermVal("Nil", ())))


def test_cons_expr_is_cons_term():
    expr = ConsExpr(IntLit(1), Construct("Nil", ()))
    assert value_of(expr, {}) == TermVal("Cons", (IntVal(1), TermVal("Nil", ())))


def test_add_child_appends():
    term = TermVal("Class", ("c",))
    expr = Construct("addChild", (VarRef("c"), VarRef("e")))
    out = value_of(expr, {"c": term, "e": "kid"})
    assert out == TermVal("Class", ("c", "kid"))
    # the original term is untouched
    assert term == TermVal("Class", ("c",))


def test_a_compact_list_adds_and_iterates_as_its_chain():
    items = (IntVal(1), "a", TermVal("T", ()))
    add = Construct("addChild", (VarRef("l"), VarRef("x")))
    appended = Fold("e", "a", Construct("Box", ()), Construct("addChild", (VarRef("a"), VarRef("e"))), VarRef("l"))
    # A step that reads the accumulator: the list reversed onto ``x``.
    reversed_onto = Fold("e", "a", VarRef("x"), ConsExpr(VarRef("e"), VarRef("a")), VarRef("l"))
    for n in range(len(items) + 1):
        for x in (cons_chain(items[n:]), ConsList(items[n:])):
            results = []
            for over in (cons_chain(items[:n]), ConsList(items[:n])):
                env = {"l": over, "x": x}
                for expr in (add, appended, reversed_onto):
                    out = reference_eval(expr, env)
                    assert compile_expr(expr, {})(env) == out
                    results.append(out)
            compact, chain = results[3:], results[:3]
            assert compact == chain and chain == compact
            assert [hash(v) for v in compact] == [hash(v) for v in chain]
            assert results[0].args[-1] == x
            assert results[2] == cons_chain(items[:n][::-1] + items[n:])


def test_add_child_requires_term():
    with pytest.raises(Exception):
        value_of(Construct("addChild", (IntLit(1), IntLit(2))), {})


def _loop_fold(items, init, step):
    """Independent reference for fold evaluation."""
    acc = init
    for item in items:
        acc = step(acc, item)
    return acc


def test_fold_matches_loop_reference():
    elems = ["e1", "e2"]
    env = {"name": "pkg", "elements": ListVal(tuple(elems))}
    fold = Fold(
        "e",
        "c",
        Construct("Package", (VarRef("name"),)),
        Construct("addChild", (VarRef("c"), VarRef("e"))),
        VarRef("elements"),
    )
    expected = _loop_fold(
        elems,
        TermVal("Package", ("pkg",)),
        lambda acc, e: TermVal(acc.ctor, acc.args + (e,)),
    )
    assert expected == TermVal("Package", ("pkg", "e1", "e2"))
    assert value_of(fold, env) == expected


def test_fold_over_cons_chain():
    chain = TermVal("Cons", (IntVal(1), TermVal("Cons", (IntVal(2), TermVal("Nil", ())))))
    fold = Fold("e", "a", ListLit(()), Construct("addChild", (VarRef("a"), VarRef("e"))), VarRef("l"))
    # init is a ListVal, not a term: addChild rejects it
    with pytest.raises(Exception):
        value_of(fold, {"l": chain})
    fold2 = Fold("e", "a", Construct("Box", ()), Construct("addChild", (VarRef("a"), VarRef("e"))), VarRef("l"))
    assert value_of(fold2, {"l": chain}) == TermVal("Box", (IntVal(1), IntVal(2)))


def _outcome(evaluate):
    try:
        return evaluate()
    except EvalError as exc:
        return type(exc), str(exc)


fold_items = st.lists(
    st.sampled_from([IntVal(1), "a", NULL, TermVal("T", (IntVal(2),)), ListVal(())]),
    max_size=8,
)
# Appended children that do and do not read the accumulator ``a``, or fail.
fold_children = st.sampled_from(
    [
        VarRef("e"),
        Construct("W", (VarRef("e"), VarRef("y"))),
        ListLit((VarRef("e"), VarRef("e"))),
        VarRef("a"),
        Construct("W", (VarRef("a"),)),
        VarRef("unbound"),
        Fold("z", "w", IntLit(0), VarRef("w"), VarRef("e")),  # fails unless e is a list
    ]
)
fold_inits = st.sampled_from([TermVal("P", ()), TermVal("P", ("x",)), IntVal(3)])


@given(fold_items, fold_children, fold_inits, st.sampled_from(["list", "chain", "compact"]))
def test_append_fold_equals_stepwise_evaluation(items, child, init, shape):
    over = ListVal(tuple(items))
    if shape == "chain":
        over = cons_chain(items)
    elif shape == "compact":
        over = ConsList(tuple(items))
    env = {"l": over, "i": init, "y": IntVal(7)}
    step = Construct("addChild", (VarRef("a"), child))

    def stepwise():
        acc = init
        for item in items:
            acc = reference_eval(step, {**env, "e": item, "a": acc})
        return acc

    fold = Fold("e", "a", VarRef("i"), step, VarRef("l"))
    assert _outcome(lambda: value_of(fold, env)) == _outcome(stepwise)


def test_append_fold_is_linear():
    # Copying the argument tuple on every step took seconds here.
    n = 30_000
    fold = Fold("e", "p", Construct("P", ()), Construct("addChild", (VarRef("p"), VarRef("e"))), VarRef("l"))
    env = {"l": ListVal(tuple(IntVal(i) for i in range(n)))}
    # The closure takes ``_adopt``; the reference takes ``_fold``'s step per element.
    for evaluate in (value_of, reference_eval):
        t0 = time.perf_counter()
        value = evaluate(fold, env)
        assert time.perf_counter() - t0 < 0.5
        assert value == TermVal("P", tuple(IntVal(i) for i in range(n)))


ADOPT = Fold("e", "a", VarRef("i"), Construct("addChild", (VarRef("a"), VarRef("e"))), VarRef("l"))


@pytest.mark.parametrize("path", ["engine", "oracle", "reference"])
@pytest.mark.parametrize("shape", [ListVal, cons_chain, ConsList])
def test_a_fold_that_adds_each_element_appends_the_elements(path, shape, monkeypatch):
    # The closure, which the machine and the oracle both run, takes the
    # elements as the children at once; the reference steps per element.
    if path == "reference":
        evaluate = lambda env: reference_eval(ADOPT, env)
    else:
        evaluate = compile_expr(ADOPT, {}) if path == "engine" else lambda env: eval_expr(ADOPT, env, {})
        monkeypatch.setattr(evaluate_module, "_fold", None)  # no step per element
    items = ("a", IntVal(1), TermVal("T", ("b",)), ConsList(("c",)))
    init = TermVal("P", ("x",))
    assert evaluate({"l": shape(items), "i": init}) == TermVal("P", ("x",) + items)
    # An empty list leaves the accumulator as it is, a term or not.
    for acc in (init, IntVal(3), ListVal(())):
        assert evaluate({"l": shape(()), "i": acc}) is acc
    with pytest.raises(EvalError, match="addChild expects a term and a value"):
        evaluate({"l": shape(items), "i": IntVal(3)})
    with pytest.raises(NotAList):
        evaluate({"l": IntVal(3), "i": init})


def test_fold_over_non_list():
    fold = Fold("e", "a", NullLit(), VarRef("a"), VarRef("l"))
    with pytest.raises(NotAList):
        value_of(fold, {"l": IntVal(7)})


def test_list_elements_shapes():
    assert list_elements(ListVal((IntVal(1),))) == [IntVal(1)]
    chain = TermVal("Cons", (IntVal(1), TermVal("Nil", ())))
    assert list_elements(chain) == [IntVal(1)]
    assert list(list_elements(ConsList((IntVal(1), IntVal(2))))) == [IntVal(1), IntVal(2)]
    assert list(list_elements(ConsList((IntVal(1), IntVal(2)), 1))) == [IntVal(2)]
    assert list(list_elements(TermVal("Cons", (IntVal(0), ConsList((IntVal(1),)))))) == [IntVal(0), IntVal(1)]
    with pytest.raises(NotAList):
        list_elements(TermVal("Cons", (IntVal(1),)))


def test_fold_variables_shadow_and_restore():
    env = {"e": "outer", "l": ListVal((IntVal(5),))}
    fold = Fold("e", "a", NullLit(), VarRef("e"), VarRef("l"))
    assert value_of(fold, env) == IntVal(5)
    assert env["e"] == "outer"


def test_actions_pair_yields_tuple():
    assert compile_actions([IntLit(10), IntLit(20)], {})({}) == TupleVal((IntVal(10), IntVal(20)))


def test_actions_single_value_passthrough():
    assert compile_actions([VarRef("v")], {})({"v": NULL}) == NullVal()


def test_actions_empty_is_null():
    assert compile_actions([], {})({}) == NULL


def test_guard_equality():
    guard = Compare("=", VarRef("n"), StrLit("a"))
    assert guard_of(guard, {"n": "a"}) is True
    assert guard_of(Compare("<>", VarRef("n"), StrLit("a")), {"n": "a"}) is False
    assert guard_of(BoolLit(True), {}) is True


def test_guard_non_boolean():
    with pytest.raises(NonBooleanGuard, match="^guard evaluated to non-boolean 1$"):
        guard_of(IntLit(1), {})


def test_error_messages_show_a_long_value_cut_short():
    # repr would recurse down the list; the message renders it and cuts it.
    chain = TermVal("Nil", ())
    for _ in range(100_000):
        chain = TermVal("Cons", (NULL, chain))
    shown = ("Cons(null," * 8)[:79] + "…"
    with pytest.raises(NonBooleanGuard) as guard:
        guard_of(VarRef("v"), {"v": chain})
    assert str(guard.value) == f"guard evaluated to non-boolean {shown}"
    with pytest.raises(NotAList) as fold:
        value_of(Fold("e", "a", NullLit(), VarRef("a"), Construct("W", (VarRef("v"),))), {"v": chain})
    assert str(fold.value) == "cannot iterate over " + ("W(" + "Cons(null," * 8)[:79] + "…"


@pytest.mark.parametrize("shape", ["chain", "compact"])
def test_error_messages_render_at_most_one_chunk(monkeypatch, shape):
    # A guard on a 200,000-item repetition: the message is the whole text cut
    # short, but rendering stops soon after its first SHOWN characters.
    from xmlgram import evaluate
    from xmlgram.values import _CHUNK, render_term, write_value

    items = ("x",) * 200_000
    value = cons_chain(items) if shape == "chain" else ConsList(items)
    shown = render_term(value)[: evaluate.SHOWN - 1] + "…"
    sizes = []

    def spy(value, fmt, write):
        def counted(chunk):
            sizes.append(len(chunk))
            write(chunk)

        write_value(value, fmt, counted)

    monkeypatch.setattr(evaluate, "write_value", spy)
    with pytest.raises(NonBooleanGuard) as guard:
        guard_of(VarRef("v"), {"v": value})
    assert str(guard.value) == f"guard evaluated to non-boolean {shown}"
    with pytest.raises(NotAList) as fold:
        value_of(Fold("e", "a", NullLit(), VarRef("a"), Construct("W", (VarRef("v"),))), {"v": value})
    assert str(fold.value) == "cannot iterate over " + ("W(" + shown)[: evaluate.SHOWN - 1] + "…"
    # Two renders, each at most SHOWN characters and the chunk that passed them.
    assert 0 < sum(sizes) <= 2 * (evaluate.SHOWN + (_CHUNK + 1) * len(",Cons("))


def test_compare_is_structural():
    left = Construct("P", (IntLit(1), StrLit("s")))
    right = Construct("P", (IntLit(1), StrLit("s")))
    assert guard_of(Compare("=", left, right), {}) is True


@pytest.mark.parametrize("op", ["=", "<>"])
@pytest.mark.parametrize("evaluate", [eval_expr, lambda e, env, memo: compile_expr(e, memo)(env)])
def test_comparing_values_nested_too_deeply_is_an_eval_error(evaluate, op):
    # The oracle's entry point and the machine's closure.
    # Equality recurses along all but a term's last argument: nest the first.
    left, right = NULL, NULL
    for _ in range(sys.getrecursionlimit() * 2):
        left, right = TermVal("Node", (left, IntVal(1))), TermVal("Node", (right, IntVal(1)))
    with pytest.raises(EvalError, match="^values nested too deeply to compare$"):
        evaluate(Compare(op, VarRef("x"), VarRef("y")), {"x": left, "y": right}, {})


exprs = st.sampled_from(
    [
        Construct("K", (VarRef("x"), VarRef("y"))),
        ConsExpr(VarRef("x"), ListLit((VarRef("y"), IntLit(1)))),
        Compare("=", VarRef("x"), StrLit("a")),
        Fold("e", "a", VarRef("y"), VarRef("a"), ListLit((VarRef("x"),))),
    ]
)
values = st.sampled_from([IntVal(1), "a", ListVal(()), NULL])


@given(exprs, values, values, values)
def test_eval_depends_only_on_free_vars(expr, vx, vy, extra):
    env = {"x": vx, "y": vy, "unrelated": extra}
    small = {name: value for name, value in env.items() if name in free_expr(expr)}
    assert value_of(expr, env) == value_of(expr, small)


@given(exprs, values, values)
def test_eval_is_deterministic(expr, vx, vy):
    env = {"x": vx, "y": vy}
    assert value_of(expr, env) == value_of(expr, env)


# -- the compiled form agrees with the reference evaluator -------------------


leaf_exprs = exprs | fold_children
# One level of nesting, so errors raised inside arguments reach the outer node.
ctors = st.sampled_from(["K", "addChild"])
nested_exprs = (
    leaf_exprs
    | st.builds(lambda ctor, a, b: Construct(ctor, (a, b)), ctors, leaf_exprs, leaf_exprs)
    | st.builds(lambda a, b: Compare("<>", a, b), leaf_exprs, leaf_exprs)
)


@given(nested_exprs, values, values, st.booleans())
def test_compiled_expr_agrees_with_eval(expr, vx, vy, y_bound):
    env = {"x": vx, "y": vy} if y_bound else {"x": vx, "e": vy}
    compiled = compile_expr(expr, {})
    assert _outcome(lambda: compiled(env)) == _outcome(lambda: reference_eval(expr, env))


@given(fold_items, fold_children, fold_inits, st.booleans())
def test_compiled_fold_agrees_with_eval(items, child, init, appends):
    env = {"l": ListVal(tuple(items)), "i": init, "y": IntVal(7)}
    step = Construct("addChild", (VarRef("a"), child)) if appends else child
    fold = Fold("e", "a", VarRef("i"), step, VarRef("l"))
    compiled = compile_expr(fold, {})
    assert _outcome(lambda: compiled(env)) == _outcome(lambda: reference_eval(fold, env))


@pytest.mark.parametrize(
    "expr, env, error",
    [
        (VarRef("nope"), {}, UnboundVariable),
        (Construct("addChild", (IntLit(1), IntLit(2))), {}, EvalError),
        (Construct("addChild", (VarRef("t"),)), {"t": TermVal("T", ())}, EvalError),
        (Fold("e", "a", NullLit(), VarRef("a"), VarRef("l")), {"l": IntVal(7)}, NotAList),
    ],
)
def test_compiled_errors_match_eval(expr, env, error):
    with pytest.raises(error) as compiled:
        compile_expr(expr, {})(env)
    with pytest.raises(error) as reference:
        reference_eval(expr, env)
    assert type(compiled.value) is type(reference.value)
    assert str(compiled.value) == str(reference.value)


def test_compiled_guard_and_actions_match_eval():
    with pytest.raises(NonBooleanGuard) as compiled:
        truth(compile_expr(IntLit(1), {})({}))
    with pytest.raises(NonBooleanGuard) as reference:
        reference_eval_guard(IntLit(1), {})
    assert str(compiled.value) == str(reference.value)
    guard, env = Compare("<>", VarRef("n"), StrLit("a")), {"n": "b"}
    assert truth(compile_expr(guard, {})(env)) is reference_eval_guard(guard, env)
    for exprs in ([], [IntLit(10)], [IntLit(10), VarRef("v")]):
        env = {"v": NULL}
        assert compile_actions(exprs, {})(env) == reference_eval_actions(exprs, env)


# -- a differential over the whole expression language ----------------------

NAMES = ("x", "y", "l", "e", "a", "unbound")  # no environment binds "unbound"
leaves = st.one_of(
    st.sampled_from(NAMES).map(VarRef),
    st.sampled_from(("", "s")).map(StrLit),
    st.integers(-1, 2).map(IntLit),
    st.booleans().map(BoolLit),
    st.just(NullLit()),
)


def _compound(inner, min_args=0):
    """Every compound kind over ``inner``: terms and ``addChild``, ``Seq{…}``,
    ``:``, comparisons, and folds with a general step and with ``acc.add(x)``."""
    args = st.lists(inner, min_size=min_args, max_size=3).map(tuple)
    elem, acc = st.sampled_from(("e", "x")), st.sampled_from(("a", "e"))
    # Folds mostly start from a term and run over a list, so that they get far.
    init = args.map(lambda a: Construct("K", a)) | inner
    over = st.just(VarRef("l")) | args.map(ListLit) | inner
    child = st.none() | inner  # None: the element itself
    add = lambda e, a, init, x, over: Fold(e, a, init, Construct(ADD_CHILD, (VarRef(a), x or VarRef(e))), over)
    return st.one_of(
        st.builds(Construct, st.sampled_from(("K", "Cons", "Nil", ADD_CHILD)), args),
        args.map(ListLit),
        st.builds(ConsExpr, inner, inner),
        st.builds(Compare, st.sampled_from(("=", "<>")), inner, inner),
        st.builds(Fold, elem, acc, init, inner, over),
        st.builds(add, elem, acc, init, child, over),
    )


# A compound node over expressions that nest on: two deep and more.
expressions = _compound(st.recursive(leaves, _compound, max_leaves=5), min_args=1)
lists = [ListVal((IntVal(1), TermVal("T", ()))), cons_chain(("s", IntVal(2))), ConsList((NULL, "s")), ConsList(())]
others = [IntVal(2), "s", BoolVal(True), NULL, TermVal("T", ()), TermVal("K", (IntVal(1), "s"))]
# Some names unbound, and a fold source ``l`` that is a list of each shape or
# not a list at all.
environments = st.fixed_dictionaries(
    {
        "x": st.sampled_from(others + lists),
        "y": st.sampled_from(others + lists),
        "l": st.sampled_from(lists * 3 + others),
    },
    optional={"e": st.sampled_from(others), "a": st.sampled_from(others)},
)


@given(st.lists(expressions, min_size=1, max_size=3), environments)
def test_compiled_expressions_agree_with_the_reference(group, env):
    memo = {}  # one for the group, as the machine and the oracle keep one
    for expr in group:
        compiled = compile_expr(expr, memo)
        assert _outcome(lambda: compiled(env)) == _outcome(lambda: reference_eval(expr, env))
        assert _outcome(lambda: truth(compiled(env))) == _outcome(lambda: reference_eval_guard(expr, env))
    actions = compile_actions(group, memo)
    assert _outcome(lambda: actions(env)) == _outcome(lambda: reference_eval_actions(group, env))


def test_compiling_what_is_not_an_expression_is_a_type_error():
    for evaluate in (value_of, reference_eval):
        with pytest.raises(TypeError, match="^not an expression: 'x'$"):
            evaluate("x", {})


def test_equal_expressions_share_one_closure():
    memo = {}
    first = compile_expr(Construct("Cons", (VarRef("x"), VarRef("xs"))), memo)
    again = compile_expr(Construct("Cons", (VarRef("x"), VarRef("xs"))), memo)
    assert first is again
    assert compile_expr(VarRef("x"), memo) is compile_expr(VarRef("x"), memo)
    assert compile_expr(VarRef("x"), {}) is not compile_expr(VarRef("x"), memo)
