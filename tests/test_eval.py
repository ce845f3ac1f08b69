"""Expression evaluation: literals, constructors, folds, guards."""

import time

import pytest
from hypothesis import given, strategies as st

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
    EvalError,
    NonBooleanGuard,
    NotAList,
    UnboundVariable,
    compile_actions,
    compile_expr,
    eval_actions,
    eval_expr,
    eval_guard,
    list_elements,
    truth,
)
from xmlgram.values import (
    NULL,
    BoolVal,
    IntVal,
    ListVal,
    NullVal,
    TermVal,
    TupleVal,
)
from xmlgram.wellformed import free_expr


def test_var_lookup():
    assert eval_expr(VarRef("x"), {"x": IntVal(3)}) == IntVal(3)


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_expr(VarRef("nope"), {})


def test_literals():
    env = {}
    assert eval_expr(StrLit("s"), env) == "s"
    assert eval_expr(IntLit(-2), env) == IntVal(-2)
    assert eval_expr(BoolLit(True), env) == BoolVal(True)
    assert eval_expr(NullLit(), env) == NULL


def test_cons_construction():
    expr = Construct("Cons", (VarRef("x"), Construct("Nil", ())))
    result = eval_expr(expr, {"x": "a"})
    assert result == TermVal("Cons", ("a", TermVal("Nil", ())))


def test_cons_expr_is_cons_term():
    expr = ConsExpr(IntLit(1), Construct("Nil", ()))
    assert eval_expr(expr, {}) == TermVal("Cons", (IntVal(1), TermVal("Nil", ())))


def test_add_child_appends():
    term = TermVal("Class", ("c",))
    expr = Construct("addChild", (VarRef("c"), VarRef("e")))
    out = eval_expr(expr, {"c": term, "e": "kid"})
    assert out == TermVal("Class", ("c", "kid"))
    # the original term is untouched
    assert term == TermVal("Class", ("c",))


def test_add_child_requires_term():
    with pytest.raises(Exception):
        eval_expr(Construct("addChild", (IntLit(1), IntLit(2))), {})


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
    assert eval_expr(fold, env) == expected


def test_fold_over_cons_chain():
    chain = TermVal("Cons", (IntVal(1), TermVal("Cons", (IntVal(2), TermVal("Nil", ())))))
    fold = Fold("e", "a", ListLit(()), Construct("addChild", (VarRef("a"), VarRef("e"))), VarRef("l"))
    # init is a ListVal, not a term: addChild rejects it
    with pytest.raises(Exception):
        eval_expr(fold, {"l": chain})
    fold2 = Fold("e", "a", Construct("Box", ()), Construct("addChild", (VarRef("a"), VarRef("e"))), VarRef("l"))
    assert eval_expr(fold2, {"l": chain}) == TermVal("Box", (IntVal(1), IntVal(2)))


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


@given(fold_items, fold_children, fold_inits, st.booleans())
def test_append_fold_equals_stepwise_evaluation(items, child, init, as_chain):
    over = ListVal(tuple(items))
    if as_chain:
        over = TermVal("Nil", ())
        for item in reversed(items):
            over = TermVal("Cons", (item, over))
    env = {"l": over, "i": init, "y": IntVal(7)}
    step = Construct("addChild", (VarRef("a"), child))

    def stepwise():
        acc = init
        for item in items:
            acc = eval_expr(step, {**env, "e": item, "a": acc})
        return acc

    fold = Fold("e", "a", VarRef("i"), step, VarRef("l"))
    assert _outcome(lambda: eval_expr(fold, env)) == _outcome(stepwise)


def test_append_fold_is_linear():
    # Copying the argument tuple on every step took seconds here.
    n = 30_000
    fold = Fold("e", "p", Construct("P", ()), Construct("addChild", (VarRef("p"), VarRef("e"))), VarRef("l"))
    env = {"l": ListVal(tuple(IntVal(i) for i in range(n)))}
    t0 = time.perf_counter()
    value = eval_expr(fold, env)
    assert time.perf_counter() - t0 < 0.5
    assert value == TermVal("P", tuple(IntVal(i) for i in range(n)))


def test_fold_over_non_list():
    fold = Fold("e", "a", NullLit(), VarRef("a"), VarRef("l"))
    with pytest.raises(NotAList):
        eval_expr(fold, {"l": IntVal(7)})


def test_list_elements_shapes():
    assert list_elements(ListVal((IntVal(1),))) == [IntVal(1)]
    chain = TermVal("Cons", (IntVal(1), TermVal("Nil", ())))
    assert list_elements(chain) == [IntVal(1)]
    with pytest.raises(NotAList):
        list_elements(TermVal("Cons", (IntVal(1),)))


def test_fold_variables_shadow_and_restore():
    env = {"e": "outer", "l": ListVal((IntVal(5),))}
    fold = Fold("e", "a", NullLit(), VarRef("e"), VarRef("l"))
    assert eval_expr(fold, env) == IntVal(5)
    assert env["e"] == "outer"


def test_actions_pair_yields_tuple():
    assert eval_actions([IntLit(10), IntLit(20)], {}) == TupleVal((IntVal(10), IntVal(20)))


def test_actions_single_value_passthrough():
    assert eval_actions([VarRef("v")], {"v": NULL}) == NullVal()


def test_actions_empty_is_null():
    assert eval_actions([], {}) == NULL


def test_guard_equality():
    guard = Compare("=", VarRef("n"), StrLit("a"))
    assert eval_guard(guard, {"n": "a"}) is True
    assert eval_guard(Compare("<>", VarRef("n"), StrLit("a")), {"n": "a"}) is False
    assert eval_guard(BoolLit(True), {}) is True


def test_guard_non_boolean():
    with pytest.raises(NonBooleanGuard, match="^guard evaluated to non-boolean 1$"):
        eval_guard(IntLit(1), {})


def test_error_messages_show_a_long_value_cut_short():
    # repr would recurse down the list; the message renders it and cuts it.
    chain = TermVal("Nil", ())
    for _ in range(100_000):
        chain = TermVal("Cons", (NULL, chain))
    shown = ("Cons(null," * 8)[:79] + "…"
    with pytest.raises(NonBooleanGuard) as guard:
        eval_guard(VarRef("v"), {"v": chain})
    assert str(guard.value) == f"guard evaluated to non-boolean {shown}"
    with pytest.raises(NotAList) as fold:
        eval_expr(Fold("e", "a", NullLit(), VarRef("a"), Construct("W", (VarRef("v"),))), {"v": chain})
    assert str(fold.value) == "cannot iterate over " + ("W(" + "Cons(null," * 8)[:79] + "…"


def test_compare_is_structural():
    left = Construct("P", (IntLit(1), StrLit("s")))
    right = Construct("P", (IntLit(1), StrLit("s")))
    assert eval_guard(Compare("=", left, right), {}) is True


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
    assert eval_expr(expr, env) == eval_expr(expr, small)


@given(exprs, values, values)
def test_eval_is_deterministic(expr, vx, vy):
    env = {"x": vx, "y": vy}
    assert eval_expr(expr, env) == eval_expr(expr, env)


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
    assert _outcome(lambda: compiled(env)) == _outcome(lambda: eval_expr(expr, env))


@given(fold_items, fold_children, fold_inits, st.booleans())
def test_compiled_fold_agrees_with_eval(items, child, init, appends):
    env = {"l": ListVal(tuple(items)), "i": init, "y": IntVal(7)}
    step = Construct("addChild", (VarRef("a"), child)) if appends else child
    fold = Fold("e", "a", VarRef("i"), step, VarRef("l"))
    compiled = compile_expr(fold, {})
    assert _outcome(lambda: compiled(env)) == _outcome(lambda: eval_expr(fold, env))


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
        eval_expr(expr, env)
    assert type(compiled.value) is type(reference.value)
    assert str(compiled.value) == str(reference.value)


def test_compiled_guard_and_actions_match_eval():
    with pytest.raises(NonBooleanGuard) as compiled:
        truth(compile_expr(IntLit(1), {})({}))
    with pytest.raises(NonBooleanGuard) as reference:
        eval_guard(IntLit(1), {})
    assert str(compiled.value) == str(reference.value)
    guard, env = Compare("<>", VarRef("n"), StrLit("a")), {"n": "b"}
    assert truth(compile_expr(guard, {})(env)) is eval_guard(guard, env)
    for exprs in ([], [IntLit(10)], [IntLit(10), VarRef("v")]):
        env = {"v": NULL}
        assert compile_actions(exprs, {})(env) == eval_actions(exprs, env)


def test_equal_expressions_share_one_closure():
    memo = {}
    first = compile_expr(Construct("Cons", (VarRef("x"), VarRef("xs"))), memo)
    again = compile_expr(Construct("Cons", (VarRef("x"), VarRef("xs"))), memo)
    assert first is again
    assert compile_expr(VarRef("x"), memo) is compile_expr(VarRef("x"), memo)
    assert compile_expr(VarRef("x"), {}) is not compile_expr(VarRef("x"), memo)
