"""Evaluation of guard, argument, and action expressions.

Evaluation is pure: the same expression in the same environment always
yields the same value, and nothing is mutated.  ``addChild`` is the one
built-in constructor form — it returns a copy of a term with one more
argument appended, which is how fold steps grow container terms.

``compile_expr`` turns an expression once into a closure ``env -> Value``
for the machine; ``eval_expr`` is the reference evaluator the oracle uses.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from .ast import (
    BoolLit,
    Compare,
    ConsExpr,
    Construct,
    Expr,
    Fold,
    IntLit,
    ListLit,
    NullLit,
    StrLit,
    VarRef,
)
from . import ast
from .wellformed import free_expr
from .values import (
    NULL,
    BoolVal,
    Env,
    IntVal,
    ListVal,
    TermVal,
    TupleVal,
    Value,
    render_term,
)


class EvalError(Exception):
    pass


class UnboundVariable(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class NotAList(EvalError):
    pass


class NonBooleanGuard(EvalError):
    pass


ADD_CHILD = "addChild"


def eval_expr(expr: Expr, env: Env) -> Value:
    if isinstance(expr, VarRef):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariable(expr.name) from None
    if isinstance(expr, StrLit):
        return expr.value
    if isinstance(expr, IntLit):
        return IntVal(expr.value)
    if isinstance(expr, BoolLit):
        return BoolVal(expr.value)
    if isinstance(expr, NullLit):
        return NULL
    if isinstance(expr, Construct):
        args = tuple(eval_expr(a, env) for a in expr.args)
        return _add_child(args) if expr.ctor == ADD_CHILD else TermVal(expr.ctor, args)
    if isinstance(expr, ListLit):
        return ListVal(tuple(eval_expr(i, env) for i in expr.items))
    if isinstance(expr, ConsExpr):
        return TermVal(ast.CONS, (eval_expr(expr.head, env), eval_expr(expr.tail, env)))
    if isinstance(expr, Fold):
        appends, step = _fold_step(expr)
        elements, acc = list_elements(eval_expr(expr.over, env)), eval_expr(expr.init, env)
        return _fold(expr, elements, acc, env, appends, lambda e: eval_expr(step, e))
    if isinstance(expr, Compare):
        same = eval_expr(expr.left, env) == eval_expr(expr.right, env)
        return BoolVal(same if expr.op == "=" else not same)
    raise TypeError(f"not an expression: {expr!r}")


def list_elements(value: Value) -> List[Value]:
    """Elements of a ListVal or of a Cons/Nil term chain.

    Repetition results are Cons/Nil chains, so folds must walk both shapes.
    """
    if isinstance(value, ListVal):
        return list(value.items)
    items: List[Value] = []
    node = value
    while isinstance(node, TermVal) and node.ctor == ast.CONS and len(node.args) == 2:
        items.append(node.args[0])
        node = node.args[1]
    if isinstance(node, TermVal) and node.ctor == ast.NIL and not node.args:
        return items
    raise NotAList(f"cannot iterate over {_show(value)}")


# How much of a value an error message shows.
SHOWN = 80


def shorten(text: str) -> str:
    """``text`` cut to one short line for an error message."""
    return text if len(text) <= SHOWN else text[: SHOWN - 1] + "…"


def _show(value: Value) -> str:
    """A value for an error message, in the user's notation and cut to one
    short line (``repr`` would recurse down a long list)."""
    return shorten(render_term(value))


def _add_child(args) -> Value:
    if len(args) != 2 or not isinstance(args[0], TermVal):
        raise EvalError("addChild expects a term and a value")
    return TermVal(args[0].ctor, args[0].args + (args[1],))


def _fold(expr: Fold, elements: List[Value], acc: Value, env: Env, appends: bool, step) -> Value:
    """Fold ``elements`` into ``acc`` by calling ``step``, what ``_fold_step`` chose."""
    if appends:
        # Each step appends a child that does not depend on the accumulator:
        # collect the children and build the term once, not once per step.
        children = []
        for elem in elements:
            children.append(step({**env, expr.elem_var: elem}))
            if not isinstance(acc, TermVal):  # where the first step would fail
                raise EvalError("addChild expects a term and a value")
        return TermVal(acc.ctor, acc.args + tuple(children)) if children else acc
    for elem in elements:
        acc = step({**env, expr.elem_var: elem, expr.acc_var: acc})
    return acc


def _fold_step(expr: Fold) -> Tuple[bool, Expr]:
    """``(True, x)`` for a step ``acc.add(x)``, ``x`` free of ``acc``; else ``(False, step)``."""
    step = expr.step
    if (
        isinstance(step, Construct)
        and step.ctor == ADD_CHILD
        and len(step.args) == 2
        and step.args[0] == VarRef(expr.acc_var)
        and expr.acc_var not in free_expr(step.args[1])
    ):
        return True, step.args[1]
    return False, step


def eval_actions(exprs, env: Env) -> Value:
    """One expression yields its value; several yield a tuple; none yields null."""
    values = [eval_expr(e, env) for e in exprs]
    if not values:
        return NULL
    if len(values) == 1:
        return values[0]
    return TupleVal(tuple(values))


def eval_guard(expr: Expr, env: Env) -> bool:
    return truth(eval_expr(expr, env))


def truth(value: Value) -> bool:
    if not isinstance(value, BoolVal):
        raise NonBooleanGuard(f"guard evaluated to non-boolean {_show(value)}")
    return value.value


def compile_expr(expr: Expr, memo: dict) -> Callable[[Env], Value]:
    """``expr`` as a closure that agrees with ``eval_expr``.  Equal expressions share
    one closure in ``memo``, keyed by the node (a variable by its name: cheaper)."""
    key = expr.name if type(expr) is VarRef else expr
    compiled = memo.get(key)
    if compiled is None:
        compiled = memo[key] = _compile(expr, memo)
    return compiled


def _compile(expr: Expr, memo: dict) -> Callable[[Env], Value]:
    kind = type(expr)
    if kind is VarRef:  # on a miss, ``eval_expr`` raises ``UnboundVariable``
        name = expr.name
        return lambda env: env[name] if name in env else eval_expr(expr, env)
    if kind is ConsExpr:  # the same term as ``Cons(head, tail)``
        return compile_expr(Construct(ast.CONS, (expr.head, expr.tail)), memo)
    if kind is Construct:
        ctor, args = expr.ctor, tuple([compile_expr(e, memo) for e in expr.args])
        if ctor == ADD_CHILD:
            return lambda env: _add_child([f(env) for f in args])
        if len(args) == 2:  # ``Cons`` and most terms: no list to build
            first, second = args
            return lambda env: TermVal(ctor, (first(env), second(env)))
        return lambda env: TermVal(ctor, tuple([f(env) for f in args]))
    if kind is ListLit:
        items = tuple([compile_expr(e, memo) for e in expr.items])
        return lambda env: ListVal(tuple([f(env) for f in items]))
    if kind is Compare:
        left, right = compile_expr(expr.left, memo), compile_expr(expr.right, memo)
        equal = expr.op == "="
        return lambda env: BoolVal((left(env) == right(env)) == equal)
    if kind is Fold:
        over, init = compile_expr(expr.over, memo), compile_expr(expr.init, memo)
        appends, step = _fold_step(expr)
        step = compile_expr(step, memo)
        return lambda env: _fold(expr, list_elements(over(env)), init(env), env, appends, step)
    value = eval_expr(expr, {})  # a literal; ``eval_expr`` rejects what is not an expression
    return lambda env: value


def compile_actions(exprs, memo: dict) -> Callable[[Env], Value]:
    """The closure form of ``eval_actions``."""
    if len(exprs) == 1:
        return compile_expr(exprs[0], memo)
    parts = tuple([compile_expr(e, memo) for e in exprs])
    return lambda env: TupleVal(tuple([f(env) for f in parts])) if parts else NULL
