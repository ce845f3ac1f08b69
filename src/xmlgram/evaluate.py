"""Evaluation of guard, argument, and action expressions.

Evaluation is pure: the same expression in the same environment always
yields the same value, and nothing is mutated.  ``addChild`` is the one
built-in constructor form — it returns a copy of a term with one more
argument appended, which is how fold steps grow container terms.
"""

from __future__ import annotations

from typing import List

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
    NullVal,
    StrVal,
    TermVal,
    TupleVal,
    Value,
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
        return StrVal(expr.value)
    if isinstance(expr, IntLit):
        return IntVal(expr.value)
    if isinstance(expr, BoolLit):
        return BoolVal(expr.value)
    if isinstance(expr, NullLit):
        return NULL
    if isinstance(expr, Construct):
        args = tuple(eval_expr(a, env) for a in expr.args)
        if expr.ctor == ADD_CHILD:
            if len(args) != 2 or not isinstance(args[0], TermVal):
                raise EvalError("addChild expects a term and a value")
            term = args[0]
            return TermVal(term.ctor, term.args + (args[1],))
        return TermVal(expr.ctor, args)
    if isinstance(expr, ListLit):
        return ListVal(tuple(eval_expr(i, env) for i in expr.items))
    if isinstance(expr, ConsExpr):
        return TermVal(ast.CONS, (eval_expr(expr.head, env), eval_expr(expr.tail, env)))
    if isinstance(expr, Fold):
        return _eval_fold(expr, env)
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
    raise NotAList(f"cannot iterate over {value!r}")


def _eval_fold(expr: Fold, env: Env) -> Value:
    elements = list_elements(eval_expr(expr.over, env))
    acc = eval_expr(expr.init, env)
    child = _appended_child(expr)
    if child is not None:
        # Each step appends a child that does not depend on the accumulator:
        # collect the children and build the term once, not once per step.
        children = []
        for elem in elements:
            children.append(eval_expr(child, {**env, expr.elem_var: elem}))
            if not isinstance(acc, TermVal):  # where the first step would fail
                raise EvalError("addChild expects a term and a value")
        return TermVal(acc.ctor, acc.args + tuple(children)) if children else acc
    for elem in elements:
        step_env = dict(env)
        step_env[expr.elem_var] = elem
        step_env[expr.acc_var] = acc
        acc = eval_expr(expr.step, step_env)
    return acc


def _appended_child(expr: Fold):
    """``x`` when the fold's step is ``acc.add(x)`` and ``x`` does not read ``acc``."""
    step = expr.step
    if (
        isinstance(step, Construct)
        and step.ctor == ADD_CHILD
        and len(step.args) == 2
        and step.args[0] == VarRef(expr.acc_var)
        and expr.acc_var not in free_expr(step.args[1])
    ):
        return step.args[1]
    return None


def eval_actions(exprs, env: Env) -> Value:
    """One expression yields its value; several yield a tuple; none yields null."""
    values = [eval_expr(e, env) for e in exprs]
    if not values:
        return NULL
    if len(values) == 1:
        return values[0]
    return TupleVal(tuple(values))


def eval_guard(expr: Expr, env: Env) -> bool:
    value = eval_expr(expr, env)
    if not isinstance(value, BoolVal):
        raise NonBooleanGuard(f"guard evaluated to non-boolean {value!r}")
    return value.value
