"""Evaluation of guard, argument, and action expressions.

Evaluation is pure: the same expression in the same environment always
yields the same value, and nothing is mutated.  ``addChild`` is the one
built-in constructor form — it returns a copy of a term with one more
argument appended, which is how fold steps grow container terms.

``compile_expr``, the one evaluator, turns an expression once into a closure
``env -> Value``; the oracle's ``eval_*`` entry points run it through a memo.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

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
    ConsList,
    Env,
    IntVal,
    ListVal,
    TermVal,
    TupleVal,
    Value,
    write_value,
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


def list_elements(value: Value) -> Sequence[Value]:
    """Elements of a ListVal or of a Cons/Nil term chain.

    Repetition results are Cons/Nil chains, so folds must walk both shapes;
    the machine's, a ``ConsList``, gives its tuple without a walk.
    """
    if type(value) is ConsList:
        return value.items[value.start :]
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


class _Shown(Exception):
    """Raised by ``_show``'s writer once it holds enough text."""


def _show(value: Value) -> str:
    """A value for an error message, in the user's notation and cut to one
    short line (``repr`` would recurse down a long list).  Rendering stops
    once more than ``SHOWN`` characters have arrived: the value may be long."""
    chunks: List[str] = []

    def write(chunk: str) -> None:
        chunks.append(chunk)
        if sum(map(len, chunks)) > SHOWN:  # at most SHOWN + 1 writes: none is empty
            raise _Shown

    try:
        write_value(value, "term", write)
    except _Shown:
        pass
    return shorten("".join(chunks))


def _equal(left: Value, right: Value) -> bool:
    """``left == right``, where a value nested past the recursion limit is
    an ``EvalError`` (equality recurses along all but a term's last argument)."""
    try:
        return left == right
    except RecursionError:
        raise EvalError("values nested too deeply to compare") from None


def _add_child(args) -> Value:
    if len(args) != 2 or not isinstance(args[0], TermVal):
        raise EvalError("addChild expects a term and a value")
    return TermVal(args[0].ctor, args[0].args + (args[1],))


def _fold(expr: Fold, elements: Sequence[Value], acc: Value, env: Env, appends: bool, step) -> Value:
    """Fold ``elements`` into ``acc`` by calling ``step``, what ``_fold_step`` chose,
    in one environment per element.  The closure for ``acc.add(e)``, ``e`` the
    element itself, takes ``_adopt`` instead, which needs none."""
    if appends:
        # Each step appends a child that does not depend on the accumulator:
        # collect the children and build the term once, not once per step.
        children = []
        for elem in elements:
            children.append(step({**env, expr.elem_var: elem}))
            if not isinstance(acc, TermVal):  # where the first step would fail
                raise EvalError("addChild expects a term and a value")
        return _adopt(children, acc)
    for elem in elements:
        acc = step({**env, expr.elem_var: elem, expr.acc_var: acc})
    return acc


def _adopt(children: Sequence[Value], acc: Value) -> Value:
    """``acc`` with ``children`` appended as arguments: the fold ``acc.add(e)``
    over ``children``, so an empty fold leaves ``acc`` as it is."""
    if not children:
        return acc
    if not isinstance(acc, TermVal):
        raise EvalError("addChild expects a term and a value")
    return TermVal(acc.ctor, acc.args + tuple(children))


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


def truth(value: Value) -> bool:
    if not isinstance(value, BoolVal):
        raise NonBooleanGuard(f"guard evaluated to non-boolean {_show(value)}")
    return value.value


def compile_expr(expr: Expr, memo: dict) -> Callable[[Env], Value]:
    """``expr`` as a closure ``env -> Value``.  Equal expressions share one
    closure in ``memo``, keyed by the node (a variable by its name: cheaper)."""
    key = expr.name if type(expr) is VarRef else expr
    compiled = memo.get(key)
    if compiled is None:
        compiled = memo[key] = _compile(expr, memo)
    return compiled


def _compile(expr: Expr, memo: dict) -> Callable[[Env], Value]:
    kind = type(expr)
    if kind is VarRef:
        name = expr.name

        def lookup(env: Env) -> Value:
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(name) from None

        return lookup
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
        return lambda env: BoolVal(_equal(left(env), right(env)) == equal)
    if kind is Fold:
        over, init = compile_expr(expr.over, memo), compile_expr(expr.init, memo)
        appends, step = _fold_step(expr)
        if appends and step == VarRef(expr.elem_var):  # ``acc.add(e)``: the elements are the children
            return lambda env: _adopt(list_elements(over(env)), init(env))
        step = compile_expr(step, memo)
        return lambda env: _fold(expr, list_elements(over(env)), init(env), env, appends, step)
    if kind is StrLit:
        value = expr.value
    elif kind is IntLit:
        value = IntVal(expr.value)
    elif kind is BoolLit:
        value = BoolVal(expr.value)
    elif kind is NullLit:
        value = NULL
    else:
        raise TypeError(f"not an expression: {expr!r}")
    return lambda env: value


def compile_actions(exprs, memo: dict) -> Callable[[Env], Value]:
    """One expression yields its value; several yield a tuple; none yields null."""
    if len(exprs) == 1:
        return compile_expr(exprs[0], memo)
    parts = tuple([compile_expr(e, memo) for e in exprs])
    return lambda env: TupleVal(tuple([f(env) for f in parts])) if parts else NULL


# The oracle's entry points: each compiles once into ``memo``, then runs.


def eval_expr(expr: Expr, env: Env, memo: dict) -> Value:
    return compile_expr(expr, memo)(env)


def eval_actions(exprs, env: Env, memo: dict) -> Value:
    return compile_actions(exprs, memo)(env)


def eval_guard(expr: Expr, env: Env, memo: dict) -> bool:
    return truth(compile_expr(expr, memo)(env))
