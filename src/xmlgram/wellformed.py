"""Free/bound variable analysis and the well-formedness check.

A variable may be referenced only where every path to that point has bound
it.  Binding is sequential and cumulative within a clause body; alternation
exports only names bound by every branch; repetition exports nothing (it
may run zero times).  An element specification binds its declared attribute
variables and whatever all of its branches bind, and those names stay
visible for the rest of the clause body — this matches the runtime, where an
environment only resets at rule-call boundaries.

Besides variable scoping, ``check_grammar`` rejects arity inconsistencies
(calls whose argument count disagrees with the callee, and same-named
definitions with different parameter lists).  Calls to names with no
definition at all are reported by ``lint_grammar`` as warnings: such rules
simply never match anything, which can be deliberate in a grammar fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from .ast import (
    Actions,
    Any,
    Bind,
    Body,
    BodySeq,
    Call,
    Clause,
    Compare,
    ConsExpr,
    Construct,
    ElementSpec,
    Empty,
    Expr,
    Fold,
    Grammar,
    ListLit,
    Ok,
    Or,
    SourceSpan,
    Star,
    Text,
    VarRef,
    bodies,
)


@dataclass(frozen=True)
class WfError:
    rule: str
    message: str
    span: Optional[SourceSpan] = None
    variable: Optional[str] = None
    severity: str = "error"

    def __str__(self) -> str:
        where = f" at {self.span}" if self.span else ""
        if self.variable is not None:
            return f"rule {self.rule}: variable {self.variable} may be unbound{where}"
        return f"rule {self.rule}: {self.message}{where}"


# -- free and bound names ----------------------------------------------------


def free_expr(expr: Expr) -> FrozenSet[str]:
    return frozenset(name for name, _ in expr_var_occurrences(expr))


def expr_var_occurrences(expr: Expr) -> List[Tuple[str, Optional[SourceSpan]]]:
    if isinstance(expr, VarRef):
        return [(expr.name, expr.span)]
    if isinstance(expr, (Construct, ListLit)):
        out: List[Tuple[str, Optional[SourceSpan]]] = []
        for sub in expr.args if isinstance(expr, Construct) else expr.items:
            out.extend(expr_var_occurrences(sub))
        return out
    if isinstance(expr, ConsExpr):
        return expr_var_occurrences(expr.head) + expr_var_occurrences(expr.tail)
    if isinstance(expr, Compare):
        return expr_var_occurrences(expr.left) + expr_var_occurrences(expr.right)
    if isinstance(expr, Fold):
        out = expr_var_occurrences(expr.init) + expr_var_occurrences(expr.over)
        shadowed = {expr.elem_var, expr.acc_var}
        out.extend((n, s) for n, s in expr_var_occurrences(expr.step) if n not in shadowed)
        return out
    return []


def bound_vars(item: Body) -> FrozenSet[str]:
    """Names guaranteed to be available after the item succeeds."""
    if isinstance(item, Or):
        return frozenset.intersection(*map(bound_vars_seq, item.branches))
    if isinstance(item, Bind):
        return frozenset(item.names) | bound_vars_seq(item.body)
    if isinstance(item, ElementSpec):
        attrs = frozenset(var for var, _ in item.attrs)
        return attrs | frozenset.intersection(*map(bound_vars_seq, bodies(item)))
    # Star may iterate zero times, so nothing it binds can be relied on.
    return frozenset()


def bound_vars_seq(seq: BodySeq) -> FrozenSet[str]:
    names: Set[str] = set()
    for item in seq:
        names |= bound_vars(item)
    return frozenset(names)


def free_vars(item: Body) -> FrozenSet[str]:
    if isinstance(item, (Or, Bind, Star)):
        return frozenset().union(*map(free_vars_seq, bodies(item)))
    if isinstance(item, Call):
        out: Set[str] = set()
        for arg in item.args:
            out |= free_expr(arg)
        return frozenset(out)
    if isinstance(item, Actions):
        out = set()
        for expr in item.exprs:
            out |= free_expr(expr)
        return frozenset(out)
    if isinstance(item, ElementSpec):
        attrs = frozenset(var for var, _ in item.attrs)
        out = set()
        for guard, body in item.guarded:
            out |= free_expr(guard)
            out |= free_vars_seq(body)
        out |= free_vars_seq(item.else_body)
        return frozenset(out) - attrs
    return frozenset()


def free_vars_seq(seq: BodySeq) -> FrozenSet[str]:
    free: Set[str] = set()
    bound: Set[str] = set()
    for item in seq:
        free |= free_vars(item) - bound
        bound |= bound_vars(item)
    return frozenset(free)


# -- the check ----------------------------------------------------------------


def check_grammar(grammar: Grammar) -> List[WfError]:
    """All well-formedness errors; empty means every clause is well formed."""
    errors: List[WfError] = []
    arities = {}
    for clause in grammar.clauses:
        if clause.name in arities:
            if arities[clause.name] != len(clause.params):
                errors.append(
                    WfError(
                        clause.name,
                        f"definitions of {clause.name} disagree on parameter count",
                        span=clause.span,
                    )
                )
        else:
            arities[clause.name] = len(clause.params)

    for clause in grammar.clauses:
        checker = _Checker(clause.name, arities, errors)
        checker.check_seq(clause.body, set(clause.params))
    return errors


def lint_grammar(grammar: Grammar) -> List[WfError]:
    """Warnings: calls whose target has no definition (they never match)."""
    defined = {c.name for c in grammar.clauses}
    warnings: List[WfError] = []

    def walk_seq(rule: str, seq: BodySeq) -> None:
        for item in seq:
            if isinstance(item, Call) and item.name not in defined:
                warnings.append(
                    WfError(
                        rule,
                        f"call to undefined rule {item.name!r} (never matches)",
                        span=item.span,
                        severity="warning",
                    )
                )
            for body in bodies(item):
                walk_seq(rule, body)

    for clause in grammar.clauses:
        walk_seq(clause.name, clause.body)
    return warnings


class _Checker:
    def __init__(self, rule: str, arities, errors: List[WfError]):
        self.rule = rule
        self.arities = arities
        self.errors = errors

    def check_seq(self, seq: BodySeq, ctx: Set[str]) -> Set[str]:
        for item in seq:
            self.check_item(item, ctx)
            ctx = ctx | bound_vars(item)
        return ctx

    def check_item(self, item: Body, ctx: Set[str]) -> None:
        if isinstance(item, (Or, Bind, Star)):
            for body in bodies(item):
                self.check_seq(body, set(ctx))
        elif isinstance(item, Call):
            expected = self.arities.get(item.name)
            if expected is not None and expected != len(item.args):
                self.errors.append(
                    WfError(
                        self.rule,
                        f"call to {item.name} with {len(item.args)} argument(s), "
                        f"expected {expected}",
                        span=item.span,
                    )
                )
            for arg in item.args:
                self.check_expr(arg, ctx)
        elif isinstance(item, Actions):
            for expr in item.exprs:
                self.check_expr(expr, ctx)
        elif isinstance(item, ElementSpec):
            inner = ctx | {var for var, _ in item.attrs}
            for guard, body in item.guarded:
                self.check_expr(guard, inner)
                self.check_seq(body, set(inner))
            self.check_seq(item.else_body, set(inner))
        elif isinstance(item, (Empty, Any, Ok, Text)):
            pass
        else:
            raise TypeError(f"not a body item: {item!r}")

    def check_expr(self, expr: Expr, ctx: Set[str]) -> None:
        for name, span in expr_var_occurrences(expr):
            if name not in ctx:
                self.errors.append(
                    WfError(self.rule, f"variable {name} may be unbound", span=span, variable=name)
                )
