"""Variable scoping and the well-formedness check.

A variable may be referenced only where every path to that point has bound
it.  Binding is sequential and cumulative within a clause body; alternation
exports only names bound by every branch; repetition exports nothing (it
may run zero times).  An element specification binds its declared attribute
variables and whatever all of its branches bind, and those names stay
visible for the rest of the clause body — this matches the runtime, where an
environment only resets at rule-call boundaries.

``scope`` is the one implementation of these rules: a single walk that
passes the names in scope down and returns the names bound after a body, and
logs on the way every variable use out of scope and every rule call.  The
check reads its errors from that log, and the normalizer reads a lifted
body's parameters and exports from it.

Besides variable scoping, ``check_grammar`` rejects arity inconsistencies
(calls whose argument count disagrees with the callee, and same-named
definitions with different parameter lists).  Calls to names with no
definition at all are reported by ``lint_grammar`` as warnings: such rules
simply never match anything, which can be deliberate in a grammar fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Union

from .ast import (
    Actions,
    Bind,
    BodySeq,
    Call,
    Compare,
    ConsExpr,
    Construct,
    ElementSpec,
    Expr,
    Fold,
    Grammar,
    ListLit,
    Or,
    SourceSpan,
    Star,
    VarRef,
    walk,
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
        return f"rule {self.rule}: {self.message}{where}"


# -- scope --------------------------------------------------------------------


def free_expr(expr: Expr) -> FrozenSet[str]:
    return frozenset(ref.name for ref in expr_vars(expr))


def expr_vars(expr: Expr) -> List[VarRef]:
    """The variable references an expression evaluates, in evaluation order."""
    if isinstance(expr, VarRef):
        return [expr]
    if isinstance(expr, (Construct, ListLit)):
        out: List[VarRef] = []
        for sub in expr.args if isinstance(expr, Construct) else expr.items:
            out.extend(expr_vars(sub))
        return out
    if isinstance(expr, ConsExpr):
        return expr_vars(expr.head) + expr_vars(expr.tail)
    if isinstance(expr, Compare):
        return expr_vars(expr.left) + expr_vars(expr.right)
    if isinstance(expr, Fold):
        out = expr_vars(expr.init) + expr_vars(expr.over)
        shadowed = {expr.elem_var, expr.acc_var}
        out.extend(ref for ref in expr_vars(expr.step) if ref.name not in shadowed)
        return out
    return []


def _unbound(exprs, names: FrozenSet[str], uses: List[Union[Call, VarRef]]) -> None:
    """Appends to ``uses`` each variable reference of ``exprs`` that is not
    in ``names``, in evaluation order."""
    for expr in exprs:
        for ref in expr_vars(expr):
            if ref.name not in names:
                uses.append(ref)


def scope(seq: BodySeq, ctx: FrozenSet[str], uses: List[Union[Call, VarRef]]) -> FrozenSet[str]:
    """The names in scope after ``seq`` runs with ``ctx`` in scope.

    Appends to ``uses``, in source order, each rule call and each variable
    reference that is not in scope where it occurs; a call comes before the
    references in its arguments."""
    for item in seq:
        kind = type(item)
        if kind is Call:
            uses.append(item)
            if item.args:
                _unbound(item.args, ctx, uses)
        elif kind is Actions:
            _unbound(item.exprs, ctx, uses)
        elif kind is Bind:
            ctx = scope(item.body, ctx, uses) | frozenset(item.names)
        elif kind is Star:
            # Star may iterate zero times, so nothing it binds can be relied on.
            scope(item.body, ctx, uses)
        elif kind is Or:
            ctx = frozenset.intersection(*[scope(b, ctx, uses) for b in item.branches])
        elif kind is ElementSpec:
            inner = (ctx | {var for var, _ in item.attrs}) if item.attrs else ctx
            bound = []
            for guard, body in item.guarded:
                _unbound((guard,), inner, uses)
                bound.append(scope(body, inner, uses))
            bound.append(scope(item.else_body, inner, uses))
            ctx = frozenset.intersection(*bound)
    return ctx


# -- the check ----------------------------------------------------------------


def check_grammar(grammar: Grammar) -> List[WfError]:
    """All well-formedness errors; empty means every clause is well formed."""
    errors: List[WfError] = []
    arities: Dict[str, int] = {}
    for clause in grammar.clauses:
        if arities.setdefault(clause.name, len(clause.params)) != len(clause.params):
            message = f"definitions of {clause.name} disagree on parameter count"
            errors.append(WfError(clause.name, message, clause.span))

    for clause in grammar.clauses:
        uses: List[Union[Call, VarRef]] = []
        scope(clause.body, frozenset(clause.params), uses)
        for use in uses:
            if type(use) is VarRef:
                message = f"variable {use.name} may be unbound"
                errors.append(WfError(clause.name, message, use.span, variable=use.name))
            elif arities.get(use.name, len(use.args)) != len(use.args):
                got, expected = len(use.args), arities[use.name]
                message = f"call to {use.name} with {got} argument(s), expected {expected}"
                errors.append(WfError(clause.name, message, use.span))
    return errors


def lint_grammar(grammar: Grammar) -> List[WfError]:
    """Warnings: calls whose target has no definition (they never match)."""
    defined = {c.name for c in grammar.clauses}
    warnings: List[WfError] = []
    for clause in grammar.clauses:
        for item in walk(clause.body):
            if type(item) is Call and item.name not in defined:
                message = f"call to undefined rule {item.name!r} (never matches)"
                warnings.append(WfError(clause.name, message, item.span, severity="warning"))
    return warnings
