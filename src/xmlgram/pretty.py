"""Grammar pretty-printer, the inverse of the frontend parser.

Printing then reparsing yields a structurally identical grammar; the
normalizer's output is printable too (reparse with allow_internal_names).
"""

from __future__ import annotations

from .ast import (
    Actions,
    Bind,
    Body,
    BodySeq,
    BoolLit,
    Call,
    Clause,
    Compare,
    ConsExpr,
    Construct,
    ElementSpec,
    Expr,
    Fold,
    Grammar,
    IntLit,
    ListLit,
    NullLit,
    Ok,
    Or,
    Star,
    StrLit,
    VarRef,
)
from .evaluate import ADD_CHILD
from .frontend import KEYWORD_BODIES, string_literal

_KEYWORD_OF = {body: keyword for keyword, body in KEYWORD_BODIES.items()}


def pretty_grammar(grammar: Grammar) -> str:
    lines = [f"@Grammar {grammar.name}"]
    for clause in grammar.clauses:
        lines.append("  " + pretty_clause(clause))
    lines.append("end")
    return "\n".join(lines) + "\n"


def pretty_clause(clause: Clause) -> str:
    params = f"({', '.join(clause.params)})" if clause.params else ""
    body = pretty_seq(clause.body)
    if body:
        return f"{clause.name}{params} ::= {body}."
    return f"{clause.name}{params} ::= ."


def pretty_seq(seq: BodySeq) -> str:
    texts = [pretty_item(item) for item in seq]
    for i in range(len(texts) - 1):
        # `S (A | B)` would parse back as the call S(A | B), so say `S()`.
        if texts[i + 1].startswith("(") and _ends_in_bare_call(seq[i]):
            texts[i] += "()"
    return " ".join(texts)


def _ends_in_bare_call(item: Body) -> bool:
    """Does the item print as text ending in a call without arguments?"""
    while isinstance(item, Bind) and len(item.body) == 1 and not isinstance(item.body[0], Or):
        item = item.body[0]
    return isinstance(item, Call) and not item.args


def _pretty_operand(seq: BodySeq) -> str:
    """A sequence in a bind-target slot."""
    if len(seq) == 1 and not isinstance(seq[0], Or):
        return pretty_item(seq[0])
    return "(" + _pretty_alt(seq) + ")"


def _pretty_star_operand(seq: BodySeq) -> str:
    """A sequence under ``*``; binds and nested stars would regroup unparenthesized."""
    if len(seq) == 1 and not isinstance(seq[0], (Or, Bind, Star)):
        return pretty_item(seq[0])
    return "(" + _pretty_alt(seq) + ")"


def _pretty_alt(seq: BodySeq) -> str:
    """Render a sequence, a lone Or in `a | b | c` form."""
    if len(seq) == 1 and isinstance(seq[0], Or):
        return " | ".join(map(pretty_seq, seq[0].branches))
    return pretty_seq(seq)


def pretty_item(item: Body) -> str:
    if isinstance(item, Or):
        return "(" + _pretty_alt((item,)) + ")"
    if isinstance(item, Bind):
        names = item.names[0] if len(item.names) == 1 else "[" + ",".join(item.names) + "]"
        return f"{names} = {_pretty_operand(item.body)}"
    if isinstance(item, Star):
        return _pretty_star_operand(item.body) + "*"
    if type(item) in _KEYWORD_OF:
        return _KEYWORD_OF[type(item)]
    if isinstance(item, Call):
        if item.args:
            return f"{item.name}({', '.join(pretty_expr(a) for a in item.args)})"
        return item.name
    if isinstance(item, Actions):
        return "{ " + ", ".join(pretty_expr(e) for e in item.exprs) + " }"
    if isinstance(item, ElementSpec):
        return _pretty_element(item)
    raise TypeError(f"not a body item: {item!r}")


def _pretty_element(el: ElementSpec) -> str:
    attrs = "".join(
        " " + (var if var == attr else f"{var}={attr}") for var, attr in el.attrs
    )
    head = f"<{el.tag}{attrs}"
    if not el.guarded and el.else_body == (Ok(),):
        return head + "/>"
    if not el.guarded:
        inner = _pretty_alt(el.else_body)
        return f"{head}>{' ' + inner + ' ' if inner else ' '}</{el.tag}>"
    parts = [head]
    for guard, body in el.guarded:
        parts.append(f" when {pretty_expr(guard)} > {_pretty_alt(body)}")
    if el.else_body:
        parts.append(f" else {_pretty_alt(el.else_body)}")
    parts.append(f" </{el.tag}>")
    return "".join(parts)


def pretty_expr(expr: Expr) -> str:
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, StrLit):
        return string_literal(expr.value)
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, NullLit):
        return "null"
    if isinstance(expr, Construct):
        if expr.ctor == ADD_CHILD and len(expr.args) == 2:
            return f"{_pretty_sub(expr.args[0])}.add({pretty_expr(expr.args[1])})"
        if not expr.args and expr.ctor[0].isupper():
            return expr.ctor
        return f"{expr.ctor}({', '.join(pretty_expr(a) for a in expr.args)})"
    if isinstance(expr, ListLit):
        return "Seq{" + ", ".join(pretty_expr(i) for i in expr.items) + "}"
    if isinstance(expr, ConsExpr):
        return f"{_pretty_sub(expr.head)} : {_pretty_sub(expr.tail)}"
    if isinstance(expr, Fold):
        return (
            f"{_pretty_sub(expr.over)}->iterate({expr.elem_var} {expr.acc_var} = "
            f"{pretty_expr(expr.init)} | {pretty_expr(expr.step)})"
        )
    if isinstance(expr, Compare):
        return f"{_pretty_sub(expr.left)} {expr.op} {_pretty_sub(expr.right)}"
    raise TypeError(f"not an expression: {expr!r}")


def _pretty_sub(expr: Expr) -> str:
    """Operand position: parenthesize nested operators to keep parses stable."""
    text = pretty_expr(expr)
    if isinstance(expr, (Compare, ConsExpr)):
        return "(" + text + ")"
    return text
