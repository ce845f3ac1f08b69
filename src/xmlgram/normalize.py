"""Grammar normalization for table-driven parsing.

Three rewrites bring a grammar into normal form:

* ``remove_star`` replaces each repetition ``X*`` by a call to a fresh rule
  with a cons-recursive definition and a Nil base case, so repetition values
  become Cons/Nil chains;
* ``lift_element_guards`` turns element branches into single rule calls
  (branches that are already one call, or that contain no calls,
  alternations, or repetitions, are left alone — the table construction
  never needs to look inside those);
* ``lift_disjunction`` hoists every alternation to top level.  An
  alternation that is an entire rule body splits into one definition per
  alternative of the same rule; anywhere else it becomes a call to one
  fresh rule with one definition per alternative, however many there are.

Lifted bodies keep their variable context by passing free variables as
arguments.  When a lifted body binds variables that the surrounding scope
can rely on (for an alternation, names bound by every alternative; for an
element, names bound by every branch), the fresh rule returns a tuple of
the body's own value followed by those bindings; the call site unpacks the
tuple and restores the value with a synthesized variable, so both the
bindings and the value survive the rewrite exactly.  When nothing is
exported the rewrite degenerates to a bare call.  Fresh rule names are
``<root>$k`` with a single counter per run, so output is deterministic;
``$`` cannot appear in user names.

The three share one bottom-up walk over each clause body, and read a
lifted body's parameters and exports from one ``wellformed.scope`` walk,
the scoping rules the well-formedness check applies.
``normalize_grammar`` applies them once each, in the order star, guards,
disjunction, and asserts the normal-form predicate on the result.  One
round suffices: star removal leaves no repetition, guard lifting leaves
every element branch a single call or call-free, and disjunction lifting
adds no repetition and leaves those branches alone.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from .ast import (
    CONS,
    NIL,
    Actions,
    Bind,
    Body,
    BodySeq,
    Call,
    Clause,
    Construct,
    ElementSpec,
    Grammar,
    Or,
    Star,
    VarRef,
    bodies,
    walk,
)
from .wellformed import scope


class FreshNameSource:
    """Deterministic generator of rule/variable names that cannot collide
    with user-written names (user identifiers may not contain '$')."""

    def __init__(self, grammar: Grammar):
        self.taken = {c.name for c in grammar.clauses}
        self.counter = 0

    def fresh(self, base: str) -> str:
        root = base.split("$", 1)[0]
        while True:
            self.counter += 1
            name = f"{root}${self.counter}"
            if name not in self.taken:
                self.taken.add(name)
                return name

    def fresh_var(self, base: str, avoid) -> str:
        if base not in avoid and "$" not in base:
            return base
        while True:
            self.counter += 1
            name = f"{base}${self.counter}"
            if name not in avoid:
                return name

    def internal_var(self, base: str) -> str:
        """A variable no user scope can contain or collide with."""
        self.counter += 1
        return f"{base}${self.counter}"


def _interface(seq: BodySeq) -> Tuple[Tuple[str, ...], FrozenSet[str]]:
    """A lifted body's parameters (its free variables, sorted) and the names
    it binds."""
    uses: list = []
    bound = scope(seq, frozenset(), uses)
    return tuple(sorted({use.name for use in uses if isinstance(use, VarRef)})), bound


def _var_refs(names) -> Tuple[VarRef, ...]:
    return tuple(VarRef(n) for n in names)


def _returning(seq: BodySeq, exported: Tuple[str, ...], fresh: FreshNameSource) -> BodySeq:
    """``seq``, or with exports a body returning ``(value, exports...)``."""
    if not exported:
        return seq
    result = fresh.internal_var("v")
    return (Bind((result,), seq), Actions(_var_refs((result,) + exported)))


def _call_site(item: Body, exported: Tuple[str, ...], fresh: FreshNameSource) -> BodySeq:
    """Items replacing a lifted body at its original position.

    ``item`` produces the fresh rule's ``(value, exports...)`` tuple (it is
    the call itself, or an element whose branches are such calls); the
    binding unpacks it and the trailing action restores the plain value.
    """
    if not exported:
        return (item,)
    result = fresh.internal_var("v")
    return (Bind((result,) + exported, (item,)), Actions((VarRef(result),)))


# --------------------------------------------------------------------------
# The shared walk
# --------------------------------------------------------------------------


def _rebuild(item: Body, f) -> Body:
    """``item`` with ``f`` applied to each of its body sequences, in source order."""
    if isinstance(item, Or):
        return Or(tuple(map(f, item.branches)), span=item.span)
    if isinstance(item, Bind):
        return Bind(item.names, f(item.body), span=item.span)
    if isinstance(item, Star):
        return Star(f(item.body), span=item.span)
    if isinstance(item, ElementSpec):
        guarded = tuple((g, f(b)) for g, b in item.guarded)
        return ElementSpec(item.tag, item.attrs, guarded, f(item.else_body), span=item.span)
    return item


class _Pass:
    """One rewrite over a grammar.  ``rewrite_item(node, rewrite)`` returns
    the items that replace a node whose body sequences are already
    rewritten; it draws names from ``fresh`` and appends fresh clauses to
    ``acc``, which follow the clause named ``origin`` in the output."""

    def __init__(self, grammar: Grammar, rewrite_item):
        self.fresh = FreshNameSource(grammar)
        self.rewrite_item = rewrite_item
        self.origin = ""
        self.acc: List[Clause] = []

    def seq(self, seq: BodySeq) -> BodySeq:
        items: List[Body] = []
        for item in seq:
            items.extend(self.rewrite_item(_rebuild(item, self.seq), self))
        return tuple(items)


def _rewrite(grammar: Grammar, rewrite_item) -> Grammar:
    """Rewrite every clause bottom-up; each clause is followed by the fresh
    clauses its rewrite made."""
    rewrite = _Pass(grammar, rewrite_item)
    out: List[Clause] = []
    for clause in grammar.clauses:
        rewrite.origin, rewrite.acc = clause.name, []
        out.append(Clause(clause.name, clause.params, rewrite.seq(clause.body), span=clause.span))
        out.extend(rewrite.acc)
    return Grammar(grammar.name, tuple(out))


# --------------------------------------------------------------------------
# Star removal
# --------------------------------------------------------------------------


def remove_star(grammar: Grammar) -> Grammar:
    """Replace every repetition with a call to a fresh cons/nil rule pair."""
    return _rewrite(grammar, _remove_star_item)


def _remove_star_item(item: Body, rewrite: _Pass) -> BodySeq:
    if not isinstance(item, Star):
        return (item,)
    fresh = rewrite.fresh
    params, _ = _interface(item.body)
    name = fresh.fresh(rewrite.origin)
    avoid = set(params)
    x = fresh.fresh_var("x", avoid)
    xs = fresh.fresh_var("xs", avoid | {x})
    args = _var_refs(params)
    cons_body: BodySeq = (
        Bind((x,), item.body),
        Bind((xs,), (Call(name, args),)),
        Actions((Construct(CONS, (VarRef(x), VarRef(xs))),)),
    )
    rewrite.acc.append(Clause(name, params, cons_body))
    rewrite.acc.append(Clause(name, params, (Actions((Construct(NIL, ()),)),)))
    return (Call(name, args),)


# --------------------------------------------------------------------------
# Element branch lifting
# --------------------------------------------------------------------------


def _branch_is_normal(branch: BodySeq) -> bool:
    if len(branch) == 1 and isinstance(branch[0], Call):
        return True
    return not any(isinstance(item, (Call, Or, Star)) for item in walk(branch))


def lift_element_guards(grammar: Grammar) -> Grammar:
    return _rewrite(grammar, _lift_element_item)


def _lift_element_item(el: Body, rewrite: _Pass) -> BodySeq:
    if not isinstance(el, ElementSpec) or all(map(_branch_is_normal, bodies(el))):
        return (el,)

    # A lone `names = Call(...)` branch hoists its binding onto the element
    # instead of spending a fresh rule on an eta-expansion.
    if (
        not el.guarded
        and len(el.else_body) == 1
        and isinstance(el.else_body[0], Bind)
        and len(el.else_body[0].body) == 1
        and isinstance(el.else_body[0].body[0], Call)
    ):
        bind = el.else_body[0]
        hoisted = ElementSpec(el.tag, el.attrs, (), bind.body, span=el.span)
        return (Bind(bind.names, (hoisted,), span=bind.span),)

    interfaces = [_interface(body) for body in bodies(el)]
    common = tuple(sorted(frozenset.intersection(*(bound for _, bound in interfaces))))
    # ``_rebuild`` visits the branches in ``bodies`` order.
    branch_params = iter(params for params, _ in interfaces)
    fresh = rewrite.fresh

    def lift_branch(branch: BodySeq) -> BodySeq:
        params = next(branch_params)
        # With exports, every branch must yield the same tuple shape, so
        # even already-normal branches get lifted.
        if not common and _branch_is_normal(branch):
            return branch
        name = fresh.fresh(rewrite.origin)
        rewrite.acc.append(Clause(name, params, _returning(branch, common, fresh)))
        return (Call(name, _var_refs(params)),)

    return _call_site(_rebuild(el, lift_branch), common, fresh)


# --------------------------------------------------------------------------
# Disjunction lifting
# --------------------------------------------------------------------------


def lift_disjunction(grammar: Grammar) -> Grammar:
    # A body that is exactly an alternation splits into one definition per
    # alternative, with no fresh rule; the other alternations are lifted.
    split: List[Clause] = []
    for c in grammar.clauses:
        if len(c.body) == 1 and isinstance(c.body[0], Or):
            split.extend(Clause(c.name, c.params, b, span=c.span) for b in c.body[0].branches)
        else:
            split.append(c)
    return _rewrite(Grammar(grammar.name, tuple(split)), _lift_or_item)


def _lift_or_item(item: Body, rewrite: _Pass) -> BodySeq:
    if not isinstance(item, Or):
        return (item,)
    fresh = rewrite.fresh
    params, bound_set = _interface((item,))
    bound = tuple(sorted(bound_set))
    name = fresh.fresh(rewrite.origin)
    for branch in item.branches:
        rewrite.acc.append(Clause(name, params, _returning(branch, bound, fresh)))
    return _call_site(Call(name, _var_refs(params), span=item.span), bound, fresh)


# --------------------------------------------------------------------------
# Normal form
# --------------------------------------------------------------------------


def is_normal_form(grammar: Grammar) -> bool:
    for clause in grammar.clauses:
        for item in walk(clause.body):
            if isinstance(item, (Or, Star)):
                return False
            if isinstance(item, ElementSpec) and not all(map(_branch_is_normal, bodies(item))):
                return False
    return True


def normalize_grammar(grammar: Grammar) -> Grammar:
    """Rewrite to normal form; the result has no Or or Star and all element
    branches are single calls or call-free."""
    normal = lift_disjunction(lift_element_guards(remove_star(grammar)))
    if not is_normal_form(normal):
        raise AssertionError("normalization did not reach normal form")
    return normal
