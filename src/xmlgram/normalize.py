"""Grammar normalization for table-driven parsing.

An LL(1) table only has to decide alternation and repetition, so the
normal form has neither: no ``Or`` and no ``Star`` node anywhere.  Element
branches stay in place whatever they hold; the machine runs them inline
and the analysis reads through them.

``normalize_grammar`` first splits each clause whose body is exactly an
alternation into one definition per alternative, with no fresh rule.  Then
one bottom-up walk over each clause body, which passes down the names in
scope, rewrites what is left:

* a repetition ``X*`` becomes a call to a fresh rule with a cons-recursive
  definition ``x = X xs = R(params) {Cons(x, xs)}`` and a Nil base case
  ``{Nil}``, so repetition values become Cons/Nil chains;
* an alternation becomes a call to one fresh rule with one definition per
  alternative, however many there are;
* an element whose one branch is ``x = C`` for a call ``C`` becomes
  ``x = <T> C </T>``, the published normal form of a bound call.

A fresh rule takes the lifted body's free variables as parameters.  A
repetition exports nothing: its iterations run in the environment of the
repetition point.  So a repetition body that can rebind one of its own
parameters goes to a fresh rule of its own, called with the same
arguments, where the new value stays local; otherwise the cons clause
would pass it on to the next iteration.  The normal form names every rule
a repetition lifted in ``Grammar.loops``, and each has exactly the two
clauses above; the machine runs a call to one as a loop instead of a
recursion.  An alternation exports the names every alternative binds, and
each name in scope that some alternative may bind again, which it also
takes as a parameter so that an alternative leaving the name alone passes
it through.  With exports the fresh rule returns a tuple of the
alternative's own value followed by the exported names; the call site
unpacks the tuple and restores the value with a synthesized variable, so
both the bindings and the value survive the rewrite exactly.  Without
exports the rewrite is a bare call.  Fresh rule names are ``<root>$k`` with
a single counter per run, so output is deterministic; ``$`` cannot appear
in user names.  Every call the rewrite makes carries the span of the ``*``
or ``|`` it stands for, so a diagnostic about it points into the source.

A lifted body's parameters and the names it binds come from one
``wellformed.scope`` walk, the scoping rules the well-formedness check
applies.
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
    may_bind,
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


def _interface(seqs) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """The free variables of ``seqs`` and the names every one of them binds."""
    uses: list = []
    bound = frozenset.intersection(*(scope(seq, frozenset(), uses) for seq in seqs))
    return frozenset(use.name for use in uses if isinstance(use, VarRef)), bound


def _var_refs(names) -> Tuple[VarRef, ...]:
    return tuple(VarRef(n) for n in names)


def _returning(seq: BodySeq, exported: Tuple[str, ...], fresh: FreshNameSource) -> BodySeq:
    """``seq``, or with exports a body returning ``(value, exports...)``."""
    if not exported:
        return seq
    result = fresh.internal_var("v")
    return (Bind((result,), seq), Actions(_var_refs((result,) + exported)))


def _call_site(call: Call, exported: Tuple[str, ...], fresh: FreshNameSource) -> BodySeq:
    """Items replacing a lifted body at its original position: the binding
    unpacks the fresh rule's ``(value, exports...)`` tuple and the trailing
    action restores the plain value."""
    if not exported:
        return (call,)
    result = fresh.internal_var("v")
    return (Bind((result,) + exported, (call,)), Actions((VarRef(result),)))


# --------------------------------------------------------------------------
# The rewrite
# --------------------------------------------------------------------------


# The nodes that hold body sequences; the walk keeps every other node as it is.
_NESTING = {Bind, ElementSpec, Star, Or}


class _Rewrite:
    """The one walk.  ``item`` returns the items that replace a node and the
    names in scope after them.  It rewrites the node's body sequences first
    and draws names from ``fresh``.  The fresh clauses go to ``acc``, which
    follows the clause named ``origin`` in the output; names and clauses of
    a lifted node come before those of the nodes inside it."""

    def __init__(self, grammar: Grammar):
        self.fresh = FreshNameSource(grammar)
        self.origin = ""
        self.acc: List[Clause] = []
        self.loops = set(grammar.loops)

    def seq(self, seq: BodySeq, ctx: FrozenSet[str]) -> Tuple[BodySeq, FrozenSet[str]]:
        items: List[Body] = []
        for item in seq:
            if type(item) in _NESTING:
                new, ctx = self.item(item, ctx)
                items.extend(new)
            else:  # a leaf stays as it is
                items.append(item)
        return tuple(items), ctx

    def item(self, item: Body, ctx: FrozenSet[str]) -> Tuple[BodySeq, FrozenSet[str]]:
        """A node that holds body sequences, rewritten."""
        fresh = self.fresh
        kind = type(item)
        if kind is Bind:
            body, ctx = self.seq(item.body, ctx)
            return (Bind(item.names, body, span=item.span),), ctx | frozenset(item.names)

        if kind is ElementSpec:
            inner = ctx | {var for var, _ in item.attrs}
            guarded, after = [], []
            for guard, body in item.guarded:
                body, bound = self.seq(body, inner)
                guarded.append((guard, body))
                after.append(bound)
            else_body, bound = self.seq(item.else_body, inner)
            after.append(bound)
            ctx = frozenset.intersection(*after)
            if not guarded and len(else_body) == 1 and isinstance(else_body[0], Bind):
                bind = else_body[0]
                if len(bind.body) == 1 and isinstance(bind.body[0], Call):
                    hoisted = ElementSpec(item.tag, item.attrs, (), bind.body, span=item.span)
                    return (Bind(bind.names, (hoisted,), span=bind.span),), ctx
            el = ElementSpec(item.tag, item.attrs, tuple(guarded), else_body, span=item.span)
            return (el,), ctx

        if kind is Star:
            name, at = fresh.fresh(self.origin), len(self.acc)
            body, _ = self.seq(item.body, ctx)
            params = tuple(sorted(_interface((body,))[0]))
            args = _var_refs(params)
            call = Call(name, args, span=item.span)
            lifted = []  # a body that rebinds a name it reads, in a rule of its own
            if not may_bind((body,)).isdisjoint(params):
                own = fresh.fresh(self.origin)
                lifted.append(Clause(own, params, body))
                body = (Call(own, args, span=item.span),)
            x = fresh.fresh_var("x", params)
            xs = fresh.fresh_var("xs", params + (x,))
            cons_body: BodySeq = (
                Bind((x,), body),
                Bind((xs,), (call,)),
                Actions((Construct(CONS, (VarRef(x), VarRef(xs))),)),
            )
            nil_body = (Actions((Construct(NIL, ()),)),)
            clauses = [Clause(name, params, cons_body), Clause(name, params, nil_body)]
            self.acc[at:at] = clauses + lifted
            self.loops.add(name)
            return (call,), ctx

        # an Or
        name, at = fresh.fresh(self.origin), len(self.acc)
        branches = [self.seq(branch, ctx)[0] for branch in item.branches]
        free, bound = _interface(branches)
        rebound = ctx.intersection(may_bind(branches)) if ctx else frozenset()
        params = tuple(sorted(free | rebound))
        exported = tuple(sorted(bound | rebound))
        self.acc[at:at] = [
            Clause(name, params, _returning(branch, exported, fresh)) for branch in branches
        ]
        call = Call(name, _var_refs(params), span=item.span)
        return _call_site(call, exported, fresh), ctx | bound


def _rewrite(grammar: Grammar) -> Grammar:
    """Rewrite every clause bottom-up; each clause is followed by the fresh
    clauses its rewrite made."""
    rewrite = _Rewrite(grammar)
    out: List[Clause] = []
    for clause in grammar.clauses:
        rewrite.origin, rewrite.acc = clause.name, []
        body, _ = rewrite.seq(clause.body, frozenset(clause.params))
        out.append(Clause(clause.name, clause.params, body, span=clause.span))
        out.extend(rewrite.acc)
    return Grammar(grammar.name, tuple(out), frozenset(rewrite.loops))


# --------------------------------------------------------------------------
# Normal form
# --------------------------------------------------------------------------


def is_normal_form(grammar: Grammar) -> bool:
    """No alternation and no repetition anywhere."""
    items = walk(item for clause in grammar.clauses for item in clause.body)
    return {Or, Star}.isdisjoint(map(type, items))


def normalize_grammar(grammar: Grammar) -> Grammar:
    """Rewrite to normal form: split whole-body alternations, then lift the
    rest and every repetition in one walk."""
    split: List[Clause] = []
    for c in grammar.clauses:
        if len(c.body) == 1 and isinstance(c.body[0], Or):
            split.extend(Clause(c.name, c.params, b, span=c.span) for b in c.body[0].branches)
        else:
            split.append(c)
    normal = _rewrite(Grammar(grammar.name, tuple(split), grammar.loops))
    if not is_normal_form(normal):
        raise AssertionError("normalization did not reach normal form")
    return normal
