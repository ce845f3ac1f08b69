"""Backtracking reference interpreter over materialized XML trees.

This is the executable form of the declarative grammar-satisfaction
relation: it enumerates every derivation of a body over a sequence of
trees, threading environments left to right.  It handles alternation and
repetition directly (no normalization required) and is deliberately naive —
its job is to be obviously correct so the table-driven engine can be tested
against it.

A derivation yields ``(position, env, value)``, where a position is an
element and the index of its next child to match (the document itself is
the one child of an element that stands for the input).  Notable
semantics, shared with the engine:

* a sequence's value is its last component's value (null when empty);
* ``EMPTY`` only matches when no sibling trees remain;
* ``ANY`` consumes one subtree and yields null;
* repetition yields a Cons/Nil chain, longest match enumerated first;
* the first true guard picks an element's branch, the else branch when
  none holds;
* element branches must consume every child of the element, and a declared
  attribute that is missing on the element makes the match fail.

The search needs no cut: ``compile_grammar`` rejects left recursion, a
repetition body that can consume nothing included, so each recursive call
and each further iteration starts later in the input or inside an element.
On an unchecked grammar it may recurse without end, and raises
``OracleLimitExceeded`` at the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .ast import (
    CONS,
    NIL,
    Actions,
    Any,
    Bind,
    Body,
    BodySeq,
    Call,
    ElementSpec,
    Empty,
    Grammar,
    Ok,
    Or,
    Star,
    Text,
    VarRef,
)
from .evaluate import eval_actions, eval_expr, eval_guard
from .events import Element, TextNode, XmlTree
from .values import NULL, Env, TermVal, TupleVal, Value, env_merge

DEFAULT_MAX_STEPS = 10_000

Trees = Tuple[XmlTree, ...]
Position = Tuple[Element, int]
Derivation = Tuple[Position, Env, Value]


class OracleLimitExceeded(Exception):
    """The derivation search exceeded its step budget or nesting depth."""


@dataclass
class OracleResult:
    value: Optional[Value]
    values: Tuple[Value, ...]

    @property
    def accepted(self) -> bool:
        return self.value is not None

    @property
    def ambiguous(self) -> bool:
        return len(self.values) > 1


class Oracle:
    def __init__(self, grammar: Grammar, *, max_steps: int = DEFAULT_MAX_STEPS):
        self.grammar = grammar
        self.max_steps = max_steps
        self._steps = 0

    def satisfy(self, body: BodySeq, trees: Trees, env: Env) -> Iterator[Tuple[Trees, Env, Value]]:
        """Each derivation of ``body`` over a prefix of ``trees``, with the
        trees it leaves over."""
        self._steps = 0
        top = Element("", {}, tuple(trees))  # whose children are the input
        try:
            for (_, i), env1, value in self._seq(body, (top, 0), dict(env)):
                yield top.children[i:], env1, value
        except RecursionError:  # the search recurses per nesting level
            raise OracleLimitExceeded("derivation nests deeper than the recursion limit") from None

    def accepts(self, start_rule: str, doc: XmlTree, args: Tuple[Value, ...] = ()) -> OracleResult:
        """Distinct values of the derivations of the whole document by a
        call of the start rule with ``args``; the first found is canonical."""
        env = {f"${i}": arg for i, arg in enumerate(args)}  # names for the call to read
        call = Call(start_rule, tuple(map(VarRef, env)))
        values: List[Value] = []
        for rest, _env, value in self.satisfy((call,), (doc,), env):
            if not rest and value not in values:
                values.append(value)
        return OracleResult(values[0] if values else None, tuple(values))

    # -- derivation enumeration ------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise OracleLimitExceeded(f"more than {self.max_steps} derivation steps")

    def _seq(self, items: BodySeq, at: Position, env: Env) -> Iterator[Derivation]:
        if not items:
            yield at, env, NULL
            return
        head, rest = items[0], items[1:]
        for at1, env1, value1 in self._item(head, at, env):
            if not rest:
                yield at1, env1, value1
            else:
                yield from self._seq(rest, at1, env1)

    def _item(self, item: Body, at: Position, env: Env) -> Iterator[Derivation]:
        self._tick()
        parent, i = at
        tree = parent.children[i] if i < len(parent.children) else None
        if isinstance(item, Or):
            for branch in item.branches:
                yield from self._seq(branch, at, env)
        elif isinstance(item, Bind):
            for at1, env1, value in self._seq(item.body, at, env):
                bound = self._bind_names(item.names, value)
                if bound is not None:
                    yield at1, env_merge(env1, bound), value
        elif isinstance(item, Star):
            yield from self._star(item.body, at, env)
        elif isinstance(item, Empty):
            if tree is None:
                yield at, env, NULL
        elif isinstance(item, Any):
            if tree is not None:
                yield (parent, i + 1), env, NULL
        elif isinstance(item, Ok):
            yield at, env, NULL
        elif isinstance(item, Text):
            if isinstance(tree, TextNode):
                yield (parent, i + 1), env, tree.text
        elif isinstance(item, Call):
            yield from self._call(item, at, env)
        elif isinstance(item, Actions):
            yield at, env, eval_actions(item.exprs, env)
        elif isinstance(item, ElementSpec):
            if isinstance(tree, Element) and tree.tag == item.tag:
                yield from self._element(item, tree, (parent, i + 1), env)
        else:
            raise TypeError(f"not a body item: {item!r}")

    @staticmethod
    def _bind_names(names: Tuple[str, ...], value: Value) -> Optional[Env]:
        if len(names) == 1:
            return {names[0]: value}
        if isinstance(value, TupleVal) and len(value.items) == len(names):
            return dict(zip(names, value.items))
        return None

    def _star(self, body: BodySeq, at: Position, env: Env) -> Iterator[Derivation]:
        # Iterations run in the repetition point's environment and export nothing.
        for at1, _env1, value1 in self._seq(body, at, env):
            for at2, _env2, chain in self._star(body, at1, env):
                yield at2, env, TermVal(CONS, (value1, chain))
        yield at, env, TermVal(NIL, ())

    def _call(self, call: Call, at: Position, env: Env) -> Iterator[Derivation]:
        args = tuple(eval_expr(a, env) for a in call.args)
        for clause in self.grammar.definitions_of(call.name):
            if len(clause.params) == len(args):
                callee_env = dict(zip(clause.params, args))
                for at1, _callee_env, value in self._seq(clause.body, at, callee_env):
                    yield at1, env, value

    def _element(
        self, el: ElementSpec, head: Element, rest: Position, env: Env
    ) -> Iterator[Derivation]:
        attr_env: Env = {}
        for var, attr in el.attrs:
            if attr not in head.attrs:
                return
            attr_env[var] = head.attrs[attr]
        inner = env_merge(env, attr_env)
        taken = (body for guard, body in el.guarded if eval_guard(guard, inner))
        for (_, i), env_c, value in self._seq(next(taken, el.else_body), (head, 0), inner):
            if i == len(head.children):
                yield rest, env_c, value

