"""Backtracking reference interpreter over materialized XML trees.

This is the executable form of the declarative grammar-satisfaction
relation: it enumerates every derivation of a body over a sequence of
trees, threading environments left to right.  It handles alternation and
repetition directly (no normalization required) and is deliberately naive —
its job is to be obviously correct so the table-driven engine can be tested
against it.

A derivation yields ``(remaining_trees, env, value)``.  Notable semantics,
shared with the engine:

* a sequence's value is its last component's value (null when empty);
* ``EMPTY`` only matches when no sibling trees remain;
* ``ANY`` consumes one subtree and yields null;
* repetition yields a Cons/Nil chain, longest match enumerated first, and
  an iteration must consume input (a nullable repetition body would
  otherwise admit infinitely many derivations);
* the first true guard picks an element's branch, the else branch when
  none holds;
* element branches must consume every child of the element, and a declared
  attribute that is missing on the element makes the match fail;
* a rule may re-enter itself at the same input position only a bounded
  number of times, so unproductive (left-)recursion terminates instead of
  looping; derivations that would need deeper unproductive wrapping are not
  enumerated.
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
)
from .evaluate import eval_actions, eval_expr, eval_guard
from .events import Element, TextNode, XmlTree
from .values import NULL, Env, StrVal, TermVal, TupleVal, Value, env_merge

DEFAULT_MAX_STEPS = 10_000

# How often one rule may be re-entered at one input position on a single
# derivation path before the search cuts the branch.
MAX_REENTRY = 2

Trees = Tuple[XmlTree, ...]
Derivation = Tuple[Trees, Env, Value]


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
        self._entries: dict = {}

    def satisfy(self, body: BodySeq, trees: Trees, env: Env) -> Iterator[Derivation]:
        self._steps = 0
        return self._seq(body, tuple(trees), dict(env))

    def accepts(self, start_rule: str, doc: XmlTree, args: Tuple[Value, ...] = ()) -> OracleResult:
        """Distinct values derivable for the document; first-found is canonical."""
        self._steps = 0
        defs = [
            c for c in self.grammar.definitions_of(start_rule) if len(c.params) == len(args)
        ]
        values: List[Value] = []
        try:
            for clause in defs:
                call_env = dict(zip(clause.params, args))
                for remaining, _env, value in self._seq(clause.body, (doc,), call_env):
                    if remaining:
                        continue
                    if value not in values:
                        values.append(value)
        except RecursionError:
            # The search recurses once per nesting level of grammar and document.
            raise OracleLimitExceeded("derivation nests deeper than the recursion limit") from None
        return OracleResult(values[0] if values else None, tuple(values))

    # -- derivation enumeration ------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise OracleLimitExceeded(f"more than {self.max_steps} derivation steps")

    def _seq(self, items: BodySeq, trees: Trees, env: Env) -> Iterator[Derivation]:
        if not items:
            yield trees, env, NULL
            return
        head, rest = items[0], items[1:]
        for trees1, env1, value1 in self._item(head, trees, env):
            if not rest:
                yield trees1, env1, value1
            else:
                yield from self._seq(rest, trees1, env1)

    def _item(self, item: Body, trees: Trees, env: Env) -> Iterator[Derivation]:
        self._tick()
        if isinstance(item, Or):
            for branch in item.branches:
                yield from self._seq(branch, trees, env)
        elif isinstance(item, Bind):
            for trees1, env1, value in self._seq(item.body, trees, env):
                bound = self._bind_names(item.names, value)
                if bound is None:
                    continue
                yield trees1, env_merge(env1, bound), value
        elif isinstance(item, Star):
            yield from self._star(item.body, trees, env)
        elif isinstance(item, Empty):
            if not trees:
                yield trees, env, NULL
        elif isinstance(item, Any):
            if trees:
                yield trees[1:], env, NULL
        elif isinstance(item, Ok):
            yield trees, env, NULL
        elif isinstance(item, Text):
            if trees and isinstance(trees[0], TextNode):
                yield trees[1:], env, StrVal(trees[0].text)
        elif isinstance(item, Call):
            yield from self._call(item, trees, env)
        elif isinstance(item, Actions):
            yield trees, env, eval_actions(item.exprs, env)
        elif isinstance(item, ElementSpec):
            yield from self._element(item, trees, env)
        else:
            raise TypeError(f"not a body item: {item!r}")

    @staticmethod
    def _bind_names(names: Tuple[str, ...], value: Value) -> Optional[Env]:
        if len(names) == 1:
            return {names[0]: value}
        if isinstance(value, TupleVal) and len(value.items) == len(names):
            return dict(zip(names, value.items))
        return None

    def _star(self, body: BodySeq, trees: Trees, env: Env) -> Iterator[Derivation]:
        # Iterations all run in the repetition-point environment and export
        # no bindings, mirroring the recursive-clause expansion the grammar
        # rewriter produces.
        for trees1, _env1, value1 in self._seq(body, trees, env):
            if len(trees1) == len(trees):
                continue
            for trees2, _env2, chain in self._star(body, trees1, env):
                yield trees2, env, TermVal(CONS, (value1, chain))
        yield trees, env, TermVal(NIL, ())

    def _call(self, call: Call, trees: Trees, env: Env) -> Iterator[Derivation]:
        # Identity of the remaining-trees tuple pins an input position: an
        # unproductive cycle hands the same object back to the same rule,
        # while any consumption (or a new sibling list) makes a fresh tuple.
        key = (call.name, id(trees))
        if self._entries.get(key, 0) >= MAX_REENTRY:
            return
        args = tuple(eval_expr(a, env) for a in call.args)
        self._entries[key] = self._entries.get(key, 0) + 1
        try:
            for clause in self.grammar.definitions_of(call.name):
                if len(clause.params) != len(args):
                    continue
                callee_env = dict(zip(clause.params, args))
                for trees1, _callee_env, value in self._seq(clause.body, trees, callee_env):
                    yield trees1, env, value
        finally:
            self._entries[key] -= 1

    def _element(self, el: ElementSpec, trees: Trees, env: Env) -> Iterator[Derivation]:
        if not trees:
            return
        head = trees[0]
        if not isinstance(head, Element) or head.tag != el.tag:
            return
        attr_env: Env = {}
        for var, attr in el.attrs:
            if attr not in head.attrs:
                return
            attr_env[var] = StrVal(head.attrs[attr])
        inner = env_merge(env, attr_env)
        children = tuple(head.children)
        rest = trees[1:]

        taken = (body for guard, body in el.guarded if eval_guard(guard, inner))
        for remaining, env_c, value in self._seq(next(taken, el.else_body), children, inner):
            if not remaining:
                yield rest, env_c, value


def satisfy(
    grammar: Grammar,
    body: BodySeq,
    trees,
    env: Env,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Iterator[Derivation]:
    return Oracle(grammar, max_steps=max_steps).satisfy(body, tuple(trees), env)


def accepts(
    grammar: Grammar,
    start_rule: str,
    doc: XmlTree,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> OracleResult:
    return Oracle(grammar, max_steps=max_steps).accepts(start_rule, doc)
