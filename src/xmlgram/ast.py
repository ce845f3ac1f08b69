"""Abstract syntax for XML grammars.

A grammar is a list of clauses; a clause name may have several clauses
(alternative definitions).  Clause bodies are flat sequences of body items;
conjunction is juxtaposition, there is no explicit "and" node.  Wherever a
single syntactic slot can hold a conjunction (an ``Or`` branch, a ``Bind``
or ``Star`` body, an element branch) the slot holds a ``BodySeq`` tuple.

All nodes are slotted dataclasses: the parser and the normalizer build
thousands, and a slotted class with a plain ``__init__`` builds in under
half the time of a frozen one and keeps no ``__dict__``.  Nodes are
immutable by convention, as values and events are: nothing assigns a field
after construction, so equal nodes hash alike and can key a memo (see
``evaluate.compile_expr``).  Source spans are carried for diagnostics but
never participate in equality or hashing, so structural comparison of two
parses (or of a rewritten grammar against a reference parse) just uses
``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, NamedTuple, Optional, Tuple, Union


class SourceSpan(NamedTuple):
    """1-based line/column position plus the length of the offending text.

    A tuple, not a dataclass: the parser builds one per AST node."""

    line: int
    column: int
    length: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def _span_field():
    return field(default=None, compare=False, repr=False)


# --------------------------------------------------------------------------
# Expressions (guards, call arguments, action bodies)
# --------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class VarRef:
    name: str
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class StrLit:
    value: str
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class IntLit:
    value: int
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class BoolLit:
    value: bool
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class NullLit:
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Construct:
    """Constructor application ``Name(e, ...)`` building a term value.

    The constructor name ``addChild`` is reserved: it appends a value to an
    existing term's argument list instead of building a new ``addChild`` term.
    """

    ctor: str
    args: Tuple["Expr", ...]
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ListLit:
    items: Tuple["Expr", ...]
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ConsExpr:
    """``head : tail`` — sugar for the ``Cons`` term constructor."""

    head: "Expr"
    tail: "Expr"
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Fold:
    """Left fold ``over->iterate(elem acc = init | step)``.

    ``step`` is evaluated with ``elem`` bound to the current element and
    ``acc`` to the accumulator; its value becomes the next accumulator.
    """

    elem_var: str
    acc_var: str
    init: "Expr"
    step: "Expr"
    over: "Expr"
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Compare:
    """Structural (in)equality test; ``op`` is ``"="`` or ``"<>"``."""

    op: str
    left: "Expr"
    right: "Expr"
    span: Optional[SourceSpan] = _span_field()


Expr = Union[
    VarRef, StrLit, IntLit, BoolLit, NullLit, Construct, ListLit, ConsExpr, Fold, Compare
]


# --------------------------------------------------------------------------
# Clause bodies
# --------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class Or:
    """Disjunction of two or more body sequences, tried in source order.

    No branch is exactly one ``Or``: the parser splices ``a | (b | c)`` into
    ``a | b | c``, so an alternation has one form however it is grouped.
    """

    branches: Tuple["BodySeq", ...]
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Bind:
    """``names = body``; ``[a,b] = body`` splits a pair across two names."""

    names: Tuple[str, ...]
    body: "BodySeq"
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Star:
    """Repetition; the value is a Cons/Nil chain of the iteration values."""

    body: "BodySeq"
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Empty:
    """Asserts there are no further sibling nodes; yields null."""

    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Any:
    """Consumes one subtree (element or text) without inspecting it."""

    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Ok:
    """No-op; consumes nothing and yields null."""

    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Text:
    """Consumes one text node and yields its string."""

    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Call:
    name: str
    args: Tuple[Expr, ...] = ()
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Actions:
    """Synthesizing action; one expression yields its value, several a tuple."""

    exprs: Tuple[Expr, ...]
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ElementSpec:
    """Pattern matching one XML element.

    ``attrs`` is a sequence of ``(var_name, attr_name)`` pairs; the variables
    are bound to the element's attribute values and stay visible for the rest
    of the clause body.  ``guarded`` pairs a guard expression with a branch
    body; the first true guard wins, otherwise ``else_body`` runs.  The branch
    must consume all children of the element.
    """

    tag: str
    attrs: Tuple[Tuple[str, str], ...]
    guarded: Tuple[Tuple[Expr, "BodySeq"], ...]
    else_body: "BodySeq"
    span: Optional[SourceSpan] = _span_field()


Body = Union[Or, Bind, Star, Empty, Any, Ok, Text, Call, Actions, ElementSpec]
BodySeq = Tuple[Body, ...]


def bodies(item: Body) -> Tuple[BodySeq, ...]:
    """The body sequences directly inside a node, in source order."""
    if isinstance(item, Or):
        return item.branches
    if isinstance(item, (Bind, Star)):
        return (item.body,)
    if isinstance(item, ElementSpec):
        return tuple(body for _, body in item.guarded) + (item.else_body,)
    return ()


def walk(seq: BodySeq) -> Iterator[Body]:
    """Every item of ``seq`` and of the bodies nested in it, in source order
    (each item before the items inside it)."""
    stack = list(reversed(seq))
    while stack:
        item = stack.pop()
        yield item
        for body in reversed(bodies(item)):
            stack.extend(reversed(body))


@dataclass(slots=True, unsafe_hash=True)
class Clause:
    """One definition ``name(params) ::= body.`` of a rule."""

    name: str
    params: Tuple[str, ...]
    body: BodySeq
    span: Optional[SourceSpan] = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Grammar:
    """``loops`` names the rules that normalization lifted from a repetition
    (see ``normalize``); the machine runs a call to one as a loop.  It is a
    compilation hint, so it takes no part in equality."""

    name: str
    clauses: Tuple[Clause, ...]
    loops: FrozenSet[str] = field(default=frozenset(), compare=False, repr=False)

    def definitions_of(self, name: str) -> Tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.name == name)


# Constructor names used by the star rewrite and by the oracle's repetition
# semantics; both sides must agree for differential testing.
CONS = "Cons"
NIL = "Nil"
