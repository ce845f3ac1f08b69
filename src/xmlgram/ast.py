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
``evaluate.compile_expr``).  Every node but ``Grammar`` derives from
``_Node``, which declares the one field they share: a source span for
diagnostics, passed by keyword (``span=``), that never participates in
equality, hashing or ``repr``, so structural comparison of two parses (or
of a rewritten grammar against a reference parse) just uses ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, NamedTuple, Optional, Tuple, Union


class SourceSpan(NamedTuple):
    """1-based line/column position plus the length of the offending text.

    A tuple, not a dataclass: the parser builds one per AST node."""

    line: int
    column: int
    length: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(slots=True, unsafe_hash=True)
class _Node:
    """The base of every node but ``Grammar``: a source span, for
    diagnostics, that takes no part in ``==``, ``hash`` or ``repr``."""

    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False, kw_only=True)


# --------------------------------------------------------------------------
# Expressions (guards, call arguments, action bodies)
# --------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class VarRef(_Node):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class StrLit(_Node):
    value: str


@dataclass(slots=True, unsafe_hash=True)
class IntLit(_Node):
    value: int


@dataclass(slots=True, unsafe_hash=True)
class BoolLit(_Node):
    value: bool


@dataclass(slots=True, unsafe_hash=True)
class NullLit(_Node):
    pass


@dataclass(slots=True, unsafe_hash=True)
class Construct(_Node):
    """Constructor application ``Name(e, ...)`` building a term value.

    The constructor name ``addChild`` is reserved: it appends a value to an
    existing term's argument list instead of building a new ``addChild`` term.
    """

    ctor: str
    args: Tuple["Expr", ...]


@dataclass(slots=True, unsafe_hash=True)
class ListLit(_Node):
    items: Tuple["Expr", ...]


@dataclass(slots=True, unsafe_hash=True)
class ConsExpr(_Node):
    """``head : tail`` — sugar for the ``Cons`` term constructor."""

    head: "Expr"
    tail: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Fold(_Node):
    """Left fold ``over->iterate(elem acc = init | step)``.

    ``step`` is evaluated with ``elem`` bound to the current element and
    ``acc`` to the accumulator; its value becomes the next accumulator.
    """

    elem_var: str
    acc_var: str
    init: "Expr"
    step: "Expr"
    over: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Compare(_Node):
    """Structural (in)equality test; ``op`` is ``"="`` or ``"<>"``."""

    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[
    VarRef, StrLit, IntLit, BoolLit, NullLit, Construct, ListLit, ConsExpr, Fold, Compare
]


# --------------------------------------------------------------------------
# Clause bodies
# --------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class Or(_Node):
    """Disjunction of two or more body sequences, tried in source order.

    No branch is exactly one ``Or``: the parser splices ``a | (b | c)`` into
    ``a | b | c``, so an alternation has one form however it is grouped.
    """

    branches: Tuple["BodySeq", ...]


@dataclass(slots=True, unsafe_hash=True)
class Bind(_Node):
    """``names = body``; ``[a,b] = body`` splits a pair across two names."""

    names: Tuple[str, ...]
    body: "BodySeq"


@dataclass(slots=True, unsafe_hash=True)
class Star(_Node):
    """Repetition; the value is a Cons/Nil chain of the iteration values."""

    body: "BodySeq"


@dataclass(slots=True, unsafe_hash=True)
class Empty(_Node):
    """Asserts there are no further sibling nodes; yields null."""


@dataclass(slots=True, unsafe_hash=True)
class Any(_Node):
    """Consumes one subtree (element or text) without inspecting it."""


@dataclass(slots=True, unsafe_hash=True)
class Ok(_Node):
    """No-op; consumes nothing and yields null."""


@dataclass(slots=True, unsafe_hash=True)
class Text(_Node):
    """Consumes one text node and yields its string."""


@dataclass(slots=True, unsafe_hash=True)
class Call(_Node):
    name: str
    args: Tuple[Expr, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class Actions(_Node):
    """Synthesizing action; one expression yields its value, several a tuple."""

    exprs: Tuple[Expr, ...]


@dataclass(slots=True, unsafe_hash=True)
class ElementSpec(_Node):
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


Body = Union[Or, Bind, Star, Empty, Any, Ok, Text, Call, Actions, ElementSpec]
BodySeq = Tuple[Body, ...]


def walk(seq: BodySeq) -> List[Body]:
    """Every item of ``seq`` and of the bodies nested in it, in source order
    (each item before the items inside it).  A plain loop over one stack of
    pending items, not a generator: the checks call it on every clause."""
    out: List[Body] = []
    stack = list(reversed(seq))
    pop, extend = stack.pop, stack.extend
    while stack:
        item = pop()
        out.append(item)
        kind = type(item)
        if kind is Bind or kind is Star:
            extend(reversed(item.body))
        elif kind is ElementSpec:
            extend(reversed(item.else_body))
            for _, body in reversed(item.guarded):
                extend(reversed(body))
        elif kind is Or:
            for body in reversed(item.branches):
                extend(reversed(body))
    return out


@dataclass(slots=True, unsafe_hash=True)
class Clause(_Node):
    """One definition ``name(params) ::= body.`` of a rule."""

    name: str
    params: Tuple[str, ...]
    body: BodySeq


@dataclass(slots=True, unsafe_hash=True)
class Grammar:
    """``loops`` names the rules that normalization lifted from a repetition
    (see ``normalize``); the machine runs a call to one as a loop.  It is a
    compilation hint, so it takes no part in equality."""

    name: str
    clauses: Tuple[Clause, ...]
    loops: FrozenSet[str] = field(default=frozenset(), compare=False, repr=False)


# Constructor names used by the star rewrite and by the oracle's repetition
# semantics; both sides must agree for differential testing.
CONS = "Cons"
NIL = "Nil"
