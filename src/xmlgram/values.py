"""Synthesized values and variable environments.

Values are slotted dataclasses: a parse builds one or two per event, and a
slotted class with a plain ``__init__`` builds in a third to a half of the
time of a frozen one (which assigns each field through
``object.__setattr__``) and keeps no ``__dict__``.  They are immutable by
convention, like environments: nothing assigns a field after construction,
so equal values hash alike and can sit in sets.  Equality is structural, and wrapper classes (rather than
raw ``str``/``int``) keep the kinds distinct: ``BoolVal(True) != IntVal(1)``
even though ``True == 1`` in Python.

Environments are plain ``dict[str, Value]`` used immutably by convention:
every extension builds a new dict (``env_merge``), nothing mutates in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Tuple, Union


@dataclass(slots=True, unsafe_hash=True)
class StrVal:
    value: str


@dataclass(slots=True, unsafe_hash=True)
class IntVal:
    value: int


@dataclass(slots=True, unsafe_hash=True)
class BoolVal:
    value: bool


@dataclass(slots=True, unsafe_hash=True)
class NullVal:
    pass


@dataclass(slots=True, eq=False)
class TermVal:
    ctor: str
    args: Tuple["Value", ...] = ()

    # Structural equality, iterative along the last argument so that long
    # Cons/Nil chains (repetition results) do not hit the recursion limit.
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        a, b = self, other
        while True:
            if not isinstance(b, TermVal):
                return NotImplemented if b.__class__ not in _VALUE_TYPES else False
            if a.ctor != b.ctor or len(a.args) != len(b.args):
                return False
            if not a.args:
                return True
            if a.args[:-1] != b.args[:-1]:
                return False
            last_a, last_b = a.args[-1], b.args[-1]
            if isinstance(last_a, TermVal) and isinstance(last_b, TermVal):
                if last_a is last_b:
                    return True
                a, b = last_a, last_b
                continue
            return last_a == last_b

    def __hash__(self) -> int:
        # Shallow on purpose: deep chains would recurse. Fine as a hash.
        return hash((self.ctor, len(self.args)))


@dataclass(slots=True, unsafe_hash=True)
class ListVal:
    items: Tuple["Value", ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class TupleVal:
    """Result of an action with more than one expression."""

    items: Tuple["Value", ...]


Value = Union[StrVal, IntVal, BoolVal, NullVal, TermVal, ListVal, TupleVal]

_VALUE_TYPES = (StrVal, IntVal, BoolVal, NullVal, TermVal, ListVal, TupleVal)

NULL = NullVal()

Env = Dict[str, Value]


def env_merge(a: Env, b: Env) -> Env:
    """Union of two environments; names in both take ``b``'s value."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    merged = dict(a)
    merged.update(b)
    return merged


# Both renderers walk the value with an explicit work stack, so arbitrarily
# deep values render.  The stack holds the values still to render and the
# text due between and after them (separators and closing brackets).  A
# compound value emits its opening text, then falls through to push its
# closing text and its items.  Strings are quoted by the C function that
# ``json.dumps`` itself calls for a ``str``.


def render_term(value: Value) -> str:
    """Canonical textual form: ``Ctor(arg,...)``, ``[a,b]``, ``(a,b)``, ``null``."""
    out: List[str] = []
    emit = out.append
    stack: list = [value]
    push, pop = stack.append, stack.pop
    while stack:
        v = pop()
        kind = type(v)
        if kind is str:
            emit(v)
            continue
        if kind is StrVal:
            emit(_quote(v.value))
            continue
        if kind is TermVal:
            items = v.args
            if not items:
                emit(v.ctor)
                continue
            emit(v.ctor + "(")
            push(")")
        elif kind is ListVal:
            items = v.items
            emit("[")
            push("]")
        elif kind is TupleVal:
            items = v.items
            emit("(")
            push(")")
        else:
            emit(_leaf(v))
            continue
        if items:
            i = len(items) - 1
            while i:
                push(items[i])
                push(",")
                i -= 1
            push(items[0])
    return "".join(out)


def render_json(value: Value) -> str:
    """JSON text: terms are ``{"args": [...], "ctor": ...}``, tuples are
    ``{"tuple": [...]}``; the same text as ``json.dumps(..., sort_keys=True)``."""
    out: List[str] = []
    emit = out.append
    stack: list = [value]
    push, pop = stack.append, stack.pop
    while stack:
        v = pop()
        kind = type(v)
        if kind is str:
            emit(v)
            continue
        if kind is StrVal:
            emit(_quote(v.value))
            continue
        if kind is TermVal:
            items = v.args
            emit('{"args": [')
            push('], "ctor": ' + _quote(v.ctor) + "}")
        elif kind is ListVal:
            items = v.items
            emit("[")
            push("]")
        elif kind is TupleVal:
            items = v.items
            emit('{"tuple": [')
            push("]}")
        else:
            emit(_leaf(v))
            continue
        if items:
            i = len(items) - 1
            while i:
                push(items[i])
                push(", ")
                i -= 1
            push(items[0])
    return "".join(out)


def _leaf(v: Value) -> str:
    """The text of an int, boolean or null, the same in both notations."""
    kind = type(v)
    if kind is IntVal:
        return str(v.value)
    if kind is BoolVal:
        return "true" if v.value else "false"
    if kind is NullVal:
        return "null"
    raise TypeError(f"not a value: {v!r}")
