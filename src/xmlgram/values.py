"""Synthesized values and variable environments.

Values are immutable and hashable, and equality is structural.  Wrapper
classes (rather than raw ``str``/``int``) keep the kinds distinct:
``BoolVal(True) != IntVal(1)`` even though ``True == 1`` in Python.

Environments are plain ``dict[str, Value]`` used immutably by convention:
every extension builds a new dict (``env_merge``), nothing mutates in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union


@dataclass(frozen=True)
class StrVal:
    value: str


@dataclass(frozen=True)
class IntVal:
    value: int


@dataclass(frozen=True)
class BoolVal:
    value: bool


@dataclass(frozen=True)
class NullVal:
    pass


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True)
class ListVal:
    items: Tuple["Value", ...] = ()


@dataclass(frozen=True)
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



def render_term(value: Value) -> str:
    """Canonical textual form: ``Ctor(arg,...)``, ``[a,b]``, ``(a,b)``, ``null``."""
    return _render(value, _term_layout)


def render_json(value: Value) -> str:
    """JSON text: terms are ``{"args": [...], "ctor": ...}``, tuples are
    ``{"tuple": [...]}``; the same text as ``json.dumps(..., sort_keys=True)``."""
    return _render(value, _json_layout)


# A layout gives a leaf value's text, or a compound value's opening text,
# children, separator and closing text.
Layout = Union[str, Tuple[str, Tuple["Value", ...], str, str]]


def _term_layout(v: Value) -> Layout:
    if isinstance(v, StrVal):
        return json.dumps(v.value)
    if isinstance(v, IntVal):
        return str(v.value)
    if isinstance(v, BoolVal):
        return "true" if v.value else "false"
    if isinstance(v, NullVal):
        return "null"
    if isinstance(v, TermVal):
        return (v.ctor + "(", v.args, ",", ")") if v.args else v.ctor
    if isinstance(v, ListVal):
        return ("[", v.items, ",", "]")
    if isinstance(v, TupleVal):
        return ("(", v.items, ",", ")")
    raise TypeError(f"not a value: {v!r}")


def _json_layout(v: Value) -> Layout:
    if isinstance(v, (StrVal, IntVal, BoolVal)):
        return json.dumps(v.value)
    if isinstance(v, NullVal):
        return "null"
    if isinstance(v, TermVal):
        return ('{"args": [', v.args, ", ", '], "ctor": ' + json.dumps(v.ctor) + "}")
    if isinstance(v, ListVal):
        return ("[", v.items, ", ", "]")
    if isinstance(v, TupleVal):
        return ('{"tuple": [', v.items, ", ", "]}")
    raise TypeError(f"not a value: {v!r}")


def _render(value: Value, layout: Callable[[Value], Layout]) -> str:
    """Iterative with an explicit work stack, so arbitrarily deep values render."""
    out = []
    stack: list = [value]
    while stack:
        v = stack.pop()
        if type(v) is str:
            out.append(v)
            continue
        shape = layout(v)
        if type(shape) is str:
            out.append(shape)
            continue
        opening, children, sep, closing = shape
        out.append(opening)
        stack.append(closing)
        for i, child in enumerate(reversed(children)):
            if i:
                stack.append(sep)
            stack.append(child)
    return "".join(out)
