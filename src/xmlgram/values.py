"""Synthesized values and variable environments.

A string value is the plain ``str`` that the reader hands over: the machine
pushes text and binds attributes without copying or wrapping them, and a
``str`` holds no references, so the garbage collector never tracks or walks
it.  Integers and booleans keep wrapper classes, because Python's own
``True == 1`` and ``hash(True) == hash(1)`` would merge the two kinds:
``BoolVal(True) != IntVal(1)``, and neither equals a string.

The other values are slotted dataclasses: a parse builds one or two per
event, and a slotted class with a plain ``__init__`` builds in a third to a
half of the time of a frozen one (which assigns each field through
``object.__setattr__``) and keeps no ``__dict__``.  They are immutable by
convention, like environments: nothing assigns a field after construction,
so equal values hash alike and can sit in sets.  Equality is structural.

Environments are plain ``dict[str, Value]`` used immutably by convention:
every extension builds a new dict (``env_merge``), nothing mutates in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Tuple, Union


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


Value = Union[str, IntVal, BoolVal, NullVal, TermVal, ListVal, TupleVal]

_VALUE_TYPES = (str, IntVal, BoolVal, NullVal, TermVal, ListVal, TupleVal)

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


# Both renderers are one walk over the value with an explicit work stack, so
# arbitrarily deep values render; they differ only in the texts they emit.
# The stack holds the values still to render and the text due between and
# after them (separators and closing brackets), which is wrapped in a
# ``_Text`` so that one ``type`` test tells it from a string value.  A
# compound value emits its opening text, then falls through to push its
# closing text and its items.  Strings are quoted by the C function that
# ``json.dumps`` itself calls for a ``str``.  The texts of a constructor are
# built once per render, not once per term.  The pieces are joined into one
# string whenever ``_CHUNK`` of them have piled up, so the output is never
# held as many small objects and the peak stays near twice its length.  The
# check is skipped after a ``_Text``, whose text is shared: a run of them is
# no longer than the work stack that held them.

_CHUNK = 4096


class _Text:
    """Literal text on a renderer's work stack."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


_COMMA, _COMMA_SPACE = _Text(","), _Text(", ")
_CLOSE_PAREN, _CLOSE_BRACKET, _CLOSE_TUPLE = _Text(")"), _Text("]"), _Text("]}")


def render_term(value: Value) -> str:
    """Canonical textual form: ``Ctor(arg,...)``, ``[a,b]``, ``(a,b)``, ``null``."""
    return _render(value, _term_texts, _COMMA, "(", _CLOSE_PAREN)


def render_json(value: Value) -> str:
    """JSON text: terms are ``{"args": [...], "ctor": ...}``, tuples are
    ``{"tuple": [...]}``; the same text as ``json.dumps(..., sort_keys=True)``."""
    return _render(value, _json_texts, _COMMA_SPACE, '{"tuple": [', _CLOSE_TUPLE)


def _term_texts(ctor: str) -> Tuple[str, _Text, str]:
    """A term's opening and closing text, and its text without arguments."""
    return ctor + "(", _CLOSE_PAREN, ctor


def _json_texts(ctor: str) -> Tuple[str, _Text, str]:
    closing = '], "ctor": ' + _quote(ctor) + "}"
    return '{"args": [', _Text(closing), '{"args": [' + closing


def _render(value: Value, term_texts, separator: _Text, tuple_open: str, tuple_close: _Text) -> str:
    chunks: List[str] = []
    out: List[str] = []
    emit = out.append
    terms: Dict[str, Tuple[str, _Text, str]] = {}  # ``term_texts`` by constructor
    stack: list = [value]
    push, pop = stack.append, stack.pop
    while stack:
        v = pop()
        kind = type(v)
        if kind is _Text:
            emit(v.text)
            continue
        if len(out) >= _CHUNK:
            chunks.append("".join(out))
            out.clear()
        if kind is str:
            emit(_quote(v))
            continue
        if kind is TermVal:
            items = v.args
            texts = terms.get(v.ctor)
            if texts is None:
                texts = terms[v.ctor] = term_texts(v.ctor)
            if not items:
                emit(texts[2])
                continue
            emit(texts[0])
            push(texts[1])
        elif kind is ListVal:
            items = v.items
            emit("[")
            push(_CLOSE_BRACKET)
        elif kind is TupleVal:
            items = v.items
            emit(tuple_open)
            push(tuple_close)
        else:
            emit(_leaf(v))
            continue
        if items:
            i = len(items) - 1
            while i:
                push(items[i])
                push(separator)
                i -= 1
            push(items[0])
    chunks.append("".join(out))
    out.clear()  # its pieces need not outlive the final join
    return "".join(chunks)


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
