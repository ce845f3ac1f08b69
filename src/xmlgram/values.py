"""Synthesized values and variable environments.

A string value is the plain ``str`` that the reader hands over: the machine
pushes text and binds attributes without copying or wrapping them, and a
``str`` holds no references, so the garbage collector never tracks or walks
it.  Integers and booleans keep wrapper classes, because Python's own
``True == 1`` and ``hash(True) == hash(1)`` would merge the two kinds:
``BoolVal(True) != IntVal(1)``, and neither equals a string.

The other values are slotted dataclasses: a parse can build one for each
event, and a slotted class with a plain ``__init__`` builds in a third to a
half of the time of a frozen one (which assigns each field through
``object.__setattr__``) and keeps no ``__dict__``.  They are immutable by
convention, like environments: nothing assigns a field after construction,
so equal values hash alike and can sit in sets.  Equality is structural.

A repetition's value is a ``Cons``/``Nil`` chain of its items.  The machine
holds it as one ``ConsList``, a tuple of the items that shows itself as the
chain's first cell to every reader (CDR-coding: Hansen, "Compact list
representation", CACM 1969), so a long list costs one tuple, not one term
and one argument tuple per item.

Environments are plain ``dict[str, Value]`` used immutably by convention:
every extension builds a new dict (``env_merge``), nothing mutates in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Dict, List, Tuple, Union

from .ast import CONS, NIL


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
            if type(a) is ConsList and type(b) is ConsList:  # no cell to make
                return a.items[a.start :] == b.items[b.start :]
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


class ConsList(TermVal):
    """The ``Cons``/``Nil`` chain of ``items[start:]``, held as one tuple.

    To every reader it is the chain's first cell: ``ctor`` is ``"Cons"`` and
    ``args`` is ``(items[start], ConsList(items, start + 1))``, or past the
    last item ``"Nil"`` and ``()``.  Equality and hashing are ``TermVal``'s,
    so it equals, and hashes like, the chain built one term per cell.
    """

    __slots__ = ("items", "start")

    def __init__(self, items: Tuple["Value", ...], start: int = 0) -> None:
        self.items = items
        self.start = start

    @property
    def ctor(self) -> str:
        return CONS if self.start < len(self.items) else NIL

    @property
    def args(self) -> Tuple["Value", ...]:
        i = self.start
        return (self.items[i], ConsList(self.items, i + 1)) if i < len(self.items) else ()

    def __repr__(self) -> str:
        # Flat: the dataclass ``repr`` would recurse once per cell.
        return f"ConsList({self.items[self.start:]!r})"


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
# built once per render, not once per term.  The text goes to a ``write``
# callable in chunks: whenever ``_CHUNK`` pieces have piled up they are
# joined, the list is emptied, and the chunk is written.  A writer that keeps
# nothing, such as ``xmlgram parse`` writing to stdout, so holds about two
# chunks at a time, not the output; ``render_term`` and ``render_json`` keep
# the chunks and join them once, so their peak is about twice the output.
# The limit counts pieces, not characters, so each piece costs one length
# test: 256 pieces are about 0.25 MB in a list of 2 KB strings, and a few
# kilobytes on short fields.  The check follows each ``_Text``: every value
# but the root is followed by one (its separator or its container's closing
# text), so there are as many checks as values, and a run of closing texts,
# such as the end of a long ``Cons`` chain, is cut into chunks as well.

_CHUNK = 256


class _Text:
    """Literal text on a renderer's work stack."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


_COMMA, _COMMA_SPACE = _Text(","), _Text(", ")
_CLOSE_PAREN, _CLOSE_BRACKET, _CLOSE_TUPLE = _Text(")"), _Text("]"), _Text("]}")


def render_term(value: Value) -> str:
    """Canonical textual form: ``Ctor(arg,...)``, ``[a,b]``, ``(a,b)``, ``null``."""
    return _joined(value, "term")


def render_json(value: Value) -> str:
    """JSON text: terms are ``{"args": [...], "ctor": ...}``, tuples are
    ``{"tuple": [...]}``; the same text as ``json.dumps(..., sort_keys=True)``."""
    return _joined(value, "json")


def _term_texts(ctor: str) -> Tuple[str, _Text, str]:
    """A term's opening and closing text, and its text without arguments."""
    return ctor + "(", _CLOSE_PAREN, ctor


def _json_texts(ctor: str) -> Tuple[str, _Text, str]:
    closing = '], "ctor": ' + _quote(ctor) + "}"
    return '{"args": [', _Text(closing), '{"args": [' + closing


# Per format: a constructor's texts, the separator, and a tuple's brackets.
_FORMATS = {
    "term": (_term_texts, _COMMA, "(", _CLOSE_PAREN),
    "json": (_json_texts, _COMMA_SPACE, '{"tuple": [', _CLOSE_TUPLE),
}


def write_value(value: Value, fmt: str, write: Callable[[str], object]) -> None:
    """Pass the text of ``render_term`` (``fmt`` "term") or ``render_json``
    ("json") to ``write`` in consecutive chunks of about ``_CHUNK`` pieces."""
    term_texts, separator, tuple_open, tuple_close = _FORMATS[fmt]
    # A ``ConsList``'s texts: between two items, and after the last one.
    cons_open, cons_close, _ = term_texts(CONS)
    nil = term_texts(NIL)[2]
    cons_next, cons_last = _Text(separator.text + cons_open), _Text(separator.text + nil)
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
            if len(out) >= _CHUNK:
                write(_take(out))
            continue
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
        elif kind is ConsList:
            # Bottom to top: each cell's closing, the text after the last
            # item, then each item under the text before it, the first on top.
            items = v.items[v.start :]
            if not items:
                emit(nil)
                continue
            emit(cons_open)
            stack.extend(repeat(cons_close, len(items)))
            push(cons_last)
            stack.extend(chain.from_iterable(zip(reversed(items), repeat(cons_next, len(items) - 1))))
            push(items[0])
            continue
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
    write(_take(out))


def _joined(value: Value, fmt: str) -> str:
    chunks: List[str] = []
    write_value(value, fmt, chunks.append)
    return "".join(chunks)


def _take(pieces: List[str]) -> str:
    """The pieces joined, the list emptied: the caller then holds one copy."""
    text = "".join(pieces)
    pieces.clear()
    return text


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
