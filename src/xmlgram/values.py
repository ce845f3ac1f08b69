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
every extension builds a new dict, nothing mutates in place.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        if not isinstance(other, TermVal):
            return NotImplemented if other.__class__ not in _VALUE_TYPES else False
        a, b = self, other
        while True:
            if type(a) is ConsList or type(b) is ConsList:  # index its tuple, make no cell
                return _holds(a, b) if type(a) is ConsList else _holds(b, a)
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


def _holds(compact: ConsList, node: "Value") -> bool:
    """Whether ``node`` is the ``Cons``/``Nil`` chain of ``compact``'s items:
    its cells are walked while the tuple is indexed, so no tail is made."""
    items, i = compact.items, compact.start
    while type(node) is not ConsList:
        if not isinstance(node, TermVal):
            return False
        if i == len(items):
            return node.ctor == NIL and not node.args
        args = node.args
        if node.ctor != CONS or len(args) != 2 or args[0] != items[i]:
            return False
        node, i = args[1], i + 1
    return items[i:] == node.items[node.start :]


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
EMPTY_CONS = ConsList(())  # the value of every empty repetition, shared as NULL is

Env = Dict[str, Value]


# Both renderers are one walk over the value with an explicit work stack, so
# arbitrarily deep values render; they differ only in the texts they emit.
# The stack holds the values still to render, the text due between and after
# them, wrapped in a ``_Text`` so that one ``type`` test tells it from a
# string value, and a ``_Cursor`` for each ``ConsList`` under way, so the
# stack grows with the value's nesting depth, not with a list's length.
# Strings are quoted by the C function that ``json.dumps`` itself calls.
#
# The text goes to ``write`` by one rule: the pieces go whenever ``_CHUNK``
# have piled up; a run of at most ``_CHUNK // 2`` string items of a
# ``ConsList`` goes as soon as it is joined, and a finished ``ConsList``'s
# closing texts in batches of at most ``_CHUNK``, each after the pieces piled
# up before it; no empty string goes.  A writer that keeps nothing, such as
# ``xmlgram parse`` writing to stdout, so holds about one chunk at a time.

_CHUNK = 256


class _Text:
    """Literal text on a renderer's work stack."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class _Cursor:
    """A ``ConsList`` under way on a renderer's work stack: its items from
    ``k`` on are still to render, then the closing texts of its ``cells``."""

    __slots__ = ("items", "k", "cells")

    def __init__(self, items: Tuple["Value", ...], k: int) -> None:
        self.items, self.k, self.cells = items, k, len(items) - k


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
    ("json") to ``write`` in consecutive chunks, by the rule above."""
    term_texts, separator, tuple_open, tuple_close = _FORMATS[fmt]
    # A ``ConsList``'s texts: its first cell's opening, the text between two
    # items, the text after the last one, and the closing text of a cell.
    cons_open, closing, _ = term_texts(CONS)
    nil, cons_close = term_texts(NIL)[2], closing.text
    cons_next, cons_last = separator.text + cons_open, separator.text + nil
    after = (_Text(cons_next), _Text(cons_last))  # by whether the item is the last
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
        if kind is _Cursor:
            items, k = v.items, v.k
            if k < len(items) and type(items[k]) is not str:
                push(v)
                v.k = k + 1
                push(after[v.k == len(items)])
                push(items[k])
                continue
            if out:
                write(_take(out))
            if k == len(items):
                for n in range(v.cells, 0, -_CHUNK):
                    write(cons_close * min(n, _CHUNK))
                continue
            push(v)
            j, end = k + 1, min(len(items), k + _CHUNK // 2)
            while j < end and type(items[j]) is str:
                j += 1
            write(cons_next.join(map(_quote, items[k:j])))
            emit(cons_last if j == len(items) else cons_next)
            v.k = j
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
            if v.start == len(v.items):
                emit(nil)
            else:
                emit(cons_open)
                push(_Cursor(v.items, v.start))
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
    if out:
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
