"""XML trees, SAX events, and lookahead tokens.

``build_tree`` rebuilds the tree an event sequence came from, for the
tree-based reference interpreter.  An event takes one of three forms, as
cheap as the reader can make them: a start tag is the plain pair ``(tag,
attrs)``, an end tag is the tag's name, a ``str``, and a text run is a
``TextEvt``, a slotted dataclass as the values are.  Consumers tell them
apart with ``type(event) is tuple`` or ``str``.  The reader hands out one
``str`` for every end tag of a name, so events must stay immutable.
``Token`` is the lookahead alphabet of the predict tables: start tags, end
tags, text, and a wildcard for ``ANY`` patterns; the string forms of tokens
are defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple, Union


@dataclass(frozen=True)
class Element:
    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)
    children: Tuple["XmlTree", ...] = ()


@dataclass(frozen=True)
class TextNode:
    text: str


XmlTree = Union[Element, TextNode]


@dataclass(slots=True)
class TextEvt:
    text: str


StartEvent = Tuple[str, Dict[str, str]]  # (tag, attrs)
SaxEvent = Union[StartEvent, str, TextEvt]  # a str is an end tag


# Lookahead tokens are strings that no XML name can take: a start tag is its
# name, an end tag is "/" + name, text is "#text" and the ANY wildcard "*".
Token = str
TEXT_TOKEN = "#text"
ANY_TOKEN = "*"

# Reserved tag wrapped around every document so end-of-input is just another
# end tag; '$' cannot occur in an XML name or a grammar identifier.
END_SENTINEL = "$"
END_OF_INPUT = "/" + END_SENTINEL


def end_token(tag: str) -> Token:
    return "/" + tag


def is_end_token(token: Token) -> bool:
    return token[0] == "/"


def token_of_event(event: str | TextEvt | None) -> Token:
    """Lookahead token for an event other than a start tag, whose token is
    its tag and which callers take inline; exhausted input reads as /$ ."""
    if event is None:
        return END_OF_INPUT
    if type(event) is str:
        return "/" + event
    return TEXT_TOKEN


def token_label(token: Token) -> str:
    """How tables and messages print a token: text as TEXT, the wildcard as ANY."""
    if token == TEXT_TOKEN:
        return "TEXT"
    if token == ANY_TOKEN:
        return "ANY"
    return token


def token_sort_key(token: Token):
    """Tags by name, each start tag before its end tag, then TEXT, then ANY."""
    if token == TEXT_TOKEN:
        return (1, "", 0)
    if token == ANY_TOKEN:
        return (2, "", 0)
    if is_end_token(token):
        return (0, token[1:], 1)
    return (0, token, 0)


def build_tree(events: Iterable[SaxEvent]) -> XmlTree:
    """Reconstruct the tree a well-nested event sequence came from.

    Iterative, with the open elements on a stack, so any depth builds."""
    it = iter(events)
    open_elements: List[Tuple[StartEvent, List[XmlTree]]] = []
    for event in it:
        kind = type(event)
        if kind is tuple:
            open_elements.append((event, []))
            continue
        if kind is TextEvt:
            node: XmlTree = TextNode(event.text)
        elif not open_elements:
            raise ValueError(f"unexpected end tag {event}")
        else:
            (tag, attrs), children = open_elements.pop()
            if event != tag:
                raise ValueError(f"mismatched end tag /{event} inside {tag}")
            node = Element(tag, dict(attrs), tuple(children))
        if not open_elements:
            leftover = next(it, None)
            if leftover is not None:
                raise ValueError(f"trailing event after document: {leftover!r}")
            return node
        open_elements[-1][1].append(node)
    if open_elements:
        raise ValueError(f"unterminated element {open_elements[-1][0][0]}")
    raise ValueError("empty event stream")
