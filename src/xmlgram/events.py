"""XML trees, SAX events, and lookahead tokens.

``build_tree`` rebuilds the tree an event sequence came from, for the
tree-based reference interpreter.  The event classes are slotted
dataclasses, as the values are: the reader builds one per start tag and
text run, and a slotted class with a plain ``__init__`` is cheaper to build
than a frozen one and keeps no ``__dict__``.  The reader makes one
``EndTag`` per distinct tag name and hands out that same object for every
end tag of the name, so events must stay immutable; nothing assigns a
field after construction.  ``Token`` is the lookahead alphabet of
the predict tables: start tags, end tags, text, and a wildcard for ``ANY``
patterns; the string forms of tokens are defined here.
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
class StartTag:
    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class EndTag:
    tag: str


@dataclass(slots=True)
class TextEvt:
    text: str


SaxEvent = Union[StartTag, EndTag, TextEvt]


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


def token_of_event(event: EndTag | TextEvt | None) -> Token:
    """Lookahead token for an event other than a start tag, whose token is
    its ``tag`` and which callers take inline; exhausted input reads as /$ ."""
    if event is None:
        return END_OF_INPUT
    if type(event) is EndTag:
        return "/" + event.tag
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
    open_elements: List[Tuple[StartTag, List[XmlTree]]] = []
    for event in it:
        if isinstance(event, StartTag):
            open_elements.append((event, []))
            continue
        if isinstance(event, TextEvt):
            node: XmlTree = TextNode(event.text)
        elif not open_elements:
            raise ValueError(f"unexpected end tag {event.tag}")
        else:
            start, children = open_elements.pop()
            if event.tag != start.tag:
                raise ValueError(f"mismatched end tag /{event.tag} inside {start.tag}")
            node = Element(start.tag, dict(start.attrs), tuple(children))
        if not open_elements:
            leftover = next(it, None)
            if leftover is not None:
                raise ValueError(f"trailing event after document: {leftover!r}")
            return node
        open_elements[-1][1].append(node)
    if open_elements:
        raise ValueError(f"unterminated element {open_elements[-1][0].tag}")
    raise ValueError("empty event stream")
