"""XML trees, SAX events, and lookahead tokens.

``flatten_tree`` linearizes a tree into events (the bridge between the
tree-based reference interpreter and the event-based engine); ``build_tree``
is its inverse.  ``Token`` is the lookahead alphabet of the predict tables:
start tags, end tags, text, and a wildcard for ``ANY`` patterns; the
string forms of tokens are defined here.
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


@dataclass(frozen=True)
class StartTag:
    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class EndTag:
    tag: str


@dataclass(frozen=True)
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


def token_of_event(event: SaxEvent | None) -> Token:
    """Lookahead token for the next event; exhausted input reads as /$ ."""
    if event is None:
        return END_OF_INPUT
    kind = type(event)
    if kind is StartTag:
        return event.tag
    if kind is EndTag:
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


def flatten_tree(tree: XmlTree) -> List[SaxEvent]:
    """Pre-order event linearization of a tree.

    Iterative: the stack holds the nodes still to visit and the end tags of
    the open elements, so any depth flattens."""
    out: List[SaxEvent] = []
    stack: List[Union[XmlTree, EndTag]] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Element):
            out.append(StartTag(node.tag, dict(node.attrs)))
            stack.append(EndTag(node.tag))
            stack.extend(reversed(node.children))
        elif isinstance(node, TextNode):
            out.append(TextEvt(node.text))
        else:
            out.append(node)  # the end tag of an element whose children are done
    return out


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


def _escape(text: str, quote: bool = False) -> str:
    # A reader normalises a literal \r (and, in attribute values, \t and \n)
    # away; character references survive that normalisation.
    out = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")
    if quote:
        out = out.replace('"', "&quot;").replace("\t", "&#9;").replace("\n", "&#10;")
    return out


def serialize_tree(tree: XmlTree) -> str:
    """Render a tree as XML text that the streaming reader parses back.

    Iterative like ``flatten_tree``; closing tags wait on the stack as text."""
    parts: List[str] = []
    stack: List[Union[XmlTree, str]] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, TextNode):
            parts.append(_escape(node.text))
        else:
            attrs = "".join(f' {k}="{_escape(v, quote=True)}"' for k, v in node.attrs.items())
            if node.children:
                parts.append(f"<{node.tag}{attrs}>")
                stack.append(f"</{node.tag}>")
                stack.extend(reversed(node.children))
            else:
                parts.append(f"<{node.tag}{attrs}/>")
    return "".join(parts)
