"""Streaming XML reader on CPython's bundled expat parser.

Supported: elements, attributes, character data, character and the five
predefined entity references, comments (skipped) and an XML declaration
(skipped).  DOCTYPE, CDATA, processing instructions, namespace-prefixed
names and a declared encoding that expat cannot use (unknown, or
multi-byte other than UTF-8 and UTF-16) raise UnsupportedFeature; anything
expat rejects raises MalformedXml with the line and column expat reports.

The source is a string or a file, read ``_CHUNK`` characters (text file) or
bytes (binary file, whose declared encoding expat honours) at a time.  Each
chunk is pushed through expat into a list of events, and iteration chains
those lists (``itertools.chain.from_iterable``): the consumer's ``next``
stays in C, and the reader's own code resumes once per chunk, not once per
event.  A chunk's events are handed out before the next chunk is read, so
reader state stays bounded by nesting depth and one chunk no matter how
long the document is (``max_window`` records the largest chunk).  The one
exception is a single token, such as a comment or a start tag, that expat
must hold whole until it ends: past ``MAX_TOKEN`` characters fed without
expat's position moving, the reader stops with MalformedXml.  Whitespace-only
text is dropped unless ``keep_whitespace`` is set; text runs separated by
comments or chunk boundaries coalesce into one event.

Events take three forms (see ``events``): a start tag is the pair
``(tag, attrs)``, an end tag is its name, a ``str``, and a text run is a
``TextEvt``.  While no text is pending, the end-tag handler is the event
list's own ``append``, a C method, so an end tag runs no Python frame and
is the name expat interned, one ``str`` per name.  Pending text installs a
flushing end handler, and the flush puts ``append`` back.  When the input
ends, the reader drops its parser and handlers, which refer to each other,
so no parse, finished or failed, leaves a reference cycle to collect.

Where expat's rules are the XML 1.0 rules and differ from a bare tokenizer,
they are kept and pinned in tests/test_sax.py: character references are
decoded, attribute values normalise tabs and line ends to spaces, ``\\r\\n``
in text reads as ``\\n``, a leading byte order mark is skipped; control
characters, ``]]>`` in text, ``--`` inside a comment, a misplaced or empty
XML declaration and attributes with no space between them are rejected.
"""

from __future__ import annotations

import io
import re
from itertools import chain
from typing import IO, Iterator, List, Optional, Tuple, Union
from xml.parsers import expat

from .events import SaxEvent, TextEvt

# Characters (or bytes) read and parsed per step.  Events are buffered per
# chunk, so a larger chunk costs memory proportional to its size.
_CHUNK = 1 << 13

# Characters (or bytes) the reader feeds while expat's position stands still,
# that is while expat holds one unfinished token, before it gives up.  It sits
# well above one chunk, because expat 2.6 and later defer re-parsing a large
# token until its buffer has about doubled.
MAX_TOKEN = 1 << 20

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")

# Our wording for expat errors that tests and users match on.
_MESSAGES = {
    expat.errors.codes[expat.errors.XML_ERROR_TAG_MISMATCH]: "mismatched end tag",
    expat.errors.codes[expat.errors.XML_ERROR_NO_ELEMENTS]: "unexpected end of input",
}


class XmlReadError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class MalformedXml(XmlReadError):
    pass


class UnsupportedFeature(XmlReadError):
    pass


class SaxReader:
    """Pull events one at a time from a string or file source."""

    def __init__(self, source: Union[str, IO], keep_whitespace: bool = False):
        if isinstance(source, str):
            source = io.StringIO(source)
        self._source = source
        self.max_window = 0
        self._encoding: Optional[str] = None  # the one the XML declaration names
        self._parser = parser = expat.ParserCreate()
        parser.buffer_text = True
        self._events: List[SaxEvent] = []
        emit = self._events.append
        text: List[str] = []
        interned = parser.intern  # every element and attribute name expat has reported
        checked = 0  # how many of those names start tags have checked

        def error(message: str, cls=MalformedXml) -> XmlReadError:
            return cls(message, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

        def check_name(name: str) -> None:
            if ":" in name:
                raise error(f"namespace-prefixed name {name!r} is not supported", UnsupportedFeature)
            if _NAME_RE.fullmatch(name) is None:
                raise error(f"invalid name {name!r}")

        def characters(data: str) -> None:
            if not text:
                parser.EndElementHandler = flush
            text.append(data)

        def flush(end: Optional[str] = None) -> None:
            """Emit the pending text, then, as the end handler, the end tag."""
            parser.EndElementHandler = emit
            joined = "".join(text)
            text.clear()
            if keep_whitespace or not joined.isspace():
                emit(TextEvt(joined))
            if end is not None:
                emit(end)  # expat has already matched it with its start tag

        def start(tag: str, attrs: dict) -> None:
            nonlocal checked
            if text:
                flush()
            if len(interned) != checked:  # a name new to expat, in this start tag
                check_name(tag)
                for name in attrs:
                    check_name(name)
                checked = len(interned)
            emit((tag, attrs))

        def declaration(version: str, encoding: Optional[str], standalone: int) -> None:
            self._encoding = encoding

        def unsupported(what: str):
            def handler(*_):
                raise error(f"{what} are not supported", UnsupportedFeature)

            return handler

        # Character data comes first: dropping its handler at the end hands
        # expat's buffered text to it, which may install ``flush``.
        handlers = {
            "CharacterDataHandler": characters,
            "StartElementHandler": start,
            "EndElementHandler": emit,
            "XmlDeclHandler": declaration,
            "StartDoctypeDeclHandler": unsupported("DOCTYPE declarations"),
            "StartCdataSectionHandler": unsupported("CDATA sections"),
            "ProcessingInstructionHandler": unsupported("processing instructions"),
        }
        for name, handler in handlers.items():
            setattr(parser, name, handler)
        self._stream = chain.from_iterable(self._chunks(tuple(handlers)))

    def _chunks(self, handlers: Tuple[str, ...]) -> Iterator[List[SaxEvent]]:
        """Each chunk's events, in one list that is refilled per chunk;
        ``handlers`` names the parser's handlers, which are dropped at the end."""
        read, events, parser = self._source.read, self._events, self._parser
        final = False
        stalled, at = 0, None  # characters fed since expat's position last moved
        try:
            while not final:
                chunk = read(_CHUNK)
                final = not chunk
                if len(chunk) > self.max_window:
                    self.max_window = len(chunk)
                error = self._feed(chunk, final)
                if parser.CurrentByteIndex != at:
                    stalled, at = 0, parser.CurrentByteIndex
                else:
                    stalled += len(chunk)
                    if stalled > MAX_TOKEN and error is None:
                        error = MalformedXml(
                            f"token longer than {MAX_TOKEN} characters",
                            parser.CurrentLineNumber,
                            parser.CurrentColumnNumber + 1,
                        )
                # The chain hands out the whole list before it resumes this
                # generator, so events before an error still reach the
                # consumer first, and a grammar failure earlier in the
                # document is reported as such.
                yield events
                events.clear()
                if error is not None:
                    try:
                        raise error
                    finally:
                        error = None  # the error's traceback holds this frame: no cycle
        finally:
            # The handlers refer to the parser and it to them: break the cycle.
            for name in handlers:
                setattr(parser, name, None)
            self._parser = None

    def _feed(self, chunk: Union[str, bytes], final: bool) -> Optional[XmlReadError]:
        """Push one chunk through expat; the error it ended with, if any."""
        parser = self._parser
        try:
            parser.Parse(chunk, final)
        except expat.ExpatError as exc:
            message = _MESSAGES.get(exc.code) or expat.ErrorString(exc.code)
            return MalformedXml(message, exc.lineno, exc.offset + 1)
        except XmlReadError as exc:
            return exc
        except UnicodeEncodeError as exc:
            # A lone surrogate in a string source: parse up to it, report it there.
            return self._feed(chunk[: exc.start], False) or MalformedXml(
                f"character {exc.object[exc.start]!r} cannot be encoded",
                parser.CurrentLineNumber,
                parser.CurrentColumnNumber + 1,
            )
        except (LookupError, ValueError):  # expat asked Python for the declared encoding
            message = f"encoding {self._encoding!r} is not supported"  # unknown, or multi-byte
            return UnsupportedFeature(message, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)
        return None

    def __iter__(self) -> Iterator[SaxEvent]:
        return self._stream


def read_events(source: Union[str, IO], keep_whitespace: bool = False) -> Iterator[SaxEvent]:
    return iter(SaxReader(source, keep_whitespace=keep_whitespace))
