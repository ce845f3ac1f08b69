"""Streaming XML reader on CPython's bundled expat parser.

Supported: elements, attributes, character data, character and the five
predefined entity references, comments (skipped) and an XML declaration
(skipped).  DOCTYPE, CDATA, processing instructions and namespace-prefixed
names raise UnsupportedFeature; anything expat rejects raises MalformedXml
with the line and column expat reports.

The source is a string or a file, read ``_CHUNK`` characters (text file) or
bytes (binary file, whose declared encoding expat honours) at a time.  Each
chunk is pushed through expat and its events are handed out before the next
chunk is read, so reader state stays bounded by nesting depth and one chunk
no matter how long the document is (``max_window`` records the largest
chunk).  Whitespace-only text is dropped unless ``keep_whitespace`` is set;
text runs separated by comments or chunk boundaries coalesce into one event.

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
from typing import IO, Iterator, List, Optional, Union
from xml.parsers import expat

from .events import EndTag, SaxEvent, StartTag, TextEvt

# Characters (or bytes) read and parsed per step.  Events are buffered per
# chunk, so a larger chunk costs memory proportional to its size.
_CHUNK = 1 << 13

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
        self._parser = parser = expat.ParserCreate()
        parser.buffer_text = True
        self._events: List[SaxEvent] = []
        emit = self._events.append
        text: List[str] = []
        names = set()

        def error(message: str, cls=MalformedXml) -> XmlReadError:
            return cls(message, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

        def check_name(name: str) -> None:
            if ":" in name:
                raise error(f"namespace-prefixed name {name!r} is not supported", UnsupportedFeature)
            if _NAME_RE.fullmatch(name) is None:
                raise error(f"invalid name {name!r}")
            names.add(name)

        def flush() -> None:
            joined = "".join(text)
            text.clear()
            if keep_whitespace or not joined.isspace():
                emit(TextEvt(joined))

        def start(tag: str, attrs: dict) -> None:
            if text:
                flush()
            if tag not in names:
                check_name(tag)
            for name in attrs:
                if name not in names:
                    check_name(name)
            emit(StartTag(tag, attrs))

        def end(tag: str) -> None:
            if text:
                flush()
            emit(EndTag(tag))

        def unsupported(what: str):
            def handler(*_):
                raise error(f"{what} are not supported", UnsupportedFeature)

            return handler

        parser.StartElementHandler = start
        parser.EndElementHandler = end
        parser.CharacterDataHandler = text.append
        parser.StartDoctypeDeclHandler = unsupported("DOCTYPE declarations")
        parser.StartCdataSectionHandler = unsupported("CDATA sections")
        parser.ProcessingInstructionHandler = unsupported("processing instructions")
        self._stream = self._read()

    def _read(self) -> Iterator[SaxEvent]:
        read, events = self._source.read, self._events
        final = False
        while not final:
            chunk = read(_CHUNK)
            final = not chunk
            if len(chunk) > self.max_window:
                self.max_window = len(chunk)
            error = self._feed(chunk, final)
            # Events before an error still reach the consumer first, so a
            # grammar failure earlier in the document is reported as such.
            yield from events
            events.clear()
            if error is not None:
                raise error

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
        return None

    def __iter__(self) -> Iterator[SaxEvent]:
        return self._stream


def read_events(source: Union[str, IO], keep_whitespace: bool = False) -> Iterator[SaxEvent]:
    return iter(SaxReader(source, keep_whitespace=keep_whitespace))
