"""Concrete grammar language: lexer and parser.

A grammar file looks like::

    @Grammar Models
      Attribute ::= <Attribute name type/> { Attribute(name,type) }.
      ClassElement ::= Attribute | Operation.
      ...
    end

Rule bodies are sequences of components: element specifications
``<Tag var=attr ...> ... </Tag>`` (self-closing ``<Tag .../>`` abbreviates a
body of ``OK``), rule calls ``Name`` / ``Name(args)``, bindings
``x = component`` / ``[x,y] = component``, repetition ``component*``,
alternation ``a | b``, actions ``{ expr, ... }``, and the keywords ``OK``,
``ANY``, ``EMPTY``, ``TEXT``.  Elements may carry guarded branches::

    <Tag attrs when guard1 > body1 when guard2 > body2 else bodyE </Tag>

Action expressions: variables (lowercase initial), constructors
``Name(...)`` or bare uppercase names, list literals ``Seq{...}``, string /
integer / ``true`` / ``false`` / ``null`` literals, comparison ``=`` / ``<>``,
cons ``head : tail``, folds ``over->iterate(elem acc = init | step)``, and
``term.add(value)`` which appends a child to a term.

Comments run from ``//`` to end of line.  An identifier is a letter or ``_``
followed by letters, digits, ``_`` and ``$``; an integer is an optional ``-``
followed by decimal digits; a string is ``"..."``, where ``\\n`` and ``\\t``
are a newline and a tab and a backslash before any other character stands for
that character.  A string ends at its line: one still open there is an error.
Identifiers containing ``$`` are reserved for generated names and rejected
unless ``allow_internal_names`` is set (the normalizer's output uses them).

A fixed token (a keyword, a punctuation mark or ``@Grammar``) is of the kind
named by its own text; the other kinds are IDENT, INT, STRING and EOF.  The
lexer splits the source with one ``findall`` into chunks, each a token with
the blanks and comments before it, and fills flat lists of token kinds,
texts, start offsets and lengths (``Tokens``) with maps over those lists, so
no Python code runs per token; only a chunk that neither its whole text nor
its first character classify (a string, a negative integer, a token after a
comment, a word that starts outside ASCII, or an error) is matched again on
its own.  A chunk that is not then one token holds an error, and the whole
source is lexed again one match at a time.  It makes no object per token.
The parser reads those lists by index, tests and consumes tokens in place on
its hot paths, and computes a ``SourceSpan`` from the offsets only for the
AST nodes and diagnostics that carry one.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter, sub
from typing import List, NoReturn, Optional, Tuple

from .ast import (
    Actions,
    Any,
    Bind,
    Body,
    BodySeq,
    BoolLit,
    Call,
    Clause,
    Compare,
    ConsExpr,
    Construct,
    ElementSpec,
    Empty,
    Expr,
    Fold,
    Grammar,
    IntLit,
    ListLit,
    NullLit,
    Ok,
    Or,
    SourceSpan,
    Star,
    StrLit,
    Text,
    VarRef,
)

@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: error: {self.message}"


class GrammarParseError(Exception):
    def __init__(self, diagnostics: List[ParseDiagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

# The fixed tokens, each of the kind named by its text.  Longer punctuation
# comes first, so "::=" wins over ":".
_KEYWORDS = ("end", "when", "else", "OK", "ANY", "EMPTY", "TEXT", "true", "false", "null")
_PUNCT = ("::=", "</", "/>", "<>", "->")
_PUNCT += ("<", ">", "=", "|", "*", "(", ")", "{", "}", "[", "]", ",", ".", ":")

# One match per token: the blanks, newlines and comments before it, then one
# alternative per token class.  The classes are told apart by their first
# character, except that "->" is PUNCT and "-1" is INT, and OTHER takes any
# character no other class does.  After the last token only EOF matches.  The
# blanks are one character class and each comment takes the blanks after it,
# so the prefix never backtracks.
_TOKEN = re.compile(
    r"""
    [ \t\r\n]* (?: //[^\n]* [ \t\r\n]* )*
    (?: (?P<PUNCT> %s )
      | (?P<IDENT> [^\W\d][\w$]* )
      | (?P<INT> -?\d+ )
      | (?P<STRING> " (?P<CHARS> (?: \\. | [^"\n] )* ) (?P<CLOSE> "? ) )
      | (?P<MARKER> @[\w$]* )
      | (?P<OTHER> . )
      | (?P<EOF> \Z )
    )
    """
    % "|".join(map(re.escape, _PUNCT)),
    re.VERBOSE,
)
# The same matches without groups, so that ``findall`` lists their texts.
_CHUNK = re.compile(re.sub(r"\(\?P<\w+>", "(?:", _TOKEN.pattern), re.VERBOSE)

# The kind of a token from its whole text, else from its first character;
# any other token (a string, a negative integer, one after a comment, an
# identifier that starts outside ASCII, or an error) is lexed again alone.
_BY_TEXT = {text: text for text in (*_PUNCT, *_KEYWORDS, "@Grammar")}
_BY_FIRST = dict.fromkeys(string.ascii_letters + "_", "IDENT") | dict.fromkeys(string.digits, "INT")
_BY_FIRST[""] = "EOF"
_first = itemgetter(slice(1))  # a text's first character, "" for EOF

_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself


def string_literal(text: str) -> str:
    """``text`` as a string literal that lexes back to it."""
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + escaped.replace("\n", "\\n").replace("\t", "\\t") + '"'


_NEWLINE = re.compile("\n")
_new_span = tuple.__new__  # builds a SourceSpan without its Python-level __new__


class Tokens:
    """A lexed grammar as parallel lists, one entry per token: its kind
    (IDENT, INT, STRING, EOF, or the text of a keyword, a punctuation mark or
    ``@Grammar``), its text (a string's characters with escapes resolved) and
    its start offset and length in the source.  They end in two EOF tokens,
    so the parser can look one token past the end.  A token's ``SourceSpan``
    is built only when asked for, from the offsets at which lines start."""

    __slots__ = ("kinds", "texts", "starts", "lengths", "line_starts")

    def __init__(self, source: str) -> None:
        self.kinds: List[str] = []
        self.texts: List[str] = []
        self.starts: List[int] = []
        self.lengths: List[int] = []
        self.line_starts = [0] + [m.end() for m in _NEWLINE.finditer(source)]

    def span(self, i: int) -> SourceSpan:
        start = self.starts[i]
        return self.span_at(start, start + self.lengths[i])

    def span_at(self, start: int, end: int) -> SourceSpan:
        line = bisect_right(self.line_starts, start)
        return _new_span(SourceSpan, (line, start - self.line_starts[line - 1] + 1, end - start))


def lex(source: str, diagnostics: List[ParseDiagnostic]) -> Tokens:
    """The tokens of ``source``; unknown characters and markers and
    unterminated strings are diagnostics, and an unknown one is no token.

    One ``findall`` splits the source into chunks, each a token with the
    blanks and comments before it, and maps over those lists give the
    kinds, texts and offsets, with no Python code per token.  A rare chunk,
    which neither its text nor its first character classify, is lexed again
    alone.  It is one token ending where the chunk ends unless it holds an
    error; then the diagnostics reported so far are dropped and the whole
    source is lexed again, one match at a time."""
    toks = Tokens(source)
    reported = len(diagnostics)
    eof = ("EOF", "", len(source), 0)
    chunks = _CHUNK.findall(source)
    texts = list(map(str.lstrip, chunks, repeat(" \t\r\n")))
    lengths = list(map(len, texts))
    starts = list(map(sub, accumulate(map(len, chunks)), lengths))  # each token ends its chunk
    del chunks  # the blanks and comments they hold are not kept
    kinds = list(map(_BY_TEXT.get, texts, map(_BY_FIRST.get, map(_first, texts), repeat("?"))))
    i = -1
    for _ in range(kinds.count("?")):
        i = kinds.index("?", i + 1)
        end = starts[i] + lengths[i]  # the chunk starts where the token before it ends
        tokens = _relex(source, starts[i - 1] + lengths[i - 1] if i else 0, end, toks, diagnostics)
        if len(tokens) != 1 or sum(tokens[0][2:]) != end:
            del diagnostics[reported:]
            tokens = _relex(source, 0, len(source), toks, diagnostics)
            kinds, texts, starts, lengths = map(list, zip(*tokens, eof))
            break
        kinds[i], texts[i], starts[i], lengths[i] = tokens[0]
    # The last token is an EOF; so is the one before it when the source ends
    # in blanks or a comment.  The lists end in exactly two.
    if len(kinds) == 1 or kinds[-2] != "EOF":
        for tokens, last in zip((kinds, texts, starts, lengths), eof):
            tokens.append(last)
    toks.kinds, toks.texts, toks.starts, toks.lengths = kinds, texts, starts, lengths
    return toks


def _relex(
    source: str, pos: int, end: int, toks: Tokens, diagnostics: List[ParseDiagnostic]
) -> List[Tuple[str, str, int, int]]:
    """The ``(kind, text, start, length)`` of each token of
    ``source[pos:end]``, which ends where a chunk ends, one match at a time."""
    tokens = []
    while pos < end:
        m = _TOKEN.match(source, pos)
        kind = m.lastgroup
        text = m[kind]
        start = m.start(kind)
        pos = m.end()
        if kind == "IDENT" and not (text[0].isalpha() or text[0] == "_"):
            # [^\W\d] also matches numerals such as '½'; they start no word
            kind, text, pos = "OTHER", text[0], start + 1
        kind = _BY_TEXT.get(text, kind)  # IDENT, INT, STRING and EOF are named by their group
        span = toks.span_at(start, pos)
        if kind == "STRING":
            if not m["CLOSE"]:
                diagnostics.append(ParseDiagnostic(span, "unterminated string literal"))
            text = _ESCAPE.sub(lambda e: _ESCAPED.get(e[1], e[1]), m["CHARS"])
        elif kind == "MARKER" or kind == "OTHER":
            what = "marker" if kind == "MARKER" else "character"
            diagnostics.append(ParseDiagnostic(span, f"unknown {what} {text!r}"))
            continue
        tokens.append((kind, text, start, pos - start))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# Keywords that are a whole rule body component.
KEYWORD_BODIES = {"OK": Ok, "ANY": Any, "EMPTY": Empty, "TEXT": Text}

# Tokens that may begin a body component.
_ITEM_START = {"<", "IDENT", "[", "(", "{", *KEYWORD_BODIES}

# Tokens that are a whole literal expression, built from text and span.
_LITERALS = {
    "STRING": lambda text, span: StrLit(text, span=span),
    "INT": lambda text, span: IntLit(int(text), span=span),
    "true": lambda text, span: BoolLit(True, span=span),
    "false": lambda text, span: BoolLit(False, span=span),
    "null": lambda text, span: NullLit(span=span),
}

# The deepest nesting of components (groups, elements, bindings) and
# expressions the parser accepts.  The parser and every later stage recurse
# once per level, so a grammar within the bound stays well inside Python's
# recursion limit, and a deeper one is a diagnostic, not a RecursionError.
MAX_NESTING = 100
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"


class _Parser:
    """Recursive descent over ``Tokens``.  A token is its index into the
    lists; the token helpers return indices, and ``span`` builds a token's
    ``SourceSpan`` for the AST node or diagnostic that needs one.  The
    methods run once per component or expression test and consume tokens
    in place, and count their nesting level, without calling a helper."""

    def __init__(self, toks: Tokens, diagnostics: List[ParseDiagnostic], allow_internal: bool):
        self.kinds = toks.kinds
        self.texts = toks.texts
        self.span = toks.span
        self.pos = 0  # never past the first of the two EOF tokens
        self.diagnostics = diagnostics
        self.allow_internal = allow_internal
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def next(self) -> int:
        """Consume the current token, which the caller has seen is not EOF."""
        self.pos += 1
        return self.pos - 1

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def accept(self, kind: str) -> Optional[int]:
        """Consume the current token if it is a ``kind``, which is never EOF."""
        pos = self.pos
        if self.kinds[pos] != kind:
            return None
        self.pos = pos + 1
        return pos

    def note(self, tok: int, message: str) -> None:
        """Report an error that does not stop the rule."""
        self.diagnostics.append(ParseDiagnostic(self.span(tok), message))

    def error(self, message: str, tok: Optional[int] = None) -> NoReturn:
        self.note(self.pos if tok is None else tok, message)
        raise _Bail()

    def unexpected(self, what: str) -> NoReturn:
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        got = string_literal(text) if kind == "STRING" else repr(text or kind)
        self.error(f"expected {what}, found {got}")

    def nest(self) -> None:
        """Enter one nesting level at the current token; the caller leaves
        it with ``self.depth -= 1``."""
        if self.depth == MAX_NESTING:
            self.error(_TOO_DEEP)
        self.depth += 1

    def expect(self, kind: str, what: Optional[str] = None) -> int:
        """Consume a ``kind`` token, else report that ``what`` (the kind's
        own text, quoted, by default) was expected."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.unexpected(what or f"'{kind}'")
        self.pos = pos + 1
        return pos

    def ident(self, what: str) -> str:
        """The text of an IDENT token, which is ``self.pos - 1`` after it."""
        pos = self.pos
        if self.kinds[pos] != "IDENT":
            self.unexpected(what)
        self.pos = pos + 1
        text = self.texts[pos]
        if "$" in text and not self.allow_internal:
            self.note(pos, f"identifier {text!r} uses reserved character '$'")
        return text

    def names(self, what: str, repeated: str, close: str) -> Tuple[str, ...]:
        """One or more comma-separated ``what`` identifiers, then ``close``;
        a name given twice is the diagnostic ``repeated``."""
        names: List[str] = []
        while not names or self.accept(",") is not None:
            name = self.ident(what)
            if name in names:
                self.note(self.pos - 1, f"{repeated} {name!r}")
            names.append(name)
        self.expect(close)
        return tuple(names)

    def exprs(self, close: str) -> Tuple[Expr, ...]:
        """Zero or more comma-separated expressions, then ``close``."""
        kinds = self.kinds
        items: List[Expr] = []
        if kinds[self.pos] != close:
            items.append(self.parse_expr())
            while kinds[self.pos] == ",":
                self.pos += 1
                items.append(self.parse_expr())
        self.expect(close)
        return tuple(items)

    # -- grammar ------------------------------------------------------------

    def parse_grammar(self) -> Grammar:
        self.expect("@Grammar")
        name = self.ident("grammar name")
        clauses: List[Clause] = []
        while self.accept("end") is None:
            if self.at("EOF"):
                self.error("unterminated grammar: expected 'end'")
            try:
                clauses.append(self.parse_clause())
            except _Bail:
                self.depth = 0
                self.resync()
        if not self.at("EOF"):
            self.note(self.pos, "trailing input after 'end'")
        return Grammar(name, tuple(clauses))

    def resync(self) -> None:
        """Skip past the '.' that ends the broken rule, so later rules still
        get checked.  That is the next '.' followed by 'end', EOF or a rule
        head; the '.' of a ``.add(...)`` call is not one."""
        while not self.at("EOF") and not self.at("end"):
            if self.kinds[self.next()] == "." and self.at_rule_head():
                return

    def at_rule_head(self) -> bool:
        """Whether ``Name ::=`` or ``Name(p, ...) ::=`` starts here."""
        kinds, i = self.kinds, self.pos
        if kinds[i] != "IDENT":
            return False
        i += 1
        if kinds[i] == "(":
            i += 1
            while kinds[i] in ("IDENT", ","):
                i += 1
            if kinds[i] != ")":
                return False
            i += 1
        return kinds[i] == "::="

    def parse_clause(self) -> Clause:
        name = self.ident("rule name")
        span = self.span(self.pos - 1)
        params: Tuple[str, ...] = ()
        if self.accept("(") is not None and self.accept(")") is None:  # "()": no names
            params = self.names("parameter name", "duplicate parameter", ")")
        self.expect("::=")
        body = self.parse_alternation()
        self.expect(".", "'.' at end of rule")
        return Clause(name, params, body, span=span)

    # -- bodies ---------------------------------------------------------------

    def parse_alternation(self) -> BodySeq:
        """Sequences separated by ``|``, spanning the first ``|``.  A branch
        that is exactly one parenthesised alternation splices its branches
        in, so ``a | (b | c)`` and ``a | b | c`` parse to the same node."""
        branches = [self.parse_sequence()]
        pipe = self.pos
        while self.accept("|") is not None:
            branches.append(self.parse_sequence())
        if len(branches) == 1:
            return branches[0]
        flat: List[BodySeq] = []
        for branch in branches:
            nested = len(branch) == 1 and isinstance(branch[0], Or)
            flat.extend(branch[0].branches if nested else (branch,))
        first = branches[0]  # in ``(a | b) | c`` the first ``|`` is inside
        nested = len(first) == 1 and isinstance(first[0], Or)
        return (Or(tuple(flat), span=first[0].span if nested else self.span(pipe)),)

    def parse_sequence(self) -> BodySeq:
        kinds = self.kinds
        items: List[Body] = []
        while kinds[self.pos] in _ITEM_START:
            items.extend(self.parse_component())
        return tuple(items)

    def parse_component(self) -> BodySeq:
        """One component, which the caller has seen starts with an
        ``_ITEM_START`` token, spliced into the surrounding sequence.

        Groups ``( ... )`` without a ``*`` flatten into the sequence; starred
        groups become a single ``Star`` item spanning the ``*``.  Each
        component is one nesting level.
        """
        if self.depth == MAX_NESTING:
            self.error(_TOO_DEEP)
        self.depth += 1
        kinds = self.kinds
        pos = self.pos
        kind = kinds[pos]
        if kind == "IDENT" and kinds[pos + 1] != "=":
            seq: BodySeq = (self.parse_call(),)
        elif kind == "IDENT" or kind == "[":
            seq = (self.parse_bind(),)
        elif kind == "<":
            seq = (self.parse_element(),)
        elif kind == "{":
            self.pos = pos + 1
            seq = (Actions(self.exprs("}"), span=self.span(pos)),)
        elif kind == "(":
            self.pos = pos + 1
            seq = self.parse_alternation()
            self.expect(")")
        else:  # a keyword body
            self.pos = pos + 1
            seq = (KEYWORD_BODIES[kind](span=self.span(pos)),)
        self.depth -= 1
        star = self.pos
        if kinds[star] == "*":
            self.pos = star + 1
            return (Star(seq, span=self.span(star)),)
        return seq

    def parse_bind(self) -> Bind:
        span = self.span(self.pos)
        if self.accept("[") is not None:
            names = self.names("binding name", "duplicate binding name", "]")
        else:
            names = (self.ident("binding name"),)
        self.expect("=")
        if self.kinds[self.pos] not in _ITEM_START:
            self.unexpected("a component after '='")
        return Bind(names, self.parse_component(), span=span)

    def parse_call(self) -> Call:
        name = self.ident("rule name")
        span = self.span(self.pos - 1)
        args = self.exprs(")") if self.accept("(") is not None else ()
        return Call(name, args, span=span)

    def parse_element(self) -> ElementSpec:
        kinds = self.kinds
        span = self.span(self.next())
        tag = self.ident("element tag")
        attrs: List[Tuple[str, str]] = []
        while kinds[self.pos] == "IDENT":
            var_tok = self.pos
            var = attr_name = self.ident("attribute name")
            if kinds[self.pos] == "=":
                self.pos += 1
                attr_name = self.ident("attribute name")
            if attrs and any(var == seen for seen, _ in attrs):
                self.note(var_tok, f"duplicate attribute variable {var!r}")
            attrs.append((var, attr_name))

        guarded: List[Tuple[Expr, BodySeq]] = []
        else_body: BodySeq = ()
        kind = kinds[self.pos]
        if kind == "/>":
            # <Tag attrs/> is shorthand for <Tag attrs> OK </Tag>.
            self.pos += 1
            return ElementSpec(tag, tuple(attrs), (), (Ok(),), span=span)
        if kind == "when":
            while self.accept("when") is not None:
                guard = self.parse_expr()
                self.expect(">", "'>' after guard")
                guarded.append((guard, self.parse_alternation()))
            if self.accept("else") is not None:
                else_body = self.parse_alternation()
        else:
            self.expect(">", "'>' or '/>'")
            else_body = self.parse_alternation()
        self.expect("</")
        close = self.ident("closing tag")
        if close != tag:
            self.note(self.pos - 1, f"mismatched closing tag </{close}> for <{tag}>")
        self.expect(">")
        return ElementSpec(tag, tuple(attrs), tuple(guarded), else_body, span=span)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        """A postfix expression, or a comparison of two, then ``: tail``."""
        if self.depth == MAX_NESTING:
            self.error(_TOO_DEEP)
        self.depth += 1
        kinds = self.kinds
        expr = self.parse_postfix_expr()
        kind = kinds[self.pos]
        if kind == "=" or kind == "<>":
            self.pos += 1
            expr = Compare(kind, expr, self.parse_postfix_expr())
        if kinds[self.pos] == ":":
            self.pos += 1
            expr = ConsExpr(expr, self.parse_expr())
        self.depth -= 1
        return expr

    def parse_postfix_expr(self) -> Expr:
        expr = self.parse_atom()
        depth = self.depth  # each method application nests the expression a level
        while True:
            kind = self.kinds[self.pos]
            if kind == "->":
                self.nest()
                self.next()
                expr = self.parse_iterate(expr)
            elif kind == "." and self.kinds[self.pos + 1] == "IDENT":
                self.nest()
                self.next()
                method = self.ident("method name")
                method_tok = self.pos - 1
                if method != "add":
                    self.error(f"unknown method {method!r} (only .add is supported)", method_tok)
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                expr = Construct("addChild", (expr, arg), span=self.span(method_tok))
            else:
                self.depth = depth
                return expr

    def parse_iterate(self, over: Expr) -> Fold:
        kw = self.ident("'iterate'")
        kw_tok = self.pos - 1
        if kw != "iterate":
            self.error(f"expected 'iterate' after '->', found {kw!r}", kw_tok)
        self.expect("(")
        elem = self.ident("element variable")
        acc = self.ident("accumulator variable")
        self.expect("=")
        init = self.parse_expr()
        self.expect("|")
        step = self.parse_expr()
        self.expect(")")
        return Fold(elem, acc, init, step, over, span=self.span(kw_tok))

    def parse_atom(self) -> Expr:
        kinds = self.kinds
        tok = self.pos
        kind = kinds[tok]
        if kind == "IDENT":
            if kinds[tok + 1] == "{" and self.texts[tok] == "Seq":
                self.pos = tok + 2
                return ListLit(self.exprs("}"), span=self.span(tok))
            name = self.ident("name")
            if kinds[tok + 1] == "(":
                self.pos = tok + 2
                return Construct(name, self.exprs(")"), span=self.span(tok))
            # Bare names: uppercase initial means a zero-argument constructor
            # (the usual style for term names), lowercase a variable.
            if name[0].isupper():
                return Construct(name, (), span=self.span(tok))
            return VarRef(name, span=self.span(tok))
        if kind in _LITERALS:
            self.pos = tok + 1
            try:
                return _LITERALS[kind](self.texts[tok], self.span(tok))
            except ValueError:  # int() takes at most sys.get_int_max_str_digits() digits
                self.error("integer literal has too many digits", tok)
        if kind == "(":
            self.pos = tok + 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        self.unexpected("an expression")


class _Bail(Exception):
    """Internal: abandon the current rule and resynchronize."""


def try_parse_grammar(
    source: str, *, allow_internal_names: bool = False
) -> Tuple[Optional[Grammar], List[ParseDiagnostic]]:
    """Parse; returns (grammar-or-None, diagnostics in source order).

    The grammar is None exactly when a diagnostic was issued.
    """
    diagnostics: List[ParseDiagnostic] = []
    parser = _Parser(lex(source, diagnostics), diagnostics, allow_internal_names)
    grammar: Optional[Grammar] = None
    try:
        grammar = parser.parse_grammar()
    except _Bail:
        pass
    # The lexer reports before the parser runs; interleave the two by position.
    diagnostics.sort(key=lambda d: (d.span.line, d.span.column))
    if diagnostics:
        return None, diagnostics
    return grammar, diagnostics


def parse_grammar(source: str, *, allow_internal_names: bool = False) -> Grammar:
    """Parse a grammar, raising GrammarParseError with all diagnostics on failure."""
    grammar, diagnostics = try_parse_grammar(source, allow_internal_names=allow_internal_names)
    if grammar is None:
        raise GrammarParseError(diagnostics)
    return grammar
