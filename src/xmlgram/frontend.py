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

The lexer matches one regular expression once per token, the blanks and
comments before the token included, and fills flat lists of token kinds,
texts and source offsets (``Tokens``); it makes no object per token.  The
parser reads those lists by index and computes a ``SourceSpan`` from the
offsets only for the AST nodes and diagnostics that carry one.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
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

# Each keyword is its own kind.
_KEYWORDS = {
    kw: kw for kw in ("end", "when", "else", "OK", "ANY", "EMPTY", "TEXT", "true", "false", "null")
}

_PUNCT = {
    "::=": "COLONEQ",
    "</": "LTSLASH",
    "/>": "SLASHGT",
    "<>": "NEQ",
    "->": "ARROW",
    "<": "LT",
    ">": "GT",
    "=": "EQ",
    "|": "PIPE",
    "*": "STAR",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACK",
    "]": "RBRACK",
    ",": "COMMA",
    ".": "DOT",
    ":": "COLON",
}

# One match per token: the blanks, newlines and comments before it, then one
# alternative per token class.  The classes are told apart by their first
# character, except that "->" is PUNCT and "-1" is INT, and OTHER takes any
# character no other class does.  Longer punctuation comes first, so "::="
# wins over ":".  After the last token only EOF matches.
_TOKEN = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* )*
    (?: (?P<PUNCT> %s )
      | (?P<IDENT> [^\W\d][\w$]* )
      | (?P<INT> -?\d+ )
      | (?P<STRING> " (?P<CHARS> (?: \\. | [^"\n] )* ) (?P<CLOSE> "? ) )
      | (?P<MARKER> @[\w$]* )
      | (?P<OTHER> . )
      | (?P<EOF> \Z )
    )
    """
    % "|".join(re.escape(text) for text in sorted(_PUNCT, key=len, reverse=True)),
    re.VERBOSE,
)

_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself

_NEWLINE = re.compile("\n")


class Tokens:
    """A lexed grammar as parallel lists, one entry per token: its kind
    (IDENT, INT, STRING, ATGRAMMAR, EOF, a keyword or a ``_PUNCT`` name), its
    text (a string's characters with escapes resolved) and its start and end
    offsets in the source.  They end in two EOF tokens, so the parser can look
    one token past the end.  A token's ``SourceSpan`` is built only when asked
    for, from the offsets at which lines start."""

    __slots__ = ("kinds", "texts", "starts", "ends", "line_starts")

    def __init__(self, source: str) -> None:
        self.kinds: List[str] = []
        self.texts: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.line_starts = [0] + [m.end() for m in _NEWLINE.finditer(source)]

    def span(self, i: int) -> SourceSpan:
        return self.span_at(self.starts[i], self.ends[i])

    def span_at(self, start: int, end: int) -> SourceSpan:
        line = bisect_right(self.line_starts, start)
        return SourceSpan(line, start - self.line_starts[line - 1] + 1, end - start)


def lex(source: str, diagnostics: List[ParseDiagnostic]) -> Tokens:
    """The tokens of ``source``; unknown characters and markers and
    unterminated strings are diagnostics, and an unknown one is no token."""
    toks = Tokens(source)
    kinds, texts, starts, ends = toks.kinds, toks.texts, toks.starts, toks.ends
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(source, pos)
        group = m.lastgroup
        text = m[group]
        start = m.start(group)
        pos = m.end()
        if group == "PUNCT":
            kind = _PUNCT[text]
        elif group == "IDENT" and (text[0].isalpha() or text[0] == "_"):
            kind = _KEYWORDS.get(text, "IDENT")
        elif group == "INT":
            kind = "INT"
        elif group == "STRING":
            if not m["CLOSE"]:
                span = toks.span_at(start, pos)
                diagnostics.append(ParseDiagnostic(span, "unterminated string literal"))
            kind, text = "STRING", _ESCAPE.sub(lambda e: _ESCAPED.get(e[1], e[1]), m["CHARS"])
        elif group == "MARKER" and text == "@Grammar":
            kind = "ATGRAMMAR"
        elif group == "EOF":
            break
        else:  # an unknown marker or character
            if group == "IDENT":  # [^\W\d] also matches numerals such as '½'; they start no word
                text, pos = text[0], start + 1
            what = "marker" if group == "MARKER" else "character"
            span = toks.span_at(start, pos)
            diagnostics.append(ParseDiagnostic(span, f"unknown {what} {text!r}"))
            continue
        kinds.append(kind)
        texts.append(text)
        starts.append(start)
        ends.append(pos)
    kinds += ("EOF", "EOF")
    texts += ("", "")
    starts += (pos, pos)
    ends += (pos, pos)
    return toks


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# Keywords that are a whole rule body component.
_KEYWORD_BODIES = {"OK": Ok, "ANY": Any, "EMPTY": Empty, "TEXT": Text}

# Tokens that may begin a body component.
_ITEM_START = {"LT", "IDENT", "LBRACK", "LPAREN", "LBRACE", *_KEYWORD_BODIES}

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


class _Parser:
    """Recursive descent over ``Tokens``.  A token is its index into the
    lists; the token helpers return indices, and ``span`` builds a token's
    ``SourceSpan`` for the AST node or diagnostic that needs one."""

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
        got = self.texts[self.pos] or self.kinds[self.pos]
        self.error(f"expected {what}, found {got!r}")

    def nest(self) -> None:
        """Enter one nesting level at the current token; the caller leaves
        it with ``self.depth -= 1``."""
        if self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    def expect(self, kind: str, what: str) -> int:
        pos = self.pos
        if self.kinds[pos] != kind:
            self.unexpected(what)
        self.pos = pos + 1
        return pos

    def ident(self, what: str) -> str:
        """The text of an IDENT token, which is ``self.pos - 1`` after it."""
        text = self.texts[self.expect("IDENT", what)]
        if "$" in text and not self.allow_internal:
            self.note(self.pos - 1, f"identifier {text!r} uses reserved character '$'")
        return text

    def names(self, what: str, repeated: str, close: str, closing: str) -> Tuple[str, ...]:
        """One or more comma-separated ``what`` identifiers, then ``close``;
        a name given twice is the diagnostic ``repeated``."""
        names: List[str] = []
        while not names or self.accept("COMMA") is not None:
            name = self.ident(what)
            if name in names:
                self.note(self.pos - 1, f"{repeated} {name!r}")
            names.append(name)
        self.expect(close, closing)
        return tuple(names)

    def exprs(self, close: str, what: str) -> Tuple[Expr, ...]:
        """Zero or more comma-separated expressions, then ``close``."""
        items: List[Expr] = []
        if not self.at(close):
            items.append(self.parse_expr())
            while self.accept("COMMA") is not None:
                items.append(self.parse_expr())
        self.expect(close, what)
        return tuple(items)

    # -- grammar ------------------------------------------------------------

    def parse_grammar(self) -> Grammar:
        self.expect("ATGRAMMAR", "'@Grammar'")
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
            if self.kinds[self.next()] == "DOT" and self.at_rule_head():
                return

    def at_rule_head(self) -> bool:
        """Whether ``Name ::=`` or ``Name(p, ...) ::=`` starts here."""
        kinds, i = self.kinds, self.pos
        if kinds[i] != "IDENT":
            return False
        i += 1
        if kinds[i] == "LPAREN":
            i += 1
            while kinds[i] in ("IDENT", "COMMA"):
                i += 1
            if kinds[i] != "RPAREN":
                return False
            i += 1
        return kinds[i] == "COLONEQ"

    def parse_clause(self) -> Clause:
        name = self.ident("rule name")
        span = self.span(self.pos - 1)
        params: Tuple[str, ...] = ()
        if self.accept("LPAREN") is not None and self.accept("RPAREN") is None:  # "()": no names
            params = self.names("parameter name", "duplicate parameter", "RPAREN", "')'")
        self.expect("COLONEQ", "'::='")
        body = self.parse_alternation()
        self.expect("DOT", "'.' at end of rule")
        return Clause(name, params, body, span=span)

    # -- bodies ---------------------------------------------------------------

    def parse_alternation(self) -> BodySeq:
        """Sequences separated by ``|``, spanning the first ``|``.  A branch
        that is exactly one parenthesised alternation splices its branches
        in, so ``a | (b | c)`` and ``a | b | c`` parse to the same node."""
        branches = [self.parse_sequence()]
        pipe = self.pos
        while self.accept("PIPE") is not None:
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
        items: List[Body] = []
        while self.kinds[self.pos] in _ITEM_START:
            items.extend(self.parse_component())
        return tuple(items)

    def parse_component(self) -> BodySeq:
        """One component, spliced into the surrounding sequence.

        Groups ``( ... )`` without a ``*`` flatten into the sequence; starred
        groups become a single ``Star`` item spanning the ``*``.  Each
        component is one nesting level.
        """
        self.nest()
        seq = self.parse_primary()
        self.depth -= 1
        star = self.accept("STAR")
        if star is not None:
            return (Star(seq, span=self.span(star)),)
        return seq

    def parse_primary(self) -> BodySeq:
        kind = self.kinds[self.pos]
        if kind == "IDENT":
            if self.kinds[self.pos + 1] == "EQ":
                return (self.parse_bind(),)
            return (self.parse_call(),)
        if kind == "LBRACK":
            return (self.parse_bind(),)
        if kind == "LT":
            return (self.parse_element(),)
        if kind == "LBRACE":
            return (self.parse_actions(),)
        if kind == "LPAREN":
            self.next()
            inner = self.parse_alternation()
            self.expect("RPAREN", "')'")
            return inner
        if kind in _KEYWORD_BODIES:
            return (_KEYWORD_BODIES[kind](span=self.span(self.next())),)
        self.unexpected("a rule body component")

    def parse_bind(self) -> Bind:
        span = self.span(self.pos)
        if self.accept("LBRACK") is not None:
            names = self.names("binding name", "duplicate binding name", "RBRACK", "']'")
        else:
            names = (self.ident("binding name"),)
        self.expect("EQ", "'='")
        if self.kinds[self.pos] not in _ITEM_START:
            self.unexpected("a component after '='")
        return Bind(names, self.parse_component(), span=span)

    def parse_call(self) -> Call:
        name = self.ident("rule name")
        span = self.span(self.pos - 1)
        args = self.exprs("RPAREN", "')'") if self.accept("LPAREN") is not None else ()
        return Call(name, args, span=span)

    def parse_actions(self) -> Actions:
        span = self.span(self.expect("LBRACE", "'{'"))
        return Actions(self.exprs("RBRACE", "'}'"), span=span)

    def parse_element(self) -> ElementSpec:
        span = self.span(self.expect("LT", "'<'"))
        tag = self.ident("element tag")
        attrs: List[Tuple[str, str]] = []
        while self.at("IDENT"):
            var = self.ident("attribute name")
            var_tok = self.pos - 1
            attr_name = var
            if self.accept("EQ") is not None:
                attr_name = self.ident("attribute name")
            if any(var == seen for seen, _ in attrs):
                self.note(var_tok, f"duplicate attribute variable {var!r}")
            attrs.append((var, attr_name))

        guarded: List[Tuple[Expr, BodySeq]] = []
        else_body: BodySeq = ()
        if self.accept("SLASHGT") is not None:
            # <Tag attrs/> is shorthand for <Tag attrs> OK </Tag>.
            return ElementSpec(tag, tuple(attrs), (), (Ok(),), span=span)
        if self.at("when"):
            while self.accept("when") is not None:
                guard = self.parse_expr()
                self.expect("GT", "'>' after guard")
                guarded.append((guard, self.parse_alternation()))
            if self.accept("else") is not None:
                else_body = self.parse_alternation()
        else:
            self.expect("GT", "'>' or '/>'")
            else_body = self.parse_alternation()
        self.expect("LTSLASH", "'</'")
        close = self.ident("closing tag")
        if close != tag:
            self.note(self.pos - 1, f"mismatched closing tag </{close}> for <{tag}>")
        self.expect("GT", "'>'")
        return ElementSpec(tag, tuple(attrs), tuple(guarded), else_body, span=span)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        """A postfix expression, or a comparison of two, then ``: tail``."""
        self.nest()
        expr = self.parse_postfix_expr()
        kind = self.kinds[self.pos]
        if kind == "EQ" or kind == "NEQ":
            self.next()
            expr = Compare("=" if kind == "EQ" else "<>", expr, self.parse_postfix_expr())
        if self.accept("COLON") is not None:
            expr = ConsExpr(expr, self.parse_expr())
        self.depth -= 1
        return expr

    def parse_postfix_expr(self) -> Expr:
        expr = self.parse_atom()
        depth = self.depth  # each method application nests the expression a level
        while True:
            kind = self.kinds[self.pos]
            if kind == "ARROW":
                self.nest()
                self.next()
                expr = self.parse_iterate(expr)
            elif kind == "DOT" and self.kinds[self.pos + 1] == "IDENT":
                self.nest()
                self.next()
                method = self.ident("method name")
                method_tok = self.pos - 1
                if method != "add":
                    self.error(f"unknown method {method!r} (only .add is supported)", method_tok)
                self.expect("LPAREN", "'('")
                arg = self.parse_expr()
                self.expect("RPAREN", "')'")
                expr = Construct("addChild", (expr, arg), span=self.span(method_tok))
            else:
                self.depth = depth
                return expr

    def parse_iterate(self, over: Expr) -> Fold:
        kw = self.ident("'iterate'")
        kw_tok = self.pos - 1
        if kw != "iterate":
            self.error(f"expected 'iterate' after '->', found {kw!r}", kw_tok)
        self.expect("LPAREN", "'('")
        elem = self.ident("element variable")
        acc = self.ident("accumulator variable")
        self.expect("EQ", "'='")
        init = self.parse_expr()
        self.expect("PIPE", "'|'")
        step = self.parse_expr()
        self.expect("RPAREN", "')'")
        return Fold(elem, acc, init, step, over, span=self.span(kw_tok))

    def parse_atom(self) -> Expr:
        tok = self.pos
        kind = self.kinds[tok]
        if kind in _LITERALS:
            self.next()
            return _LITERALS[kind](self.texts[tok], self.span(tok))
        if kind == "LPAREN":
            self.next()
            inner = self.parse_expr()
            self.expect("RPAREN", "')'")
            return inner
        if kind == "IDENT":
            if self.texts[tok] == "Seq" and self.kinds[self.pos + 1] == "LBRACE":
                self.pos += 2
                return ListLit(self.exprs("RBRACE", "'}'"), span=self.span(tok))
            name = self.ident("name")
            if self.accept("LPAREN") is not None:
                return Construct(name, self.exprs("RPAREN", "')'"), span=self.span(tok))
            # Bare names: uppercase initial means a zero-argument constructor
            # (the usual style for term names), lowercase a variable.
            if name[0].isupper():
                return Construct(name, (), span=self.span(tok))
            return VarRef(name, span=self.span(tok))
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
