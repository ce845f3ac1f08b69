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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, NamedTuple, NoReturn, Optional, Tuple

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
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.span}: {self.severity}: {self.message}"


class GrammarParseError(Exception):
    def __init__(self, diagnostics: List[ParseDiagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_KEYWORDS = {"end", "when", "else", "OK", "ANY", "EMPTY", "TEXT", "true", "false", "null"}

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

# One alternative per token class, tried in this order at each position.
# Longer punctuation comes first, so "::=" wins over ":".
_TOKEN = re.compile(
    r"""
      (?P<NEWLINE> \n )
    | (?P<BLANK> [ \t\r]+ )
    | (?P<COMMENT> //[^\n]* )
    | (?P<MARKER> @[\w$]* )
    | (?P<WORD> [^\W\d][\w$]* )
    | (?P<INT> -?\d+ )
    | (?P<STRING> " (?P<CHARS> (?: \\. | [^"\n] )* ) (?P<CLOSE> "? ) )
    | (?P<PUNCT> %s )
    | (?P<OTHER> . )
    """
    % "|".join(re.escape(text) for text in sorted(_PUNCT, key=len, reverse=True)),
    re.VERBOSE,
)

_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself


class _Tok(NamedTuple):
    kind: str  # IDENT, INT, STRING, ATGRAMMAR, EOF, a keyword, or a _PUNCT name
    text: str
    span: SourceSpan


def tokenize(source: str, diagnostics: List[ParseDiagnostic]) -> List[_Tok]:
    """The tokens of ``source``, ending in two EOF tokens so the parser can
    look one token past the end."""
    toks: List[_Tok] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        kind, text = m.lastgroup, m.group()
        if kind == "WORD" and not (text[0].isalpha() or text[0] == "_"):
            # [^\W\d] also matches numerals such as '½'; they start no word.
            kind, text = "OTHER", text[0]
        start, pos = pos, pos + len(text)
        if kind == "BLANK" or kind == "COMMENT":
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
            continue
        span = SourceSpan(line, start - line_start + 1, len(text))
        if kind == "WORD":
            toks.append(_Tok(text if text in _KEYWORDS else "IDENT", text, span))
        elif kind == "PUNCT":
            toks.append(_Tok(_PUNCT[text], text, span))
        elif kind == "INT":
            toks.append(_Tok("INT", text, span))
        elif kind == "STRING":
            if not m["CLOSE"]:
                diagnostics.append(ParseDiagnostic(span, "unterminated string literal"))
            text = _ESCAPE.sub(lambda e: _ESCAPED.get(e[1], e[1]), m["CHARS"])
            toks.append(_Tok("STRING", text, span))
        elif kind == "MARKER":
            if text == "@Grammar":
                toks.append(_Tok("ATGRAMMAR", text, span))
            else:
                diagnostics.append(ParseDiagnostic(span, f"unknown marker {text!r}"))
        elif kind == "OTHER":
            diagnostics.append(ParseDiagnostic(span, f"unknown character {text!r}"))
    eof = _Tok("EOF", "", SourceSpan(line, pos - line_start + 1, 0))
    return toks + [eof, eof]


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# Keywords that are a whole rule body component.
_KEYWORD_BODIES = {"OK": Ok, "ANY": Any, "EMPTY": Empty, "TEXT": Text}

# Tokens that may begin a body component.
_ITEM_START = {"LT", "IDENT", "LBRACK", "LPAREN", "LBRACE", *_KEYWORD_BODIES}

# Tokens that are a whole literal expression.
_LITERALS = {
    "STRING": lambda tok: StrLit(tok.text, span=tok.span),
    "INT": lambda tok: IntLit(int(tok.text), span=tok.span),
    "true": lambda tok: BoolLit(True, span=tok.span),
    "false": lambda tok: BoolLit(False, span=tok.span),
    "null": lambda tok: NullLit(span=tok.span),
}

# The deepest nesting of components (groups, elements, bindings) and
# expressions the parser accepts.  The parser and every later stage recurse
# once per level, so a grammar within the bound stays well inside Python's
# recursion limit, and a deeper one is a diagnostic, not a RecursionError.
MAX_NESTING = 100


class _Parser:
    def __init__(self, toks: List[_Tok], diagnostics: List[ParseDiagnostic], allow_internal: bool):
        self.toks = toks
        self.pos = 0  # never past the first of the two EOF tokens
        self.diagnostics = diagnostics
        self.allow_internal = allow_internal
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> _Tok:
        return self.toks[self.pos + offset]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.toks[self.pos].kind == kind

    def accept(self, kind: str) -> Optional[_Tok]:
        return self.next() if self.at(kind) else None

    def note(self, tok: _Tok, message: str) -> None:
        """Report an error that does not stop the rule."""
        self.diagnostics.append(ParseDiagnostic(tok.span, message))

    def error(self, message: str, tok: Optional[_Tok] = None) -> NoReturn:
        self.note(tok or self.peek(), message)
        raise _Bail()

    def unexpected(self, what: str) -> NoReturn:
        got = self.peek()
        self.error(f"expected {what}, found {got.text or got.kind!r}")

    def nest(self) -> None:
        """Enter one nesting level at the current token; the caller leaves
        it with ``self.depth -= 1``."""
        if self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    def expect(self, kind: str, what: str) -> _Tok:
        tok = self.accept(kind)
        if tok is None:
            self.unexpected(what)
        return tok

    def ident(self, what: str) -> _Tok:
        tok = self.expect("IDENT", what)
        if "$" in tok.text and not self.allow_internal:
            self.note(tok, f"identifier {tok.text!r} uses reserved character '$'")
        return tok

    def names(self, what: str, repeated: str, close: str, closing: str) -> Tuple[str, ...]:
        """One or more comma-separated ``what`` identifiers, then ``close``;
        a name given twice is the diagnostic ``repeated``."""
        names: List[str] = []
        while not names or self.accept("COMMA"):
            tok = self.ident(what)
            if tok.text in names:
                self.note(tok, f"{repeated} {tok.text!r}")
            names.append(tok.text)
        self.expect(close, closing)
        return tuple(names)

    def exprs(self, close: str, what: str) -> Tuple[Expr, ...]:
        """Zero or more comma-separated expressions, then ``close``."""
        items: List[Expr] = []
        if not self.at(close):
            items.append(self.parse_expr())
            while self.accept("COMMA"):
                items.append(self.parse_expr())
        self.expect(close, what)
        return tuple(items)

    # -- grammar ------------------------------------------------------------

    def parse_grammar(self) -> Grammar:
        self.expect("ATGRAMMAR", "'@Grammar'")
        name = self.ident("grammar name")
        clauses: List[Clause] = []
        while not self.accept("end"):
            if self.at("EOF"):
                self.error("unterminated grammar: expected 'end'")
            try:
                clauses.append(self.parse_clause())
            except _Bail:
                self.depth = 0
                self.resync()
        if not self.at("EOF"):
            self.note(self.peek(), "trailing input after 'end'")
        return Grammar(name.text, tuple(clauses))

    def resync(self) -> None:
        """Skip past the '.' that ends the broken rule, so later rules still
        get checked.  That is the next '.' followed by 'end', EOF or a rule
        head; the '.' of a ``.add(...)`` call is not one."""
        while not self.at("EOF") and not self.at("end"):
            if self.next().kind == "DOT" and self.at_rule_head():
                return

    def at_rule_head(self) -> bool:
        """Whether ``Name ::=`` or ``Name(p, ...) ::=`` starts here."""
        if self.toks[self.pos].kind != "IDENT":
            return False
        i = self.pos + 1
        if self.toks[i].kind == "LPAREN":
            i += 1
            while self.toks[i].kind in ("IDENT", "COMMA"):
                i += 1
            if self.toks[i].kind != "RPAREN":
                return False
            i += 1
        return self.toks[i].kind == "COLONEQ"

    def parse_clause(self) -> Clause:
        name = self.ident("rule name")
        params: Tuple[str, ...] = ()
        if self.accept("LPAREN") and not self.accept("RPAREN"):  # "()" has no names
            params = self.names("parameter name", "duplicate parameter", "RPAREN", "')'")
        self.expect("COLONEQ", "'::='")
        body = self.parse_alternation()
        self.expect("DOT", "'.' at end of rule")
        return Clause(name.text, params, body, span=name.span)

    # -- bodies ---------------------------------------------------------------

    def parse_alternation(self) -> BodySeq:
        """Sequences separated by ``|``, spanning the first ``|``.  A branch
        that is exactly one parenthesised alternation splices its branches
        in, so ``a | (b | c)`` and ``a | b | c`` parse to the same node."""
        branches = [self.parse_sequence()]
        pipe = self.peek()
        while self.accept("PIPE"):
            branches.append(self.parse_sequence())
        if len(branches) == 1:
            return branches[0]
        flat: List[BodySeq] = []
        for branch in branches:
            nested = len(branch) == 1 and isinstance(branch[0], Or)
            flat.extend(branch[0].branches if nested else (branch,))
        first = branches[0]  # in ``(a | b) | c`` the first ``|`` is inside
        span = first[0].span if len(first) == 1 and isinstance(first[0], Or) else pipe.span
        return (Or(tuple(flat), span=span),)

    def parse_sequence(self) -> BodySeq:
        items: List[Body] = []
        while self.peek().kind in _ITEM_START:
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
        if star:
            return (Star(seq, span=star.span),)
        return seq

    def parse_primary(self) -> BodySeq:
        tok = self.peek()
        if tok.kind == "IDENT":
            if self.peek(1).kind == "EQ":
                return (self.parse_bind(),)
            return (self.parse_call(),)
        if tok.kind == "LBRACK":
            return (self.parse_bind(),)
        if tok.kind == "LT":
            return (self.parse_element(),)
        if tok.kind == "LBRACE":
            return (self.parse_actions(),)
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_alternation()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind in _KEYWORD_BODIES:
            self.next()
            return (_KEYWORD_BODIES[tok.kind](span=tok.span),)
        self.unexpected("a rule body component")

    def parse_bind(self) -> Bind:
        start = self.peek()
        if self.accept("LBRACK"):
            names = self.names("binding name", "duplicate binding name", "RBRACK", "']'")
        else:
            names = (self.ident("binding name").text,)
        self.expect("EQ", "'='")
        if self.peek().kind not in _ITEM_START:
            self.unexpected("a component after '='")
        return Bind(names, self.parse_component(), span=start.span)

    def parse_call(self) -> Call:
        name = self.ident("rule name")
        args = self.exprs("RPAREN", "')'") if self.accept("LPAREN") else ()
        return Call(name.text, args, span=name.span)

    def parse_actions(self) -> Actions:
        start = self.expect("LBRACE", "'{'")
        return Actions(self.exprs("RBRACE", "'}'"), span=start.span)

    def parse_element(self) -> ElementSpec:
        start = self.expect("LT", "'<'")
        tag = self.ident("element tag")
        attrs: List[Tuple[str, str]] = []
        while self.at("IDENT"):
            var = self.ident("attribute name")
            attr_name = var.text
            if self.accept("EQ"):
                attr_name = self.ident("attribute name").text
            if any(var.text == seen for seen, _ in attrs):
                self.note(var, f"duplicate attribute variable {var.text!r}")
            attrs.append((var.text, attr_name))

        guarded: List[Tuple[Expr, BodySeq]] = []
        else_body: BodySeq = ()
        if self.accept("SLASHGT"):
            # <Tag attrs/> is shorthand for <Tag attrs> OK </Tag>.
            return ElementSpec(tag.text, tuple(attrs), (), (Ok(),), span=start.span)
        if self.at("when"):
            while self.accept("when"):
                guard = self.parse_expr()
                self.expect("GT", "'>' after guard")
                guarded.append((guard, self.parse_alternation()))
            if self.accept("else"):
                else_body = self.parse_alternation()
        else:
            self.expect("GT", "'>' or '/>'")
            else_body = self.parse_alternation()
        self.expect("LTSLASH", "'</'")
        close = self.ident("closing tag")
        if close.text != tag.text:
            self.note(close, f"mismatched closing tag </{close.text}> for <{tag.text}>")
        self.expect("GT", "'>'")
        return ElementSpec(tag.text, tuple(attrs), tuple(guarded), else_body, span=start.span)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        self.nest()
        expr = self.parse_compare()
        if self.accept("COLON"):
            expr = ConsExpr(expr, self.parse_expr())
        self.depth -= 1
        return expr

    def parse_compare(self) -> Expr:
        left = self.parse_postfix_expr()
        if self.at("EQ") or self.at("NEQ"):
            op = "=" if self.next().kind == "EQ" else "<>"
            right = self.parse_postfix_expr()
            return Compare(op, left, right)
        return left

    def parse_postfix_expr(self) -> Expr:
        expr = self.parse_atom()
        depth = self.depth  # each method application nests the expression a level
        while True:
            if self.at("ARROW"):
                self.nest()
                self.next()
                expr = self.parse_iterate(expr)
            elif self.at("DOT") and self.peek(1).kind == "IDENT":
                self.nest()
                self.next()
                method = self.ident("method name")
                if method.text != "add":
                    self.error(f"unknown method {method.text!r} (only .add is supported)", method)
                self.expect("LPAREN", "'('")
                arg = self.parse_expr()
                self.expect("RPAREN", "')'")
                expr = Construct("addChild", (expr, arg), span=method.span)
            else:
                self.depth = depth
                return expr

    def parse_iterate(self, over: Expr) -> Fold:
        kw = self.ident("'iterate'")
        if kw.text != "iterate":
            self.error(f"expected 'iterate' after '->', found {kw.text!r}", kw)
        self.expect("LPAREN", "'('")
        elem = self.ident("element variable").text
        acc = self.ident("accumulator variable").text
        self.expect("EQ", "'='")
        init = self.parse_expr()
        self.expect("PIPE", "'|'")
        step = self.parse_expr()
        self.expect("RPAREN", "')'")
        return Fold(elem, acc, init, step, over, span=kw.span)

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind in _LITERALS:
            self.next()
            return _LITERALS[tok.kind](tok)
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_expr()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT":
            if tok.text == "Seq" and self.peek(1).kind == "LBRACE":
                self.next()
                self.next()
                return ListLit(self.exprs("RBRACE", "'}'"), span=tok.span)
            name = self.ident("name")
            if self.accept("LPAREN"):
                return Construct(name.text, self.exprs("RPAREN", "')'"), span=name.span)
            # Bare names: uppercase initial means a zero-argument constructor
            # (the usual style for term names), lowercase a variable.
            if name.text[0].isupper():
                return Construct(name.text, (), span=name.span)
            return VarRef(name.text, span=name.span)
        self.unexpected("an expression")


class _Bail(Exception):
    """Internal: abandon the current rule and resynchronize."""


def try_parse_grammar(
    source: str, *, allow_internal_names: bool = False
) -> Tuple[Optional[Grammar], List[ParseDiagnostic]]:
    """Parse; returns (grammar-or-None, diagnostics in source order).

    The grammar is None exactly when an error-severity diagnostic was issued.
    """
    diagnostics: List[ParseDiagnostic] = []
    toks = tokenize(source, diagnostics)
    parser = _Parser(toks, diagnostics, allow_internal_names)
    grammar: Optional[Grammar] = None
    try:
        grammar = parser.parse_grammar()
    except _Bail:
        pass
    # The lexer reports before the parser runs; interleave the two by position.
    diagnostics.sort(key=lambda d: (d.span.line, d.span.column))
    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    return grammar, diagnostics


def parse_grammar(source: str, *, allow_internal_names: bool = False) -> Grammar:
    """Parse a grammar, raising GrammarParseError with all diagnostics on failure."""
    grammar, diagnostics = try_parse_grammar(source, allow_internal_names=allow_internal_names)
    if grammar is None:
        raise GrammarParseError(diagnostics)
    return grammar
