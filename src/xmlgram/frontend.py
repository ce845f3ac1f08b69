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

Comments run from ``//`` to end of line.  Identifiers containing ``$`` are
reserved for generated names and rejected unless ``allow_internal_names`` is
set (the normalizer's output uses them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

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


@dataclass(frozen=True)
class _Tok:
    kind: str  # IDENT, INT, STRING, ATGRAMMAR, EOF, a keyword, or a _PUNCT name
    text: str
    span: SourceSpan


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def tokenize(source: str, diagnostics: List[ParseDiagnostic]) -> List[_Tok]:
    toks: List[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def span(length: int) -> SourceSpan:
        return SourceSpan(line, col, length)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "@":
            j = i + 1
            while j < n and _is_ident_char(source[j]):
                j += 1
            word = source[i:j]
            if word == "@Grammar":
                toks.append(_Tok("ATGRAMMAR", word, span(len(word))))
            else:
                diagnostics.append(ParseDiagnostic(span(len(word)), f"unknown marker {word!r}"))
            col += j - i
            i = j
            continue
        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_char(source[j]):
                j += 1
            word = source[i:j]
            kind = word if word in _KEYWORDS else "IDENT"
            toks.append(_Tok(kind, word, span(len(word))))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            toks.append(_Tok("INT", source[i:j], span(j - i)))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            buf: List[str] = []
            terminated = False
            while j < n:
                c = source[j]
                if c == '"':
                    terminated = True
                    j += 1
                    break
                if c == "\\" and j + 1 < n:
                    nxt = source[j + 1]
                    buf.append({"n": "\n", "t": "\t"}.get(nxt, nxt))
                    j += 2
                    continue
                if c == "\n":
                    break
                buf.append(c)
                j += 1
            if not terminated:
                diagnostics.append(ParseDiagnostic(span(j - i), "unterminated string literal"))
            toks.append(_Tok("STRING", "".join(buf), span(j - i)))
            col += j - i
            i = j
            continue
        matched = None
        for text in ("::=", "</", "/>", "<>", "->"):
            if source.startswith(text, i):
                matched = text
                break
        if matched is None and ch in _PUNCT:
            matched = ch
        if matched is not None:
            toks.append(_Tok(_PUNCT[matched], matched, span(len(matched))))
            i += len(matched)
            col += len(matched)
            continue
        diagnostics.append(ParseDiagnostic(span(1), f"unknown character {ch!r}"))
        i += 1
        col += 1

    toks.append(_Tok("EOF", "", SourceSpan(line, col, 0)))
    return toks


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# Tokens that may begin a body component.
_ITEM_START = {"LT", "IDENT", "LBRACK", "LPAREN", "LBRACE", "OK", "ANY", "EMPTY", "TEXT"}

# The deepest nesting of components (groups, elements, bindings) and
# expressions the parser accepts.  The parser and every later stage recurse
# once per level, so a grammar within the bound stays well inside Python's
# recursion limit, and a deeper one is a diagnostic, not a RecursionError.
MAX_NESTING = 100


class _Parser:
    def __init__(self, toks: List[_Tok], diagnostics: List[ParseDiagnostic], allow_internal: bool):
        self.toks = toks
        self.pos = 0
        self.diagnostics = diagnostics
        self.allow_internal = allow_internal
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> _Tok:
        return self.toks[min(self.pos + offset, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Optional[_Tok]:
        if self.at(kind):
            return self.next()
        return None

    def error(self, message: str, tok: Optional[_Tok] = None) -> None:
        tok = tok or self.peek()
        self.diagnostics.append(ParseDiagnostic(tok.span, message))
        raise _Bail()

    def nest(self) -> None:
        """Enter one nesting level at the current token; the caller leaves
        it with ``self.depth -= 1``."""
        if self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    def expect(self, kind: str, what: str) -> _Tok:
        tok = self.accept(kind)
        if tok is None:
            got = self.peek()
            self.error(f"expected {what}, found {got.text or got.kind!r}")
        return tok

    def ident(self, what: str) -> _Tok:
        tok = self.expect("IDENT", what)
        if "$" in tok.text and not self.allow_internal:
            self.diagnostics.append(
                ParseDiagnostic(tok.span, f"identifier {tok.text!r} uses reserved character '$'")
            )
        return tok

    # -- grammar ------------------------------------------------------------

    def parse_grammar(self) -> Grammar:
        self.expect("ATGRAMMAR", "'@Grammar'")
        name = self.ident("grammar name")
        clauses: List[Clause] = []
        while True:
            if self.accept("end"):
                break
            if self.at("EOF"):
                self.error("unterminated grammar: expected 'end'")
            try:
                clauses.append(self.parse_clause())
            except _Bail:
                self.depth = 0
                self.resync()
        if not self.at("EOF"):
            self.diagnostics.append(
                ParseDiagnostic(self.peek().span, "trailing input after 'end'")
            )
        return Grammar(name.text, tuple(clauses))

    def resync(self) -> None:
        """Skip to the next rule terminator so later rules still get checked."""
        while not self.at("EOF") and not self.at("end"):
            if self.next().kind == "DOT":
                return

    def parse_clause(self) -> Clause:
        name = self.ident("rule name")
        params: List[str] = []
        if self.accept("LPAREN"):
            if not self.at("RPAREN"):
                while True:
                    p = self.ident("parameter name")
                    if p.text in params:
                        self.diagnostics.append(
                            ParseDiagnostic(p.span, f"duplicate parameter {p.text!r}")
                        )
                    params.append(p.text)
                    if not self.accept("COMMA"):
                        break
            self.expect("RPAREN", "')'")
        self.expect("COLONEQ", "'::='")
        body = self.parse_alternation()
        self.expect("DOT", "'.' at end of rule")
        return Clause(name.text, tuple(params), body, span=name.span)

    # -- bodies ---------------------------------------------------------------

    def parse_alternation(self) -> BodySeq:
        """Sequences separated by ``|``.  A branch that is exactly one
        parenthesised alternation splices its branches in, so ``a | (b | c)``
        and ``a | b | c`` parse to the same node."""
        branches = [self.parse_sequence()]
        while self.accept("PIPE"):
            branches.append(self.parse_sequence())
        if len(branches) == 1:
            return branches[0]
        flat: List[BodySeq] = []
        for branch in branches:
            nested = len(branch) == 1 and isinstance(branch[0], Or)
            flat.extend(branch[0].branches if nested else (branch,))
        return (Or(tuple(flat)),)

    def parse_sequence(self) -> BodySeq:
        items: List[Body] = []
        while self.peek().kind in _ITEM_START:
            items.extend(self.parse_component())
        return tuple(items)

    def parse_component(self) -> BodySeq:
        """One component, spliced into the surrounding sequence.

        Groups ``( ... )`` without a ``*`` flatten into the sequence; starred
        groups become a single ``Star`` item.  Each component is one nesting
        level.
        """
        self.nest()
        seq = self.parse_primary()
        self.depth -= 1
        if self.accept("STAR"):
            return (Star(seq),)
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
        if tok.kind == "OK":
            self.next()
            return (Ok(span=tok.span),)
        if tok.kind == "ANY":
            self.next()
            return (Any(span=tok.span),)
        if tok.kind == "EMPTY":
            self.next()
            return (Empty(span=tok.span),)
        if tok.kind == "TEXT":
            self.next()
            return (Text(span=tok.span),)
        self.error(f"expected a rule body component, found {tok.text or tok.kind!r}")
        raise AssertionError

    def parse_bind(self) -> Bind:
        names: List[str] = []
        start = self.peek()
        if self.accept("LBRACK"):
            while True:
                t = self.ident("binding name")
                if t.text in names:
                    self.diagnostics.append(
                        ParseDiagnostic(t.span, f"duplicate binding name {t.text!r}")
                    )
                names.append(t.text)
                if not self.accept("COMMA"):
                    break
            self.expect("RBRACK", "']'")
        else:
            names.append(self.ident("binding name").text)
        self.expect("EQ", "'='")
        body = self.parse_bind_target()
        return Bind(tuple(names), body, span=start.span)

    def parse_bind_target(self) -> BodySeq:
        tok = self.peek()
        if tok.kind not in _ITEM_START:
            self.error(f"expected a component after '=', found {tok.text or tok.kind!r}")
        return self.parse_component()

    def parse_call(self) -> Call:
        name = self.ident("rule name")
        args: List[Expr] = []
        if self.accept("LPAREN"):
            if not self.at("RPAREN"):
                while True:
                    args.append(self.parse_expr())
                    if not self.accept("COMMA"):
                        break
            self.expect("RPAREN", "')'")
        return Call(name.text, tuple(args), span=name.span)

    def parse_actions(self) -> Actions:
        start = self.expect("LBRACE", "'{'")
        exprs: List[Expr] = []
        if not self.at("RBRACE"):
            while True:
                exprs.append(self.parse_expr())
                if not self.accept("COMMA"):
                    break
        self.expect("RBRACE", "'}'")
        return Actions(tuple(exprs), span=start.span)

    def parse_element(self) -> ElementSpec:
        start = self.expect("LT", "'<'")
        tag = self.ident("element tag")
        attrs: List[Tuple[str, str]] = []
        seen_vars: List[str] = []
        while self.at("IDENT"):
            var = self.ident("attribute name")
            attr_name = var.text
            if self.accept("EQ"):
                attr_name = self.ident("attribute name").text
            if var.text in seen_vars:
                self.diagnostics.append(
                    ParseDiagnostic(var.span, f"duplicate attribute variable {var.text!r}")
                )
            seen_vars.append(var.text)
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
            self.diagnostics.append(
                ParseDiagnostic(
                    close.span,
                    f"mismatched closing tag </{close.text}> for <{tag.text}>",
                )
            )
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
        if tok.kind == "STRING":
            self.next()
            return StrLit(tok.text, span=tok.span)
        if tok.kind == "INT":
            self.next()
            return IntLit(int(tok.text), span=tok.span)
        if tok.kind == "true":
            self.next()
            return BoolLit(True, span=tok.span)
        if tok.kind == "false":
            self.next()
            return BoolLit(False, span=tok.span)
        if tok.kind == "null":
            self.next()
            return NullLit(span=tok.span)
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_expr()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT":
            if tok.text == "Seq" and self.peek(1).kind == "LBRACE":
                self.next()
                self.next()
                items: List[Expr] = []
                if not self.at("RBRACE"):
                    while True:
                        items.append(self.parse_expr())
                        if not self.accept("COMMA"):
                            break
                self.expect("RBRACE", "'}'")
                return ListLit(tuple(items), span=tok.span)
            name = self.ident("name")
            if self.accept("LPAREN"):
                args: List[Expr] = []
                if not self.at("RPAREN"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept("COMMA"):
                            break
                self.expect("RPAREN", "')'")
                return Construct(name.text, tuple(args), span=name.span)
            # Bare names: uppercase initial means a zero-argument constructor
            # (the usual style for term names), lowercase a variable.
            if name.text[0].isupper():
                return Construct(name.text, (), span=name.span)
            return VarRef(name.text, span=name.span)
        self.error(f"expected an expression, found {tok.text or tok.kind!r}")
        raise AssertionError


class _Bail(Exception):
    """Internal: abandon the current rule and resynchronize."""


def try_parse_grammar(
    source: str, *, allow_internal_names: bool = False
) -> Tuple[Optional[Grammar], List[ParseDiagnostic]]:
    """Parse; returns (grammar-or-None, diagnostics).

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
    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    return grammar, diagnostics


def parse_grammar(source: str, *, allow_internal_names: bool = False) -> Grammar:
    """Parse a grammar, raising GrammarParseError with all diagnostics on failure."""
    grammar, diagnostics = try_parse_grammar(source, allow_internal_names=allow_internal_names)
    if grammar is None:
        raise GrammarParseError(diagnostics)
    return grammar
