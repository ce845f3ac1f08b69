"""Nullability, first/follow sets, and predict-table construction.

All three are computed over normal-form grammars (no alternation or
repetition nodes; element branches are single calls or call-free).  The
sets grow monotonically inside a fixpoint loop, so iteration terminates.

End of input is modeled as the end tag of a reserved sentinel element
conceptually wrapped around the document: the start rule's follow set seeds
with ``/$`` and the engine reads an exhausted stream as that token, so no
special casing is needed anywhere else.

Table cells hold clause definitions.  A definition is entered under every
token that can begin it; a definition that can succeed on no input is also
entered under every token in its rule's follow set (that is how a nullable
alternative gets predicted by the enclosing end tag).  A first set
containing the wildcard (from ``ANY``) becomes a per-row default entry,
consulted only when no exact token matches; duplicate targets for the same
cell are recorded as conflicts, never overwritten.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .ast import (
    Actions,
    Any,
    Bind,
    Body,
    BodySeq,
    Call,
    Clause,
    ElementSpec,
    Empty,
    Grammar,
    Ok,
    Or,
    Star,
    Text,
)
from .events import (
    ANY_TOKEN,
    END_OF_INPUT,
    TEXT_TOKEN,
    Token,
    end_token,
    is_end_token,
    token_label,
    token_sort_key,
)


class NotNormalForm(ValueError):
    pass


class UndefinedClause(ValueError):
    def __init__(self, name: str):
        super().__init__(f"call to undefined clause {name!r}")
        self.name = name


@dataclass
class AnalysisResult:
    nullable: Dict[str, bool]
    first: Dict[str, FrozenSet[Token]]
    follow: Dict[str, FrozenSet[Token]]


def body_null(item: Body, nullable: Set[str]) -> bool:
    """Can this item succeed without consuming any input?"""
    if isinstance(item, (Empty, Ok, Actions)):
        return True
    if isinstance(item, (Any, Text, ElementSpec)):
        return False
    if isinstance(item, Call):
        return item.name in nullable
    if isinstance(item, Bind):
        return seq_null(item.body, nullable)
    if isinstance(item, Or):
        return seq_null(item.left, nullable) or seq_null(item.right, nullable)
    if isinstance(item, Star):
        return True
    raise TypeError(f"not a body item: {item!r}")


def seq_null(seq: BodySeq, nullable: Set[str]) -> bool:
    return all(body_null(item, nullable) for item in seq)


def first_of_item(item: Body, nullable: Set[str], first: Dict[str, Set[Token]]) -> Set[Token]:
    if isinstance(item, ElementSpec):
        return {item.tag}
    if isinstance(item, Text):
        return {TEXT_TOKEN}
    if isinstance(item, Any):
        return {ANY_TOKEN}
    if isinstance(item, Call):
        return set(first.get(item.name, ()))
    if isinstance(item, Bind):
        return first_of_seq(item.body, nullable, first)
    if isinstance(item, (Actions, Ok, Empty)):
        return set()
    raise NotNormalForm(f"{type(item).__name__} node in supposedly normal grammar")


def first_of_seq(seq: BodySeq, nullable: Set[str], first: Dict[str, Set[Token]]) -> Set[Token]:
    out: Set[Token] = set()
    for item in seq:
        out |= first_of_item(item, nullable, first)
        if not body_null(item, nullable):
            break
    return out


class _Analyzer:
    def __init__(self, grammar: Grammar, start_rule: str, strict: bool):
        self.grammar = grammar
        self.defined = {c.name for c in grammar.clauses}
        self.strict = strict
        self.nullable: Set[str] = set()
        self.first: Dict[str, Set[Token]] = {c.name: set() for c in grammar.clauses}
        self.follow: Dict[str, Set[Token]] = {c.name: set() for c in grammar.clauses}
        if start_rule not in self.defined:
            raise UndefinedClause(start_rule)
        self.follow[start_rule].add(END_OF_INPUT)
        self.changed = False

    def _check_defined_calls(self) -> None:
        def walk(seq: BodySeq) -> None:
            for item in seq:
                if isinstance(item, Call) and item.name not in self.defined:
                    raise UndefinedClause(item.name)
                if isinstance(item, Bind):
                    walk(item.body)
                elif isinstance(item, ElementSpec):
                    for _, body in item.guarded:
                        walk(body)
                    walk(item.else_body)

        for clause in self.grammar.clauses:
            walk(clause.body)

    def _add_follow(self, name: str, tokens: Set[Token]) -> None:
        bucket = self.follow.setdefault(name, set())
        before = len(bucket)
        bucket |= tokens
        if len(bucket) != before:
            self.changed = True

    def walk_seq(self, seq: BodySeq, after: Set[Token], after_clauses: Tuple[str, ...]) -> None:
        for i, item in enumerate(seq):
            suffix = seq[i + 1 :]
            tokens = first_of_seq(suffix, self.nullable, self.first)
            clauses: Tuple[str, ...] = ()
            if seq_null(suffix, self.nullable):
                tokens = tokens | after
                clauses = after_clauses
            self.walk_item(item, tokens, clauses)

    def walk_item(self, item: Body, after: Set[Token], after_clauses: Tuple[str, ...]) -> None:
        if isinstance(item, Call):
            combined = set(after)
            for c in after_clauses:
                combined |= self.follow.get(c, set())
            self._add_follow(item.name, combined)
        elif isinstance(item, Bind):
            self.walk_seq(item.body, after, after_clauses)
        elif isinstance(item, ElementSpec):
            inside = {end_token(item.tag)}
            for _, body in item.guarded:
                self.walk_seq(body, inside, ())
            self.walk_seq(item.else_body, inside, ())
        elif isinstance(item, (Actions, Ok, Empty, Any, Text)):
            pass
        else:
            raise NotNormalForm(f"{type(item).__name__} node in supposedly normal grammar")

    def run(self) -> AnalysisResult:
        if self.strict:
            self._check_defined_calls()
        while True:
            self.changed = False
            for clause in self.grammar.clauses:
                if clause.name not in self.nullable and seq_null(clause.body, self.nullable):
                    self.nullable.add(clause.name)
                    self.changed = True
                firsts = first_of_seq(clause.body, self.nullable, self.first)
                bucket = self.first[clause.name]
                before = len(bucket)
                bucket |= firsts
                if len(bucket) != before:
                    self.changed = True
                self.walk_seq(clause.body, set(), (clause.name,))
            if not self.changed:
                break
        names = [c.name for c in self.grammar.clauses]
        return AnalysisResult(
            nullable={n: n in self.nullable for n in names},
            first={n: frozenset(self.first[n]) for n in names},
            follow={n: frozenset(self.follow[n]) for n in names},
        )


def compute_sets(grammar: Grammar, start_rule: str, *, strict: bool = False) -> AnalysisResult:
    """Least fixpoint of the nullable/first/follow equations.

    With ``strict`` set, a call to an undefined rule raises UndefinedClause;
    by default such rules read as never-matching (empty first, non-null).
    """
    return _Analyzer(grammar, start_rule, strict).run()


# --------------------------------------------------------------------------
# Predict table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConflictReport:
    clause: str
    token: Token
    definitions: Tuple[Clause, ...]

    def __str__(self) -> str:
        token = token_label(self.token)
        return f"predict({self.clause}, {token}) has {len(self.definitions)} candidates"


@dataclass
class PredictTable:
    entries: Dict[Tuple[str, Token], Clause]
    conflicts: List[ConflictReport] = field(default_factory=list)
    # The engine's compiled form of the entries, built on first use.
    program: Optional[object] = field(default=None, repr=False, compare=False)

    def lookup(self, clause: str, token: Token) -> Optional[Clause]:
        hit = self.entries.get((clause, token))
        if hit is not None:
            return hit
        return self.entries.get((clause, ANY_TOKEN))

    def tokens(self) -> List[Token]:
        seen = {token for _, token in self.entries}
        return sorted(seen, key=token_sort_key)


def build_predict_table(grammar: Grammar, analysis: AnalysisResult) -> PredictTable:
    nullable = {n for n, flag in analysis.nullable.items() if flag}
    first = {n: set(ts) for n, ts in analysis.first.items()}
    cells: Dict[Tuple[str, Token], List[Clause]] = {}

    for clause in grammar.clauses:
        for token in first_of_seq(clause.body, nullable, first):
            cells.setdefault((clause.name, token), []).append(clause)
        if seq_null(clause.body, nullable):
            for token in analysis.follow[clause.name]:
                cells.setdefault((clause.name, token), []).append(clause)

    entries: Dict[Tuple[str, Token], Clause] = {}
    conflicts: List[ConflictReport] = []
    for key in sorted(cells, key=lambda k: (k[0], token_sort_key(k[1]))):
        name, token = key
        candidates = list(cells[key])
        if token != ANY_TOKEN and not is_end_token(token):
            # A wildcard definition could consume this token as well, so a
            # default from a different definition makes the cell ambiguous.
            # (End-tag cells coexist with a default: ANY never consumes an
            # end tag — that is exactly how a wildcard repetition stops.)
            for default in cells.get((name, ANY_TOKEN), ()):
                if all(default is not c for c in candidates):
                    candidates.append(default)
        entries[key] = candidates[0]
        if len(candidates) > 1:
            conflicts.append(ConflictReport(name, token, tuple(candidates)))
    return PredictTable(entries, conflicts)


def check_ll1(table: PredictTable) -> Tuple[bool, List[ConflictReport]]:
    """A grammar is LL(1) exactly when every table cell has one entry."""
    return (not table.conflicts, list(table.conflicts))


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def definition_index(grammar: Grammar, clause: Clause) -> int:
    """Ordinal of a definition among same-named definitions, in grammar order."""
    k = 0
    for c in grammar.clauses:
        if c is clause:
            return k
        if c.name == clause.name:
            k += 1
    raise ValueError(f"clause {clause.name} not in grammar")


def render_table_kv(grammar: Grammar, table: PredictTable) -> str:
    lines = []
    for (name, token), clause in table.entries.items():
        lines.append(f"{name}\t{token_label(token)}\t{definition_index(grammar, clause)}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def render_table_text(grammar: Grammar, table: PredictTable) -> str:
    from .pretty import pretty_seq

    rows = list(dict.fromkeys(c.name for c in grammar.clauses))
    cols = table.tokens()
    grid = [[""] * (len(cols) + 1)]
    for j, token in enumerate(cols):
        grid[0][j + 1] = token_label(token)
    for name in rows:
        row = [name]
        for token in cols:
            clause = table.entries.get((name, token))
            row.append(pretty_seq(clause.body) if clause is not None else "")
        grid.append(row)
    widths = [max(len(row[j]) for row in grid) for j in range(len(cols) + 1)]
    out = []
    for row in grid:
        out.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
    return "\n".join(out) + "\n"
