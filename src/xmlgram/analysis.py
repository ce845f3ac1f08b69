"""Nullability, first/follow sets, left recursion and the predict table.

All three sets are computed over normal-form grammars (no alternation or
repetition nodes; an element branch may hold calls and nested elements,
which are read in place) by the textbook construction (Aho, Lam, Sethi &
Ullman, *Compilers*, section 4.4).
One left-to-right walk, ``first_null``, gives a sequence's first set and
its nullability together; any node outside normal form raises
``NotNormalForm``.
Nullable and first grow in rounds, each revisiting only the clauses that
call a rule the round before changed, so a chain of rules settles in time
linear in its length whichever way round it is written.  Follow comes from
one right-to-left walk per clause, which keeps the first set of the rest of
the sequence, adds it to the follow set of each call and records where one
rule's follow set flows into another's; a worklist closes those edges.

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
from typing import AbstractSet, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from .ast import (
    Actions,
    Any,
    Bind,
    BodySeq,
    Call,
    Clause,
    ElementSpec,
    Empty,
    Grammar,
    Ok,
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
from .wellformed import WfError


TokenSets = Mapping[str, AbstractSet[Token]]  # a token set per rule


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


def first_null(
    seq: BodySeq, nullable: AbstractSet[str], first: TokenSets
) -> Tuple[Set[Token], bool]:
    """The first set of a normal-form ``seq`` and whether it can succeed
    without consuming input, from one left-to-right walk."""
    out: Set[Token] = set()
    for item in seq:
        kind = type(item)
        if kind is Call:
            out.update(first.get(item.name, ()))
            if item.name not in nullable:
                return out, False
        elif kind is Bind:
            tokens, null = first_null(item.body, nullable, first)
            out |= tokens
            if not null:
                return out, False
        elif kind is ElementSpec:
            out.add(item.tag)
            return out, False
        elif kind is Text or kind is Any:
            out.add(TEXT_TOKEN if kind is Text else ANY_TOKEN)
            return out, False
        elif kind is not Actions and kind is not Ok and kind is not Empty:
            raise NotNormalForm(f"{kind.__name__} node in supposedly normal grammar")
    return out, True


def compute_sets(grammar: Grammar, start_rule: str) -> AnalysisResult:
    """Least solution of the nullable/first/follow equations.  A call to
    an undefined rule reads as never matching (empty first, not nullable)."""
    names = dict.fromkeys(c.name for c in grammar.clauses)
    if start_rule not in names:
        raise UndefinedClause(start_rule)
    clauses = grammar.clauses
    callers: Dict[str, List[int]] = {}
    for i, clause in enumerate(clauses):
        for name in dict.fromkeys(call.name for call in _calls(clause.body)):
            callers.setdefault(name, []).append(i)
    nullable: Set[str] = set()
    first: Dict[str, Set[Token]] = {n: set() for n in names}
    # Each round revisits only the clauses that call a rule the last one changed.
    todo = list(range(len(clauses)))
    while todo:
        changed: Set[int] = set()
        for i in todo:
            clause = clauses[i]
            tokens, null = first_null(clause.body, nullable, first)
            grew = null and clause.name not in nullable
            if grew:
                nullable.add(clause.name)
            bucket = first[clause.name]
            before = len(bucket)
            bucket |= tokens
            if grew or len(bucket) != before:
                changed.update(callers.get(clause.name, ()))
        todo = sorted(changed)

    follow: Dict[str, Set[Token]] = {n: set() for n in names}
    follow[start_rule].add(END_OF_INPUT)
    edges: Dict[str, Set[str]] = {n: set() for n in names}
    for clause in grammar.clauses:
        _walk_follow(clause.body, set(), clause.name, (nullable, first, follow, edges))
    work = list(names)
    while work:
        name = work.pop()
        tokens = follow[name]
        for callee in edges.get(name, ()):
            target = follow[callee]
            if not tokens <= target:
                target |= tokens
                work.append(callee)
    # Popping frees each working set as soon as its frozen copy exists.
    return AnalysisResult(
        nullable={n: n in nullable for n in names},
        first={n: frozenset(first.pop(n)) for n in names},
        follow={n: frozenset(follow.pop(n)) for n in names},
    )


def _calls(seq: BodySeq, nullable: Optional[Set[str]] = None) -> List[Call]:
    """The calls outside elements, whose first sets feed ``seq``'s; given
    ``nullable``, only those that can come before ``seq`` consumes input."""
    out: List[Call] = []
    for item in seq:
        kind = type(item)
        if kind is Call:
            out.append(item)
        elif kind is Bind:
            out += _calls(item.body, nullable)
        if nullable is not None and not first_null((item,), nullable, {})[1]:
            break
    return out


def _walk_follow(
    seq: BodySeq, after: Set[Token], caller: Optional[str], sets
) -> Tuple[Set[Token], bool]:
    """One right-to-left pass over ``seq`` that adds to the follow set of
    each call the first set of the rest of the sequence.

    ``sets`` is ``(nullable, first, follow, edges)``.  ``after`` holds the
    tokens that can come after ``seq``, and ``caller`` names the rule whose
    follow set can too (None inside an element).  A call with a nullable
    rest gets ``after`` and an edge from ``caller``: follow(caller) flows
    into follow(callee).  Returns the first set and nullability of ``seq``.
    """
    nullable, first, follow, edges = sets
    rest_first: Set[Token] = set()
    rest_null = True
    for item in reversed(seq):
        kind = type(item)
        if kind is Actions:  # consumes nothing and calls nothing
            continue
        if kind is Call:
            tokens = follow.setdefault(item.name, set())
            tokens |= rest_first
            if rest_null:
                tokens |= after
                if caller is not None:
                    edges[caller].add(item.name)
            item_first, item_null = first.get(item.name, ()), item.name in nullable
        elif kind is Bind:
            if rest_null:
                item_first, item_null = _walk_follow(item.body, rest_first | after, caller, sets)
            else:
                item_first, item_null = _walk_follow(item.body, rest_first, None, sets)
        elif kind is ElementSpec:
            inside = {end_token(item.tag)}
            for _, body in item.guarded:
                _walk_follow(body, inside, None, sets)
            _walk_follow(item.else_body, inside, None, sets)
            item_first, item_null = (item.tag,), False
        else:
            item_first, item_null = first_null((item,), nullable, first)
        if item_null:
            rest_first.update(item_first)
        else:
            rest_first, rest_null = set(item_first), False
    return rest_first, rest_null


def left_recursion(grammar: Grammar, analysis: AnalysisResult) -> List[WfError]:
    """An error for each call that closes a cycle of calls made before
    consuming input (section 4.3.3), found by one iterative depth-first
    search, under the user's rule (a fresh name's part before ``$``) and
    the span of the call or of the ``*`` or ``|`` it was lifted from.  A
    repetition body that can consume nothing closes such a cycle: its cons
    rule calls itself right after the body."""
    nullable = {n for n, flag in analysis.nullable.items() if flag}
    edges: Dict[str, List[Call]] = {}
    for clause in grammar.clauses:  # a rule that calls nothing first is on no cycle
        for call in _calls(clause.body, nullable):
            edges.setdefault(clause.name, []).append(call)
    errors: Dict[WfError, None] = {}
    on_path: Dict[str, bool] = {}  # False once a rule's calls are all searched
    stack = [("", iter([Call(name) for name in edges]))]  # "" calls each of them
    while stack:
        name, calls = stack[-1]
        call = next(calls, None)
        if call is None:
            on_path[name] = False
            stack.pop()
        elif call.name in edges and call.name not in on_path:
            on_path[call.name] = True
            stack.append((call.name, iter(edges[call.name])))
        elif on_path.get(call.name):
            if call.name == name and name in grammar.loops:
                message = "repetition body can match without consuming input"
            else:
                callee = call.name.split("$", 1)[0]
                message = f"left recursion: call to {callee} can recur before consuming input"
            errors[WfError(name.split("$", 1)[0], message, call.span)] = None
    return list(errors)


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
    loops: FrozenSet[str] = frozenset()  # the grammar's ``loops``
    # The engine's compiled form of the entries, built on first use.
    program: Optional[object] = field(default=None, repr=False, compare=False)

    def tokens(self) -> List[Token]:
        seen = {token for _, token in self.entries}
        return sorted(seen, key=token_sort_key)


def build_predict_table(grammar: Grammar, analysis: AnalysisResult) -> PredictTable:
    nullable = {n for n, flag in analysis.nullable.items() if flag}
    cells: Dict[Tuple[str, Token], List[Clause]] = {}

    for clause in grammar.clauses:
        tokens, null = first_null(clause.body, nullable, analysis.first)
        for token in tokens:
            cells.setdefault((clause.name, token), []).append(clause)
        if null:
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
    return PredictTable(entries, conflicts, grammar.loops)


def check_ll1(table: PredictTable) -> Tuple[bool, List[ConflictReport]]:
    """A grammar is LL(1) exactly when every table cell has one entry."""
    return (not table.conflicts, list(table.conflicts))


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def render_table_kv(grammar: Grammar, table: PredictTable) -> str:
    """One sorted ``rule<TAB>token<TAB>k`` line per cell, where the cell's
    clause is the rule's k-th definition (from 0) in grammar order."""
    index: Dict[int, int] = {}  # id(clause) -> k
    count: Dict[str, int] = {}
    for clause in grammar.clauses:
        index[id(clause)] = count.get(clause.name, 0)
        count[clause.name] = index[id(clause)] + 1
    lines = [
        f"{name}\t{token_label(token)}\t{index[id(clause)]}"
        for (name, token), clause in table.entries.items()
    ]
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
