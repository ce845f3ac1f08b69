"""Grammar compilation and the table-driven parsing machine.

``compile_grammar`` takes a parsed grammar through the well-formedness
check, normalization, nullable/first/follow and the predict table.  The
first machine on a table turns it, once, into a ``Program``: Python source
generated from the table, compiled and run, as ``dataclasses`` and
``collections.namedtuple`` build their methods.  This specializes the
table-driven LL(1) machine to its table, the first Futamura projection
(Futamura 1971; Jones, Gomard & Sestoft, *Partial Evaluation and
Automatic Program Generation*, 1993).

The table still makes every decision.  Where a rule is called, its row
becomes one test of the lookahead's token per predicted clause, with the
wildcard entry, if any, as the fallback.  Clauses whose code differs only
in its constants (tags, attribute, constructor and rule names, literals)
share one branch under one test of all their tokens: the tag is the token
matched, and any other constant that differs is read from a dict keyed by
the token.  This is procedural abstraction and cross-jumping (Fraser, Myers
& Wendt, "Analyzing and compressing assembly code", 1984), so a row of
thousands of alternatives of one form costs the code of one.  A token known
at generation time (one a test has just matched, until an event is
consumed) picks its clause without a test: that resolves chain rules, and
an element predicted on its own start tag skips its start-tag check.  A
repetition rule (``Grammar.loops``, lifted from an ``X*``) becomes a
``while`` over its loop row, whose items append to a list that ends as one
``ConsList``.
Normalization calls such a rule with its own parameters, as ``Program``
checks, so its items read the caller's locals.  Attributes and bindings are
Python locals with numbered names, one per name in each inlined clause;
actions, guards and call arguments are inlined as Python expressions, except
one nested more than ``MAX_EXPR`` deep, which runs as
``evaluate.compile_expr``'s closure on a dict of the variables it reads.

The code comes in units: one Python function per rule entered from outside
generated code, that is the start rule and each callee that is not
inlined.  ``_Shape`` alone decides which callees a unit may inline: only
one with one call site, so that no code is copied, and not one outside the
caller's component of the call graph that expands to more than
``INLINE_SIZE`` clauses, unless normalization lifted it (see
``Program.inlines``).  Generating a unit recurses once per element and
inlined clause, so the walk does not go into a callee where ``MAX_DEPTH``
of them are open: that keeps the recursion to about what one rule within
the front end's ``MAX_NESTING`` needs, however long a chain of rules is.
The generator then inlines what the shape walked, but not a callee already
being inlined there (a call round a cycle of the call graph, such as
``Package`` → ``PackageElement`` → ``Package``), and not one that would
nest the code past ``MAX_LOOPS`` loops or ``MAX_INDENT`` levels (CPython
refuses 20 nested loops and 100 levels).  A guarded element that would
nest too deeply becomes a unit of its own, which returns the names it binds
with its value.  CPython also compiles each ``elif`` a level deeper than
the one before, so a row of more than ``MAX_TESTS`` tests is split into
blocks, each under one test of all its tokens.

Source costs ``compile()`` time and about 160 bytes of memory per
character, so a unit does not grow past ``MAX_SOURCE`` characters: once it
has, the rest of the sequence being emitted, from its next element or call
of a unit, becomes a nested unit, and a nested unit that passes the cap in
its own sequence tail-calls the unit for the rest of it.  So one clause of
10,000 siblings is a chain of units of a few kilobytes, most of them of one
text.  A branch that several clauses share is not cut: it costs the code of
one clause.  A row of thousands of alternatives that differ in structure,
not only in strings, is out of reach of the cap: past it, each branch is
cut down to the call of a nested unit of its own, so the unit still grows
with the row.

A unit that calls a unit is a generator.  The call yields the callee and
its arguments to the one driver loop in ``Machine.run``, and the suspended
generator is the continuation, held on the driver's explicit stack until
the callee returns.  So no document nesting and no chain of rules turns
into Python recursion.  A call that ends the unit's root clause, a tail
call, returns the callee to the driver instead and holds nothing (Clinger,
"Proper tail recursion and space efficiency", 1998), so ``L ::= <a/> L.``
runs in constant space, also when ``MAX_SOURCE`` cuts its clause: the rest
of a sequence in tail position is tail-called.  ``steps`` counts the
driver's transitions: the start unit's entry, each call into a unit, each
tail call and each return into a suspended caller.  ``max_dump_depth`` is
the most continuations held at once.  The driver also turns an evaluation error in a guard, argument or
action into a ``ParseFailure`` at the event where the innermost unit stood,
as it finds the position of every other failure; no unit handles one.

Code is generated and compiled once per unit *shape*.  Every tag,
attribute name, constructor name, literal and callee is a numbered
constant, bound as a default argument, so two units whose rows and
clauses differ only in their strings have one text.  ``_Shape`` finds a
unit's shape without generating it, and the memo maps each shape to the
factory compiled for its first unit.  Nested units are generated, and a
second memo, keyed by source text, compiles each text once.  Both memos
live for one build of the units that a start rule needs, so a fresh
process pays for what it compiles, and the source texts are dropped once
the build ends.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .analysis import NotNormalForm, PredictTable, build_predict_table, compute_sets, left_recursion
from .ast import CONS, Actions, Any, Bind, BodySeq, BoolLit, Call, Clause, Compare, ConsExpr
from .ast import Construct, ElementSpec, Empty, Expr, Fold, Grammar, IntLit, ListLit, NullLit, Ok
from .ast import StrLit, Text, VarRef, may_bind, walk
from .evaluate import ADD_CHILD, SHOWN, EvalError, NonBooleanGuard, UnboundVariable, _add_child
from .evaluate import _adopt, _equal, _fold_step, compile_expr, list_elements, shorten, truth
from .events import ANY_TOKEN, END_OF_INPUT, TEXT_TOKEN, SaxEvent, TextEvt, token_label
from .events import token_of_event
from .normalize import normalize_grammar
from .values import EMPTY_CONS, NULL, BoolVal, ConsList, IntVal, ListVal, TermVal, TupleVal, Value
from .wellformed import WfError, check_grammar, expr_vars

# Failure reasons
NO_PREDICT_ENTRY = "NoPredictEntry"
TAG_MISMATCH = "TagMismatch"
GUARD_NON_BOOLEAN = "GuardNonBoolean"
UNEXPECTED_END_OF_EVENTS = "UnexpectedEndOfEvents"
UNEXPECTED_EVENT = "UnexpectedEvent"
MISSING_ATTRIBUTE = "MissingAttribute"
BIND_ARITY_MISMATCH = "BindArityMismatch"
CALL_ARITY = "CallArityMismatch"
INCOMPLETE_PARSE = "IncompleteParse"
EVAL_ERROR = "EvalError"


class Compiled(NamedTuple):
    """What ``compile_grammar`` produced.  With errors, only ``errors`` is
    set; a grammar without rules has a normal form but no start or table."""

    errors: List[WfError]
    normal: Optional[Grammar]
    start: Optional[str]
    table: Optional[PredictTable]


def compile_grammar(grammar: Grammar, start: Optional[str] = None) -> Compiled:
    """Check, normalize and tabulate ``grammar`` for the machine.

    ``start`` names a rule of ``grammar`` and defaults to its first rule.
    Left recursion is an error (see ``analysis.left_recursion``).  The table
    is built even when the grammar is not LL(1); its ``conflicts`` list the
    ambiguous cells.
    """
    errors = check_grammar(grammar)
    if errors:
        return Compiled(errors, None, None, None)
    normal = normalize_grammar(grammar)
    if not (start or grammar.clauses):
        return Compiled([], normal, None, None)
    start_rule = start or grammar.clauses[0].name
    if not any(clause.name == start_rule for clause in grammar.clauses):
        return Compiled([WfError(start_rule, "start rule is not defined")], None, None, None)
    analysis = compute_sets(normal, start_rule)
    errors = left_recursion(normal, analysis)
    if errors:
        return Compiled(errors, None, None, None)
    return Compiled([], normal, start_rule, build_predict_table(normal, analysis))


class ParseFailure(Exception):
    def __init__(self, reason: str, message: str, position: int):
        super().__init__(f"{reason} at event {position}: {message}")
        self.reason = reason
        self.message = message
        self.position = position


def check_arity(name: str, params: Optional[Tuple[str, ...]], count: int) -> None:
    """A ``ParseFailure`` at event 0 when rule ``name``, whose parameters are
    ``params`` (None when it has no clauses), does not take ``count`` arguments."""
    if params is not None and len(params) != count:
        message = f"rule {name} takes {len(params)} argument(s), got {count}"
        raise ParseFailure(CALL_ARITY, message, 0)


def eval_reason(exc: EvalError) -> str:
    """The failure reason for ``exc``, the same when the oracle lets it out."""
    return GUARD_NON_BOOLEAN if isinstance(exc, NonBooleanGuard) else EVAL_ERROR


class IncompleteParse(ParseFailure):
    def __init__(self, message: str, position: int):
        super().__init__(INCOMPLETE_PARSE, message, position)


# -- what the generated code calls ---------------------------------------------


def _unexpected(reason: str, expected: str, event, position: int) -> ParseFailure:
    if event is None:
        return ParseFailure(UNEXPECTED_END_OF_EVENTS, f"expected {expected}", position)
    return ParseFailure(reason, f"expected {expected}, found {_describe(event)}", position)


def _describe(event: SaxEvent) -> str:
    if type(event) is tuple:
        return f"<{event[0]}>"
    if type(event) is str:
        return f"</{event}>"
    return f"text {shorten(repr(event.text[:SHOWN]))}"


def _open(tag: str, event, position: int) -> ParseFailure:
    return _unexpected(TAG_MISMATCH, f"<{tag}>", event, position)


def _close(tag: str, event, position: int) -> ParseFailure:
    return _unexpected(TAG_MISMATCH, f"</{tag}>", event, position)


def _no_text(event, position: int) -> ParseFailure:
    return _unexpected(UNEXPECTED_EVENT, "text", event, position)


def _not_empty(event, position: int) -> ParseFailure:
    message = f"expected no more content, found {_describe(event)}"
    return ParseFailure(UNEXPECTED_EVENT, message, position)


def _no_attr(tag: str, attr: str, position: int) -> ParseFailure:
    return ParseFailure(MISSING_ATTRIBUTE, f"element <{tag}> lacks attribute {attr!r}", position)


def _no_predict(rule: str, event, position: int) -> ParseFailure:
    token = event[0] if type(event) is tuple else token_of_event(event)
    message = f"no prediction for rule {rule} on {token_label(token)}"
    return ParseFailure(NO_PREDICT_ENTRY, message, position)


def _unpack(value: Value, count: int, position: int) -> tuple:
    if isinstance(value, TupleVal) and len(value.items) == count:
        return value.items
    message = f"cannot bind {count} names to {type(value).__name__}"
    raise ParseFailure(BIND_ARITY_MISMATCH, message, position)


def _any(events, event, position: int):
    """Skip one subtree or text: the lookahead and position after it."""
    if type(event) is tuple:  # down to its end tag
        opened = [event[0]]
        while opened:
            position += 1
            event = next(events, None)
            kind = type(event)
            if kind is tuple:
                opened.append(event[0])
            elif kind is str and event == opened[-1]:
                opened.pop()
            elif kind is not TextEvt:
                raise _close(opened[-1], event, position)
    elif type(event) is not TextEvt:
        raise _unexpected(UNEXPECTED_EVENT, "an element or text", event, position)
    position += 1
    return next(events, None), position


class _Unbound:
    """The value of a local whose name only some guarded branches bind."""


_UNBOUND = _Unbound()


def _unbound(name: str):
    raise UnboundVariable(name)


def _maybe(value, name: str):
    if value is _UNBOUND:
        raise UnboundVariable(name)
    return value


def _env(names: Tuple[str, ...], values: tuple) -> dict:
    """The environment of a closure: ``names`` bound to ``values``, but none to ``_UNBOUND``."""
    return {name: value for name, value in zip(names, values) if value is not _UNBOUND}


_TAIL = object()  # first of what a unit returns for a tail call: (_TAIL, callee, arguments)

# The globals of generated code.
_GLOBALS = {
    "TextEvt": TextEvt, "TermVal": TermVal, "ListVal": ListVal, "TupleVal": TupleVal,
    "BoolVal": BoolVal, "ConsList": ConsList, "NULL": NULL, "EMPTY_CONS": EMPTY_CONS,
    "_U": _UNBOUND, "_TAIL": _TAIL, "_tok": token_of_event, "_equal": _equal,
    "_add_child": _add_child, "_adopt": _adopt, "list_elements": list_elements, "truth": truth,
    "_unbound": _unbound, "_maybe": _maybe, "_env": _env, "_unpack": _unpack, "_any": _any,
    "_open": _open, "_close": _close, "_no_text": _no_text, "_not_empty": _not_empty,
    "_no_attr": _no_attr, "_no_predict": _no_predict,
}  # fmt: skip

# -- the program ------------------------------------------------------------------

INLINE_SIZE = 6  # clauses a callee may expand to and still be inlined: compile()'s memory grows with a unit
MAX_DEPTH = 32  # elements and inlined clauses open at once where a unit inlines a call
MAX_LOOPS = 12  # loops open at once in a unit
MAX_TESTS = 256  # tests in one if/elif chain
MAX_SOURCE = 4_000  # characters of source in a unit before the rest of a sequence becomes a unit
MAX_INDENT = 60  # indentation levels in a unit
MAX_EXPR = 40  # expression nesting inlined

END = "END"  # a loop row's entry where the repetition ends


class Program:
    """A predict table turned into generated code, one unit at a time.

    ``rows[rule][token]`` is the clause the table predicts, and for a rule
    a repetition lifted, the clause of one item, or ``END``.  ``params[rule]``
    are a rule's parameters.  ``units`` holds the unit functions, numbered
    as ``entry`` hands them out.  ``inlines`` says from the call graph alone
    whether a call may inline its callee, and ``_Shape`` applies it.  A call
    whose argument count its callee does not take is a ``ParseFailure`` at
    event 0 as the program is built."""

    def __init__(self, table: PredictTable):
        self.params = {name: clause.params for (name, _), clause in table.entries.items()}
        self.loops = table.loops
        self.rows: Dict[str, Dict[str, object]] = {}
        items: Dict[str, Clause] = {}  # the item of each loop, as a clause
        for (name, token), clause in table.entries.items():
            if name in self.loops:
                if len(clause.body) == 1:  # the Nil clause
                    clause = END
                else:  # the cons clause's ``x = item``, in the loop's environment
                    item = items.get(name)
                    if item is None:
                        item = items[name] = Clause(name, clause.params, clause.body[0].body)
                    clause = item
            self.rows.setdefault(name, {})[token] = clause
        # Each rule's callees, once per call site, for the sizes below.
        self.callees: Dict[str, List[str]] = {}
        self.sites: Dict[str, int] = {}
        seen = set()
        for name, row in self.rows.items():
            callees = self.callees[name] = []
            for clause in row.values():
                if clause is not END and id(clause) not in seen:
                    seen.add(id(clause))
                    self._check_calls(clause.body, callees)
        for callees in self.callees.values():
            for callee in callees:
                self.sites[callee] = self.sites.get(callee, 0) + 1
        # The clauses of each rule that cost code: a chain clause, one call, costs none.
        self.own = {
            name: len({id(c) for c in row.values() if c is not END and not _chain(c)})
            for name, row in self.rows.items()
        }
        self.component = _components(self.callees)
        self.sizes = self._sizes()
        del self.callees
        self.units: list = []
        self.index: Dict[str, int] = {}
        self._pending: List[object] = []
        self.memo: dict = {}  # one closure per distinct expression, see ``compile_expr``
        self.texts: dict = {}  # factory by source text, for one build only
        self.namespace = dict(_GLOBALS)  # the globals of its units
        self._groups: dict = {}

    def _check_calls(self, seq: BodySeq, callees: List[str]) -> None:
        """Check every call in ``seq`` as it would run, and list its callees.
        A loop's items run in the caller's environment, so a loop must be
        passed its own parameters."""
        for item in walk(seq):
            if type(item) is Call:
                name = item.name
                check_arity(name, self.params.get(name), len(item.args))
                if name in self.loops and item.args != tuple(map(VarRef, self.params[name])):
                    raise NotNormalForm(f"loop {name} is not called with its own parameters")
                callees.append(name)

    def _sizes(self) -> List[int]:
        """The clauses each component of the call graph expands to when
        inlined: its own, and for each call site of a callee in a component
        below it, that component's size if it is inlined, else one."""
        sizes: List[int] = []
        members: Dict[int, List[str]] = {}
        for name, number in self.component.items():
            members.setdefault(number, []).append(name)
        for number in range(len(members)):
            size = 0
            for name in members[number]:
                size += self.own[name]
                for callee in self.callees[name]:
                    below = self.component.get(callee)
                    if below is not None and below != number:
                        size += sizes[below] if self._inlined(callee, sizes[below]) else 1
            sizes.append(size)
        return sizes

    def inlines(self, callee: str, caller: str) -> bool:
        """Whether a call from ``caller`` may inline ``callee``: a rule
        without clauses always, one in the caller's component only at its
        one call site, and one in a component below as ``_inlined`` says."""
        number = self.component.get(callee)
        if number is None:
            return True
        if number == self.component.get(caller):
            return self.sites.get(callee) == 1
        return self._inlined(callee, self.sizes[number])

    def _inlined(self, callee: str, size: int) -> bool:
        """Whether a callee in another component, which expands to ``size``
        clauses, is inlined: only at its one call site, so that no code is
        copied; a body that normalization lifted (a fresh name holds a
        ``$``) always, and another rule when it is small."""
        return self.sites.get(callee) == 1 and ("$" in callee or size <= INLINE_SIZE)

    def groups(self, rule: str):
        """``rule``'s row as ``(tokens, clause)`` groups, one per clause that
        a concrete token predicts (one per token for a chain clause), and
        the wildcard's clause or None."""
        found = self._groups.get(rule)
        if found is None:
            row = self.rows.get(rule, {})
            by_clause: Dict[object, tuple] = {}
            for token, clause in row.items():
                if token != ANY_TOKEN:
                    # A chain clause gets a test per token, which resolves its call.
                    key = (id(clause), token) if _chain(clause) else id(clause)
                    by_clause.setdefault(key, ([], clause))[0].append(token)
            groups = [(tuple(tokens), clause) for tokens, clause in by_clause.values()]
            found = self._groups[rule] = (groups, row.get(ANY_TOKEN))
        return found

    def entry(self, rule: str) -> int:
        """The number of the unit for ``rule``, built with every unit it
        calls that is not built yet."""
        index = self.index.get(rule)
        if index is None:
            index = self.unit(rule)
            memo: dict = {}  # factory and constants' recipes by shape, for this build only
            while self._pending:
                rule = self._pending.pop()
                if type(rule) is tuple:  # a nested unit of a unit made from the memo
                    number, factory, recipes, shape = rule
                    self.units[number] = factory(*[shape.resolve(r) for r in recipes])
                    continue
                shape = _Shape(self, rule)
                found = memo.get(shape.key)
                if found is None:
                    unit = _Unit(self, shape)
                    factory = unit.rule(rule)
                    memo[shape.key] = factory, unit.recipes
                    consts = unit.consts
                else:
                    factory, recipes = found
                    values, resolve = shape.values, shape.resolve
                    consts = [values[r[1]] if r[0] == "s" else resolve(r) for r in recipes]
                self.units[self.index[rule]] = factory(*consts)
            self.texts = {}
        return index

    def unit(self, rule: str) -> int:
        """The number of the unit for ``rule``, queued to be built when new.
        ``_pending`` also holds the nested units that ``_Shape.resolve`` numbers."""
        index = self.index.get(rule)
        if index is None:
            index = self.index[rule] = self.add(None)
            self._pending.append(rule)
        return index

    def add(self, unit) -> int:
        self.units.append(unit)
        return len(self.units) - 1



def _chain(clause) -> bool:
    """Whether ``clause`` (not a loop's ``END``) is a chain clause: one call."""
    return clause is not END and len(clause.body) == 1 and type(clause.body[0]) is Call


def _components(graph: Dict[str, List[str]]) -> Dict[str, int]:
    """Tarjan's strongly connected components of ``graph``, iteratively:
    each node's component, numbered so that a component's callees come first."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    component: Dict[str, int] = {}
    stack: List[str] = []
    count = 0
    for root in graph:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                index[node] = low[node] = len(index)
                stack.append(node)
            edges = graph[node]
            while i < len(edges):
                target = edges[i]
                i += 1
                if target not in graph:
                    continue
                if target not in index:
                    work.append((node, i))
                    work.append((target, 0))
                    break
                if target not in component:  # on the stack
                    low[node] = min(low[node], index[target])
            else:
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        component[member] = count
                        if member == node:
                            break
                    count += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return component


class _Shape:
    """What the code of the unit for a rule depends on, as ``key``: the rows
    and clauses of each rule the unit may inline, in a flat sequence of
    markers and counts, and the strings and integer literals among them,
    each replaced by its number in order of first occurrence.  The generator
    tests strings only for equality, and inlines only the rules in
    ``walked``, so two units with one key have one text.  The key picks the
    factory compiled for the first unit of the shape, and ``resolve`` makes
    another unit's constants from the recipes recorded for the first.

    The walk is the one place that decides how far a unit inlines: it walks
    a callee where ``Program.inlines`` allows and fewer than ``MAX_DEPTH``
    elements and inlined clauses are open, and ``_Unit.call`` inlines only
    the callees it walked.  The key also fixes which branches of a row
    share one form, and where ``MAX_SOURCE`` cuts a sequence: both follow
    from the text generated, which the key fixes up to its constants."""

    def __init__(self, program: Program, rule: str):
        self.program = program
        self.out: list = []  # the markers and counts
        self.strings: list = []
        self.closures: List[Expr] = []  # the expressions ``_Unit.expr`` may run as closures
        self.rules, self.walked = [(rule, 1)], {rule}
        out, strings = self.out, self.strings
        for name, depth in self.rules:  # grows as inlined callees are found
            params = program.params.get(name, ())
            row = program.rows.get(name, {})
            strings.append(name)
            strings.extend(params)
            strings.extend(row)
            strings.extend([token[1:] for token in row if token[0] == "/"])
            out.append(name in program.loops)
            out.append(len(params))
            out.append(len(row))
            index: Dict[int, int] = {}
            for token, clause in row.items():
                out.append(token if token in _SPECIAL_TOKENS else token[0] == "/")
                number = index.get(id(clause))
                if number is None:
                    number = index[id(clause)] = len(index)
                    out.append(number)
                    if clause is not END:
                        strings.append(clause.name)
                        strings.extend(clause.params)
                        out.append(len(clause.params))
                        self.seq(clause.body, clause.name, depth)
                    else:
                        out.append(END)
                else:
                    out.append(number)
        numbers = dict.fromkeys(strings)
        for number, text in enumerate(numbers):
            numbers[text] = number
        self.key = tuple(out), tuple(map(numbers.__getitem__, strings))
        self.numbers = numbers
        self.values = list(numbers)
        self.exprs: Dict[int, int] = {}  # the number of each closure's expression
        for number, expr in enumerate(self.closures):
            self.exprs.setdefault(id(expr), number)
        del self.out, self.strings, self.rules

    def seq(self, seq: BodySeq, caller: str, depth: int) -> None:
        program, out, strings, expr = self.program, self.out, self.strings, self.expr
        out.append(len(seq))
        for item in seq:
            kind = type(item)
            out.append(kind)
            if kind is ElementSpec:
                strings.append(item.tag)
                for pair in item.attrs:
                    strings.extend(pair)
                out.append(len(item.attrs))
                self.seq(item.else_body, caller, depth + 1)
                out.append(len(item.guarded))
                for guard, body in item.guarded:
                    expr(guard, 0)
                    self.seq(body, caller, depth + 1)
            elif kind is Actions:
                out.append(len(item.exprs))
                for e in item.exprs:
                    expr(e, 0)
            elif kind is Call:
                name = item.name
                loop = name in program.loops
                strings.append(name)
                if loop:
                    strings.extend(program.params[name])
                out.append(loop)
                out.append(len(item.args))
                for arg in item.args:
                    expr(arg, 0)
                if depth < MAX_DEPTH and name not in self.walked and program.inlines(name, caller):
                    self.walked.add(name)
                    self.rules.append((name, depth + 1))
            elif kind is Bind:
                strings.extend(item.names)
                out.append(len(item.names))
                self.seq(item.body, caller, depth)

    def expr(self, expr: Expr, depth: int) -> None:
        """As ``_Unit.expr`` reads ``expr``."""
        kind = type(expr)
        self.out.append(kind)
        if kind is VarRef:
            self.strings.append(expr.name)
        elif kind is StrLit:
            self.strings.append(expr.value)
        elif kind is IntLit:
            self.strings.append((int, expr.value))
        elif kind is BoolLit:
            self.out.append(expr.value)
        elif kind is not NullLit:
            if depth >= MAX_EXPR or kind is Fold:
                self.closures.append(expr)
            depth += 1
            if kind is Construct:
                self.strings.append(expr.ctor)
                self.out.append(expr.ctor == ADD_CHILD)
                self.out.append(len(expr.args))
                for arg in expr.args:
                    self.expr(arg, depth)
            elif kind is ConsExpr:
                self.strings.append(CONS)
                self.expr(expr.head, depth)
                self.expr(expr.tail, depth)
            elif kind is ListLit:
                self.out.append(len(expr.items))
                for item in expr.items:
                    self.expr(item, depth)
            elif kind is Compare:
                self.out.append(expr.op == "=")
                self.expr(expr.left, depth)
                self.expr(expr.right, depth)
            elif kind is Fold:
                self.strings.extend((expr.elem_var, expr.acc_var))
                for part in (expr.init, expr.step, expr.over):
                    self.expr(part, depth)
            else:
                raise TypeError(f"not an expression: {expr!r}")

    def recipe(self, value) -> tuple:
        kind, numbers = type(value), self.numbers
        if kind is str:
            return "s", numbers[value]
        if kind is IntVal:
            return "i", numbers[(int, value.value)]
        if kind is BoolVal:
            return "v", value
        if kind is frozenset:
            return "f", tuple([numbers[token] for token in value])
        return "t", tuple([numbers[name] for name in value])  # a tuple of names

    def resolve(self, recipe: tuple):
        kind, arg, values = recipe[0], recipe[1], self.values
        if kind == "s":
            return values[arg]
        if kind == "i":
            return IntVal(values[arg][1])
        if kind == "v":
            return arg
        if kind == "f":
            return frozenset([values[number] for number in arg])
        if kind == "t":
            return tuple([values[number] for number in arg])
        if kind == "u":
            return self.program.unit(values[arg])
        if kind == "x":
            return compile_expr(self.closures[arg], self.program.memo)
        if kind == "d":
            return {self.resolve(token): self.resolve(r) for token, r in arg}
        # "n": a nested unit, numbered now and built after this one, so that
        # a chain of them is built in a loop (see ``_Unit.nested``)
        index = self.program.add(None)
        self.program._pending.append((index, arg, recipe[2], self))
        return index


_SPECIAL_TOKENS = (TEXT_TOKEN, ANY_TOKEN, END_OF_INPUT)


class _Frame:
    """The placeholders of a branch that ``_Unit.forms`` generates, named
    ``_K{depth}_{n}_`` for constants and ``_L{depth}_{n}_`` for locals, in
    order of first use; ``depth`` counts the frames open outside it.  The
    branches of a row number their placeholders alike, so ``forms`` drops
    the ``temps`` a branch made from ``_Unit.temps`` and ``_Unit.lists``
    once it is generated: no code after a branch reads its locals."""

    __slots__ = ("depth", "names", "values", "count", "cuts", "temps")

    def __init__(self, depth: int, cuts: bool = False):
        self.depth = depth
        self.cuts = cuts  # whether ``MAX_SOURCE`` may cut a sequence in the branch
        self.names: dict = {}  # a constant's key in ``_Unit.const``: its placeholder
        self.values: List[tuple] = []  # each constant's value and recipe, None if derived
        self.count = 0  # locals
        self.temps: List[str] = []  # the placeholders ``_Unit.temp`` made


class _Scope:
    """The locals of one inlined clause: ``slots`` maps each name to its
    local, shared by the branches of a guarded element, and ``bound`` says
    whether the name is bound for certain (True) or by some branches only
    (False); a name it lacks is unbound."""

    __slots__ = ("slots", "bound")

    def __init__(self, slots: Dict[str, str], bound: Dict[str, bool]):
        self.slots = slots
        self.bound = bound

    def branch(self) -> "_Scope":
        return _Scope(self.slots, dict(self.bound))


_INDENT = [" " * i for i in range(MAX_INDENT + 8)]
_READ = "pos += 1; ev = next(it, None)"  # consume the lookahead and read the next event
_TOKEN = "tok = ev[0] if type(ev) is tuple else _tok(ev)"


class _Unit:
    """The source of one unit, emitted line by line.  Constants (``k0``…)
    and locals (``v0``…) are numbered in order of first use, so that units
    of one shape have one text.  Each ``ind`` argument is an indentation
    level; each ``used`` says whether a value is kept, and a value is
    returned as an atom: a local, a constant or ``NULL``.  It inlines the
    callees that ``shape`` walked, and checks only what the code it has
    emitted knows: the rules being inlined (``stack``), the indentation, the
    loops open and the characters emitted (``size``).

    The branches of a row are generated first with placeholders for their
    constants and locals (``frame``, see ``forms``), so that branches of one
    form read the same; ``share`` then emits one branch per form.  A row
    without two branches of one form comes out as if generated directly."""

    def __init__(self, program: Program, shape: "_Shape"):
        self.program = program
        self.shape = shape
        self.lines: List[str] = []
        self.consts: list = []
        self.recipes: list = []  # how ``shape.resolve`` makes each constant for a unit of this shape
        self.names: dict = {}
        self.count = 0
        self.temps: set = set()  # locals that hold a value and no name
        self.lists: set = set()  # locals that hold a repetition's value, a ``ConsList`` from its start
        self.stack: List[str] = []  # the rules being inlined, the outermost first
        self.loops = 0
        self.size = 0  # characters of source emitted, the constants' parameters included
        self.frame: Optional[_Frame] = None  # the branch being generated with placeholders, if any
        self.whole: Optional[BodySeq] = None  # a nested unit's sequence, which it cuts with a tail call
        self.rest: Optional[tuple] = None  # what follows that cut: see ``nested``

    # -- a whole unit ------------------------------------------------------------

    def rule(self, rule: str):
        """The factory of the unit that enters ``rule``.  A loop's arguments may be unbound."""
        program = self.program
        params = program.params.get(rule, ())
        certain = rule not in program.loops
        values = [(self.local(), certain) for _ in params]
        if rule in program.loops:
            value = self.loop(rule, values, True, 2)
        else:
            value = self.dispatch(rule, values, True, 2, None, True)
        self.emit(2, f"return {value}, ev, pos")
        return self.compile(len(params))

    def compile(self, params: int):
        consts = [f"k{i}" for i in range(len(self.consts))]
        args = "".join(f", v{i}" for i in range(params)) + "".join(f", {k}={k}" for k in consts)
        head = f"def _f({', '.join(consts)}):\n def u(it, ev, pos{args}):\n"
        text = head + "\n".join(self.lines) + "\n return u\n"
        texts = self.program.texts
        factory = texts.get(text)
        if factory is None:
            namespace = self.program.namespace
            exec(compile(text, "<xmlgram>", "exec"), namespace)
            factory = texts[text] = namespace.pop("_f")
        return factory

    # -- names -------------------------------------------------------------------

    def emit(self, ind: int, line: str) -> None:
        line = _INDENT[ind] + line
        self.lines.append(line)
        self.size += len(line) + 1

    def const(self, value, recipe: Optional[tuple] = None) -> str:
        """The name of constant ``value``, or in a branch generated with
        placeholders, its placeholder.  Its recipe is derived from the shape
        unless given: a unit number, a closure or a dict needs one."""
        kind, frame = type(value), self.frame
        key = value if kind is str else id(value) if kind is dict else (kind, value)
        names = self.names if frame is None else frame.names
        name = names.get(key)
        if name is None:
            if frame is not None:
                name = f"_K{frame.depth}_{len(frame.values)}_"
                frame.values.append((value, recipe))
            else:
                name = f"k{len(self.consts)}"
                self.consts.append(value)
                self.recipes.append(recipe or self.shape.recipe(value))
                self.size += 2 * len(name) + 4  # ``, k0`` and ``, k0=k0`` in the parameters
            names[key] = name
        return name

    def local(self) -> str:
        frame = self.frame
        if frame is not None:
            frame.count += 1
            return f"_L{frame.depth}_{frame.count - 1}_"
        self.count += 1
        return f"v{self.count - 1}"

    def read(self, scope: _Scope, name: str) -> str:
        bound = scope.bound.get(name)
        if bound:
            return scope.slots[name]
        if bound is None:
            return f"_unbound({self.const(name)})"
        return f"_maybe({scope.slots[name]}, {self.const(name)})"

    def bind(self, scope: _Scope, name: str, certain: bool = True) -> str:
        slot = scope.slots.get(name)
        if slot is None:
            slot = scope.slots[name] = self.local()
        scope.bound[name] = certain
        self.lists.discard(slot)  # it takes another value
        return slot

    def temp(self) -> str:
        local = self.local()
        self.temps.add(local)
        if self.frame is not None:
            self.frame.temps.append(local)
        return local

    def atom(self, code: str, ind: int) -> str:
        if code.isidentifier():
            return code
        local = self.temp()
        self.emit(ind, f"{local} = {code}")
        return local

    # -- expressions -------------------------------------------------------------

    def expr(self, expr: Expr, scope: _Scope, depth: int = 0) -> str:
        """``expr`` as Python source: it raises what ``compile_expr``'s closure raises."""
        kind = type(expr)
        if kind is VarRef:
            return self.read(scope, expr.name)
        if kind is StrLit:
            return self.const(expr.value)
        if kind is IntLit:
            return self.const(IntVal(expr.value))
        if kind is BoolLit:
            return self.const(BoolVal(expr.value))
        if kind is NullLit:
            return "NULL"
        if depth >= MAX_EXPR:
            return self.closure(expr, scope)
        depth += 1
        if kind is ConsExpr:
            expr, kind = Construct(CONS, (expr.head, expr.tail)), Construct
        if kind is Construct:
            args = _tuple([self.expr(arg, scope, depth) for arg in expr.args])
            if expr.ctor == ADD_CHILD:
                return f"_add_child({args})"
            return f"TermVal({self.const(expr.ctor)}, {args})"
        if kind is ListLit:
            return f"ListVal({_tuple([self.expr(item, scope, depth) for item in expr.items])})"
        if kind is Compare:
            left, right = self.expr(expr.left, scope, depth), self.expr(expr.right, scope, depth)
            return f"BoolVal({'' if expr.op == '=' else 'not '}_equal({left}, {right}))"
        if kind is Fold:
            appends, step = _fold_step(expr)
            if appends and step == VarRef(expr.elem_var):  # ``acc.add(e)``: the elements are the children
                over, init = self.expr(expr.over, scope, depth), expr.init
                if over in self.lists and type(init) is Construct and init.ctor != ADD_CHILD:
                    # a repetition's fresh ``ConsList``, added to a new term: join the tuples
                    args = _tuple([self.expr(arg, scope, depth) for arg in init.args])
                    return f"TermVal({self.const(init.ctor)}, {args} + {over}.items)"
                return f"_adopt(list_elements({over}), {self.expr(init, scope, depth)})"
            return self.closure(expr, scope)
        raise TypeError(f"not an expression: {expr!r}")

    def closure(self, expr: Expr, scope: _Scope) -> str:
        """``expr`` as its closure, called on the variables it reads."""
        names = tuple(dict.fromkeys(r.name for r in expr_vars(expr) if r.name in scope.bound))
        values = _tuple([scope.slots[name] for name in names])
        recipe = ("x", self.shape.exprs[id(expr)])
        function = self.const(compile_expr(expr, self.program.memo), recipe)
        return f"{function}(_env({self.const(names)}, {values}))"

    def actions(self, exprs: Tuple[Expr, ...], scope: _Scope) -> str:
        if len(exprs) == 1:
            return self.expr(exprs[0], scope)
        if exprs:
            return f"TupleVal({_tuple([self.expr(e, scope) for e in exprs])})"
        return "NULL"

    # -- bodies ------------------------------------------------------------------

    def seq(self, seq: BodySeq, scope: _Scope, used: bool, ind: int, known, tail: bool, start: int = 0):
        """Emit ``seq`` from item ``start`` on; return its value and the token
        known to be next.  ``known`` is the lookahead's token when a test has
        matched it."""
        value = "NULL" if used else None
        last = len(seq) - 1
        for i in range(start, len(seq)):
            item = seq[i]
            kind = type(item)
            if self.size > MAX_SOURCE and (self.frame is None or self.frame.cuts) and self.costs(item):
                value, known = self.cut(seq, i, scope, used, ind, tail), None
                break
            keep = used and i == last
            if kind is Call:
                value = self.call(item, scope, keep, ind, known, tail and i == last)
                known = None
            elif kind is Bind:
                value, _ = self.seq(item.body, scope, True, ind, known, False)
                name = item.names[0]
                if len(item.names) == 1 and value in self.temps and name not in scope.slots:
                    self.temps.discard(value)  # the name takes the value's local
                    scope.slots[name], scope.bound[name] = value, True
                elif len(item.names) == 1:
                    slot = self.bind(scope, name)
                    if value != slot:
                        self.emit(ind, f"{slot} = {value}")
                    value = slot
                else:
                    slots = ", ".join([self.bind(scope, name) for name in item.names])
                    self.emit(ind, f"{slots}, = _unpack({value}, {len(item.names)}, pos)")
                known = None
            elif kind is Actions:
                code = self.actions(item.exprs, scope)
                if keep:
                    value = self.atom(code, ind)
                elif not code.isidentifier():  # it may fail
                    self.emit(ind, code)
            elif kind is ElementSpec:
                value = self.element(item, scope, keep, ind, known)
                known = None
            elif kind is Text:
                if known != TEXT_TOKEN:
                    self.emit(ind, "if type(ev) is not TextEvt: raise _no_text(ev, pos)")
                if keep:
                    value = self.temp()
                    self.emit(ind, f"{value} = ev.text")
                self.emit(ind, _READ)
                known = None
            elif kind is Any:
                self.emit(ind, "ev, pos = _any(it, ev, pos)")
                known = None
            elif kind is Empty:
                self.emit(ind, "if ev is not None and type(ev) is not str: raise _not_empty(ev, pos)")
            elif kind is not Ok:
                raise NotNormalForm(f"{kind.__name__} node in supposedly normal grammar")
            if keep and kind in _NULL_ITEMS:
                value = "NULL"
        return (value if used else None), known

    def element(self, item: ElementSpec, scope: _Scope, used: bool, ind: int, known) -> Optional[str]:
        if item.guarded and ind >= MAX_INDENT:
            return self.nested((item,), 0, scope, used, ind)
        tag = self.const(item.tag)
        if known != item.tag:
            self.emit(ind, f"if type(ev) is not tuple or ev[0] != {tag}: raise _open({tag}, ev, pos)")
        source = "ev[1]"
        if len(item.attrs) > 1:
            source = self.local()
            self.emit(ind, f"{source} = ev[1]")
        for var, attr in item.attrs:
            name = self.const(attr)
            slot = self.bind(scope, var)
            self.emit(ind, f"if ({slot} := {source}.get({name})) is None: raise _no_attr({tag}, {name}, pos)")
        if not item.guarded:
            self.emit(ind, _READ)
            value, _ = self.seq(item.else_body, scope, used, ind, None, False)
        else:
            mark, outer = len(self.lines), set(scope.bound)
            value = self.temp() if used else None
            branches = []
            for i, (guard, body) in enumerate(item.guarded + ((None, item.else_body),)):
                if guard is None:
                    self.emit(ind, "else:")
                elif type(guard) is Compare:  # a bool already
                    left, right = self.expr(guard.left, scope, 1), self.expr(guard.right, scope, 1)
                    test = f"{'' if guard.op == '=' else 'not '}_equal({left}, {right})"
                    self.emit(ind, f"{'elif' if i else 'if'} {test}:")
                else:
                    self.emit(ind, f"{'elif' if i else 'if'} truth({self.expr(guard, scope)}):")
                inner = scope.branch()
                self.emit(ind + 1, _READ)
                result, _ = self.seq(body, inner, used, ind + 1, None, False)
                if used and result != value:
                    self.emit(ind + 1, f"{value} = {result}")
                branches.append(inner.bound)
            for name in dict.fromkeys(name for bound in branches for name in bound):
                certain = all(bound.get(name) for bound in branches)
                if not certain and name not in outer:  # bound by some branches only
                    line = _INDENT[ind] + f"{scope.slots[name]} = _U"
                    self.lines.insert(mark, line)
                    self.size += len(line) + 1
                scope.bound[name] = certain
        self.emit(ind, f"if ev != {tag}: raise _close({tag}, ev, pos)")
        self.emit(ind, _READ)
        return value

    def costs(self, item) -> bool:
        """Whether ``item`` is an element or a call of a unit: a sequence is
        cut before one, so that a nested unit holds the code it costs."""
        return type(item) is ElementSpec or type(item) is Call and not self.inlines(item.name)

    def cut(self, seq: BodySeq, i: int, scope: _Scope, used: bool, ind: int, tail: bool) -> Optional[str]:
        """``seq`` from item ``i`` on, where the unit's source has passed
        ``MAX_SOURCE``: a nested unit, called with the locals in scope.  In a
        nested unit's own sequence, a tail call to the unit for the rest,
        which ``nested`` generates next."""
        if seq is not self.whole:
            return self.nested(seq, i, scope, used, ind, tail)
        index = self.program.add(None)
        self.rest = i, index, dict(scope.bound), len(self.recipes)
        name = self.const(index, ("n",))  # ``nested`` gives the recipe once that unit is compiled
        self.emit(ind, f"return _TAIL, {name}, ({_args(scope)})")
        return None

    def nested(self, seq: BodySeq, start: int, scope: _Scope, used: bool, ind: int, tail: bool = False):
        """``seq`` from item ``start`` on, called as a unit of its own: the
        rest of a sequence past ``MAX_SOURCE``, or a guarded element nested too
        deeply.  It takes the locals in scope and returns its value and
        theirs, or, where the rest is in tail position, is tail-called and
        returns its value alone, so that a tail call in it stays one.  A
        nested unit that passes ``MAX_SOURCE`` in its own sequence tail-calls
        a unit for the rest, and so on: the loop below generates that chain
        one unit after another, and the last returns."""
        program, bound, args = self.program, dict(scope.bound), _args(scope)
        index = first = program.add(None)
        link = recipe = None
        while True:
            unit = _Unit(program, self.shape)
            unit.stack, unit.whole = list(self.stack), seq
            inner = _Scope({}, {})
            for name, certain in bound.items():
                unit.bind(inner, name, certain)
            value, _ = unit.seq(seq, inner, True, 2, None, tail, start)
            if unit.rest is None:
                if not tail:
                    value = f"({_tuple([value] + [inner.slots[n] for n in inner.bound])})"
                unit.emit(2, f"return {value}, ev, pos")
            factory = unit.compile(len(bound))
            program.units[index] = factory(*unit.consts)
            made = ("n", factory, unit.recipes)
            if link is None:
                recipe = made
            else:
                link.recipes[link.rest[3]] = made
            if unit.rest is None:
                break
            link = unit
            start, index, bound, _ = unit.rest
        call = f"{self.const(first, recipe)}, ({args})"
        if tail:
            self.emit(ind, f"return _TAIL, {call}")
            return "NULL" if used else None
        targets = [self.temp()] + [self.bind(scope, n, inner.bound[n]) for n in inner.bound]
        self.emit(ind, f"({', '.join(targets)},), ev, pos = yield {call}")
        return targets[0] if used else None

    # -- calls -------------------------------------------------------------------

    def call(self, item: Call, scope: _Scope, used: bool, ind: int, known, tail: bool) -> Optional[str]:
        """Inline the callee's clauses, or call its unit."""
        program, name = self.program, item.name
        inline = self.inlines(name) and ind + 3 <= MAX_INDENT
        if name in program.loops:
            inline = inline and self.loops < MAX_LOOPS
            bound = scope.bound
            values = [(scope.slots[p], bound[p]) if p in bound else None for p in program.params[name]]
            if inline:
                return self.loop(name, values, used, ind)
            args = [value[0] if value else "_U" for value in values]
        else:
            values = [(self.atom(self.expr(arg, scope), ind), True) for arg in item.args]
            if inline:
                return self.dispatch(name, values, used, ind, known, tail)
            args = [value for value, _ in values]
        index = self.const(program.unit(name), ("u", self.shape.numbers[name]))
        call = f"{index}, ({', '.join(['ev', 'pos'] + args)})"
        if tail:
            self.emit(ind, f"return _TAIL, {call}")
            return "NULL" if used else None
        value = self.temp()
        self.emit(ind, f"{value}, ev, pos = yield {call}")
        return value if used else None

    def inlines(self, name: str) -> bool:
        """Whether a call of ``name`` may be inlined here, as far as the rules go."""
        return name in self.shape.walked and name not in self.stack

    def dispatch(self, rule: str, values: list, used: bool, ind: int, known, tail: bool) -> Optional[str]:
        """The clause ``rule``'s row predicts, inlined: one test per clause."""
        groups, wild = self.program.groups(rule)
        if known is not None:
            clause = self.program.rows.get(rule, {}).get(known) or wild
            if clause is not None:
                return self.clause(clause, values, used, ind, known, tail)
        elif groups:
            if len(groups) == 1 and wild is None:
                tokens, clause = groups[0]
                self.emit(ind, f"if {self.mismatch(tokens, ind)}: raise _no_predict({self.const(rule)}, ev, pos)")
                return self.clause(clause, values, used, ind, _single(tokens), tail)
            value = self.temp() if used else None
            self.chain(rule, groups, wild, ind, self.branch, values, value, tail)
            return value
        elif wild is not None:
            return self.clause(wild, values, used, ind, None, tail)
        self.emit(ind, f"raise _no_predict({self.const(rule)}, ev, pos)")
        return "NULL" if used else None

    def branch(self, clause: Clause, ind: int, known, values: list, value: Optional[str], tail: bool) -> None:
        mark = len(self.lines)
        result = self.clause(clause, values, value is not None, ind, known, tail)
        if value is not None and result != value:
            self.emit(ind, f"{value} = {result}")
        if len(self.lines) == mark:
            self.emit(ind, "pass")

    def clause(self, clause: Clause, values: list, used: bool, ind: int, known, tail: bool) -> Optional[str]:
        """``clause``, its parameters bound to ``values``: a local and
        whether it is bound for certain, or None where it is unbound.  A
        parameter the body may bind again gets a local of its own."""
        scope = _Scope({}, {})
        rebound = may_bind((clause.body,)) if clause.params else ()
        for param, value in zip(clause.params, values):
            if value is not None:
                code, certain = value
                if param in rebound:
                    local = self.local()
                    self.emit(ind, f"{local} = {code}")
                    code = local
                self.temps.discard(code)  # it has a name now
                scope.slots[param], scope.bound[param] = code, certain
        self.stack.append(clause.name)
        value, _ = self.seq(clause.body, scope, used, ind, known, tail)
        self.stack.pop()
        return value

    def loop(self, rule: str, values: list, used: bool, ind: int) -> Optional[str]:
        """A repetition as a ``while`` over its loop row, which tests for an
        item before the end."""
        groups, wild = self.program.groups(rule)
        acc = self.local() if used else None
        if used:
            self.emit(ind, f"{acc} = []")
        self.emit(ind, "while True:")
        self.loops += 1
        groups = sorted(groups, key=lambda group: group[1] is END)
        self.chain(rule, groups, wild, ind + 1, self.item, values, acc)
        self.loops -= 1
        if not used:
            return None
        value = self.temp()
        self.lists.add(value)
        self.emit(ind, f"{value} = ConsList(tuple({acc})) if {acc} else EMPTY_CONS")
        return value

    def chain(self, rule: str, groups: list, wild, ind: int, body, *args) -> None:
        """A test of the lookahead's token for each ``(tokens, clause)`` of
        ``groups``, with ``body(clause, ind, known, *args)`` under it, and
        then the wildcard's clause, or a ``NoPredictEntry`` when the row has
        none.  ``dispatch`` and ``loop`` share it."""
        if groups:
            self.emit(ind, _TOKEN)
            self.tests(groups, ind, body, args)
            self.emit(ind, "else:")
            ind += 1
        if wild is None:
            self.emit(ind, f"raise _no_predict({self.const(rule)}, ev, pos)")
        else:
            body(wild, ind, None, *args)

    def tests(self, groups: list, ind: int, body, args: tuple) -> None:
        """An ``if``/``elif`` chain over ``groups``, one test per form (see
        ``forms``).  CPython compiles each ``elif`` a level deeper than the one
        before, so a chain of more than ``MAX_TESTS`` forms is split into
        blocks, each under one test of all its tokens; a block is a list of
        forms, and the branches in it move one level in per level of blocks."""
        forms = self.forms(groups, ind + 1, body, args)
        levels = 0
        while len(forms) > MAX_TESTS:
            blocks = [forms[i : i + MAX_TESTS] for i in range(0, len(forms), MAX_TESTS)]
            forms = [(tuple(t for tokens, _ in block for t in tokens), block) for block in blocks]
            levels += 1
        self.blocks(forms, ind, levels)

    def blocks(self, forms: list, ind: int, levels: int) -> None:
        for i, (tokens, form) in enumerate(forms):
            self.emit(ind, f"{'elif' if i else 'if'} {self.test(tokens)}:")
            if type(form) is list:
                self.blocks(form, ind + 1, levels)
            else:
                self.share(form, ind + 1, levels)

    def forms(self, groups: list, ind: int, body, args: tuple) -> list:
        """``body(clause, ind, known, *args)`` for each ``(tokens, clause)`` of
        ``groups``, generated with each constant and local a placeholder, so
        that the groups whose branches differ only in their constants read
        the same: each form is one such branch and its groups, in the order of
        the first, as ``(tokens, (members, lines))``.  A member is a group's
        tokens and the ``_Frame`` of its placeholders.

        ``MAX_SOURCE`` cuts no branch that several groups share, which costs
        the code of one; a form of one group that takes the unit past it is
        generated again, where it may cut as outside a row."""
        outer, lines, start = self.frame, self.lines, self.size
        depth = 0 if outer is None else outer.depth + 1
        found: dict = {}  # each form's tokens, members, lines and first clause
        for tokens, clause in groups:
            self.frame, self.lines, self.size = _Frame(depth), [], start
            body(clause, ind, _single(tokens), *args)
            self.drop(self.frame)
            key = "\n".join(self.lines), self.frame.count
            if any(recipe and recipe[0] == "n" for _, recipe in self.frame.values):
                key = id(self.frame)  # a nested unit is no constant to share
            form = found.setdefault(key, [[], [], self.lines, clause])
            form[0].extend(tokens)
            form[1].append((tokens, self.frame))
        size = start  # with the branches before, for ``MAX_SOURCE``
        for form in found.values():
            tokens, members, branch, clause = form
            length = sum(map(len, branch)) + len(branch)
            if size + length > MAX_SOURCE and len(members) == 1 and (outer is None or outer.cuts):
                self.frame, self.lines, self.size = _Frame(depth, True), [], size
                body(clause, ind, _single(tokens), *args)
                self.drop(self.frame)
                members[0], form[2], length = (members[0][0], self.frame), self.lines, self.size - size
            size += length
        self.frame, self.lines, self.size = outer, lines, start
        return [(tuple(tokens), (members, branch)) for tokens, members, branch, _ in found.values()]

    def drop(self, frame: _Frame) -> None:
        """Forget the temps and lists in ``frame``'s placeholders, which the
        next branch of the row numbers again."""
        self.temps.difference_update(frame.temps)
        self.lists.difference_update(frame.temps)

    def share(self, form: tuple, ind: int, levels: int) -> None:
        """Emit a form's branch with its placeholders named: each local a
        local, and each constant as ``shared`` names it.  ``tok`` holds the
        token unless the branch tests another, which takes a local."""
        members, lines = form
        first = members[0][1]
        depth, token = first.depth, "tok"
        if len(members) > 1 and any(_TOKEN in line for line in lines):
            token = self.local()
            self.emit(ind, f"{token} = tok")
        names = {f"_L{depth}_{i}_": self.local() for i in range(first.count)}
        for j, (value, recipe) in enumerate(first.values):
            name = self.const(value, recipe) if len(members) == 1 else self.shared(members, j, token)
            names[f"_K{depth}_{j}_"] = name
        if names:
            parts = re.split(rf"(_[KL]{depth}_\d+_)", "\n".join(lines))
            parts[1::2] = map(names.__getitem__, parts[1::2])
            lines = "".join(parts).split("\n")
        if levels:
            lines = [" " * levels + line for line in lines]
        self.lines += lines
        self.size += sum(map(len, lines)) + len(lines)

    def shared(self, members: list, j: int, token: str) -> str:
        """Constant ``j`` of a form's members: the constant they all agree
        on, or else the token where it is each member's one token, or else a
        dict from each member's tokens to its constant, read at the token."""
        values = [frame.values[j] for _, frame in members]
        value, recipe = values[0]
        if all(v == value for v, _ in values):
            return self.const(value, recipe)
        if all(len(tokens) == 1 and v == tokens[0] for (tokens, _), (v, _) in zip(members, values)):
            return token
        table, recipes = {}, []
        for (tokens, _), (v, r) in zip(members, values):
            for t in tokens:
                table[t] = v
                recipes.append((self.shape.recipe(t), r or self.shape.recipe(v)))
        return f"{self.const(table, ('d', tuple(recipes)))}[{token}]"

    def item(self, clause, ind: int, known, values: list, acc: Optional[str]) -> None:
        if clause is END:
            self.emit(ind, "break")
            return
        mark = len(self.lines)
        value = self.clause(clause, values, acc is not None, ind, known, False)
        if acc is not None:
            self.emit(ind, f"{acc}.append({value})")
        elif len(self.lines) == mark:
            self.emit(ind, "pass")

    def test(self, tokens: tuple) -> str:
        if len(tokens) == 1:
            return f"tok == {self.const(tokens[0])}"
        return f"tok in {self.const(frozenset(tokens))}"

    def mismatch(self, tokens: tuple, ind: int) -> str:
        """A test that the lookahead's token is none of ``tokens``; for one
        token, of the event itself."""
        if len(tokens) > 1:
            self.emit(ind, _TOKEN)
            return f"tok not in {self.const(frozenset(tokens))}"
        token = tokens[0]
        if token == END_OF_INPUT:
            return "ev is not None"
        if token == TEXT_TOKEN:
            return "type(ev) is not TextEvt"
        if token[0] == "/":  # an end tag is its name
            return f"ev != {self.const(token[1:])}"
        return f"type(ev) is not tuple or ev[0] != {self.const(token)}"


_NULL_ITEMS = (Ok, Any, Empty)  # items whose value is null


def _single(tokens: tuple):
    """The token a test of ``tokens`` leaves known, if it is one."""
    return tokens[0] if len(tokens) == 1 else None


def _tuple(items: List[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _args(scope: _Scope) -> str:
    """The arguments of a nested unit: the lookahead, the position and the locals in scope."""
    return ", ".join(["ev", "pos"] + [scope.slots[name] for name in scope.bound])


def _where(trace, position: int, event) -> tuple:
    """The events consumed and the lookahead where the innermost generated
    code, or ``_any`` called from it, was when the exception of ``trace``
    passed; ``position`` and ``event`` if it passed none."""
    while trace is not None:
        frame = trace.tb_frame
        if frame.f_code.co_filename == "<xmlgram>":
            position, event = frame.f_locals["pos"], frame.f_locals["ev"]
        elif frame.f_code is _any.__code__:
            position, event = frame.f_locals["position"], frame.f_locals["event"]
        trace = trace.tb_next
    return position, event


_UNREAD = object()  # the lookahead before the first event is read


class Machine:
    """One parse in progress; construct, then ``run()``.

    ``steps`` counts the driver's transitions and ``max_dump_depth`` the
    most continuations it held at once; ``position`` is the events consumed
    and ``lookahead`` the next one, None at end of input, after a failure
    too."""

    def __init__(
        self,
        table: PredictTable,
        start_rule: str,
        events: Iterable[SaxEvent],
        args: Tuple[Value, ...] = (),
    ):
        if table.conflicts:
            # On a conflicted table the machine can loop round a cycle of chain rules.
            raise ValueError(f"the predict table is not LL(1): {table.conflicts[0]}")
        if table.program is None:
            table.program = Program(table)
        program = table.program
        check_arity(start_rule, program.params.get(start_rule), len(args))
        self._start = program.units[program.entry(start_rule)]
        self._units = program.units
        self._events = iter(events)
        self._args = tuple(args)
        self.lookahead: object = _UNREAD
        self.position = 0
        self.steps = 0
        self.max_dump_depth = 0

    def run(self) -> Value:
        """Drive the units to completion and return the synthesized value.

        A unit returns its value, the lookahead and the position, or asks
        for a tail call; a generator unit yields a call and is resumed with
        the callee's return.  This loop is the only place where one unit
        hands control to another.
        """
        units, events, event = self._units, self._events, self.lookahead
        if event is _UNREAD:
            event = next(events, None)
        stack: list = []  # the suspended callers
        steps, depth = 1, 0
        try:
            done = self._start(events, event, self.position, *self._args)
            while True:
                if type(done) is tuple:
                    if done[0] is _TAIL:
                        steps += 1
                        done = units[done[1]](events, *done[2])
                        continue
                    if not stack:
                        break
                    steps += 1
                    unit, sent = stack.pop(), done
                else:  # a generator unit, entered
                    unit, sent = done, None
                try:
                    call = unit.send(sent)
                except StopIteration as stop:
                    done = stop.value
                    continue
                stack.append(unit)
                if len(stack) > depth:
                    depth = len(stack)
                steps += 1
                done = units[call[0]](events, *call[1])
        except Exception as exc:  # a parse failure, an evaluation error, or reading an event failed
            self.position, self.lookahead = _where(exc.__traceback__, self.position, event)
            if isinstance(exc, EvalError):
                raise ParseFailure(eval_reason(exc), str(exc), self.position) from exc
            raise
        finally:
            self.steps += steps
            self.max_dump_depth = max(self.max_dump_depth, depth)
        value, self.lookahead, self.position = done
        if self.lookahead is not None:
            message = f"parse finished with input remaining ({_describe(self.lookahead)})"
            raise IncompleteParse(message, self.position)
        return value
