"""Grammar compilation and the table-driven parsing machine.

``compile_grammar`` takes a parsed grammar through the well-formedness
check, normalization, nullable/first/follow and the predict table.  The
machine then runs a program (a stack of grammar body items and machine
instructions) against a stream of SAX events, consulting the predict table
whenever a rule call meets the next event's token.  Values are synthesized
onto a value stack as parsing proceeds; when the machine halts the parse
result is the single remaining value.

Value discipline: every program item contributes exactly one value.  The
items of a materialized body are interleaved with ``PopValue`` so that all
but the last component's value is discarded, and an empty body materializes
as ``PushNull``; ``OK``/``EMPTY`` push null.  This keeps bindings and the
terminal state exact: a ``BindInstr`` always finds its body's value on top,
and success leaves exactly one value.

Environments grow monotonically inside a rule activation (attribute and
binding names stay visible for the rest of the clause body) and are
restored when the activation ends.  A call whose continuation still needs
input saves it as a dump frame; a call in tail position modulo value
plumbing (the continuation consumes no events — the recursive clauses
produced by repetition removal always end up in this shape) instead leaves
the continuation in the program behind an ``EnvRestore`` mark.  That keeps
the dump bounded by element nesting rather than by sibling count, which is
what makes long flat documents stream.

``Machine.run`` is the one driver loop: the classic table-driven LL(1)
driver (Aho, Lam, Sethi & Ullman, *Compilers*, section 4.4) with one branch
per instruction kind.  An evaluation error in a guard, argument or action
surfaces as a ``ParseFailure`` at the current event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .analysis import PredictTable, build_predict_table, compute_sets
from .ast import Actions, Any, Bind, BodySeq, Call, ElementSpec, Empty, Grammar, Ok, Text
from .evaluate import EvalError, NonBooleanGuard, eval_actions, eval_expr, eval_guard
from .events import EndTag, SaxEvent, StartTag, TextEvt, token_label, token_of_event
from .normalize import normalize_grammar
from .values import NULL, Env, StrVal, TupleVal, Value
from .wellformed import WfError, check_grammar

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

    ``start`` defaults to the first rule.  The table is built even when the
    grammar is not LL(1); its ``conflicts`` list the ambiguous cells.
    """
    errors = check_grammar(grammar)
    if errors:
        return Compiled(errors, None, None, None)
    normal = normalize_grammar(grammar)
    if not grammar.clauses:
        return Compiled([], normal, None, None)
    start_rule = start or grammar.clauses[0].name
    if not any(clause.name == start_rule for clause in normal.clauses):
        return Compiled([WfError(start_rule, "start rule is not defined")], None, None, None)
    table = build_predict_table(normal, compute_sets(normal, start_rule))
    return Compiled([], normal, start_rule, table)


class ParseFailure(Exception):
    def __init__(self, reason: str, message: str, position: int):
        super().__init__(f"{reason} at event {position}: {message}")
        self.reason = reason
        self.message = message
        self.position = position


class IncompleteParse(ParseFailure):
    def __init__(self, message: str, position: int):
        super().__init__(INCOMPLETE_PARSE, message, position)


class MachineInvariantError(AssertionError):
    """The machine reached a state its invariants forbid; a bug, not input error."""


# -- machine instructions ----------------------------------------------------


@dataclass(frozen=True)
class TagEnd:
    tag: str


@dataclass(frozen=True)
class AnyEnd:
    tag: str


@dataclass(frozen=True)
class BindInstr:
    names: Tuple[str, ...]


@dataclass(frozen=True)
class PopValue:
    pass


@dataclass(frozen=True)
class PushNull:
    pass


@dataclass(frozen=True)
class EnvRestore:
    env: Env


_POP = PopValue()
_PUSH_NULL = PushNull()

# Items that can never consume an event; a pending program made only of
# these lets a call reuse the current activation instead of a dump frame.
_ADMIN_TYPES = frozenset({BindInstr, PopValue, PushNull, EnvRestore, Actions, Ok, Empty})


@dataclass
class Frame:
    program: List[object]
    env: Env
    consuming: int


class _EventSource:
    """Single-consumer event cursor with one-event lookahead."""

    def __init__(self, events: Iterable[SaxEvent]):
        self._it: Iterator[SaxEvent] = iter(events)
        self._peeked: Optional[SaxEvent] = None
        self._has_peeked = False
        self.position = 0

    def peek(self) -> Optional[SaxEvent]:
        if not self._has_peeked:
            self._peeked = next(self._it, None)
            self._has_peeked = True
        return self._peeked

    def take(self) -> None:
        """Consume the event that ``peek`` returned; it must not be None."""
        self._has_peeked = False
        self.position += 1


class Machine:
    """One parse in progress; construct, then ``run()``."""

    def __init__(
        self,
        table: PredictTable,
        start_rule: str,
        events: Iterable[SaxEvent],
        args: Tuple[Value, ...] = (),
    ):
        self.table = table
        self.events = _EventSource(events)
        self.program: List[object] = []
        self.env: Env = {}
        self.values: List[Value] = []
        self.dump: List[Frame] = []
        self.consuming = 0
        self.max_dump_depth = 0
        self.steps = 0
        self._mat_cache: Dict[int, Tuple[BodySeq, List[object], int]] = {}
        self._enter(start_rule, args)

    def fail(self, reason: str, message: str) -> ParseFailure:
        return ParseFailure(reason, message, self.events.position)

    def _unexpected(self, reason: str, expected: str, event: Optional[SaxEvent]) -> ParseFailure:
        if event is None:
            return self.fail(UNEXPECTED_END_OF_EVENTS, f"expected {expected}")
        return self.fail(reason, f"expected {expected}, found {_describe(event)}")

    def _push_body(self, seq: BodySeq) -> None:
        # A body's items run in order with PopValue between them, and an
        # empty body pushes null.  Materialized programs are cached per body
        # object; the id key is guarded by an identity check in case an id
        # is ever reused.
        entry = self._mat_cache.get(id(seq))
        if entry is None or entry[0] is not seq:
            items: List[object] = [_PUSH_NULL]
            if seq:
                items = [seq[0]]
                for item in seq[1:]:
                    items += (_POP, item)
            items.reverse()
            delta = sum(1 for item in items if type(item) not in _ADMIN_TYPES)
            entry = (seq, items, delta)
            self._mat_cache[id(seq)] = entry
        self.program.extend(entry[1])
        self.consuming += entry[2]

    def _enter(self, name: str, args: Tuple[Value, ...]) -> None:
        """Predict a clause of ``name`` on the next event and start its body."""
        token = token_of_event(self.events.peek())
        clause = self.table.lookup(name, token)
        if clause is None:
            raise self.fail(
                NO_PREDICT_ENTRY, f"no prediction for rule {name} on {token_label(token)}"
            )
        if len(clause.params) != len(args):
            raise self.fail(
                CALL_ARITY,
                f"rule {name} takes {len(clause.params)} argument(s), got {len(args)}",
            )
        callee_env: Env = dict(zip(clause.params, args)) if args else {}
        if self.consuming == 0:
            self.program.append(EnvRestore(self.env))
        else:
            self.dump.append(Frame(self.program, self.env, self.consuming))
            if len(self.dump) > self.max_dump_depth:
                self.max_dump_depth = len(self.dump)
            self.program = []
            self.consuming = 0
        self._push_body(clause.body)
        self.env = callee_env

    def _element(self, el: ElementSpec) -> None:
        event = self.events.peek()
        if not isinstance(event, StartTag) or event.tag != el.tag:
            raise self._unexpected(TAG_MISMATCH, f"<{el.tag}>", event)
        extended = dict(self.env)
        for var, attr in el.attrs:
            if attr not in event.attrs:
                raise self.fail(
                    MISSING_ATTRIBUTE, f"element <{el.tag}> lacks attribute {attr!r}"
                )
            extended[var] = StrVal(event.attrs[attr])
        branch = el.else_body
        for guard, body in el.guarded:
            if eval_guard(guard, extended):
                branch = body
                break
        self.program.append(TagEnd(el.tag))
        self.consuming += 1
        self._push_body(branch)
        self.env = extended
        self.events.take()

    def _any(self) -> None:
        event = self.events.peek()
        if isinstance(event, TextEvt):
            self.events.take()
            self.values.append(NULL)
        elif isinstance(event, StartTag):
            self.events.take()
            self.program.append(AnyEnd(event.tag))
            self.consuming += 1
        else:
            raise self._unexpected(UNEXPECTED_EVENT, "an element or text", event)

    def _any_end(self, item: AnyEnd) -> None:
        event = self.events.peek()
        if isinstance(event, (TextEvt, StartTag)):
            self.events.take()
            self.program.append(item)
            self.consuming += 1
            if isinstance(event, StartTag):
                self.program.append(AnyEnd(event.tag))
                self.consuming += 1
            return
        if event is None or event.tag != item.tag:
            raise self._unexpected(TAG_MISMATCH, f"</{item.tag}>", event)
        self.events.take()
        # The skipped subtree yields a single null once the outermost
        # AnyEnd closes; inner closings are still part of the skip.
        if not (self.program and type(self.program[-1]) is AnyEnd):
            self.values.append(NULL)

    def run(self) -> Value:
        """Drive the machine to completion and return the synthesized value.

        This loop is the machine's only transition dispatch.  It tests the
        item's type in a plain ``if``/``elif`` chain, frequent kinds first,
        because a parse makes millions of transitions on large documents.
        """
        values = self.values
        dump = self.dump
        events = self.events
        steps = 0
        program = self.program
        try:
            while True:
                if not program:
                    if not dump:
                        break
                    frame = dump.pop()
                    program = self.program = frame.program
                    self.env = frame.env
                    self.consuming = frame.consuming
                    steps += 1
                    continue
                item = program.pop()
                steps += 1
                kind = type(item)
                if kind is PopValue:
                    values.pop()
                elif kind is EnvRestore:
                    self.env = item.env
                elif kind is Call:
                    self.consuming -= 1
                    env = self.env
                    self._enter(item.name, tuple([eval_expr(a, env) for a in item.args]))
                    program = self.program  # a call may switch to a fresh program
                elif kind is BindInstr:
                    if not values:
                        raise MachineInvariantError("binding with empty value stack")
                    names = item.names
                    value = values[-1]
                    if len(names) == 1:
                        self.env = {**self.env, names[0]: value}
                    elif isinstance(value, TupleVal) and len(value.items) == len(names):
                        self.env = {**self.env, **dict(zip(names, value.items))}
                    else:
                        raise self.fail(
                            BIND_ARITY_MISMATCH,
                            f"cannot bind {len(names)} names to {type(value).__name__}",
                        )
                elif kind is Bind:
                    self.consuming -= 1
                    program.append(BindInstr(item.names))
                    self._push_body(item.body)
                elif kind is Actions:
                    exprs = item.exprs
                    if len(exprs) == 1:
                        values.append(eval_expr(exprs[0], self.env))
                    else:
                        values.append(eval_actions(exprs, self.env))
                elif kind is ElementSpec:
                    self.consuming -= 1
                    self._element(item)
                elif kind is TagEnd:
                    self.consuming -= 1
                    event = events.peek()
                    if not isinstance(event, EndTag) or event.tag != item.tag:
                        raise self._unexpected(TAG_MISMATCH, f"</{item.tag}>", event)
                    events.take()
                elif kind is PushNull or kind is Ok:
                    values.append(NULL)
                elif kind is Text:
                    self.consuming -= 1
                    event = events.peek()
                    if not isinstance(event, TextEvt):
                        raise self._unexpected(UNEXPECTED_EVENT, "text", event)
                    events.take()
                    values.append(StrVal(event.text))
                elif kind is Any:
                    self.consuming -= 1
                    self._any()
                elif kind is AnyEnd:
                    self.consuming -= 1
                    self._any_end(item)
                elif kind is Empty:
                    event = events.peek()
                    if event is not None and not isinstance(event, EndTag):
                        raise self.fail(
                            UNEXPECTED_EVENT,
                            f"expected no more content, found {_describe(event)}",
                        )
                    values.append(NULL)
                else:
                    raise MachineInvariantError(f"unexpected program item {item!r}")
        except EvalError as exc:
            reason = GUARD_NON_BOOLEAN if isinstance(exc, NonBooleanGuard) else EVAL_ERROR
            raise self.fail(reason, str(exc)) from exc
        self.steps += steps
        return self._finish()

    def _finish(self) -> Value:
        if self.events.peek() is not None:
            raise IncompleteParse(
                f"parse finished with input remaining ({_describe(self.events.peek())})",
                self.events.position,
            )
        if len(self.values) != 1:
            raise MachineInvariantError(
                f"terminal state with {len(self.values)} values on the stack"
            )
        return self.values[0]


def _describe(event: Optional[SaxEvent]) -> str:
    if event is None:
        return "end of input"
    if isinstance(event, StartTag):
        return f"<{event.tag}>"
    if isinstance(event, EndTag):
        return f"</{event.tag}>"
    return f"text {event.text!r}"


def run(
    table: PredictTable,
    start_rule: str,
    events: Iterable[SaxEvent],
    args: Tuple[Value, ...] = (),
) -> Value:
    """Parse an event stream, returning the synthesized value."""
    return Machine(table, start_rule, events, args).run()
