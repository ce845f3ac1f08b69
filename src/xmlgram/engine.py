"""Grammar compilation and the table-driven parsing machine.

``compile_grammar`` takes a parsed grammar through the well-formedness
check, normalization, nullable/first/follow and the predict table.  The
first machine on a table compiles it, once, into a ``Program``: one row per
rule, mapping each lookahead token to a compiled clause ``(params, ops)``,
or a loop row for a repetition rule (below).
Ops are small tuples ``(opcode, operands...)``, held in reverse execution
order so that entering a clause is one ``extend`` of the machine's program
stack; a call op holds the callee's row itself.  The machine pops ops
against a stream of SAX events, and a call looks the next event's token up
in its row.  Values are synthesized onto a value stack; when the machine
halts the parse result is the single remaining value.

Actions, guards and call arguments become shared closures ``env -> Value``.
Fused ops (Proebsting's superoperators): an unguarded empty element's ``START``
reads its end tag too, and it or a popping ``BIND`` runs the action after it.

Value discipline: the ops of every body item leave exactly one value.  A
``POP`` between the items of a sequence discards all but the last one's
value, and an empty sequence pushes null.  The compiler leaves out a null
that would only be popped (``OK``, an element with an empty body), and a
``BIND`` followed by ``POP`` pops as it binds.  So a ``BIND`` always finds
its body's value on top, and success leaves exactly one value.

Chain resolution: where R's row holds a clause ``R ::= X.`` (no params or
arguments, nothing else) under a concrete token, and X's row holds a clause
without params under that token, R's row holds X's clause instead, so the
chain costs no call at run time.  Chains of chains resolve alike; wildcard
cells, parameterized chains and chains to a repetition rule stay ordinary
calls.

Repetitions run as loops, another superoperator.  Normalization lifts each
``X*`` into a cons-recursive rule and names it in ``Grammar.loops``; such a
rule gets no row but a ``Loop``, whose loop row maps each token to the ops
of one item ``X`` (chain-resolved like a row when ``X`` is one call
without arguments) or to ``END``.  A ``LOOP`` op enters it like a call and
pushes an accumulator list and a ``NEXT`` op.  ``NEXT`` moves the last
item's value into the accumulator, predicts from the lookahead, and either
pushes itself and the item's ops, or on ``END`` replaces the accumulator
with the Cons/Nil chain of its items.  Each item runs in the loop's own
environment, which is what the cons clause would pass on: normalization
makes sure its item cannot rebind one of the rule's parameters.  So an
item costs one step on top of its own ops, and the program does not grow
with the number of siblings.

Environments grow monotonically inside a rule activation (attribute and
binding names stay visible for the rest of the clause body) and are
restored when the activation ends.  A call or loop whose continuation
still needs input (an op that can consume an event follows it in its
clause, counting an enclosing element's end tag) saves it as a dump frame.
One in tail position modulo value plumbing, as in user-written recursion
such as ``L ::= <a/> xs = L {xs}.``, instead leaves the continuation in the
program behind an ``ENV_RESTORE`` op.  One that no op follows leaves it
behind nothing, since what runs next sets its own environment: an
``ENV_RESTORE``, a dump frame, or the ``NEXT`` of a loop whose item ends
in the call.  The compiler fixes this choice per op.  That keeps the dump
bounded by element nesting rather than by sibling count, which is what
makes long flat documents stream.

``Machine.run`` is the one driver loop: the classic table-driven LL(1)
driver (Aho, Lam, Sethi & Ullman, *Compilers*, section 4.4), one branch per
opcode, the lookahead event in a local.  An evaluation error in a guard,
argument or action surfaces as a ``ParseFailure`` at the current event.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .analysis import NotNormalForm, PredictTable, build_predict_table, compute_sets, left_recursion
from .ast import CONS, NIL, Actions, Any, Bind, BodySeq, Call, Clause, ElementSpec, Empty
from .ast import Grammar, Ok, Text, VarRef
from .evaluate import SHOWN, EvalError, NonBooleanGuard, compile_actions, compile_expr
from .evaluate import shorten, truth
from .events import ANY_TOKEN, EndTag, SaxEvent, StartTag, TextEvt, Token, token_label
from .events import token_of_event
from .normalize import normalize_grammar
from .values import NULL, Env, TermVal, TupleVal, Value
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

    ``start`` defaults to the first rule.  Left recursion is an error (see
    ``analysis.left_recursion``).  The table is built even when the grammar
    is not LL(1); its ``conflicts`` list the ambiguous cells.
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


class IncompleteParse(ParseFailure):
    def __init__(self, message: str, position: int):
        super().__init__(INCOMPLETE_PARSE, message, position)


class MachineInvariantError(AssertionError):
    """The machine reached a state its invariants forbid; a bug, not input error."""


# -- the compiled program -----------------------------------------------------

# Opcodes, the first field of every op.  The operands of those that have any:
#   (CALL, callee row, callee name, argument closures, continuation mode)
#   (LOOP, callee Loop, callee name, argument closures, continuation mode)
#   (NEXT, loop row, rule name, loop environment), pushed by LOOP
#   (START, tag, attrs, guarded branches, else branch), the branches only when
#   guarded (each branch ends in the element's TAG_END), else ((), None), or
#   (None, action) when START reads the end tag too
#   (BIND, names, pop the value too, action)  (ACTIONS, closure)
#   (ENV_RESTORE, env)  (TAG_END, tag)  (ANY_END, tag), pushed while ANY skips
# A fused action is a closure or None; its value is pushed after the op.
CALL, BIND, ACTIONS, START, TAG_END, ENV_RESTORE, POP, PUSH_NULL = range(8)
TEXT, ANY, ANY_END, EMPTY, LOOP, NEXT = range(8, 14)
# How a call keeps its continuation: in a dump frame, in the program behind
# an ENV_RESTORE op, or in the program alone when no op follows the call.
FRAME, TAIL, LAST = range(3)

_CONSUMING = frozenset({CALL, LOOP, START, TAG_END, TEXT, ANY})  # ops that can take an event
_POP, _PUSH_NULL = (POP,), (PUSH_NULL,)
_LEAF_OPS = {Text: (TEXT,), Any: (ANY,), Empty: (EMPTY,), Ok: _PUSH_NULL}
END = object()  # a loop row's entry where the repetition ends

Row = Dict[Token, Tuple[Tuple[str, ...], tuple]]


class Loop:
    """A repetition rule compiled for the machine: its parameters, and a
    loop row that maps each token to the ops of one item, or to ``END``."""

    __slots__ = ("params", "row")

    def __init__(self) -> None:
        self.params: Tuple[str, ...] = ()
        self.row: Dict[Token, object] = {}


class Program:
    """A predict table compiled for the machine: ``rows[rule][token]`` is
    the compiled clause ``(params, ops)`` that the table predicts, and
    ``loops[rule]`` the ``Loop`` of a rule that a repetition lifted, which
    has no row."""

    def __init__(self, table: PredictTable):
        self.rows: Dict[str, Row] = {}
        self.loops = {name: Loop() for name in table.loops}
        memo: dict = {}  # one closure per distinct expression, see ``compile_expr``
        compiled: Dict[int, tuple] = {}  # by id of the table's clause objects
        items: Dict[str, Clause] = {}  # the item of each loop, as a clause
        for (name, token), clause in table.entries.items():
            loop = self.loops.get(name)
            if loop is not None:
                loop.params = clause.params
                if len(clause.body) == 1:  # the Nil clause
                    loop.row[token] = END
                    continue
                item = items.get(name)
                if item is None:  # the cons clause's ``x = item``
                    item = items[name] = Clause(name, (), clause.body[0].body)
                clause = item
            if token != ANY_TOKEN:
                clause = _resolve_chain(table, token, clause)
            entry = compiled.get(id(clause))
            if entry is None:
                entry = compiled[id(clause)] = (clause.params, self._ops(clause.body, False, memo))
            if loop is not None:
                loop.row[token] = entry[1]
            else:
                self.row(name)[token] = entry

    def row(self, name: str) -> Row:
        return self.rows.setdefault(name, {})

    def call(self, name: str, args: tuple) -> tuple:
        """The op of a call, without its continuation mode."""
        loop = self.loops.get(name)
        if loop is not None:
            return (LOOP, loop, name, args)
        return (CALL, self.row(name), name, args)

    def _ops(self, seq: BodySeq, then_consumes: bool, memo: dict) -> tuple:
        """The ops of a body in reverse execution order.  ``then_consumes``
        says whether ops that can consume an event run after the body."""
        ops: List[tuple] = []
        self._seq(seq, ops, memo)
        consumes = then_consumes
        for i in range(len(ops) - 1, -1, -1):
            op = ops[i]
            if op[0] in (CALL, LOOP):
                ops[i] = op + (FRAME if consumes else LAST if i == len(ops) - 1 else TAIL,)
            consumes = consumes or op[0] in _CONSUMING
        return tuple(reversed(ops))

    def _seq(self, seq: BodySeq, ops: List[tuple], memo: dict) -> None:
        if not seq:
            ops.append(_PUSH_NULL)
        for i, item in enumerate(seq):
            if i:
                _discard_value(ops)
            kind = type(item)
            if kind is Call:
                args = tuple([compile_expr(e, memo) for e in item.args])
                ops.append(self.call(item.name, args))
            elif kind is Bind:
                self._seq(item.body, ops, memo)
                ops.append((BIND, item.names, False, None))
            elif kind is Actions:
                last = ops[-1] if ops else _POP
                if (last[0] == BIND or last[0] == START and last[3] is None) and last[-1] is None:
                    ops[-1] = last[:-1] + (compile_actions(item.exprs, memo),)  # fused
                else:
                    ops.append((ACTIONS, compile_actions(item.exprs, memo)))
            elif kind is ElementSpec and item.guarded:
                end = ((TAG_END, item.tag),)
                guarded = tuple(
                    (compile_expr(g, memo), end + self._ops(body, True, memo))
                    for g, body in item.guarded
                )
                branch = end + self._ops(item.else_body, True, memo)
                ops.append((START, item.tag, item.attrs, guarded, branch))
            elif kind is ElementSpec:
                ops.append((START, item.tag, item.attrs, (), None))
                self._seq(item.else_body, ops, memo)
                ops.append((TAG_END, item.tag))
            elif kind in _LEAF_OPS:
                ops.append(_LEAF_OPS[kind])
            else:
                raise NotNormalForm(f"{kind.__name__} node in supposedly normal grammar")


def _discard_value(ops: List[tuple]) -> None:
    """Discard the value of the ops so far (end tags leave the value stack alone)."""
    i = len(ops) - 1
    while ops[i][0] == TAG_END:
        i -= 1
    if ops[i] is _PUSH_NULL:
        del ops[i]
        if 0 < i < len(ops) and ops[i - 1][0] == START and ops[i - 1][3] == ():
            ops[i - 1 : i + 1] = [ops[i - 1][:3] + (None, None)]  # an empty element
    elif ops[i][0] == BIND and ops[i][3] is None:
        ops[i] = (BIND, ops[i][1], True, None)
    else:
        ops.append(_POP)


def _resolve_chain(table: PredictTable, token: Token, clause: Clause) -> Clause:
    """Follow chain clauses ``R ::= X.`` through X's entry for ``token``; in
    a table without conflicts they cannot cycle, since a cycle has no base."""
    while not clause.params and len(clause.body) == 1 and type(clause.body[0]) is Call:
        call = clause.body[0]
        target = table.entries.get((call.name, token))
        if call.args or target is None or target.params:
            break
        if call.name in table.loops:  # a repetition runs as a loop
            break
        clause = target
    return clause


_UNREAD = object()  # the lookahead before the next event is read


class Machine:
    """One parse in progress; construct, then ``run()``."""

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
        self.table = table
        self._events = iter(events)
        self.lookahead: object = _UNREAD  # the next event, None at end of input
        self.position = 0  # events consumed
        self.values: List[Value] = []
        self.dump: List[Tuple[List[tuple], Env]] = []
        self.max_dump_depth = 0
        self.steps = 0
        # The start rule is entered like any call, from an environment that
        # holds the start arguments under names no grammar can bind.
        self.env: Env = {f"${i}": value for i, value in enumerate(args)}
        args = tuple([compile_expr(VarRef(name), {}) for name in self.env])
        self.program: List[tuple] = [table.program.call(start_rule, args) + (LAST,)]

    def run(self) -> Value:
        """Drive the machine to completion and return the synthesized value.

        This loop is the machine's only transition dispatch.  It tests the
        opcode in a plain ``if``/``elif`` chain, frequent kinds first,
        because a parse makes millions of transitions on large documents.
        The state lives in locals while the loop runs.
        """
        program, env, values, dump = self.program, self.env, self.values, self.dump
        events, event, position, unread = self._events, self.lookahead, self.position, _UNREAD
        steps, depth = 0, self.max_dump_depth
        try:
            while True:
                if not program:
                    if not dump:
                        break
                    program, env = dump.pop()
                    steps += 1
                    continue
                item = program.pop()
                steps += 1
                op = item[0]
                if op == NEXT:
                    value = values[-1]
                    if type(value) is not list:  # the last item's value, onto the accumulator
                        values.pop()
                        values[-1].append(value)
                    event = next(events, None) if event is unread else event
                    token = event.tag if type(event) is StartTag else token_of_event(event)
                    ops = item[1].get(token) or item[1].get(ANY_TOKEN)
                    if ops is None:
                        message = f"no prediction for rule {item[2]} on {token_label(token)}"
                        raise ParseFailure(NO_PREDICT_ENTRY, message, position)
                    if ops is END:
                        value = TermVal(NIL, ())
                        for head in reversed(values[-1]):
                            value = TermVal(CONS, (head, value))
                        values[-1] = value
                    else:
                        program.append(item)
                        program.extend(ops)
                        env = item[3]
                elif op == START:
                    event = next(events, None) if event is unread else event
                    tag = item[1]
                    if type(event) is not StartTag or event.tag != tag:
                        raise _unexpected(TAG_MISMATCH, f"<{tag}>", event, position)
                    if item[2]:
                        env = dict(env)
                        for var, attr in item[2]:
                            if attr not in event.attrs:
                                message = f"element <{tag}> lacks attribute {attr!r}"
                                raise ParseFailure(MISSING_ATTRIBUTE, message, position)
                            env[var] = event.attrs[attr]
                    if item[3]:
                        branch = item[4]
                        for guard, ops in item[3]:
                            if truth(guard(env)):
                                branch = ops
                                break
                        program.extend(branch)
                    position += 1
                    if item[3] is None:  # the end tag too, then the fused action
                        event = next(events, None)
                        if type(event) is not EndTag or event.tag != tag:
                            raise _unexpected(TAG_MISMATCH, f"</{tag}>", event, position)
                        position += 1
                        if item[4] is not None:
                            values.append(item[4](env))
                    event = unread
                elif op == TAG_END:
                    event = next(events, None) if event is unread else event
                    if type(event) is not EndTag or event.tag != item[1]:
                        raise _unexpected(TAG_MISMATCH, f"</{item[1]}>", event, position)
                    position += 1
                    event = unread
                elif op == BIND:
                    if not values:
                        raise MachineInvariantError("binding with empty value stack")
                    names = item[1]
                    value = values.pop() if item[2] else values[-1]
                    if len(names) == 1:
                        env = {**env, names[0]: value}
                    elif isinstance(value, TupleVal) and len(value.items) == len(names):
                        env = {**env, **dict(zip(names, value.items))}
                    else:
                        message = f"cannot bind {len(names)} names to {type(value).__name__}"
                        raise ParseFailure(BIND_ARITY_MISMATCH, message, position)
                    if item[3] is not None:
                        values.append(item[3](env))
                elif op == LOOP:
                    args = item[3]
                    if args:
                        args = tuple([f(env) for f in args])
                    params = item[1].params
                    if len(params) != len(args):
                        message = f"rule {item[2]} takes {len(params)} argument(s), got {len(args)}"
                        raise ParseFailure(CALL_ARITY, message, position)
                    if item[4] == FRAME:
                        dump.append((program, env))
                        depth = max(depth, len(dump))
                        program = []
                    elif item[4] == TAIL:
                        program.append((ENV_RESTORE, env))
                    env = dict(zip(params, args)) if args else {}
                    values.append([])  # the accumulator
                    program.append((NEXT, item[1].row, item[2], env))
                elif op == ACTIONS:
                    values.append(item[1](env))
                elif op == CALL:
                    args = item[3]
                    if args:
                        args = tuple([f(env) for f in args])
                    event = next(events, None) if event is unread else event
                    token = event.tag if type(event) is StartTag else token_of_event(event)
                    clause = item[1].get(token) or item[1].get(ANY_TOKEN)
                    if clause is None:
                        message = f"no prediction for rule {item[2]} on {token_label(token)}"
                        raise ParseFailure(NO_PREDICT_ENTRY, message, position)
                    params, body = clause
                    if len(params) != len(args):
                        message = f"rule {item[2]} takes {len(params)} argument(s), got {len(args)}"
                        raise ParseFailure(CALL_ARITY, message, position)
                    if item[4] == FRAME:
                        dump.append((program, env))
                        depth = max(depth, len(dump))
                        program = list(body)
                    else:
                        if item[4] == TAIL:
                            program.append((ENV_RESTORE, env))
                        program.extend(body)
                    env = dict(zip(params, args)) if args else {}
                elif op == ENV_RESTORE:
                    env = item[1]
                elif op == POP:
                    values.pop()
                elif op == PUSH_NULL:
                    values.append(NULL)
                elif op == TEXT:
                    event = next(events, None) if event is unread else event
                    if type(event) is not TextEvt:
                        raise _unexpected(UNEXPECTED_EVENT, "text", event, position)
                    values.append(event.text)
                    position += 1
                    event = unread
                elif op == ANY:
                    event = next(events, None) if event is unread else event
                    if type(event) is TextEvt:
                        values.append(NULL)
                    elif type(event) is StartTag:
                        program.append((ANY_END, event.tag))
                    else:
                        raise _unexpected(UNEXPECTED_EVENT, "an element or text", event, position)
                    position += 1
                    event = unread
                elif op == ANY_END:
                    event = next(events, None) if event is unread else event
                    kind = type(event)
                    if kind is TextEvt or kind is StartTag:
                        program.append(item)
                        if kind is StartTag:
                            program.append((ANY_END, event.tag))
                    elif event is None or event.tag != item[1]:
                        raise _unexpected(TAG_MISMATCH, f"</{item[1]}>", event, position)
                    elif not (program and program[-1][0] == ANY_END):
                        # The skipped subtree yields a single null once the
                        # outermost ANY_END closes; inner closings are still
                        # part of the skip.
                        values.append(NULL)
                    position += 1
                    event = unread
                elif op == EMPTY:
                    event = next(events, None) if event is unread else event
                    if event is not None and type(event) is not EndTag:
                        message = f"expected no more content, found {_describe(event)}"
                        raise ParseFailure(UNEXPECTED_EVENT, message, position)
                    values.append(NULL)
                else:
                    raise MachineInvariantError(f"unexpected program item {item!r}")
            event = next(events, None) if event is unread else event
        except EvalError as exc:
            reason = GUARD_NON_BOOLEAN if isinstance(exc, NonBooleanGuard) else EVAL_ERROR
            raise ParseFailure(reason, str(exc), position) from exc
        finally:
            self.program, self.env, self.lookahead, self.position = program, env, event, position
            self.steps += steps
            self.max_dump_depth = depth
        if event is not None:
            message = f"parse finished with input remaining ({_describe(event)})"
            raise IncompleteParse(message, position)
        if len(values) != 1:
            raise MachineInvariantError(f"terminal state with {len(values)} values on the stack")
        return values[0]


def _unexpected(reason: str, expected: str, event, position: int) -> ParseFailure:
    if event is None:
        return ParseFailure(UNEXPECTED_END_OF_EVENTS, f"expected {expected}", position)
    return ParseFailure(reason, f"expected {expected}, found {_describe(event)}", position)


def _describe(event: Optional[SaxEvent]) -> str:
    if event is None:
        return "end of input"
    if isinstance(event, StartTag):
        return f"<{event.tag}>"
    if isinstance(event, EndTag):
        return f"</{event.tag}>"
    return f"text {shorten(repr(event.text[:SHOWN]))}"
