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
Fused ops (Proebsting's superoperators): the ``START`` of an unguarded
element whose body compiles to no ops reads its end tag too, and it or a
popping ``BIND`` runs the action after it.

Value discipline: each body item is compiled for whether its value is
used.  Only the last item of a sequence inherits that; the others are
unused.  A used item leaves exactly one value (an empty sequence or ``OK``
runs one shared action that yields null), an unused one leaves none: an
unused ``BIND`` pops as it binds, an unused ``OK`` or empty sequence emits
nothing, an element passes the question on to its branches, and any other
unused item is followed by ``POP``.  So a ``BIND`` always finds its body's
value on top, and success leaves exactly one value.

Chain resolution: where R's row holds a clause ``R(ps) ::= X(ps).`` (one
call that passes R's parameters on unchanged, nothing else) under a
concrete token, and X's row holds a clause with the same parameters under
that token, R's row holds X's clause instead, so the chain costs no call at
run time.  Chains of chains resolve alike; wildcard cells, chains that
change or reorder arguments and chains to a repetition rule stay ordinary
calls.

Repetitions run as loops, another superoperator.  Normalization lifts each
``X*`` into a cons-recursive rule and names it in ``Grammar.loops``; such a
rule gets no row but a loop row, which maps each token to the ops of one
item ``X`` (chain-resolved like a row of a rule with the loop's parameters
when ``X`` is one call) or to ``END``.  Normalization calls such a rule
with its own parameters, as ``Program`` checks; an item reads only those,
cannot rebind one, and no op changes an environment in place.  So each
item, and what follows the repetition, runs in the environment where it
starts.  A ``LOOP`` op evaluates nothing: it pushes an accumulator list
and a ``NEXT`` op that holds that environment.  ``NEXT`` moves the last
item's value into the accumulator, predicts from the lookahead, sets the
environment back, and either pushes itself and the item's ops, or on
``END`` replaces the accumulator with a ``ConsList`` of its items: to
every reader the Cons/Nil chain of the items, held as one tuple, so the
end of a repetition builds no term per item.  Every empty repetition ends
in the one shared ``EMPTY_CONS``, as every null is ``NULL``.  So an item
costs one step on top of its own ops, and the program does not grow with
the number of siblings.

Leaf runs fuse the commonest pair, ``NEXT`` and a fused empty-element
``START``.  Where an item's ops are that one op, with its action, under its
own start tag, the loop row holds the op itself, a leaf, in place of the
ops tuple.  ``NEXT`` runs consecutive leaf items in place, one step each:
the prediction has already matched the start tag, so it binds the
attributes, reads the end tag and appends the action's value straight to
the accumulator, and pushes ops only for an item of another kind.

Environments grow monotonically inside a rule activation (attribute and
binding names stay visible for the rest of the clause body) and are
restored when the activation ends.  The program stack is the machine's
only control stack: a call that ops follow in its clause (counting an
enclosing element's end tag) leaves its continuation there, behind an
``ENV_RESTORE`` op that brings its environment back.  One that no op
follows, a tail call, leaves nothing, since what runs next sets its own
environment, and a loop leaves none, since its ``NEXT`` sets its
environment back.  The machine sees which from the stack itself (Clinger,
"Proper tail recursion and space efficiency", 1998): ``ENV_RESTORE`` and
``NEXT`` are pushed only at run time, never compiled into a body, so the
op under a call is one of them, or the stack is empty, exactly when
nothing in its clause follows it.  So ``L ::= <a/> L.`` runs in constant
space, and the stack grows with element nesting and with continuations
still pending, as in ``L ::= <a/> xs = L {xs}.``, where each level has an
action left to run.

``Machine.run`` is the one driver loop: the classic table-driven LL(1)
driver (Aho, Lam, Sethi & Ullman, *Compilers*, section 4.4), one branch per
opcode, the lookahead event in a local, read as soon as the event before
it is consumed.  An evaluation error in a guard, argument or action
surfaces as a ``ParseFailure`` at the current event.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .analysis import NotNormalForm, PredictTable, build_predict_table, compute_sets, left_recursion
from .ast import Actions, Any, Bind, BodySeq, Call, Clause, ElementSpec, Empty
from .ast import Expr, Grammar, Ok, Text, VarRef
from .evaluate import SHOWN, EvalError, NonBooleanGuard, compile_actions, compile_expr
from .evaluate import shorten, truth
from .events import ANY_TOKEN, SaxEvent, TextEvt, Token, token_label
from .events import token_of_event
from .normalize import normalize_grammar
from .values import EMPTY_CONS, NULL, ConsList, Env, TupleVal, Value
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


class MachineInvariantError(AssertionError):
    """The machine reached a state its invariants forbid; a bug, not input error."""


# -- the compiled program -----------------------------------------------------

# Opcodes, the first field of every op.  The operands of those that have any:
#   (CALL, callee row, callee name, argument closures)
#   (LOOP, callee loop row, callee name), its call passing its own parameters
#   (NEXT, loop row, rule name, the environment it started in), pushed by LOOP;
#   a loop row's entry is END, an item's ops, or a leaf: the item's one fused START
#   (START, tag, attrs, guarded branches, else branch) for an element with
#   ops inside: each branch is ops ending in the element's TAG_END, and an
#   unguarded element has no guarded branches, ()
#   (START, tag, attrs, None, action) for one without: START reads the end tag too
#   (BIND, names, pop the value too, action)  (ACTIONS, closure)
#   (ENV_RESTORE, env), pushed by CALL  (TAG_END, tag)
# A fused action is a closure or None; its value is pushed after the op.
CALL, BIND, ACTIONS, START, TAG_END, POP, TEXT, ANY, EMPTY, LOOP = range(10)
ENV_RESTORE, NEXT = 10, 11  # pushed only at run time: numbered last, so one test finds a tail call

_POP = (POP,)
_NULL = (ACTIONS, compile_actions((), {}))  # the value of a used OK or empty sequence
_LEAF_OPS = {Text: (TEXT,), Any: (ANY,), Empty: (EMPTY,)}
END = object()  # a loop row's entry where the repetition ends

Row = Dict[Token, Tuple[Tuple[str, ...], tuple]]


class Program:
    """A predict table compiled for the machine: ``rows[rule][token]`` is
    the compiled clause ``(params, ops)`` that the table predicts, and
    ``loops[rule]`` the loop row of a rule that a repetition lifted, which
    has no row: each token maps to the ops of one item, to a leaf item's
    one op, or to ``END``.  ``params[rule]`` are a rule's parameters.  A
    call whose argument count its callee does not take is a
    ``ParseFailure`` at event 0 as the program is built."""

    def __init__(self, table: PredictTable):
        self.params = {name: clause.params for (name, _), clause in table.entries.items()}
        self.loops: Dict[str, Dict[Token, object]] = {name: {} for name in table.loops}
        self.rows: Dict[str, Row] = {name: {} for name in self.params if name not in self.loops}
        memo: dict = {}  # one closure per distinct expression, see ``compile_expr``
        compiled: Dict[int, tuple] = {}  # by id of the table's clause objects
        items: Dict[str, Clause] = {}  # the item of each loop, as a clause
        for (name, token), clause in table.entries.items():
            loop = self.loops.get(name)
            if loop is not None:
                if len(clause.body) == 1:  # the Nil clause
                    loop[token] = END
                    continue
                item = items.get(name)
                if item is None:  # the cons clause's ``x = item``, in the loop's environment
                    item = items[name] = Clause(name, clause.params, clause.body[0].body)
                clause = item
            if token != ANY_TOKEN:
                clause = _resolve_chain(table, token, clause)
            entry = compiled.get(id(clause))
            if entry is None:
                ops = self._ops(clause.body, memo, True)
                entry = compiled[id(clause)] = (clause.params, ops)
            if loop is not None:
                ops = entry[1]
                if len(ops) == 1 and _is_leaf(ops[0], token):
                    ops = ops[0]  # NEXT runs it in place
                loop[token] = ops
            else:
                self.rows[name][token] = entry

    def call(self, name: str, args: Tuple[Expr, ...], memo: dict) -> tuple:
        """The op of a call.  A rule without entries gets an empty row.  A
        loop's items run in the caller's environment, so a loop must be
        passed its own parameters."""
        check_arity(name, self.params.get(name), len(args))
        if name in self.loops:
            if args != tuple(map(VarRef, self.params[name])):
                raise NotNormalForm(f"loop {name} is not called with its own parameters")
            return (LOOP, self.loops[name], name)
        return (CALL, self.rows.get(name, {}), name, tuple([compile_expr(e, memo) for e in args]))

    def _ops(self, seq: BodySeq, memo: dict, used: bool) -> tuple:
        """The ops of a body in reverse execution order; ``used`` says
        whether its value is kept."""
        ops: List[tuple] = []
        self._seq(seq, ops, memo, used)
        return tuple(reversed(ops))

    def _seq(self, seq: BodySeq, ops: List[tuple], memo: dict, used: bool) -> None:
        if used and not seq:
            ops.append(_NULL)
        for i, item in enumerate(seq):
            keep = used and i == len(seq) - 1
            kind = type(item)
            if kind is Call:
                ops.append(self.call(item.name, item.args, memo))
            elif kind is Bind:
                self._seq(item.body, ops, memo, True)
                ops.append((BIND, item.names, not keep, None))
                continue
            elif kind is Actions:
                last = ops[-1] if ops else _POP
                if (last[0] == BIND or last[0] == START and last[3] is None) and last[-1] is None:
                    ops[-1] = last[:-1] + (compile_actions(item.exprs, memo),)  # fused
                else:
                    ops.append((ACTIONS, compile_actions(item.exprs, memo)))
            elif kind is ElementSpec:  # its branches leave a value or none
                branch = self._ops(item.else_body, memo, keep)
                if not branch and not item.guarded:
                    ops.append((START, item.tag, item.attrs, None, None))
                else:
                    end = ((TAG_END, item.tag),)
                    guarded = tuple(
                        (compile_expr(g, memo), end + self._ops(body, memo, keep))
                        for g, body in item.guarded
                    )
                    ops.append((START, item.tag, item.attrs, guarded, end + branch))
                continue
            elif kind is Ok:
                if keep:
                    ops.append(_NULL)
                continue
            elif kind in _LEAF_OPS:
                ops.append(_LEAF_OPS[kind])
            else:
                raise NotNormalForm(f"{kind.__name__} node in supposedly normal grammar")
            if not keep:
                ops.append(_POP)


def _is_leaf(op: tuple, token: Token) -> bool:
    """Whether ``op`` is a fused empty element with an action, predicted
    under its own start tag: NEXT may then take the start tag as read."""
    return op[0] == START and op[3] is None and op[4] is not None and op[1] == token


def _resolve_chain(table: PredictTable, token: Token, clause: Clause) -> Clause:
    """Follow chain clauses ``R(ps) ::= X(ps).``, which pass their own
    parameters on unchanged to an X with the same parameters, through X's
    entry for ``token``: X's clause then runs in the environment the call
    would have made.  In a table without conflicts they cannot cycle, since
    a cycle has no base."""
    while len(clause.body) == 1 and type(clause.body[0]) is Call:
        call = clause.body[0]
        target = table.entries.get((call.name, token))
        if target is None or target.params != clause.params:
            break
        if tuple([a.name if type(a) is VarRef else None for a in call.args]) != clause.params:
            break
        if call.name in table.loops:  # a repetition runs as a loop
            break
        clause = target
    return clause


_UNREAD = object()  # the lookahead before the first event is read


class Machine:
    """One parse in progress; construct, then ``run()``.

    Its state is the program stack, the one control stack, which also holds
    an ``ENV_RESTORE`` op for each continuation still pending and a ``NEXT``
    op for each loop running; the current environment; the value stack; and
    the lookahead event.  ``max_dump_depth`` is the most environments saved
    at one time, by those ``ENV_RESTORE`` and ``NEXT`` ops together."""

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
        self._events = iter(events)
        self.lookahead: object = _UNREAD  # the next event, None at end of input
        self.position = 0  # events consumed
        self.values: List[Value] = []
        self.max_dump_depth = 0
        self.steps = 0
        # The start rule is entered like any call, from its parameters bound to ``args``.
        params = program.params.get(start_rule)
        check_arity(start_rule, params, len(args))
        self.env: Env = dict(zip(params or (), args))
        self.program: List[tuple] = [program.call(start_rule, tuple(map(VarRef, self.env)), {})]

    def run(self) -> Value:
        """Drive the machine to completion and return the synthesized value.

        This loop is the machine's only transition dispatch.  It tests the
        opcode in a plain ``if``/``elif`` chain, frequent kinds first,
        because a parse makes millions of transitions on large documents.
        The state lives in locals while the loop runs.
        """
        program, env, values = self.program, self.env, self.values
        events, event, position = self._events, self.lookahead, self.position
        if event is _UNREAD:
            event = next(events, None)
        steps, saved, depth = 0, 0, self.max_dump_depth
        try:
            while program:
                item = program.pop()
                steps += 1
                op = item[0]
                if op == NEXT:
                    row, acc = item[1], values[-1]
                    if type(acc) is not list:  # the last item's value, onto the accumulator
                        values.pop()
                        values[-1].append(acc)
                        acc = values[-1]
                    while True:
                        token = event[0] if type(event) is tuple else token_of_event(event)
                        ops = row.get(token) or row.get(ANY_TOKEN)
                        if ops is None:
                            message = f"no prediction for rule {item[2]} on {token_label(token)}"
                            raise ParseFailure(NO_PREDICT_ENTRY, message, position)
                        if ops is END or type(ops[0]) is not int:
                            break
                        # A leaf item, run in place: its start tag is the lookahead.
                        steps += 1
                        env = item[3]
                        if ops[2]:
                            env = dict(env)
                            for var, attr in ops[2]:
                                if attr not in event[1]:
                                    message = f"element <{ops[1]}> lacks attribute {attr!r}"
                                    raise ParseFailure(MISSING_ATTRIBUTE, message, position)
                                env[var] = event[1][attr]
                        position += 1
                        event = next(events, None)
                        if event != ops[1]:  # an end tag is its name, a str
                            raise _unexpected(TAG_MISMATCH, f"</{ops[1]}>", event, position)
                        position += 1
                        event = next(events, None)
                        acc.append(ops[4](env))
                    env = item[3]
                    if ops is END:
                        values[-1] = ConsList(tuple(acc)) if acc else EMPTY_CONS
                        saved -= 1
                    else:
                        program.append(item)
                        program.extend(ops)
                elif op == START:
                    tag = item[1]
                    if type(event) is not tuple or event[0] != tag:
                        raise _unexpected(TAG_MISMATCH, f"<{tag}>", event, position)
                    if item[2]:
                        env = dict(env)
                        for var, attr in item[2]:
                            if attr not in event[1]:
                                message = f"element <{tag}> lacks attribute {attr!r}"
                                raise ParseFailure(MISSING_ATTRIBUTE, message, position)
                            env[var] = event[1][attr]
                    if item[3] is None:  # the end tag too, then the fused action
                        position += 1
                        event = next(events, None)
                        if event != tag:
                            raise _unexpected(TAG_MISMATCH, f"</{tag}>", event, position)
                    else:
                        branch = item[4]
                        for guard, ops in item[3]:
                            if truth(guard(env)):
                                branch = ops
                                break
                        program.extend(branch)
                    position += 1
                    event = next(events, None)
                    if item[3] is None and item[4] is not None:
                        values.append(item[4](env))
                elif op == TAG_END:
                    if event != item[1]:
                        raise _unexpected(TAG_MISMATCH, f"</{item[1]}>", event, position)
                    position += 1
                    event = next(events, None)
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
                elif op == LOOP:  # its items and what follows it run in this environment
                    values.append([])  # the accumulator
                    program.append((NEXT, item[1], item[2], env))
                    saved += 1
                    if saved > depth:
                        depth = saved
                elif op == ACTIONS:
                    values.append(item[1](env))
                elif op == CALL:
                    args = item[3]
                    if args:
                        args = tuple([f(env) for f in args])
                    token = event[0] if type(event) is tuple else token_of_event(event)
                    clause = item[1].get(token) or item[1].get(ANY_TOKEN)
                    if clause is None:
                        message = f"no prediction for rule {item[2]} on {token_label(token)}"
                        raise ParseFailure(NO_PREDICT_ENTRY, message, position)
                    params, body = clause
                    if program and program[-1][0] < ENV_RESTORE:  # ops of its clause follow
                        program.append((ENV_RESTORE, env))
                        saved += 1
                        if saved > depth:
                            depth = saved
                    program.extend(body)
                    env = dict(zip(params, args)) if args else {}
                elif op == ENV_RESTORE:
                    env = item[1]
                    saved -= 1
                elif op == POP:
                    values.pop()
                elif op == TEXT:
                    if type(event) is not TextEvt:
                        raise _unexpected(UNEXPECTED_EVENT, "text", event, position)
                    values.append(event.text)
                    position += 1
                    event = next(events, None)
                elif op == ANY:
                    if type(event) is tuple:  # skip the subtree, down to its end tag
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
                                raise _unexpected(TAG_MISMATCH, f"</{opened[-1]}>", event, position)
                    elif type(event) is not TextEvt:
                        raise _unexpected(UNEXPECTED_EVENT, "an element or text", event, position)
                    values.append(NULL)
                    position += 1
                    event = next(events, None)
                elif op == EMPTY:
                    if event is not None and type(event) is not str:
                        message = f"expected no more content, found {_describe(event)}"
                        raise ParseFailure(UNEXPECTED_EVENT, message, position)
                    values.append(NULL)
                else:
                    raise MachineInvariantError(f"unexpected program item {item!r}")
        except EvalError as exc:
            raise ParseFailure(eval_reason(exc), str(exc), position) from exc
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


def _describe(event: SaxEvent) -> str:
    if type(event) is tuple:
        return f"<{event[0]}>"
    if type(event) is str:
        return f"</{event}>"
    return f"text {shorten(repr(event.text[:SHOWN]))}"
