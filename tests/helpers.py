"""Shared fixtures: canonical grammar sources, alpha-equivalence on grammars,
seeded random generators for grammars and documents, conversions between
trees, events and XML text, and reference implementations of the lexer and
the value renderers."""

from __future__ import annotations

import json
import random
import re
from typing import Dict, Iterable, List, Optional, Tuple, Union

from xmlgram.ast import (
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
from xmlgram.analysis import PredictTable
from xmlgram.engine import Machine
from xmlgram.events import EndTag, Element, SaxEvent, StartTag, TextEvt, TextNode, XmlTree
from xmlgram.frontend import _KEYWORDS, _PUNCT, ParseDiagnostic
from xmlgram.sax import SaxReader
from xmlgram.values import BoolVal, IntVal, ListVal, NullVal, TermVal, TupleVal, Value

# The worked example grammar: one rule with repetition over an alternation.
TEST_GRAMMAR = """\
@Grammar Test
  A ::= <A> b = (B | C)* </A> {b}.
  B ::= <B n=name/> {n}.
  C ::= <C n=name/> {n}.
end
"""

# The same grammar after hand normalization (as published); parsing this and
# normalizing TEST_GRAMMAR must give alpha-equivalent results.
TEST_GRAMMAR_NORMALIZED = """\
@Grammar Test
  A ::= b = <A> C1 </A> {b}.
  C1 ::= x = C2 xs = C1 { Cons(x,xs) }.
  C1 ::= { Nil }.
  C2 ::= B.
  C2 ::= C.
  B ::= <B n = name> OK </B> {n}.
  C ::= <C n = name> OK </C> {n}.
end
"""

# The model-language example: packages, classes, attributes, operations,
# associations.  The Association action names its own `name` binding (the
# published listing refers to an undeclared variable there; see notes).
# The Arg rule is deliberately absent: operations with no arguments parse
# fine, and the dangling call is reported as a lint warning.
MODELS_GRAMMAR = """\
@Grammar Models
  Attribute ::=
    <Attribute name type/>
    { Attribute(name,type) }.
  Class ::=
    <Class name isAbstract id>
      elements = ClassElement*
    </Class> {
      elements->iterate(e c = Class(name,isAbstract) | c.add(e)) }.
  ClassElement ::= Attribute | Operation.
  Operation ::=
    <Operation name>
      as = Arg*
    </Operation> { Operation(name,as) }.
  Package ::=
    <Package name>
      elements = PackageElement*
    </Package> {
      elements->iterate(e p = Package(name) | p.add(e)) }.
  PackageElement ::= Package | Class | Assoc.
  Assoc ::=
    <Association name>
      <End n1=name t1=type/>
      <End n2=name t2=type/>
    </Association> {
      Association(name,End(n1,t1),End(n2,t2)) }.
end
"""

MODELS_DOC = """\
<Package name="shop">
  <Class name="Order" isAbstract="false" id="c1">
    <Attribute name="total" type="int"/>
    <Attribute name="status" type="str"/>
    <Operation name="close"/>
  </Class>
  <Association name="owns">
    <End name="customer" type="Customer"/>
    <End name="order" type="Order"/>
  </Association>
</Package>
"""


# --------------------------------------------------------------------------
# Alpha-equivalence: equality up to a bijection on generated rule names and
# a per-definition bijection on bound variable names.
# --------------------------------------------------------------------------


def alpha_eq_grammars(g1: Grammar, g2: Grammar) -> bool:
    by_name1 = _group(g1)
    by_name2 = _group(g2)
    if len(by_name1) != len(by_name2):
        return False
    shared = set(by_name1) & set(by_name2)
    only1 = sorted(set(by_name1) - shared)
    only2 = sorted(set(by_name2) - shared)
    if len(only1) != len(only2):
        return False
    base = {n: n for n in shared}
    return _match_names(only1, only2, base, by_name1, by_name2)


def _group(g: Grammar) -> Dict[str, List[Clause]]:
    out: Dict[str, List[Clause]] = {}
    for c in g.clauses:
        out.setdefault(c.name, []).append(c)
    return out


def _match_names(only1, only2, mapping, by1, by2) -> bool:
    if not only1:
        return all(
            _defs_alpha_eq(by1[n], by2[mapping[n]], mapping) for n in by1
        )
    head, rest = only1[0], only1[1:]
    for candidate in only2:
        if len(by2[candidate]) != len(by1[head]):
            continue
        mapping[head] = candidate
        remaining = [n for n in only2 if n != candidate]
        if _match_names(rest, remaining, mapping, by1, by2):
            return True
        del mapping[head]
    return False


def _defs_alpha_eq(defs1: List[Clause], defs2: List[Clause], names: Dict[str, str]) -> bool:
    if len(defs1) != len(defs2):
        return False
    used = [False] * len(defs2)
    for d1 in defs1:
        hit = False
        for i, d2 in enumerate(defs2):
            if not used[i] and _clause_alpha_eq(d1, d2, names):
                used[i] = True
                hit = True
                break
        if not hit:
            return False
    return True


def _clause_alpha_eq(c1: Clause, c2: Clause, names: Dict[str, str]) -> bool:
    if len(c1.params) != len(c2.params):
        return False
    vars_map = dict(zip(c1.params, c2.params))
    return _seq_alpha(c1.body, c2.body, names, vars_map)


def _seq_alpha(s1: BodySeq, s2: BodySeq, names, vars_map) -> bool:
    if len(s1) != len(s2):
        return False
    return all(_item_alpha(a, b, names, vars_map) for a, b in zip(s1, s2))


def _item_alpha(a: Body, b: Body, names, vars_map) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Or):
        return len(a.branches) == len(b.branches) and all(
            _seq_alpha(x, y, names, dict(vars_map)) for x, y in zip(a.branches, b.branches)
        )
    if isinstance(a, Bind):
        if len(a.names) != len(b.names):
            return False
        if not _seq_alpha(a.body, b.body, names, vars_map):
            return False
        vars_map.update(zip(a.names, b.names))
        return True
    if isinstance(a, Star):
        return _seq_alpha(a.body, b.body, names, dict(vars_map))
    if isinstance(a, (Empty, Any, Ok, Text)):
        return True
    if isinstance(a, Call):
        target = names.get(a.name, a.name)
        if target != b.name or len(a.args) != len(b.args):
            return False
        return all(_expr_alpha(x, y, vars_map) for x, y in zip(a.args, b.args))
    if isinstance(a, Actions):
        if len(a.exprs) != len(b.exprs):
            return False
        return all(_expr_alpha(x, y, vars_map) for x, y in zip(a.exprs, b.exprs))
    if isinstance(a, ElementSpec):
        if a.tag != b.tag or len(a.attrs) != len(b.attrs) or len(a.guarded) != len(b.guarded):
            return False
        for (v1, n1), (v2, n2) in zip(a.attrs, b.attrs):
            if n1 != n2:
                return False
            vars_map[v1] = v2
        for (g1, body1), (g2, body2) in zip(a.guarded, b.guarded):
            if not _expr_alpha(g1, g2, vars_map):
                return False
            if not _seq_alpha(body1, body2, names, vars_map):
                return False
        return _seq_alpha(a.else_body, b.else_body, names, vars_map)
    raise TypeError(f"not a body item: {a!r}")


def _expr_alpha(a: Expr, b: Expr, vars_map) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, VarRef):
        return vars_map.get(a.name, a.name) == b.name
    if isinstance(a, (StrLit, IntLit, BoolLit)):
        return a.value == b.value
    if isinstance(a, NullLit):
        return True
    if isinstance(a, Construct):
        return (
            a.ctor == b.ctor
            and len(a.args) == len(b.args)
            and all(_expr_alpha(x, y, vars_map) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, ListLit):
        return len(a.items) == len(b.items) and all(
            _expr_alpha(x, y, vars_map) for x, y in zip(a.items, b.items)
        )
    if isinstance(a, ConsExpr):
        return _expr_alpha(a.head, b.head, vars_map) and _expr_alpha(a.tail, b.tail, vars_map)
    if isinstance(a, Compare):
        return (
            a.op == b.op
            and _expr_alpha(a.left, b.left, vars_map)
            and _expr_alpha(a.right, b.right, vars_map)
        )
    if isinstance(a, Fold):
        inner = dict(vars_map)
        inner[a.elem_var] = b.elem_var
        inner[a.acc_var] = b.acc_var
        return (
            _expr_alpha(a.init, b.init, vars_map)
            and _expr_alpha(a.over, b.over, vars_map)
            and _expr_alpha(a.step, b.step, inner)
        )
    raise TypeError(f"not an expression: {a!r}")


# --------------------------------------------------------------------------
# Random grammars and documents for differential testing.
#
# Generated grammars are well formed by construction: references only to
# bound names, and each rule has one arity that every call to it meets.
# They have no left recursion either: a call that can run before its clause
# has consumed input only targets a later rule, and a repetition body always
# consumes, so every grammar compiles.
# Binds sometimes reuse a name already in scope, and an element may have two
# guards that both hold, which the engine and the reference interpreter
# resolve alike (the first true guard wins).
# --------------------------------------------------------------------------

TAGS = ["Ta", "Tb", "Tc", "Td"]
ATTRS = ["p", "q"]
TEXTS = ["hello", "x y", "42"]


class GrammarGen:
    def __init__(self, rng: random.Random, n_rules: int):
        self.rng = rng
        self.names = [f"R{i}" for i in range(n_rules)]
        self.var_counter = 0
        # The start rule takes no arguments; others take one 30% of the time.
        self.arity = {name: int(i > 0 and rng.random() < 0.3) for i, name in enumerate(self.names)}

    def fresh_var(self) -> str:
        self.var_counter += 1
        return f"u{self.var_counter}"

    def bind_var(self, scope: List[str]) -> str:
        """A fresh name, or now and then one already in scope."""
        if scope and self.rng.random() < 0.2:
            return self.rng.choice(scope)
        return self.fresh_var()

    def grammar(self) -> Grammar:
        clauses = []
        for name in self.names:
            for _ in range(self.rng.choice([1, 1, 1, 2])):
                clauses.append(self.clause(name))
        return Grammar("Gen", tuple(clauses))

    def clause(self, name: str) -> Clause:
        self.later = self.names[self.names.index(name) + 1 :]
        params = tuple(self.fresh_var() for _ in range(self.arity[name]))
        body, bound = self.seq(0, list(params), allow_or=True, budget=[6], leading=True)
        # End with an action so every rule synthesizes something observable.
        body = body + (self.make_actions(list(params) + bound),)
        return Clause(name, params, body)

    def seq(
        self, depth: int, scope: List[str], allow_or: bool, budget: List[int], leading=False
    ) -> Tuple[BodySeq, List[str]]:
        """``leading`` says that the clause may not have consumed input yet,
        so a call may only target a later rule."""
        items: List[Body] = []
        bound: List[str] = []
        n = self.rng.choice([1, 1, 2])
        consumed_before = False
        for _ in range(n):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            item, new_bound, consumes = self.item(
                depth, scope + bound, allow_or, consumed_before, budget, leading
            )
            items.append(item)
            bound.extend(new_bound)
            consumed_before = consumed_before or consumes
            leading = leading and not _consumes(item, calls=False)
        return tuple(items), bound

    def item(
        self,
        depth: int,
        scope: List[str],
        allow_or: bool,
        consumed_before: bool,
        budget: List[int],
        leading: bool,
    ) -> Tuple[Body, List[str], bool]:
        rng = self.rng
        targets = self.later if leading else self.names
        choices = ["element", "call", "bind_element", "actions", "ok", "text"]
        if depth < 2:
            choices += ["star", "bind_call"]
            if allow_or:
                choices.append("or")
        if consumed_before:
            choices.append("any")
        kind = rng.choice(choices)
        if kind in ("call", "bind_call") and not targets:
            kind = kind.replace("call", "element")
        if kind == "element":
            return self.element(depth, scope, budget), [], True
        if kind == "bind_element":
            var = self.bind_var(scope)
            el = self.element(depth, scope, budget)
            return Bind((var,), (el,)), [var], True
        if kind == "call":
            return self.call(scope, targets), [], True
        if kind == "bind_call":
            var = self.bind_var(scope)
            return Bind((var,), (self.call(scope, targets),)), [var], True
        if kind == "star":
            inner, _ = self.seq(depth + 1, scope, False, budget, leading)
            # A body that may consume nothing is left recursion in the
            # repetition's cons rule.
            if not any(_consumes(i, calls=False) for i in inner):
                inner = (self.element(depth + 1, scope, budget),)
            var = self.bind_var(scope)
            return Bind((var,), (Star(inner),)), [var], False
        if kind == "or":
            left, _ = self.seq(depth + 1, scope, False, budget, leading)
            right, _ = self.seq(depth + 1, scope, False, budget, leading)
            if not left:
                left = (Ok(),)
            if not right:
                right = (self.element(depth + 1, scope, budget),)
            consumes = all(any(_consumes(i) for i in s) for s in (left, right))
            return Or((left, right)), [], consumes
        if kind == "any":
            return Any(), [], True
        if kind == "text":
            var = self.bind_var(scope)
            return Bind((var,), (Text(),)), [var], True
        if kind == "actions":
            return self.make_actions(scope), [], False
        return Ok(), [], False

    def element(self, depth: int, scope: List[str], budget: List[int]) -> ElementSpec:
        rng = self.rng
        tag = rng.choice(TAGS)
        attrs: List[Tuple[str, str]] = []
        attr_vars: List[str] = []
        for attr in ATTRS:
            if rng.random() < 0.4:
                var = self.fresh_var()
                attrs.append((var, attr))
                attr_vars.append(var)
        inner_scope = scope + attr_vars
        guarded: Tuple = ()
        if attr_vars and depth < 2 and rng.random() < 0.3:
            pivot = rng.choice(attr_vars)
            lit = StrLit(rng.choice(["on", "off"]))
            then_body, _ = self.seq(depth + 1, inner_scope, allow_or=False, budget=budget)
            guarded = ((Compare("=", VarRef(pivot), lit), then_body),)
            if rng.random() < 0.3:
                op, pivot = rng.choice(["=", "<>"]), rng.choice(attr_vars)
                then_body, _ = self.seq(depth + 1, inner_scope, allow_or=False, budget=budget)
                guarded += ((Compare(op, VarRef(pivot), StrLit("on")), then_body),)
            else_body, _ = self.seq(depth + 1, inner_scope, allow_or=False, budget=budget)
        elif depth >= 2 or rng.random() < 0.3:
            else_body = (Ok(),)
        else:
            else_body, _ = self.seq(depth + 1, inner_scope, allow_or=False, budget=budget)
        return ElementSpec(tag, tuple(attrs), guarded, else_body)

    def call(self, scope: List[str], targets: List[str]) -> Call:
        """A call to one of ``targets`` with as many arguments as its rule
        has parameters, each a name in scope (a literal when nothing is)."""
        name = self.rng.choice(targets)
        if not scope:
            return Call(name, (StrLit("k"),) * self.arity[name])
        return Call(name, tuple(VarRef(self.rng.choice(scope)) for _ in range(self.arity[name])))

    def make_actions(self, scope: List[str]) -> Actions:
        rng = self.rng
        exprs: List[Expr] = []
        if scope and rng.random() < 0.7:
            exprs.append(Construct("W", (VarRef(rng.choice(scope)),)))
        else:
            exprs.append(rng.choice([IntLit(rng.randrange(9)), StrLit("k"), NullLit()]))
        return Actions(tuple(exprs))


def _consumes(item: Body, calls: bool = True) -> bool:
    """Whether ``item`` always consumes input, taking a call to do so when
    ``calls`` is set (an approximation: the rule may be nullable)."""
    if isinstance(item, (ElementSpec, Text, Any)):
        return True
    if isinstance(item, Bind):
        return any(_consumes(i, calls) for i in item.body)
    if isinstance(item, Call):
        return calls
    if isinstance(item, Or):
        return all(any(_consumes(i, calls) for i in s) for s in item.branches)
    return False


def random_grammar(seed: int, n_rules: Optional[int] = None) -> Grammar:
    rng = random.Random(seed)
    return GrammarGen(rng, n_rules or rng.choice([2, 3, 4, 5, 6])).grammar()


def random_tree(rng: random.Random, depth: int = 0, max_depth: int = 3) -> XmlTree:
    if depth >= max_depth or rng.random() < 0.2:
        if rng.random() < 0.25:
            return TextNode(rng.choice(TEXTS))
        return Element(rng.choice(TAGS), _random_attrs(rng), ())
    width = rng.randrange(0, 4)
    children = _merge_text(random_tree(rng, depth + 1, max_depth) for _ in range(width))
    return Element(rng.choice(TAGS), _random_attrs(rng), children)


def _merge_text(nodes: Iterable[XmlTree]) -> Tuple[XmlTree, ...]:
    """``nodes`` with each run of adjacent text nodes joined into one, since
    XML text cannot keep them apart."""
    out: List[XmlTree] = []
    for node in nodes:
        if out and isinstance(node, TextNode) and isinstance(out[-1], TextNode):
            out[-1] = TextNode(out[-1].text + node.text)
        else:
            out.append(node)
    return tuple(out)


def _random_attrs(rng: random.Random) -> dict:
    attrs = {}
    for attr in ATTRS:
        if rng.random() < 0.6:
            attrs[attr] = rng.choice(["on", "off", "1"])
    return attrs


def documents_for(grammar: Grammar, start: str, seed: int, n_sampled=4, n_random=3) -> list:
    """Documents for a generated grammar: some sampled from the grammar, so
    that many are accepted, and some random trees, so that many are not."""
    rng = random.Random(seed * 31 + 7)
    docs = []
    for _ in range(n_sampled):
        doc = sample_document(grammar, start, rng)
        if doc is not None:
            docs.append(doc)
    for _ in range(n_random):
        tree = random_tree(rng)
        if isinstance(tree, Element):
            docs.append(tree)
    return docs


class SampleFailed(Exception):
    pass


def sample_document(
    grammar: Grammar, start: str, rng: random.Random, max_depth: int = 4
) -> Optional[XmlTree]:
    """Generate a document by walking the grammar generatively.

    Returns None when the budgeted walk fails (e.g. unlucky recursion, or
    nesting beyond max_depth); callers just try another seed.
    """
    budget = [60]
    try:
        trees = _sample_seq(grammar, (Call(start, ()),), rng, budget, 1, max_depth)
    except SampleFailed:
        return None
    if len(trees) == 1 and isinstance(trees[0], Element):
        return trees[0]
    return None


def _sample_seq(
    grammar: Grammar, seq: BodySeq, rng: random.Random, budget, depth: int, max_depth: int
) -> List[XmlTree]:
    out: List[XmlTree] = []
    for item in seq:
        out.extend(_sample_item(grammar, item, rng, budget, depth, max_depth))
    return out


def _sample_item(
    grammar: Grammar, item: Body, rng: random.Random, budget, depth: int, max_depth: int
) -> List[XmlTree]:
    budget[0] -= 1
    if budget[0] <= 0:
        raise SampleFailed()
    if isinstance(item, ElementSpec):
        if depth >= max_depth:
            raise SampleFailed()
        attrs = {}
        for _, attr in item.attrs:
            attrs[attr] = rng.choice(["on", "off", "1"])
        branches = [b for _, b in item.guarded] + [item.else_body]
        children = _sample_seq(grammar, rng.choice(branches), rng, budget, depth + 1, max_depth)
        return [Element(item.tag, attrs, _merge_text(children))]
    if isinstance(item, Call):
        defs = grammar.definitions_of(item.name)
        if not defs:
            raise SampleFailed()
        clause = rng.choice(defs)
        return _sample_seq(grammar, clause.body, rng, budget, depth, max_depth)
    if isinstance(item, Bind):
        return _sample_seq(grammar, item.body, rng, budget, depth, max_depth)
    if isinstance(item, Star):
        out: List[XmlTree] = []
        for _ in range(rng.randrange(0, 3)):
            out.extend(_sample_seq(grammar, item.body, rng, budget, depth, max_depth))
        return out
    if isinstance(item, Or):
        branch = rng.choice(item.branches)
        return _sample_seq(grammar, branch, rng, budget, depth, max_depth)
    if isinstance(item, Text):
        return [TextNode(rng.choice(TEXTS))]
    if isinstance(item, Any):
        return [random_tree(rng, depth=2)]
    return []


# --------------------------------------------------------------------------
# Trees, events and XML text.  ``flatten_tree`` linearizes a tree into the
# events a reader yields for it (``build_tree`` is its inverse), and
# ``serialize_tree`` writes XML text that reads back to the same events.
# Both are iterative, so any depth works.
# --------------------------------------------------------------------------


def flatten_tree(tree: XmlTree) -> List[SaxEvent]:
    """Pre-order event linearization of a tree.  The stack holds the nodes
    still to visit and the end tags of the open elements."""
    out: List[SaxEvent] = []
    stack: List[Union[XmlTree, EndTag]] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Element):
            out.append(StartTag(node.tag, dict(node.attrs)))
            stack.append(EndTag(node.tag))
            stack.extend(reversed(node.children))
        elif isinstance(node, TextNode):
            out.append(TextEvt(node.text))
        else:
            out.append(node)  # the end tag of an element whose children are done
    return out


def _escape(text: str, quote: bool = False) -> str:
    # A reader normalises a literal \r (and, in attribute values, \t and \n)
    # away; character references survive that normalisation.
    out = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")
    if quote:
        out = out.replace('"', "&quot;").replace("\t", "&#9;").replace("\n", "&#10;")
    return out


def serialize_tree(tree: XmlTree) -> str:
    """XML text for a tree; closing tags wait on the stack as text."""
    parts: List[str] = []
    stack: List[Union[XmlTree, str]] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, TextNode):
            parts.append(_escape(node.text))
        else:
            attrs = "".join(f' {k}="{_escape(v, quote=True)}"' for k, v in node.attrs.items())
            if node.children:
                parts.append(f"<{node.tag}{attrs}>")
                stack.append(f"</{node.tag}>")
                stack.extend(reversed(node.children))
            else:
                parts.append(f"<{node.tag}{attrs}/>")
    return "".join(parts)


def run(
    table: PredictTable, start_rule: str, events: Iterable[SaxEvent], args: Tuple[Value, ...] = ()
) -> Value:
    """Parse an event stream on the machine, returning the synthesized value."""
    return Machine(table, start_rule, events, args).run()


def next_event(reader: SaxReader) -> Optional[SaxEvent]:
    """The reader's next event, or None once it is exhausted."""
    return next(iter(reader), None)


# --------------------------------------------------------------------------
# Reference renderers: the recursive layout the iterative renderers in
# ``xmlgram.values`` must match, for values shallow enough to recurse on.
# --------------------------------------------------------------------------


def plain(value: Value):
    """The nested Python data that ``render_json``'s text encodes."""
    if isinstance(value, str):
        return value
    if isinstance(value, (IntVal, BoolVal)):
        return value.value
    if isinstance(value, NullVal):
        return None
    if isinstance(value, TermVal):
        return {"ctor": value.ctor, "args": [plain(a) for a in value.args]}
    if isinstance(value, ListVal):
        return [plain(v) for v in value.items]
    return {"tuple": [plain(v) for v in value.items]}


def reference_render_term(value: Value) -> str:
    """``Ctor(arg,...)``, ``[a,b]``, ``(a,b)``, ``null``; strings as JSON."""
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, IntVal):
        return str(value.value)
    if isinstance(value, BoolVal):
        return "true" if value.value else "false"
    if isinstance(value, NullVal):
        return "null"
    if isinstance(value, TermVal):
        if not value.args:
            return value.ctor
        return value.ctor + "(" + ",".join(map(reference_render_term, value.args)) + ")"
    if isinstance(value, ListVal):
        return "[" + ",".join(map(reference_render_term, value.items)) + "]"
    if isinstance(value, TupleVal):
        return "(" + ",".join(map(reference_render_term, value.items)) + ")"
    raise TypeError(f"not a value: {value!r}")


# --------------------------------------------------------------------------
# Reference lexer: one match per token class, blanks and newlines included,
# counting lines as it goes.  ``xmlgram.frontend.lex`` must give the same
# tokens, spans and diagnostics.
# --------------------------------------------------------------------------

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


def reference_tokens(
    source: str, diagnostics: List[ParseDiagnostic]
) -> List[Tuple[str, str, SourceSpan]]:
    """The ``(kind, text, span)`` of each token of ``source``, ending in two
    EOF tokens."""
    toks: List[Tuple[str, str, SourceSpan]] = []
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
            toks.append((text if text in _KEYWORDS else "IDENT", text, span))
        elif kind == "PUNCT":
            toks.append((_PUNCT[text], text, span))
        elif kind == "INT":
            toks.append(("INT", text, span))
        elif kind == "STRING":
            if not m["CLOSE"]:
                diagnostics.append(ParseDiagnostic(span, "unterminated string literal"))
            text = _ESCAPE.sub(lambda e: _ESCAPED.get(e[1], e[1]), m["CHARS"])
            toks.append(("STRING", text, span))
        elif kind == "MARKER":
            if text == "@Grammar":
                toks.append(("ATGRAMMAR", text, span))
            else:
                diagnostics.append(ParseDiagnostic(span, f"unknown marker {text!r}"))
        elif kind == "OTHER":
            diagnostics.append(ParseDiagnostic(span, f"unknown character {text!r}"))
    eof = ("EOF", "", SourceSpan(line, pos - line_start + 1, 0))
    return toks + [eof, eof]
