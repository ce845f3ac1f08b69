"""Shared fixtures: canonical grammar sources, alpha-equivalence on grammars,
seeded random generators for grammars and documents, conversions between
trees, events and XML text, and reference implementations of the lexer, the
reader, the expression evaluator, the value renderers, the AST walks and the
table-driven machine."""

from __future__ import annotations

import io
import json
import pathlib
import random
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Dict, Iterable, Iterator, List, Optional, Tuple, Union
from xml.parsers import expat

from xmlgram.ast import (
    CONS,
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
from xmlgram.analysis import NotNormalForm, PredictTable
from xmlgram.engine import (
    BIND_ARITY_MISMATCH,
    MISSING_ATTRIBUTE,
    NO_PREDICT_ENTRY,
    TAG_MISMATCH,
    UNEXPECTED_EVENT,
    IncompleteParse,
    Machine,
    ParseFailure,
    _describe,
    _unexpected,
    check_arity,
    eval_reason,
)
from xmlgram.evaluate import ADD_CHILD, EvalError, UnboundVariable, _add_child, _equal, _fold, _fold_step
from xmlgram.evaluate import compile_actions, compile_expr, list_elements, truth
from xmlgram import sax
from xmlgram.events import ANY_TOKEN, Element, SaxEvent, TextEvt, TextNode, Token, XmlTree, token_label
from xmlgram.events import token_of_event
from xmlgram.frontend import _KEYWORDS, _PUNCT, ParseDiagnostic
from xmlgram.sax import _MESSAGES, NAME_RE, MalformedXml, SaxReader, UnsupportedFeature, XmlReadError
from xmlgram.values import EMPTY_CONS, NULL, BoolVal, ConsList, Env, IntVal, ListVal, NullVal, TermVal, TupleVal
from xmlgram.values import Value

# The worked example grammar: one rule with repetition over an alternation.
TEST_GRAMMAR = """\
@Grammar Test
  A ::= <A> b = (B | C)* </A> {b}.
  B ::= <B n=name/> {n}.
  C ::= <C n=name/> {n}.
end
"""

SEQ_GRAMMAR = (pathlib.Path(__file__).resolve().parent.parent / "samples" / "seq.xg").read_text()

# Failures inside a repetition's leaf items, which the machine runs inside
# the loop's NEXT op: id -> (grammar, document, keep whitespace, the failure).
LEAF_FAILURES = {
    "missing-attribute": (
        SEQ_GRAMMAR, '<A><B name="x"/><B/></A>', False,
        "MissingAttribute at event 3: element <B> lacks attribute 'name'",
    ),
    "element-for-end-tag": (
        SEQ_GRAMMAR, '<A><B name="x"><C name="y"/></B></A>', False,
        "TagMismatch at event 2: expected </B>, found <C>",
    ),
    "text-between-leaves": (
        SEQ_GRAMMAR, '<A><B name="x"/>hello<B name="y"/></A>', False,
        "NoPredictEntry at event 3: no prediction for rule A$1 on TEXT",
    ),
    "kept-whitespace-for-end-tag": (
        SEQ_GRAMMAR, '<A><B name="x">  </B></A>', True,
        "TagMismatch at event 2: expected </B>, found text '  '",
    ),
    "action-error": (
        "@Grammar G A ::= <A> b = B* </A> {b}. B ::= <B n=name/> {n.add(1)}. end",
        '<A><B name="x"/></A>', False,
        "EvalError at event 3: addChild expects a term and a value",
    ),
}

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
            draw = rng.random()
            if draw < 0.3:  # an item the machine runs as a leaf, alone or as one alternative
                leaf = self.leaf(scope)
                inner = leaf if draw < 0.2 else (Or((leaf, inner)),)
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

    def leaf(self, scope: List[str]) -> BodySeq:
        """An empty element with attributes, then an action that may read them."""
        attrs = [(self.fresh_var(), attr) for attr in ATTRS if self.rng.random() < 0.5]
        attrs = attrs or [(self.fresh_var(), self.rng.choice(ATTRS))]
        element = ElementSpec(self.rng.choice(TAGS), tuple(attrs), (), (Ok(),))
        return (element, self.make_actions(scope + [var for var, _ in attrs]))

    def call(self, scope: List[str], targets: List[str]) -> Call:
        """A call to one of ``targets`` with as many arguments as its rule
        has parameters, each a name in scope (a literal when nothing is)."""
        name = self.rng.choice(targets)
        if not scope:
            return Call(name, (StrLit("k"),) * self.arity[name])
        return Call(name, tuple(VarRef(self.rng.choice(scope)) for _ in range(self.arity[name])))

    def make_actions(self, scope: List[str]) -> Actions:
        if scope and self.rng.random() < 0.7:
            return Actions((Construct("W", (VarRef(self.rng.choice(scope)),)),))
        return Actions((self.expr(scope, 0),))

    def expr(self, scope: List[str], depth: int) -> Expr:
        """A literal or a name in scope, or a comparison or a cons whose
        operands may be one themselves, which prints in parentheses."""
        rng = self.rng
        if depth >= 2 or rng.random() < 0.6:
            leaves: List[Expr] = [IntLit(rng.randrange(9)), StrLit("k"), NullLit(), BoolLit(rng.random() < 0.5)]
            if scope:
                leaves.append(VarRef(rng.choice(scope)))
            return rng.choice(leaves)
        left, right = self.expr(scope, depth + 1), self.expr(scope, depth + 1)
        if rng.random() < 0.5:
            return Compare(rng.choice(["=", "<>"]), left, right)
        return ConsExpr(left, right)


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
    rules = _group(grammar)  # each rule's clauses, in source order
    try:
        trees = _sample_seq(rules, (Call(start, ()),), rng, budget, 1, max_depth)
    except SampleFailed:
        return None
    if len(trees) == 1 and isinstance(trees[0], Element):
        return trees[0]
    return None


def _sample_seq(
    rules: dict, seq: BodySeq, rng: random.Random, budget, depth: int, max_depth: int
) -> List[XmlTree]:
    out: List[XmlTree] = []
    for item in seq:
        out.extend(_sample_item(rules, item, rng, budget, depth, max_depth))
    return out


def _sample_item(
    rules: dict, item: Body, rng: random.Random, budget, depth: int, max_depth: int
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
        children = _sample_seq(rules, rng.choice(branches), rng, budget, depth + 1, max_depth)
        return [Element(item.tag, attrs, _merge_text(children))]
    if isinstance(item, Call):
        defs = rules.get(item.name)
        if not defs:
            raise SampleFailed()
        clause = rng.choice(defs)
        return _sample_seq(rules, clause.body, rng, budget, depth, max_depth)
    if isinstance(item, Bind):
        return _sample_seq(rules, item.body, rng, budget, depth, max_depth)
    if isinstance(item, Star):
        out: List[XmlTree] = []
        for _ in range(rng.randrange(0, 3)):
            out.extend(_sample_seq(rules, item.body, rng, budget, depth, max_depth))
        return out
    if isinstance(item, Or):
        branch = rng.choice(item.branches)
        return _sample_seq(rules, branch, rng, budget, depth, max_depth)
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
    still to visit and the end tags (names) of the open elements."""
    out: List[SaxEvent] = []
    stack: List[Union[XmlTree, str]] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Element):
            out.append((node.tag, dict(node.attrs)))
            stack.append(node.tag)
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
# Reference reader: the expat reader as it was before its events became
# plain pairs and names, with a Python handler per start and end tag and one
# slotted event object per event.  ``xmlgram.sax.SaxReader`` must give the
# same events, mapped by ``reference_form``, and the same errors.  It reads
# ``sax._CHUNK`` and ``sax.MAX_TOKEN`` as the reader does, so a test that
# sets them sets both.
# --------------------------------------------------------------------------


@dataclass(slots=True)
class StartTag:
    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class EndTag:
    tag: str


def reference_form(event):
    """The reference reader's form of one of the reader's events."""
    if type(event) is tuple:
        return StartTag(*event)
    if type(event) is str:
        return EndTag(event)
    return event


class ReferenceSaxReader:
    """Pull events one at a time from a string or file source."""

    def __init__(self, source: Union[str, IO], keep_whitespace: bool = False):
        if isinstance(source, str):
            source = io.StringIO(source)
        self._source = source
        self.max_window = 0
        self._encoding: Optional[str] = None  # the one the XML declaration names
        self._parser = parser = expat.ParserCreate()
        parser.buffer_text = True
        self._events: list = []
        emit = self._events.append
        text: List[str] = []
        end_tags: Dict[str, EndTag] = {}  # by tag name, for each name checked
        names = set()  # attribute names checked

        def error(message: str, cls=MalformedXml) -> XmlReadError:
            return cls(message, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

        def check_name(name: str) -> None:
            if ":" in name:
                raise error(f"namespace-prefixed name {name!r} is not supported", UnsupportedFeature)
            if NAME_RE.fullmatch(name) is None:
                raise error(f"invalid name {name!r}")

        def flush() -> None:
            joined = "".join(text)
            text.clear()
            if keep_whitespace or not joined.isspace():
                emit(TextEvt(joined))

        def start(tag: str, attrs: dict) -> None:
            if text:
                flush()
            if tag not in end_tags:
                check_name(tag)
                end_tags[tag] = EndTag(tag)
            if not names.issuperset(attrs):
                for name in attrs:
                    check_name(name)
                names.update(attrs)
            emit(StartTag(tag, attrs))

        def end(tag: str) -> None:
            if text:
                flush()
            emit(end_tags[tag])  # expat has already matched it with its start tag

        def declaration(version: str, encoding: Optional[str], standalone: int) -> None:
            self._encoding = encoding

        def unsupported(what: str):
            def handler(*_):
                raise error(f"{what} are not supported", UnsupportedFeature)

            return handler

        handlers = {
            "StartElementHandler": start,
            "EndElementHandler": end,
            "CharacterDataHandler": text.append,
            "XmlDeclHandler": declaration,
            "StartDoctypeDeclHandler": unsupported("DOCTYPE declarations"),
            "StartCdataSectionHandler": unsupported("CDATA sections"),
            "ProcessingInstructionHandler": unsupported("processing instructions"),
        }
        for name, handler in handlers.items():
            setattr(parser, name, handler)
        self._stream = chain.from_iterable(self._chunks(tuple(handlers)))

    def _chunks(self, handlers: Tuple[str, ...]) -> Iterator[list]:
        """Each chunk's events, in one list that is refilled per chunk;
        ``handlers`` names the parser's handlers, which are dropped at the end."""
        read, events, parser = self._source.read, self._events, self._parser
        final = False
        stalled, at = 0, None  # characters fed since expat's position last moved
        try:
            while not final:
                chunk = read(sax._CHUNK)
                final = not chunk
                if len(chunk) > self.max_window:
                    self.max_window = len(chunk)
                error = self._feed(chunk, final)
                if parser.CurrentByteIndex != at:
                    stalled, at = 0, parser.CurrentByteIndex
                else:
                    stalled += len(chunk)
                    if stalled > sax.MAX_TOKEN and error is None:
                        error = MalformedXml(
                            f"token longer than {sax.MAX_TOKEN} characters",
                            parser.CurrentLineNumber,
                            parser.CurrentColumnNumber + 1,
                        )
                # The chain hands out the whole list before it resumes this
                # generator, so events before an error still reach the
                # consumer first, and a grammar failure earlier in the
                # document is reported as such.
                yield events
                events.clear()
                if error is not None:
                    raise error
        finally:
            # The handlers refer to the parser and it to them: break the cycle.
            for name in handlers:
                setattr(parser, name, None)
            self._parser = None

    def _feed(self, chunk: Union[str, bytes], final: bool) -> Optional[XmlReadError]:
        """Push one chunk through expat; the error it ended with, if any."""
        parser = self._parser
        try:
            parser.Parse(chunk, final)
        except expat.ExpatError as exc:
            message = _MESSAGES.get(exc.code) or expat.ErrorString(exc.code)
            return MalformedXml(message, exc.lineno, exc.offset + 1)
        except XmlReadError as exc:
            return exc
        except UnicodeEncodeError as exc:
            # A lone surrogate in a string source: parse up to it, report it there.
            return self._feed(chunk[: exc.start], False) or MalformedXml(
                f"character {exc.object[exc.start]!r} cannot be encoded",
                parser.CurrentLineNumber,
                parser.CurrentColumnNumber + 1,
            )
        except (LookupError, ValueError):  # expat asked Python for the declared encoding
            message = f"encoding {self._encoding!r} is not supported"  # unknown, or multi-byte
            return UnsupportedFeature(message, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)
        return None

    def __iter__(self) -> Iterator:
        return self._stream


# --------------------------------------------------------------------------
# Reference evaluator: a walk over the expression tree, per call.
# ``xmlgram.evaluate.compile_expr`` must give the same values and the same
# errors.  It shares the fold, ``addChild`` and equality helpers.
# --------------------------------------------------------------------------


def reference_eval(expr: Expr, env: Env) -> Value:
    if isinstance(expr, VarRef):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariable(expr.name) from None
    if isinstance(expr, StrLit):
        return expr.value
    if isinstance(expr, IntLit):
        return IntVal(expr.value)
    if isinstance(expr, BoolLit):
        return BoolVal(expr.value)
    if isinstance(expr, NullLit):
        return NULL
    if isinstance(expr, Construct):
        args = tuple(reference_eval(a, env) for a in expr.args)
        return _add_child(args) if expr.ctor == ADD_CHILD else TermVal(expr.ctor, args)
    if isinstance(expr, ListLit):
        return ListVal(tuple(reference_eval(i, env) for i in expr.items))
    if isinstance(expr, ConsExpr):
        return TermVal(CONS, (reference_eval(expr.head, env), reference_eval(expr.tail, env)))
    if isinstance(expr, Fold):
        appends, step = _fold_step(expr)
        elements, acc = list_elements(reference_eval(expr.over, env)), reference_eval(expr.init, env)
        return _fold(expr, elements, acc, env, appends, lambda e: reference_eval(step, e))
    if isinstance(expr, Compare):
        same = _equal(reference_eval(expr.left, env), reference_eval(expr.right, env))
        return BoolVal(same if expr.op == "=" else not same)
    raise TypeError(f"not an expression: {expr!r}")


def reference_eval_actions(exprs, env: Env) -> Value:
    """One expression yields its value; several yield a tuple; none yields null."""
    values = [reference_eval(e, env) for e in exprs]
    if not values:
        return NULL
    if len(values) == 1:
        return values[0]
    return TupleVal(tuple(values))


def reference_eval_guard(expr: Expr, env: Env) -> bool:
    return truth(reference_eval(expr, env))


# --------------------------------------------------------------------------
# Reference renderers: the recursive layout the iterative renderers in
# ``xmlgram.values`` must match, for values shallow enough to recurse on.
# --------------------------------------------------------------------------


def cons_chain(items) -> TermVal:
    """The ``Cons``/``Nil`` chain of ``items``, one term per cell, which a
    repetition's value equals."""
    node = TermVal("Nil", ())
    for item in reversed(items):
        node = TermVal("Cons", (item, node))
    return node


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
        return value.ctor + "(" + ",".join([reference_render_term(a) for a in value.args]) + ")"
    if isinstance(value, ListVal):
        return "[" + ",".join([reference_render_term(v) for v in value.items]) + "]"
    if isinstance(value, TupleVal):
        return "(" + ",".join([reference_render_term(v) for v in value.items]) + ")"
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
            toks.append((text, text, span))
        elif kind == "INT":
            toks.append(("INT", text, span))
        elif kind == "STRING":
            if not m["CLOSE"]:
                diagnostics.append(ParseDiagnostic(span, "unterminated string literal"))
            text = _ESCAPE.sub(lambda e: _ESCAPED.get(e[1], e[1]), m["CHARS"])
            toks.append(("STRING", text, span))
        elif kind == "MARKER":
            if text == "@Grammar":
                toks.append((text, text, span))
            else:
                diagnostics.append(ParseDiagnostic(span, f"unknown marker {text!r}"))
        elif kind == "OTHER":
            diagnostics.append(ParseDiagnostic(span, f"unknown character {text!r}"))
    eof = ("EOF", "", SourceSpan(line, pos - line_start + 1, 0))
    return toks + [eof, eof]


# --------------------------------------------------------------------------
# Reference AST walks: generators in the plain form that ``xmlgram.ast.walk``
# and ``xmlgram.normalize.is_normal_form`` must agree with.
# --------------------------------------------------------------------------


def _bodies(item: Body) -> Tuple[BodySeq, ...]:
    """The body sequences directly inside a node, in source order."""
    if isinstance(item, Or):
        return item.branches
    if isinstance(item, (Bind, Star)):
        return (item.body,)
    if isinstance(item, ElementSpec):
        return tuple(body for _, body in item.guarded) + (item.else_body,)
    return ()


def reference_walk(seq: BodySeq) -> Iterator[Body]:
    """Every item of ``seq`` and of the bodies nested in it, in source order
    (each item before the items inside it)."""
    stack = list(reversed(seq))
    while stack:
        item = stack.pop()
        yield item
        for body in reversed(_bodies(item)):
            stack.extend(reversed(body))


def reference_is_normal_form(grammar: Grammar) -> bool:
    """No alternation and no repetition anywhere."""
    return not any(
        isinstance(item, (Or, Star))
        for clause in grammar.clauses
        for item in reference_walk(clause.body)
    )


# --------------------------------------------------------------------------
# Reference machine: the op interpreter that ran the predict table before
# ``xmlgram.engine`` generated code for it.  ``ReferenceProgram`` compiles
# each predicted clause to ops (small tuples, in reverse execution order),
# with the fused ops, leaf runs and chain resolution it had; its ``rows`` and
# ``loops`` are the table as the interpreter saw it.  ``ReferenceMachine`` pops
# ops against the events in one driver loop, and counts a step per op.
# The engine must give the same values, failures and positions.
# --------------------------------------------------------------------------


class MachineInvariantError(AssertionError):
    """The reference machine reached a state its invariants forbid; a bug, not input error."""



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


class ReferenceProgram:
    """A predict table compiled for the reference machine: ``rows[rule][token]`` is
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


class ReferenceMachine:
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
        program = ReferenceProgram(table)  # not kept on the table, which holds the engine's
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
