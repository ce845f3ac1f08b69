"""Seeded workload generators.

Each generator builds a grammar, a document and the exact text that
``xmlgram parse`` must print for them.  The expected text is assembled here
from the generator's own choices, in ``render_term``'s canonical form
(``Ctor(a,b)``, strings as JSON literals), never by running the engine.

The seed picks names, texts and which of two equal-cost choices each item
takes; the shape and size depend only on ``size``, so every seed costs the
same to parse.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List


@dataclass
class Case:
    grammar: str  # grammar source text
    start: str
    document: str
    expected: str  # render_term of the value, without the trailing newline
    events: int  # SAX events the reader yields (whitespace-only text dropped)


def _lit(text: str) -> str:
    return json.dumps(text)


def _ident(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("'", "&apos;")
    )


def _cons(items: List[str]) -> str:
    return "".join(f"Cons({item}," for item in items) + "Nil" + ")" * len(items)


# -- flat: criterion 7's document --------------------------------------------


def flat(rng: random.Random, size: int, root: Path) -> Case:
    """``samples/seq.xg`` on ``<A>`` plus ``size`` ``<B|C name=…/>`` siblings."""
    names = [f"s{_ident(rng, 8)}" for _ in range(size)]
    doc = "".join(f'<{rng.choice("BC")} name="{n}"/>' for n in names)
    return Case(
        grammar=(root / "samples" / "seq.xg").read_text(encoding="utf-8"),
        start="A",
        document=f"<A>{doc}</A>\n",
        expected=_cons([_lit(n) for n in names]),
        events=2 + 2 * size,
    )


# -- text: long character data, entities, comments, ANY skips ------------------

TEXT_GRAMMAR = """\
// Paragraphs of text and notes whose content is skipped.
@Grammar Text
  Doc ::= <Doc> ps = Part* </Doc> {ps}.
  Part ::= Para | Note.
  Para ::= <P> t = TEXT </P> {t}.
  Note ::= <Note id> ANY </Note> {Note(id)}.
end
"""

_WORDS = (
    "stream table rule event tag machine value token grammar element "
    "attribute text bounded space predict parse depth sibling"
).split()
_SPECIALS = ("&", "<", ">", '"', "'")


def _paragraph(rng: random.Random, length: int):
    """(decoded text, encoded XML) of about ``length`` characters.

    Every fifth word is followed by one of the five entity characters and
    every fortieth by a comment, which the reader drops from the text run.
    """
    decoded: List[str] = []
    encoded: List[str] = []
    total = 0
    i = 0
    while total < length:
        word = rng.choice(_WORDS)
        if i % 5 == 4:
            word += " " + rng.choice(_SPECIALS)
        decoded.append(word)
        encoded.append(_escape(word))
        if i % 40 == 39:
            encoded.append(f"<!-- remark {_ident(rng, 6)} -->")
        decoded.append(" ")
        encoded.append(" ")
        total += len(word) + 1
        i += 1
    return "".join(decoded), "".join(encoded)


def text(rng: random.Random, size: int, root: Path) -> Case:
    """``size`` paragraphs of about 2 KB, with a skipped ``<Note>`` every tenth."""
    parts: List[str] = []
    values: List[str] = []
    events = 2
    for i in range(size):
        if i % 10 == 9:
            note_id = f"n{_ident(rng, 6)}"
            _, xml = _paragraph(rng, 200)
            parts.append(
                f'<Note id="{note_id}"><Box kind="aside">{xml}<I>{_ident(rng, 8)}</I>'
                f"{xml}<!-- end --></Box></Note>\n"
            )
            values.append(f"Note({_lit(note_id)})")
            events += 9  # Note, Box, text, I, text, /I, text, /Box, /Note
        else:
            plain, xml = _paragraph(rng, 2000)
            parts.append(f"<P>{xml}</P>\n")
            values.append(_lit(plain))
            events += 3
    return Case(
        grammar=TEXT_GRAMMAR,
        start="Doc",
        document="<Doc>\n" + "".join(parts) + "</Doc>\n",
        expected=_cons(values),
        events=events,
    )


# -- models: the fold-heavy model language ---------------------------------------


def models(rng: random.Random, size: int, root: Path) -> Case:
    """``samples/models.xg`` on a Package of ``size`` Classes and size/4 Associations.

    Each Class has two Attributes and an Operation; the Package and each
    Class fold their children into one term with ``.add``.
    """
    parts = ['<Package name="shop">\n']
    values = []
    events = 2
    for i in range(size):
        name, a, b, op = (_ident(rng, 6) for _ in range(4))
        abstract = rng.choice(("true", "false"))
        parts.append(
            f'<Class name="{name}" isAbstract="{abstract}" id="c{i}">'
            f'<Attribute name="{a}" type="int"/><Attribute name="{b}" type="str"/>'
            f'<Operation name="{op}"></Operation></Class>\n'
        )
        values.append(
            f"Class({_lit(name)},{_lit(abstract)},"
            f'Attribute({_lit(a)},"int"),Attribute({_lit(b)},"str"),'
            f"Operation({_lit(op)},Nil))"
        )
        events += 8
        if i % 4 == 3:
            assoc, n1, n2 = (_ident(rng, 6) for _ in range(3))
            parts.append(
                f'<Association name="{assoc}"><End name="{n1}" type="{name}"/>'
                f'<End name="{n2}" type="{a}"/></Association>\n'
            )
            values.append(
                f"Association({_lit(assoc)},End({_lit(n1)},{_lit(name)}),"
                f"End({_lit(n2)},{_lit(a)}))"
            )
            events += 6
    parts.append("</Package>\n")
    return Case(
        grammar=(root / "samples" / "models.xg").read_text(encoding="utf-8"),
        start="Package",
        document="".join(parts),
        expected='Package("shop"' + "".join("," + v for v in values) + ")",
        events=events,
    )


# -- grammar: a large generated grammar, nested once per rule ----------------------


def grammar(rng: random.Random, size: int, root: Path) -> Case:
    """A chain of ``size`` rules, each one element deep, cycling four shapes.

    Shape 0 repeats an alternation of inline elements (star and disjunction
    removal), shape 1 guards its element (guard lifting), shape 2 skips a
    subtree with ``ANY`` and shape 3 binds ``TEXT``.  The document nests
    ``size`` levels deep, one element per rule, and ends in ``<Leaf/>``.
    """
    rules: List[str] = []
    opens: List[str] = []
    closes: List[str] = []
    heads: List[str] = []
    tails: List[str] = []
    events = 2
    for i in range(size):
        tag = f"T{i}{_ident(rng, 3)}"
        nxt = f"R{i + 1}"
        key = rng.choice(("g", "h")) + _ident(rng, 4)
        kind = i % 4
        if kind == 0:
            alts = " | ".join(f"<{tag}v{j} v=val/> {{v}}" for j in range(6))
            rules.append(
                f"R{i} ::= <{tag} k=key> xs = ({alts} | <{tag}m/> {{M}})* "
                f"n = {nxt} </{tag}> {{ {tag}(k, xs, n) }}."
            )
            items, doc_items = [], []
            for _ in range(3):
                j = rng.randrange(7)
                if j == 6:
                    doc_items.append(f"<{tag}m/>")
                    items.append("M")
                else:
                    val = _ident(rng, 5)
                    doc_items.append(f'<{tag}v{j} val="{val}"/>')
                    items.append(_lit(val))
            events += 6
            opens.append(f'<{tag} key="{key}">' + "".join(doc_items))
            heads.append(f"{tag}({_lit(key)},{_cons(items)},")
        elif kind == 1:
            rules.append(
                f'R{i} ::= <{tag} k=key when k = "{key}" > a = {nxt} {{G(a)}} '
                f"else a = {nxt} {{H(a)}} </{tag}>."
            )
            taken = rng.random() < 0.5
            actual = key if taken else "x" + key[1:]
            opens.append(f'<{tag} key="{actual}">')
            heads.append("G(" if taken else "H(")
        elif kind == 2:
            rules.append(f"R{i} ::= <{tag} k=key> ANY n = {nxt} </{tag}> {{ {tag}(k, n) }}.")
            opens.append(f'<{tag} key="{key}"><Skip{i}><x/>{_ident(rng, 8)}</Skip{i}>')
            heads.append(f"{tag}({_lit(key)},")
            events += 5
        else:
            rules.append(
                f"R{i} ::= <{tag} k=key> t = TEXT n = {nxt} </{tag}> {{ {tag}(k, t, n) }}."
            )
            words = _ident(rng, 12)
            opens.append(f'<{tag} key="{key}">{words}')
            heads.append(f"{tag}({_lit(key)},{_lit(words)},")
            events += 1
        closes.append(f"</{tag}>")
        tails.append(")")
        events += 2
    rules.append(f"R{size} ::= <Leaf/> {{Leaf}}.")
    source = "@Grammar Chain\n" + "".join(f"  {r}\n" for r in rules) + "end\n"
    document = "".join(opens) + "<Leaf/>" + "".join(reversed(closes)) + "\n"
    return Case(
        grammar=source,
        start="R0",
        document=document,
        expected="".join(heads) + "Leaf" + "".join(tails),
        events=events,
    )


# name -> (generator, full size, scaled-down size for the oracle check)
WORKLOADS: Dict[str, tuple] = {
    "flat": (flat, 6_000, 40),
    "text": (text, 800, 12),
    "models": (models, 800, 8),
    "grammar": (grammar, 200, 12),
}


def generate(name: str, seed: int, root: Path, small: bool = False) -> Case:
    """The workload's case for ``seed``; ``small`` gives the scaled-down one."""
    gen, full, scaled = WORKLOADS[name]
    return gen(random.Random(f"{name}:{seed}:{small}"), scaled if small else full, root)
