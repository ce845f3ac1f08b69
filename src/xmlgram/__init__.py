"""xmlgram: XML domain-specific languages defined by grammars.

Grammars are parsed from a small rule language, checked for variable
well-formedness, rewritten into a normal form without alternation or
repetition, compiled to LL(1) predict tables, and executed by an
event-driven machine that synthesizes term values directly from SAX events
without materializing the document.  A backtracking tree interpreter
provides reference semantics for testing.
"""

from .analysis import (
    AnalysisResult,
    ConflictReport,
    PredictTable,
    UndefinedClause,
    build_predict_table,
    check_ll1,
    compute_sets,
)
from .ast import Clause, Grammar
from .engine import Compiled, IncompleteParse, Machine, ParseFailure, compile_grammar
from .events import (
    Element,
    TextEvt,
    TextNode,
    build_tree,
)
from .frontend import GrammarParseError, ParseDiagnostic, parse_grammar, try_parse_grammar
from .normalize import is_normal_form, normalize_grammar
from .oracle import Oracle, OracleResult
from .pretty import pretty_grammar
from .sax import MalformedXml, SaxReader, UnsupportedFeature, read_events
from .values import (
    BoolVal,
    ConsList,
    IntVal,
    ListVal,
    NullVal,
    TermVal,
    TupleVal,
    render_json,
    render_term,
    write_value,
)
from .wellformed import WfError, check_grammar, lint_grammar

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "BoolVal",
    "Clause",
    "Compiled",
    "ConflictReport",
    "ConsList",
    "Element",
    "Grammar",
    "GrammarParseError",
    "IncompleteParse",
    "IntVal",
    "ListVal",
    "Machine",
    "MalformedXml",
    "NullVal",
    "Oracle",
    "OracleResult",
    "ParseDiagnostic",
    "ParseFailure",
    "PredictTable",
    "SaxReader",
    "TermVal",
    "TextEvt",
    "TextNode",
    "TupleVal",
    "UndefinedClause",
    "UnsupportedFeature",
    "WfError",
    "build_predict_table",
    "build_tree",
    "check_grammar",
    "check_ll1",
    "compile_grammar",
    "compute_sets",
    "is_normal_form",
    "lint_grammar",
    "normalize_grammar",
    "parse_grammar",
    "pretty_grammar",
    "read_events",
    "render_json",
    "render_term",
    "try_parse_grammar",
    "write_value",
]
