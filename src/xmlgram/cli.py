"""Command-line interface.

    xmlgram check <g.xg>
    xmlgram tables <g.xg> [--format text|kv] [--start RULE]
    xmlgram normalize <g.xg>
    xmlgram parse <g.xg> <doc.xml> [--start RULE] [--format term|json]
                  [--oracle] [--keep-whitespace]

Exit codes: 0 success, 1 grammar/document error, 2 I/O error or bad usage.
The environment variable XMLGRAM_MAX_DERIVATIONS, a positive integer, caps
the oracle's search.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Optional, Tuple

from .analysis import PredictTable, render_table_kv, render_table_text
from .ast import Grammar
from .engine import Compiled, Machine, ParseFailure, compile_grammar, eval_reason
from .evaluate import EvalError
from .events import build_tree
from .frontend import try_parse_grammar
from .oracle import DEFAULT_MAX_STEPS, Oracle, OracleLimitExceeded
from .pretty import pretty_grammar
from .sax import SaxReader, XmlReadError
from .values import write_value
from .wellformed import lint_grammar

OK, LANGUAGE_ERROR, IO_ERROR = 0, 1, 2
USAGE_ERROR = 2  # the code argparse exits with on a bad command line


def _compile(
    path: str, start: Optional[str] = None
) -> Tuple[Optional[Grammar], Optional[Compiled], int]:
    """Read, parse and compile a grammar file, printing its diagnostics.  The
    exit code is non-zero when the file cannot be read or parsed (the grammar
    is then None) or the grammar has errors."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None, None, IO_ERROR
    try:
        source = data.decode("utf-8-sig")  # a leading BOM is skipped, as XML readers do
    except UnicodeDecodeError as exc:
        at = exc.start + len(data) - len(exc.object)  # exc.object lacks the BOM
        print(f"{path}: error: invalid UTF-8 at byte {at}", file=sys.stderr)
        return None, None, LANGUAGE_ERROR
    source = source.replace("\r\n", "\n").replace("\r", "\n")  # line ends as text mode reads them
    grammar, diagnostics = try_parse_grammar(source)
    for diag in diagnostics:
        print(f"{path}:{diag}", file=sys.stderr)
    if grammar is None:
        return None, None, LANGUAGE_ERROR
    compiled = compile_grammar(grammar, start)
    for err in compiled.errors:
        print(f"{path}: {err}", file=sys.stderr)
    return grammar, compiled, LANGUAGE_ERROR if compiled.errors else OK


def _report_conflicts(path: str, table: PredictTable) -> int:
    for conflict in table.conflicts:
        print(f"{path}: conflict: {conflict}", file=sys.stderr)
    return LANGUAGE_ERROR if table.conflicts else OK


def cmd_check(args: argparse.Namespace) -> int:
    grammar, compiled, code = _compile(args.grammar, args.start)
    if grammar is None:
        return code
    for warning in lint_grammar(grammar):
        print(f"{args.grammar}: warning: {warning}", file=sys.stderr)
    if code or compiled.table is None:
        return code
    return _report_conflicts(args.grammar, compiled.table)


def cmd_tables(args: argparse.Namespace) -> int:
    _, compiled, code = _compile(args.grammar, args.start)
    if code or compiled.table is None:
        return code
    render = render_table_kv if args.format == "kv" else render_table_text
    sys.stdout.write(render(compiled.normal, compiled.table))
    return _report_conflicts(args.grammar, compiled.table)


def cmd_normalize(args: argparse.Namespace) -> int:
    _, compiled, code = _compile(args.grammar)
    if code:
        return code
    sys.stdout.write(pretty_grammar(compiled.normal))
    return OK


def cmd_parse(args: argparse.Namespace) -> int:
    max_steps = DEFAULT_MAX_STEPS
    if args.oracle and "XMLGRAM_MAX_DERIVATIONS" in os.environ:
        budget = os.environ["XMLGRAM_MAX_DERIVATIONS"]
        try:
            max_steps = int(budget)
        except ValueError:
            max_steps = 0
        if max_steps < 1:
            message = f"XMLGRAM_MAX_DERIVATIONS must be a positive integer, got {budget!r}"
            print(f"error: {message}", file=sys.stderr)
            return USAGE_ERROR
    grammar, compiled, code = _compile(args.grammar, args.start)
    if code:
        return code
    if compiled.table is None:
        print(f"{args.grammar}: grammar has no rules", file=sys.stderr)
        return LANGUAGE_ERROR

    try:
        doc_file = open(args.document, "rb")
    except OSError as exc:
        print(f"error: cannot read {args.document}: {exc.strerror}", file=sys.stderr)
        return IO_ERROR

    with doc_file:
        reader = SaxReader(doc_file, keep_whitespace=args.keep_whitespace)
        try:
            if args.oracle:
                value = _parse_with_oracle(grammar, compiled.start, reader, max_steps)
                if value is None:
                    print(f"{args.document}: parse failed: no derivation", file=sys.stderr)
                    return LANGUAGE_ERROR
            else:
                grammar = None  # only the oracle reads the user's AST: free it before the run
                if _report_conflicts(args.grammar, compiled.table):
                    return LANGUAGE_ERROR
                value = Machine(compiled.table, compiled.start, iter(reader)).run()
        except XmlReadError as exc:
            print(f"{args.document}:{exc}", file=sys.stderr)
            return LANGUAGE_ERROR
        except ParseFailure as exc:
            print(f"{args.document}: parse failed: {exc}", file=sys.stderr)
            return LANGUAGE_ERROR
        except EvalError as exc:  # only the oracle lets these out
            print(f"{args.document}: parse failed: {eval_reason(exc)}: {exc}", file=sys.stderr)
            return LANGUAGE_ERROR
        except OracleLimitExceeded as exc:
            print(f"{args.document}: parse failed: OracleLimitExceeded: {exc}", file=sys.stderr)
            return LANGUAGE_ERROR

    write_value(value, args.format, sys.stdout.write)  # never the whole text in memory
    sys.stdout.write("\n")
    return OK


def _parse_with_oracle(grammar: Grammar, start_rule: str, reader: SaxReader, max_steps: int):
    doc = build_tree(iter(reader))
    result = Oracle(grammar, max_steps=max_steps).accepts(start_rule, doc)
    if result.ambiguous:
        print(
            f"warning: grammar is ambiguous for this document "
            f"({len(result.values)} distinct values)",
            file=sys.stderr,
        )
    return result.value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="xmlgram", description="XML grammar toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse, well-formedness, normal form, LL(1)")
    p_check.add_argument("grammar")
    p_check.add_argument("--start", help="start rule (default: first rule)")
    p_check.set_defaults(func=cmd_check)

    p_tables = sub.add_parser("tables", help="print the predict table")
    p_tables.add_argument("grammar")
    p_tables.add_argument("--format", choices=("text", "kv"), default="text")
    p_tables.add_argument("--start", help="start rule (default: first rule)")
    p_tables.set_defaults(func=cmd_tables)

    p_norm = sub.add_parser("normalize", help="print the normalized grammar")
    p_norm.add_argument("grammar")
    p_norm.set_defaults(func=cmd_normalize)

    p_parse = sub.add_parser("parse", help="parse an XML document with a grammar")
    p_parse.add_argument("grammar")
    p_parse.add_argument("document")
    p_parse.add_argument("--start", help="start rule (default: first rule)")
    p_parse.add_argument("--format", choices=("term", "json"), default="term")
    p_parse.add_argument("--oracle", action="store_true", help="use the reference interpreter")
    p_parse.add_argument("--keep-whitespace", action="store_true")
    p_parse.set_defaults(func=cmd_parse)

    args = parser.parse_args(argv)
    # The reference cycles a command leaves do not grow with its input
    # (the reader breaks its one cycle when the input ends), so automatic
    # collection would only pause it.  The previous state comes back after.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout has gone (``| head``).  What is still buffered,
        # and the flush at exit, go to the null device instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write output: broken pipe", file=sys.stderr)
        return IO_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
