"""Benchmark of ``xmlgram parse``, end to end and per layer.

Run from the root of a checkout; it imports xmlgram from ``src/`` there:

    python3 bench/run.py --workload flat --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload flat --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --smoke

A closed loop with one client: one process pinned to one CPU, one parse at
a time, no threads.  Each parse is the user's path, ``xmlgram.cli.main(["parse", ...])``
on a grammar file and a document file written under ``bench/_work/``, with
stdout captured to a file and compared with the generator's expected text.

``--trace 0`` reports the end-to-end metrics: the median parse time, the
throughput it implies, the median set-up time (``xmlgram check``, which loads
the grammar and compiles it to an LL(1)-checked table) and the tracemalloc
peak of one untimed parse.  Times are calibrated against a fixed reference
workload run before each sample (``calibrated``).  ``--trace 1`` alternates untraced and traced
parses and reports the per-layer metrics of ``tracing.Tracer``; it writes
its spans to ``bench/_work/spans-<workload>-<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong output or a non-zero
exit makes ``correct`` false and the exit code 1.  See README.md beside
this file for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import workloads
from tracing import Tracer

T = TypeVar("T")
clock = time.perf_counter
HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"

SETUP_SHARE = 0.2  # of --seconds spent timing set-up; the rest times parses
MIN_SAMPLES = 5
BATCH_SECONDS = 0.2  # one sample is the median of the calls made in this long
REF_ROUNDS, REF_ITERATIONS = 5, 44_000  # size of the reference work, see reference_seconds()
REF_SECONDS = 0.2  # nominal time of the reference work; calibrated times assume it

END_TO_END_UNITS = {"parse_s": "s", "mb_per_s": "MB/s", "setup_s": "s", "peak_mem_mb": "MB"}
PER_LAYER_UNITS = {
    "frontend.s": "s",
    "wellformed.s": "s",
    "normalize.s": "s",
    "normalize.clauses": "count",
    "analysis.s": "s",
    "analysis.cells": "count",
    "sax.s": "s",
    "sax.mb_s": "MB/s",
    "sax.events": "count",
    "sax.max_window": "chars",
    "engine.s": "s",
    "engine.self_s": "s",
    "engine.steps": "count",
    "engine.steps_per_event": "ratio",
    "engine.max_dump_depth": "count",
    "evaluate.s": "s",
    "evaluate.calls": "count",
    "values.render_s": "s",
    "values.out_mb": "MB",
    "gc.s": "s",
    "gc.collections": "count",
    "trace.overhead_s": "s",
}


# How a CLI call is made: directly, or inside a traced parse.
Wrap = Callable[[Callable[[], int]], int]


def _direct(call: Callable[[], int]) -> int:
    return call()


class Bench:
    """One workload instance on disk, and the parses and checks run on it."""

    def __init__(self, cli, case: workloads.Case, stem: str):
        self.cli = cli
        self.case = case
        self.grammar_path = WORK / f"{stem}.xg"
        self.doc_path = WORK / f"{stem}.xml"
        self.out_path = WORK / f"{stem}.out"
        self.grammar_path.write_text(case.grammar, encoding="utf-8")
        self.doc_bytes = self.doc_path.write_bytes(case.document.encode("utf-8"))
        self.expected = case.expected + "\n"
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def remove_files(self) -> None:
        for path in (self.grammar_path, self.doc_path, self.out_path):
            path.unlink(missing_ok=True)

    def _call(self, argv: List[str], wrap: Wrap = _direct) -> Optional[float]:
        """Seconds one ``cli.main(argv)`` took, or None if it failed."""
        self.attempted += 1
        gc.collect()
        err = io.StringIO()
        with open(self.out_path, "w", encoding="utf-8") as out:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                try:
                    code = wrap(lambda: self.cli.main(argv))
                except Exception as exc:  # a traceback escaping the CLI is a failed parse
                    code = f"{type(exc).__name__}: {exc}"
                seconds = clock() - t0
        if code != 0:
            return self._fail(f"{argv[0]} exited with {code}: {err.getvalue()[:300]}")
        return seconds

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        return None

    def parse(self, wrap: Wrap = _direct) -> Optional[float]:
        argv = ["parse", str(self.grammar_path), str(self.doc_path), "--start", self.case.start]
        seconds = self._call(argv, wrap)
        if seconds is not None and self.out_path.read_text(encoding="utf-8") != self.expected:
            return self._fail("parse printed a value other than the expected one")
        return seconds

    def setup(self) -> Optional[float]:
        return self._call(["check", str(self.grammar_path), "--start", self.case.start])

    def peak_mem_mb(self) -> Optional[float]:
        """tracemalloc peak over one untimed parse, in MB."""
        tracemalloc.start()
        try:
            ok = self.parse() is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1e6 if ok else None

    def differential(self, small: workloads.Case) -> None:
        """Engine and Oracle agree, and match the generator, on a scaled-down case."""
        from xmlgram import Machine, Oracle, SaxReader, build_tree, read_events, render_term
        from xmlgram import build_predict_table, compute_sets, normalize_grammar, parse_grammar

        self.attempted += 1
        try:
            grammar = parse_grammar(small.grammar)
            normal = normalize_grammar(grammar)
            table = build_predict_table(normal, compute_sets(normal, small.start))
            value = Machine(table, small.start, iter(SaxReader(io.StringIO(small.document)))).run()
            tree = build_tree(read_events(small.document))
            reference = Oracle(grammar, max_steps=1_000_000).accepts(small.start, tree)
        except Exception as exc:  # any escape is a failed check, reported like a parse
            self._fail(f"differential check raised {type(exc).__name__}: {exc}")
            return
        if reference.ambiguous or reference.value != value:
            self._fail("engine and oracle disagree on the scaled-down case")
        elif render_term(value) != small.expected:
            self._fail("engine value differs from the generator's expected text")


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value


def reference_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work (dicts, strings, small
    objects, a sort), independent of xmlgram; about 0.2 s on an idle core,
    as long as a typical step, so both see the host at the same speed."""
    gc.collect()
    t0 = clock()
    for _ in range(REF_ROUNDS):
        counts: Dict[str, int] = {}
        items = []
        for i in range(REF_ITERATIONS):
            key = "k%d" % (i % 977)
            counts[key] = counts.get(key, 0) + i
            items.append(_Item(key, i))
        items.sort(key=lambda item: item.key)
    return clock() - t0


def calibrated(step: Callable[[], Optional[T]], budget: float, minimum: int) -> List[Tuple[T, float]]:
    """Results of ``step`` with their calibration factors.

    Runs ``step`` for ``budget`` seconds and at least ``minimum`` times, and
    stops at the first failure (None).  The reference work runs just before
    each step; the step's factor is ``REF_SECONDS`` over its time, so that wall
    time times factor cancels the host's drift in speed (see README.md,
    "Calibration").
    """
    results: List[Tuple[T, float]] = []
    end = clock() + budget
    while len(results) < minimum or clock() < end:
        factor = REF_SECONDS / reference_seconds()
        result = step()
        if result is None:
            break
        results.append((result, factor))
    return results


def batch(measure: Callable[[], Optional[float]]) -> Callable[[], Optional[Tuple[float, int]]]:
    """A step: the median wall time of ``measure`` repeated for ``BATCH_SECONDS``
    (once at least), and the number of calls."""

    def step() -> Optional[Tuple[float, int]]:
        times: List[float] = []
        end = clock() + BATCH_SECONDS
        while not times or clock() < end:
            seconds = measure()
            if seconds is None:
                return None
            times.append(seconds)
        return statistics.median(times), len(times)

    return step


def summary(samples: List[Tuple[Tuple[float, int], float]]) -> Tuple[float, str]:
    """Median calibrated seconds of batch samples, and a line about them."""
    values = [wall * factor for (wall, _), factor in samples]
    median = statistics.median(values)
    calls = sum(n for (_, n), _ in samples)
    wall = statistics.median(wall for (wall, _), _ in samples)
    line = f"median of n={len(values)} batches ({calls} calls); wall median {wall:.4g}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"; q1 {q1:.4g}, q3 {q3:.4g}"
    return median, line


def end_to_end(bench: Bench, seconds: float, minimum: int) -> Dict[str, float]:
    figures: Dict[str, float] = {}
    peak = bench.peak_mem_mb()
    if peak is None:
        return figures
    setup = calibrated(batch(bench.setup), seconds * SETUP_SHARE, minimum)
    parses = calibrated(batch(bench.parse), seconds * (1 - SETUP_SHARE), minimum)
    if bench.failed:
        return figures
    figures["parse_s"], parse_line = summary(parses)
    figures["mb_per_s"] = bench.doc_bytes / 1e6 / figures["parse_s"]
    figures["setup_s"], setup_line = summary(setup)
    figures["peak_mem_mb"] = peak
    print(f"parse_s      {figures['parse_s']:.6f} s     {parse_line}")
    print(f"mb_per_s     {figures['mb_per_s']:.6f} MB/s  {bench.doc_bytes} bytes / parse_s")
    print(f"setup_s      {figures['setup_s']:.6f} s     {setup_line}")
    print(f"peak_mem_mb  {figures['peak_mem_mb']:.6f} MB    one tracemalloc pass, n=1")
    return figures


def per_layer(bench: Bench, seconds: float, minimum: int, spans_path: Path) -> Dict[str, float]:
    """Alternate untraced and traced parses, each pair calibrated like ``sample``."""
    tracer = Tracer()

    def traced(call: Callable[[], int]) -> int:
        with tracer.installed():
            return tracer.parse(call)

    def step():
        untraced = bench.parse()
        if untraced is None or bench.parse(traced) is None:
            return None
        root = [s for s in tracer.spans if s.name == "parse"][-1]
        return untraced, root.end - root.start, tracer.layer_metrics(root.trace, bench.doc_bytes)

    plain: List[float] = []
    traced_s: List[float] = []
    layers: List[Dict[str, float]] = []
    for (untraced, traced_wall, row), factor in calibrated(step, seconds, minimum):
        plain.append(untraced * factor)
        traced_s.append(traced_wall * factor)
        for name, value in row.items():
            unit = PER_LAYER_UNITS[name]
            row[name] = value * factor if unit == "s" else value / factor if unit == "MB/s" else value
        layers.append(row)
    spans_path.write_text(json.dumps({"spans": [vars(s) for s in tracer.spans]}), encoding="utf-8")
    if bench.failed:
        return {}
    figures = {name: statistics.median(f[name] for f in layers) for name in layers[0]}
    parse = statistics.median(traced_s)
    figures["trace.overhead_s"] = parse - statistics.median(plain)
    print(f"traced parse {parse:.6f} s, untraced {statistics.median(plain):.6f} s,"
          f" {len(layers)} each; layer medians (times exclude gc):")
    for name, value in figures.items():
        print(f"  {name:24s} {value:.6g} {PER_LAYER_UNITS[name]}")
    shares = {
        "compile": sum(figures[k] for k in ("frontend.s", "wellformed.s", "normalize.s", "analysis.s")),
        "reader": figures["sax.s"],
        "machine": figures["engine.self_s"],
        "evaluate": figures["evaluate.s"],
        "render": figures["values.render_s"],
        "gc": figures["gc.s"],
    }
    shares["other"] = parse - sum(shares.values())
    print("  shares of the traced parse: "
          + ", ".join(f"{k} {100 * v / parse:.0f}%" for k, v in shares.items()))
    return figures


def measure(cli, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    root = Path.cwd()
    case = workloads.generate(name, seed, root, small=smoke)
    small = workloads.generate(name, seed, root, small=True)
    bench = Bench(cli, case, f"{name}-{seed}")
    try:
        print(
            f"workload {name} seed {seed}: {bench.doc_bytes} bytes, {case.events} events,"
            f" document sha256 {hashlib.sha256(case.document.encode()).hexdigest()[:16]},"
            f" expected sha256 {hashlib.sha256(case.expected.encode()).hexdigest()[:16]}"
        )
        bench.differential(small)
        minimum = 1 if smoke else MIN_SAMPLES
        figures: Dict[str, float] = {}
        if not bench.failed and bench.parse() is not None:  # warm-up, not reported
            if trace:
                figures = per_layer(bench, seconds, minimum, WORK / f"spans-{name}-{seed}.json")
            else:
                figures = end_to_end(bench, seconds, minimum)
        fail_rate = bench.failed / bench.attempted
        print(f"fail_rate    {fail_rate:.6f} ratio {bench.failed} failed of {bench.attempted} attempted")
        for error in bench.errors[:5]:
            print(f"  failure: {error}")
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        return {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {} if bench.failed else {
                k: {"value": figures[k], "unit": units[k]} for k in units
            },
        }
    finally:
        bench.remove_files()


def import_cli(root: Path):
    """xmlgram.cli from the checkout's ``src/``, or None when it is absent."""
    src = root / "src"
    if not (src / "xmlgram" / "cli.py").is_file() or not (root / "samples").is_dir():
        return None
    sys.path.insert(0, str(src))
    from xmlgram import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at its scaled-down size, both modes, in seconds")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    try:  # one CPU, so the reference work and the parses see the same core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    cli = import_cli(Path.cwd())
    if cli is None:
        print("error: run from the root of an xmlgram checkout (src/xmlgram and samples/)",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    if args.smoke:
        ok = True
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result = measure(cli, name, args.seed, 0.2, trace, smoke=True)
                ok = ok and result["correct"]
        print(json.dumps({"smoke": "pass" if ok else "fail"}))
        return 0 if ok else 1

    result = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
