"""Per-layer spans for one ``xmlgram parse``, recorded from outside the program.

``Tracer.installed()`` swaps public functions and classes of the xmlgram
layers for timed wrappers, wherever another xmlgram module holds a reference
to them (the defining module keeps its own, so recursion inside a layer is
not re-timed).  Coarse calls (one compile stage, building and running the
machine, rendering) each record a span.  Per-event work (the reader's
iterator, the engine's calls into ``evaluate``) is too fine for a span each,
so its time and count accumulate into the span that encloses it.

Garbage collection is timed through ``gc.callbacks`` and subtracted from
every span and accumulation it interrupts, so layer times and ``gc.s`` are
disjoint shares of the parse.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

clock = time.perf_counter

# (defining module, public name, span name, counts taken from the result);
# the span name is the layer.
COARSE = (
    ("xmlgram.frontend", "try_parse_grammar", "frontend", None),
    ("xmlgram.wellformed", "check_grammar", "wellformed", None),
    ("xmlgram.wellformed", "lint_grammar", "wellformed", None),
    ("xmlgram.normalize", "normalize_grammar", "normalize",
     lambda normal: {"normalize.clauses": len(normal.clauses)}),
    ("xmlgram.analysis", "compute_sets", "analysis", None),
    ("xmlgram.analysis", "build_predict_table", "analysis",
     lambda table: {"analysis.cells": len(table.entries)}),
    ("xmlgram.analysis", "check_ll1", "analysis", None),
    ("xmlgram.values", "render_term", "values.render",
     lambda text: {"values.out_chars": len(text)}),
)
# (defining module, public name, prefix of the accumulated counts)
PER_EVENT = (
    ("xmlgram.evaluate", "eval_expr", "evaluate"),
    ("xmlgram.evaluate", "eval_actions", "evaluate"),
    ("xmlgram.evaluate", "eval_guard", "evaluate"),
)


@dataclass
class Span:
    name: str
    trace: int  # one id per traced parse
    parent: Optional[int]  # index into Tracer.spans
    start: float
    end: float = 0.0
    gc_s: float = 0.0  # garbage collection inside the span, excluded from seconds
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.gc_s


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._trace = 0
        self.gc_total = 0.0  # seconds spent in collections since creation
        self.gc_count = 0
        self._gc_started = 0.0
        self.reader = None  # the reader of the current parse

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, self._trace, parent, clock())
        span.gc_s = -self.gc_total
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        span.gc_s += self.gc_total
        self._open.pop()

    @property
    def current(self) -> Span:
        return self.spans[self._open[-1]]

    def parse(self, call: Callable[[], int]) -> int:
        """Run one parse under a root span named ``parse``."""
        self._trace += 1
        self.reader = None
        gc0 = self.gc_count
        root = self.open("parse")
        try:
            return call()
        finally:
            self.close(root)
            root.counts["gc.collections"] = self.gc_count - gc0
            root.counts["sax.max_window"] = getattr(self.reader, "max_window", 0)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = clock()
        else:
            self.gc_total += clock() - self._gc_started
            self.gc_count += 1

    # -- wrappers ---------------------------------------------------------------

    def _coarse(self, fn: Callable, name: str, measure: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span.counts.update(measure(result))
            return result

        return traced

    def _per_event(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            gc0 = self.gc_total
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts = self.current.counts
                counts[name + ".s"] += clock() - t0 - (self.gc_total - gc0)
                counts[name + ".calls"] += 1

        return traced

    def _reader_class(self, base: type) -> type:
        tracer = self

        class TracedReader(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.reader = self

            def __iter__(self):
                events = super().__iter__()
                while True:
                    gc0 = tracer.gc_total
                    t0 = clock()
                    event = next(events, None)
                    counts = tracer.current.counts
                    counts["sax.s"] += clock() - t0 - (tracer.gc_total - gc0)
                    if event is None:
                        return
                    counts["sax.events"] += 1
                    yield event

        return TracedReader

    def _machine_class(self, base: type) -> type:
        tracer = self

        class TracedMachine(base):
            def __init__(self, *args, **kwargs):
                span = tracer.open("engine")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(span)

            def run(self):
                span = tracer.open("engine")
                try:
                    return super().run()
                finally:
                    tracer.close(span)
                    span.counts["engine.steps"] = self.steps
                    span.counts["engine.max_dump_depth"] = self.max_dump_depth

        return TracedMachine

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        swaps = [(m, a, lambda f, n=n, c=c: self._coarse(f, n, c)) for m, a, n, c in COARSE]
        swaps += [(m, a, lambda f, n=n: self._per_event(f, n)) for m, a, n in PER_EVENT]
        swaps.append(("xmlgram.sax", "SaxReader", self._reader_class))
        swaps.append(("xmlgram.engine", "Machine", self._machine_class))
        undo = []
        try:
            for module_name, attr, wrap in swaps:
                home = importlib.import_module(module_name)
                original = getattr(home, attr)
                wrapped = wrap(original)
                for module in _xmlgram_modules():
                    if module is home:
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            undo.append((module, key, original))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for module, key, original in reversed(undo):
                setattr(module, key, original)

    # -- per-parse metrics ------------------------------------------------------

    def layer_metrics(self, trace: int, doc_bytes: int) -> Dict[str, float]:
        """Per-layer figures of one traced parse, by metric name."""
        spans = [s for s in self.spans if s.trace == trace]
        root = spans[0]
        secs: Dict[str, float] = defaultdict(float)
        counts: Dict[str, float] = defaultdict(float)
        for span in spans:
            secs[span.name] += span.seconds
            for key, value in span.counts.items():
                if key == "sax.max_window":
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
        sax_s = counts["sax.s"]
        events = counts["sax.events"]
        return {
            "frontend.s": secs["frontend"],
            "wellformed.s": secs["wellformed"],
            "normalize.s": secs["normalize"],
            "normalize.clauses": counts["normalize.clauses"],
            "analysis.s": secs["analysis"],
            "analysis.cells": counts["analysis.cells"],
            "sax.s": sax_s,
            "sax.mb_s": doc_bytes / 1e6 / sax_s if sax_s else 0.0,
            "sax.events": events,
            "sax.max_window": counts["sax.max_window"],
            "engine.s": secs["engine"],
            "engine.self_s": secs["engine"] - sax_s - counts["evaluate.s"],
            "engine.steps": counts["engine.steps"],
            "engine.steps_per_event": counts["engine.steps"] / events if events else 0.0,
            "engine.max_dump_depth": counts["engine.max_dump_depth"],
            "evaluate.s": counts["evaluate.s"],
            "evaluate.calls": counts["evaluate.calls"],
            "values.render_s": secs["values.render"],
            "values.out_mb": counts["values.out_chars"] / 1e6,
            "gc.s": root.gc_s,
            "gc.collections": counts["gc.collections"],
        }


def _xmlgram_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("xmlgram.") and m]
