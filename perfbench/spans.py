"""In-memory spans around calls into the layers of ``cait``.

``Tracer.install`` replaces public functions of the ``cait`` modules with
wrappers that record one span per call: name, start, end, parent span and
step id.  Every module attribute bound to the same function gets the same
wrapper, so ``from .conllu import read_conllu`` in ``cait.cli`` is traced
like ``cait.conllu.read_conllu``.  No source file is touched;
``uninstall`` restores the originals.  Spans stay in memory until the
benchmark reads them.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass

MODULES = ("cait", "cait.conllu", "cait.cxntag", "cait.evaluation", "cait.lint",
           "cait.casestudy", "cait.baseline", "cait.cli")

# (defining module, function, span name).  A function missing from its
# module is skipped, so the benchmark keeps running when a layer changes
# shape; its metrics then read 0.
TRACED = (
    ("cait.conllu", "read_conllu", "conllu.read_conllu"),
    ("cait.conllu", "validate", "conllu.validate"),
    ("cait.conllu", "normalize", "conllu.normalize"),
    ("cait.conllu", "write_conllu", "conllu.write_conllu"),
    ("cait.cxntag", "tag_utterance", "cxntag.tag_utterance"),
    ("cait.cxntag", "strip_tag_question", "cxntag.strip_tag_question"),
    ("cait.cxntag", "tag_ud", "cxntag.tag_ud"),
    ("cait.cxntag", "tag_pos", "cxntag.tag_pos"),
    ("cait.evaluation", "align", "evaluation.align"),
    ("cait.evaluation", "evaluate_treebanks", "evaluation.evaluate_treebanks"),
    ("cait.evaluation", "tag_accuracy", "evaluation.tag_accuracy"),
    ("cait.evaluation", "per_label_error_rates", "evaluation.per_label_error_rates"),
    ("cait.evaluation", "confusion", "evaluation.confusion"),
    ("cait.evaluation", "paired_ttest", "evaluation.paired_ttest"),
    ("cait.lint", "lint_all", "lint.lint_all"),
    ("cait.lint", "apply_fixes", "lint.apply_fixes"),
    ("cait.casestudy", "bin_by_age", "casestudy.bin_by_age"),
    ("cait.casestudy", "emit_curves", "casestudy.emit_curves"),
    ("cait.baseline", "train_parser", "baseline.train_parser"),
    ("cait.baseline", "train_tagger", "baseline.train_tagger"),
    ("cait.baseline", "parse", "baseline.parse"),
    ("cait.baseline", "tag", "baseline.tag"),
    ("cait.baseline", "save_model", "baseline.save_model"),
    ("cait.baseline", "load_model", "baseline.load_model"),
)

# Functions that are only counted, not timed: a span per call would cost
# more than the call.
COUNTED = (
    ("cait.baseline", "static_oracle", "baseline.static_oracle"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    step: str
    size: int = 0  # tokens read or parsed or tagged; bytes written
    error: bool = False
    note: object = None  # per-layer detail, see _note


def _tokens_of(obj) -> int:
    sentences = getattr(obj, "sentences", None)
    if sentences is not None:
        return sum(len(s.tokens) for s in sentences)
    tokens = getattr(obj, "tokens", None)
    return len(tokens) if tokens is not None else 0


def _sink_size(sink) -> int | None:
    if isinstance(sink, (str, os.PathLike)):
        try:
            return os.path.getsize(sink)
        except OSError:
            return None
    try:
        sink.flush()
        return os.fstat(sink.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return None


def _note(name: str, args: tuple, result):
    """Layer-specific detail read from a call's arguments and result."""
    if name == "cxntag.strip_tag_question":
        return result is not args[0]
    if name == "conllu.normalize":
        return len(result.diagnostics)
    if name == "lint.lint_all":
        return sum(len(r.findings) for r in result)
    if name == "casestudy.bin_by_age":
        return result.unbinned
    if name == "baseline.train_parser":
        return result.n_nonprojective_skipped
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.step = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        sized = name in ("conllu.read_conllu", "baseline.parse", "cxntag.tag_utterance")
        noted = name in ("cxntag.strip_tag_question", "conllu.normalize", "lint.lint_all",
                         "casestudy.bin_by_age", "baseline.train_parser")
        is_write = name == "conllu.write_conllu"

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.step)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            # A path is overwritten; a stream grows from where it stands.
            before = (_sink_size(args[1]) if is_write and len(args) > 1
                      and not isinstance(args[1], (str, os.PathLike)) else None)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = clock()
                span.error = True
                stack.pop()
                raise
            span.end = clock()
            stack.pop()
            if sized:
                span.size = _tokens_of(
                    result if name == "conllu.read_conllu"
                    else args[1] if name == "baseline.parse" else args[0])
            if noted:
                span.note = _note(name, args, result)
            if is_write:
                after = _sink_size(args[1])
                if after is not None:
                    span.size = after - (before or 0)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for factory, table in ((self._wrap, TRACED), (self._count, COUNTED)):
            for home, attr, name in table:
                fn = getattr(importlib.import_module(home), attr, None)
                if fn is None:
                    continue
                wrapper = factory(fn, name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._saved.append((module, key, fn))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._saved):
            setattr(module, key, fn)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out
