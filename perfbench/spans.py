"""Timing wrappers installed around the program's public functions.

The wrappers live in the benchmark, not in the program: each replaces a
function in every module that looks it up by name (``cli.check``,
``correction.annotated_findings``, ...), so calls made through any import
are timed.  A span records its name, start, end, parent span and command
id; spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import ModuleType


def _observe_check(counts, args, result):
    counts["consistency.findings"] += len(result.findings)


def _observe_annotated(counts, args, result):
    counts["consistency.renames"] += sum(
        1 for f, _ in result if f.kind.value == "ProbableRename")


def _observe_apply(counts, args, result):
    for edit in args[2]:
        counts[f"correction.edits_{edit.side}"] += 1


def _observe_code_edits(counts, args, result):
    counts["pycode.code_edits"] += len(args[1])


def _observe_bytes(key):
    def observe(counts, args, result):
        counts[key] += len(args[0].encode("utf-8"))
    return observe


# (span name, module, attribute path, observer of args and result)
TRACED = [
    ("cli.main", "cli", "main", None),
    ("plantuml.parse_plantuml", "plantuml", "parse_plantuml",
     _observe_bytes("plantuml.parse_bytes")),
    ("plantuml.render_plantuml", "plantuml", "render_plantuml", None),
    ("pycode.parse_code", "pycode", "parse_code",
     _observe_bytes("pycode.parse_bytes")),
    ("pycode.apply_code_edits", "pycode", "apply_code_edits",
     _observe_code_edits),
    ("pycode.lines", "pycode", "CodeDocument.lines", None),
    ("consistency.check", "consistency", "check", _observe_check),
    ("consistency.annotated_findings", "consistency", "annotated_findings",
     _observe_annotated),
    ("consistency.match_models", "consistency", "match_models", None),
    ("consistency.levenshtein", "consistency", "levenshtein", None),
    ("consistency.fingerprint_text", "consistency", "fingerprint_text", None),
    ("correction.propose", "correction", "propose", None),
    ("correction.resolve", "correction", "resolve", None),
    ("correction.apply", "correction", "apply", _observe_apply),
    ("llm.fixture_load", "llm", "FixtureTransport.__init__", None),
    ("llm.gen_model", "llm", "gen_model", None),
    ("llm.gen_code", "llm", "gen_code", None),
]
# called too often and too cheaply for a span each: counted only
COUNTED = [("model.normalize_name_calls", "model", "normalize_name")]


class Patcher:
    """Replaces functions where they are looked up and puts them back."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module: str, path: str, make_wrapper) -> bool:
        """Wrap ``module.path``; False when the program has no such name."""
        owner = self.modules.get(module)
        *cls_name, attr = path.split(".")
        if cls_name:
            owner = getattr(owner, cls_name[0], None)
        original = getattr(owner, attr, None)
        if original is None:
            return False
        if cls_name:
            self._set(owner, attr, make_wrapper(original))
            return True
        wrapper = make_wrapper(original)
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
        return True

    def _set(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.patcher = Patcher(modules)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.command = -1
        self.missing: set[str] = set()   # traced names the program lacks
        self._stack: list[int] = []

    def install(self) -> None:
        for name, module, path, observe in TRACED:
            if not self.patcher.replace(module, path,
                                        lambda fn, n=name, o=observe:
                                        self._span(n, fn, o)):
                self.missing.add(f"{module}.{path}")
        for name, module, path in COUNTED:
            if not self.patcher.replace(module, path,
                                        lambda fn, n=name: self._count(n, fn)):
                self.missing.add(f"{module}.{path}")

    def uninstall(self) -> None:
        self.patcher.restore()

    def _span(self, name, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)
            if observe is not None:
                observe(counts, args, result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def layer_totals(self, first: int) -> dict[str, float]:
        """Self time and calls per span name over spans[first:], plus the
        counts, merged into one flat dict of per-layer values."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            out[f"{name}_s"] += end - start - child[i]
            out[f"{name}_calls"] += 1
        out.update(self.counts)
        return out

    def write(self, path: Path, commands: dict[int, list[str]]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"commands": commands}) + "\n")
            for i, (name, start, end, parent, command) in \
                    enumerate(self.spans):
                out.write(json.dumps([i, name, start, end, parent,
                                      command]) + "\n")


def alloc_peak(modules: dict[str, ModuleType], run) -> float:
    """Largest tracemalloc peak, in MB, inside one ``correction.apply``
    call while ``run()`` executes."""
    peaks = [0.0]

    def make(fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
        return wrapper

    patcher = Patcher(modules)
    patcher.replace("correction", "apply", make)
    try:
        run()
    finally:
        patcher.restore()
    return max(peaks)
