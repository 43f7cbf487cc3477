"""Span tracing at grossone's module boundaries, installed from outside.

``Tracer.install`` swaps the names that one module calls another through
for wrappers that record a span: ``grossone.evaluator.core`` and the other
modules' references to ``core`` become a proxy of wrapped functions, the
functions that ``cli``, ``summation`` and ``setcalc`` import from other
modules are wrapped where they are imported, and so are ``GrossNumber``'s
arithmetic and comparison operators.  ``core``'s calls to itself go through
its own globals, which stay untouched.  ``uninstall`` puts every name back.

A wrapper records a span only when the innermost open span belongs to
another family, so recursion within one (the evaluator walking an AST, a
core operator used inside core) adds no spans.  All of core is one family;
each named entry point of another layer (``numio.lex``, ``cli.main``,
``summation.faulhaber``) is its own, and a layer's other functions called
inside one of its named entry points belong to that span.  Everything runs in
one thread, so a layer never waits for another: waiting time is zero by
construction and is not recorded.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict

import grossone.cli
import grossone.core
import grossone.evaluator
import grossone.numio
import grossone.setcalc
import grossone.summation

CORE_GROUPS = {
    "core.add": ("add", "subtract", "negate", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "core.multiply": ("multiply", "scalar_mul", "__mul__", "__rmul__"),
    "core.power": ("power_int", "power_gross", "__pow__"),
    "core.normalize": ("normalize",),
    "core.compare": ("compare", "sign", "__lt__", "__le__", "__gt__", "__ge__"),
    "core.divide": ("divide", "exact_divide", "reciprocal", "__truediv__", "__rtruediv__"),
}
CORE_OPERATORS = [name for names in CORE_GROUPS.values() for name in names if name.startswith("__")]

# Entry points of the other layers, named by the group their spans get;
# every other public function of such a module takes the module's name.
SPECIAL_GROUPS = {
    (grossone.cli, "main"): "cli.main",
    (grossone.cli, "build_parser"): "cli.build_parser",
    (grossone.numio, "lex"): "numio.lex",
    (grossone.numio, "parse_number"): "numio.parse",
    (grossone.numio, "parse_expression"): "numio.parse",
    (grossone.numio, "parse_statement"): "numio.parse",
    (grossone.numio, "print_canonical"): "numio.print",
    (grossone.summation, "faulhaber"): "summation.faulhaber",
}
LAYER_MODULES = {
    grossone.evaluator: "evaluator",
    grossone.summation: "summation",
    grossone.setcalc: "setcalc",
}

GROUPS = [
    "cli.main", "cli.build_parser", "numio.lex", "numio.parse", "numio.print", "evaluator",
    "summation", "summation.faulhaber", "setcalc", *CORE_GROUPS, "core.other",
]
ROOT = "item"


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and isinstance(value, types.FunctionType)
            and value.__module__ == module.__name__
        ):
            yield name, value


def _layer(group: str) -> str:
    return group.split(".")[0]


def _family(group: str) -> str:
    """Spans of one family never nest: core is one family, and so is each
    named entry point of the other layers (``numio.lex``, ``cli.main``)."""
    return "core" if group.startswith("core.") else group


class Tracer:
    """Spans of one traced pass, kept in memory as
    ``(group, start, end, parent_index, item)`` tuples."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []  # (span index, family, layer) of the open spans
        self._active = False
        self._item = -1
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, group: str, hook=None):
        family, layer = _family(group), _layer(group)
        plain = family == layer
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A plain layer function called inside one of its layer's named
            # entry points (bernoulli inside faulhaber) is part of that span.
            if not tracer._active or stack[-1][1] == family or (plain and stack[-1][2] == layer):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append((index, family, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (group, start, end, stack[-1][0], tracer._item)
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def run_item(self, item_index: int, fn):
        """Call ``fn`` inside a root span for one item."""
        self._item = item_index
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append((index, ROOT, ROOT))
        self._active = True
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._active = False
            self._stack.pop()
            self.spans[index] = (ROOT, start, end, -1, item_index)

    # -- installing --------------------------------------------------------

    def install(self, *extra_modules) -> None:
        """Wrap the boundary names; ``extra_modules`` are the benchmark's own
        modules whose direct calls into grossone are wrapped too."""
        core = grossone.core
        wrapped: dict[int, object] = {}
        for name, fn in _public_functions(core):
            group = next((g for g, names in CORE_GROUPS.items() if name in names), "core.other")
            wrapped[id(fn)] = self._wrap(fn, group, HOOKS.get(group))
        for module in (grossone.cli, grossone.numio, *LAYER_MODULES):
            for name, fn in _public_functions(module):
                group = SPECIAL_GROUPS.get((module, name), LAYER_MODULES.get(module))
                if group is not None:
                    wrapped[id(fn)] = self._wrap(fn, group, HOOKS.get(group))
        proxy = types.SimpleNamespace(**{
            name: wrapped.get(id(value), value) for name, value in vars(core).items()
        })
        callers = (grossone.cli, grossone.numio, *LAYER_MODULES, *extra_modules)
        for module in callers:
            for name, value in list(vars(module).items()):
                if value is core:
                    self._set(module, name, proxy)
                elif id(value) in wrapped and isinstance(value, types.FunctionType):
                    self._set(module, name, wrapped[id(value)])
        for name in CORE_OPERATORS:
            fn = vars(core.GrossNumber)[name]
            group = next(g for g, names in CORE_GROUPS.items() if name in names)
            self._set(core.GrossNumber, name, self._wrap(fn, group, HOOKS.get(group)))

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reducing ----------------------------------------------------------

    def take_pass(self) -> tuple[list, dict]:
        """The spans and counts recorded since the last call, cleared."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def _count_tokens(counts, tokens):
    counts["numio.lex.tokens"] += len(tokens)


def _count_chars(counts, text):
    counts["numio.print.chars"] += len(text)


def _count_division(counts, result):
    if isinstance(result, grossone.core.GrossNumber):  # exact_divide and '/'
        counts["core.divide.quotient_terms"] += len(result.terms)
        counts["core.divide.exact"] += 1
    else:
        counts["core.divide.quotient_terms"] += result.terms_emitted
        counts["core.divide.exact"] += result.exact


HOOKS = {
    "numio.lex": _count_tokens,
    "numio.print": _count_chars,
    "core.divide": _count_division,
}


def reduce_pass(spans: list, counts: dict) -> dict:
    """Per-layer metrics of one pass: calls and self time per group, where
    self time is a span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for group, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    item_s = 0.0
    for index, (group, start, end, parent, _) in enumerate(spans):
        calls[group] += 1
        self_s[group] += end - start - covered[index]
        if group == ROOT:
            item_s += end - start
    metrics = {}
    for group in GROUPS:
        metrics[f"{group}.calls"] = calls[group]
        metrics[f"{group}.self_ms"] = self_s[group] * 1e3
    divisions = calls["core.divide"]
    metrics["core.divide.quotient_terms"] = counts.get("core.divide.quotient_terms", 0)
    metrics["core.divide.exact_ratio"] = counts.get("core.divide.exact", 0) / divisions if divisions else 0.0
    metrics["numio.lex.tokens"] = counts.get("numio.lex.tokens", 0)
    metrics["numio.print.chars"] = counts.get("numio.print.chars", 0)
    metrics["bench.self_ms"] = self_s[ROOT] * 1e3
    metrics["trace.item_ms"] = item_s * 1e3
    metrics["trace.spans"] = len(spans)
    return metrics


def write_spans(path, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for group, start, end, parent, item in spans:
            handle.write(json.dumps({"name": group, "start": start, "end": end, "parent": parent, "item": item}))
            handle.write("\n")
