"""Span tracer for the benchmark's traced passes.

The tracer wraps the public functions of each metrika layer from the
outside: every ``metrika.*`` module attribute that *is* the original
function object is replaced by a wrapper, so names imported with
``from .x import f`` are traced too.  Each call records one span (name,
start, end, parent span, request id) in compact in-memory arrays.  Spans
are folded into per-function call counts and self times only when the
pass ends, so nothing is written while the program runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "logic",
    "structures",
    "evaluation",
    "urysohn",
    "synth",
    "sampling",
    "compare",
    "polish",
)


def public_functions(module):
    """Public plain functions defined in `module` itself."""
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


class Tracer:
    """Wraps the layers on `install`, restores them on `uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.request = -1
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_return=None):
        nid = self._name_id(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_request, span_start, span_end = (
            self.span_request,
            self.span_start,
            self.span_end,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_request.append(self.request)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result, stack)
            return result

        return traced

    def parent_is(self, stack, name: str) -> bool:
        return bool(stack) and self.names[self.span_name[stack[-1]]] == name

    # ---------------------------------------------------------- patching

    def install(self, hooks=None) -> None:
        """Wrap every public function of every layer; `hooks` maps a
        span name to an ``on_return(args, kwargs, result, stack)``."""
        hooks = hooks or {}
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"metrika.{layer}"]
            for fname, fn in public_functions(module):
                span = f"{layer}.{fname}"
                originals[id(fn)] = (fn, self.wrap(span, fn, hooks.get(span)))
        for modname, module in list(sys.modules.items()):
            if modname != "metrika" and not modname.startswith("metrika."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        # a span around DistanceConfiguration validation (its __post_init__)
        urysohn = sys.modules["metrika.urysohn"]
        cls = urysohn.DistanceConfiguration
        self._patch(
            cls,
            "__post_init__",
            self.wrap("urysohn.DistanceConfiguration", cls.__post_init__),
        )

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- folding

    def fold(self):
        """Per-span-name call counts, self seconds and inclusive seconds.

        Self time is a span's duration minus the durations of its child
        spans; the code is single-threaded, so children never overlap.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        incl_s: defaultdict = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            incl_s[name] += dur[i]
        return calls, dict(self_s), dict(incl_s)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with a span called `ancestor` above them."""
        nid = self._name_ids.get(name)
        aid = self._name_ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        hits = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] != nid:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != aid:
                p = self.span_parent[p]
            hits += p >= 0
        return hits

