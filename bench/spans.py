"""In-memory span tracer for the benchmark, plus the arithmetic it reports with.

The tracer wraps functions of the program from outside: a wrapper records a
span (name, start, end, parent) around each call. Modules of the program bind
names with ``from .model import forward_batch``, so a wrapper is installed at
every module namespace that holds the original function object, not only at
the defining module.

Spans are kept in memory and reduced per operation by ``self_times`` and the
percentile helpers below, which ``test_spans.py`` checks.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10


@dataclass(slots=True)
class Span:
    name: str
    t0: float
    t1: float
    parent: int  # index into the span list, -1 for a root span
    rows: int = 0  # batch rows for functions traced with a row count
    cpu_s: float = 0.0  # self+children CPU seconds, for spans traced with CPU time


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.t0, s.t1))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        end = s.t0
        for c0, c1 in sorted(kids):
            c0, c1 = max(c0, end, s.t0), min(c1, s.t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((s.t1 - s.t0) - covered)
    return out


def has_ancestor(spans: list[Span], i: int, names: frozenset[str]) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n`` samples."""
    return n - math.ceil(q * n)


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile, or None when fewer than ``MIN_BEYOND`` samples
    lie beyond it. The median (q = 0.5) needs only one sample."""
    n = len(values)
    if n == 0 or (q > 0.5 and samples_beyond(n, q) < MIN_BEYOND):
        return None
    return sorted(values)[max(math.ceil(q * n), 1) - 1]


def cpu_seconds() -> float:
    """User+system CPU of this process and of its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def cpu_per_wall(cpu_s: float, wall_s: float) -> float | None:
    """CPU seconds per wall second; 1.0 is one busy core."""
    if wall_s <= 0.0:
        return None
    return cpu_s / wall_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _counts: dict[str, int] = field(default_factory=dict)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._counts.clear()

    def call_counts(self) -> dict[str, int]:
        """Calls of count-only functions since the last reset."""
        return dict(self._counts)

    def _span_wrapper(self, name, fn, rows: bool, cpu: bool):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            if rows:
                span.rows = len(args[1])
            spans.append(span)
            stack.append(i)
            c0 = cpu_seconds() if cpu else 0.0
            span.t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                if cpu:
                    span.cpu_s = cpu_seconds() - c0
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, name: str, owner, attr: str, package: str, *, rows=False,
                cpu=False, count_only=False) -> None:
        """Wrap ``owner.attr`` and rebind every module of ``package`` that
        holds the same function object under any name."""
        original = getattr(owner, attr)
        if count_only:
            wrapper = self._count_wrapper(name, original)
        else:
            wrapper = self._span_wrapper(name, original, rows, cpu)
        sites = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner:
                continue
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for key, value in vars(mod).items():
                if value is original:
                    sites.append((mod, key))
        for site, key in sites:
            self._patched.append((site, key, original))
            setattr(site, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            site, key, original = self._patched.pop()
            setattr(site, key, original)
