"""In-memory span recorder that times anonqnet's layers from outside.

The benchmark wraps the public functions of each layer module (and a few
named methods) with a recording wrapper, without changing the package.
Every span keeps its name, start, end, parent span, thread and the id of
the CLI command it belongs to.  A span opened on a thread with no open
span (a sweep/relay pool worker) takes the open command span as parent.

Self time is a span's duration minus the part of that interval its child
spans cover.  Children on other threads count through the union of their
intervals, so a command blocked on its pool is not charged for the wait.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from itertools import count
from time import perf_counter
from typing import NamedTuple

PACKAGE = "anonqnet"
LAYERS = ("qcore", "channels", "analytic", "protocols", "security", "cli")

COMMAND = "cli.command"
POOL_TASK = "cli.pool.task"
DENSITY = "qcore.DensityMatrix"
SAMPLER = "protocols.sample_protocol1_runs"
POOL_COMMANDS = ("sweep", "relay")  # the CLI commands that run a worker pool


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    command: int | None
    value: object = None


class Tracer:
    """Collects spans; one command span is open at a time (closed loop)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, value=None):
        """Return fn recording a span per call; value(args, result), when
        given, is stored on the span."""
        ids, spans, stack_of = self._ids, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            root = self._root
            parent = stack[-1] if stack else root
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            spans.append(Span(sid, name, parent, threading.get_ident(), start,
                              end, root,
                              None if value is None else value(args, result)))
            return result

        return traced

    @contextmanager
    def command(self, label: str):
        """Open the root span of one CLI command; nested spans share its id."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        self._root = sid
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self._root = None
            self.spans.append(Span(sid, COMMAND, None, threading.get_ident(),
                                   start, end, sid, label))

    def drain(self) -> list[Span]:
        spans, self.spans[:] = list(self.spans), []
        return spans


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def _density_qubits(args, result):
    return len(args[0].labels)


def _accepted_runs(args, result):
    aggregate = result[1]
    return aggregate["runs"], aggregate["runs"] - aggregate["aborts"]


def targets():
    """(owner, attribute, span name, value hook) for every wrapped callable:
    the public functions each layer module defines, plus the density-matrix
    constructor check, Transcript.add and the CLI's pool tasks."""
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
            for layer in LAYERS}
    hooks = {SAMPLER: _accepted_runs}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                yield mod, attr, name, hooks.get(name)
    yield mods["qcore"].DensityMatrix, "__post_init__", DENSITY, _density_qubits
    yield mods["protocols"].Transcript, "add", "protocols.Transcript.add", None
    yield mods["cli"], "_sweep_row", POOL_TASK, None
    yield mods["cli"], "_relay_point", POOL_TASK, None


def install(tracer: Tracer) -> list:
    """Replace every target, in every package module that re-imports it,
    by a traced wrapper.  Returns the undo list for uninstall()."""
    undo = []
    wrapped = {}
    for owner, attr, name, hook in list(targets()):
        orig = getattr(owner, attr)
        wrapper = tracer.wrap(name, orig, hook)
        wrapped[id(orig)] = wrapper
        if inspect.isclass(owner):
            undo.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
    mods = [m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


class LayerTotals:
    """Per-layer figures folded from the spans of finished commands."""

    def __init__(self, pool_workers: int):
        self.pool_workers = pool_workers
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.max_qubits = 0
        self.density_bytes = 0
        self.sampled_runs = 0
        self.accepted_runs = 0
        self.pool_busy_s = 0.0
        self.pool_capacity_s = 0.0

    def fold(self, spans) -> None:
        own = self_times(spans)
        for s in spans:
            self.calls[s.name] += 1
            self.self_s[s.name] += own[s.id]
            if s.name == DENSITY:
                self.max_qubits = max(self.max_qubits, s.value)
                self.density_bytes += 16 * 4 ** s.value
            elif s.name == SAMPLER:
                self.sampled_runs += s.value[0]
                self.accepted_runs += s.value[1]
            elif s.name == POOL_TASK:
                self.pool_busy_s += s.end - s.start
            elif s.name == COMMAND and s.value in POOL_COMMANDS:
                self.pool_capacity_s += self.pool_workers * (s.end - s.start)

    def layer_self_s(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, t in self.self_s.items():
            out[name.split(".", 1)[0]] += t
        return out
