"""Tracing from outside the program.

The objects a session is built from are subclassed (``OpMeter`` for scope
spans and ``record``, ``SimulatorBackend`` for every primitive, ``TeeService``
for every service), and a few module-level names that the pipeline looks up
at call time are wrapped.  Spans are kept in memory and written out when the
run ends; ``src/`` is not modified.

Tracing is off outside :meth:`Tracer.step`, so an untraced session in the
same process, and the correctness checks between steps, pay only a flag test.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from lhecnn import backward, forward, refine
from lhecnn.lhe import SimulatorBackend
from lhecnn.metering import OpMeter
from lhecnn.tee import TeeService

from workloads import Kit

SPAN_FIELDS = ("id", "parent", "scope_parent", "step", "name", "start_ns", "end_ns")

# Module-level names wrapped in the traced process: (module, attribute, span).
WRAPPED = (
    (backward, "signed_rotate_sum", "packing.rotate_sum"),
    (backward, "signed_rotate_spread", "packing.rotate_spread"),
    (backward, "fold_rotate_sum", "packing.fold"),
    (forward, "fold_rotate_sum", "packing.fold"),
    (refine, "build_report", "metering.report"),
    *((refine, name, "packing.encode") for name in dir(refine) if name.startswith("encode_")),
)


class Tracer:
    """Span and busy-time recorder for the steps of one traced session."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.last: dict = {}           # summary of the last completed step
        self._stack: list[int] = []    # open spans
        self._scopes: list[int] = []   # open scope-like spans (step, meter scopes)
        self._busy: defaultdict[str, int] = defaultdict(int)
        self._step_index = -1

    def add(self, name: str, amount: int) -> None:
        self._busy[name] += amount

    def total(self, name: str) -> int:
        return self._busy.get(name, 0)

    @contextmanager
    def span(self, name: str, scope: bool = False):
        if not self.active:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        scope_parent = self._scopes[-1] if self._scopes else -1
        self._stack.append(sid)
        if scope:
            self._scopes.append(sid)
        self.spans.append(None)   # reserve the id; filled in on close
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            if scope:
                self._scopes.pop()
            self.spans[sid] = (sid, parent, scope_parent, self._step_index, name,
                               start, end)

    @contextmanager
    def step(self):
        """Trace one step; :attr:`last` is replaced only if it completes."""
        self._step_index += 1
        self._busy = defaultdict(int)
        first = len(self.spans)
        self.active = True
        try:
            with self.span("step", scope=True):
                yield
        finally:
            self.active = False
        self.last = self._summarise(first)

    def _summarise(self, first: int) -> dict:
        """Busy time by span name, and self time of every scope-like span
        (its duration minus the scope-like spans directly inside it)."""
        out = dict(self._busy)
        spans = self.spans[first:]
        nested = defaultdict(int)
        for _sid, _p, scope_parent, _s, name, start, end in spans:
            out[name + ".busy_ns"] = out.get(name + ".busy_ns", 0) + end - start
            if name.startswith("scope.") or name == "step":
                nested[scope_parent] += end - start
        for sid, _p, _sp, _s, name, start, end in spans:
            if name.startswith("scope.") or name == "step":
                key = name + ".self_ns"
                out[key] = out.get(key, 0) + end - start - nested[sid]
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON: field names, then one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


class TracedMeter(OpMeter):
    """Times each ``scope`` as a span and each ``record`` call."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    @contextmanager
    def scope(self, label: str):
        with super().scope(label), self.tracer.span("scope." + label, scope=True):
            yield self

    def record(self, kind: str, level: int) -> None:
        if not self.tracer.active:
            return super().record(kind, level)
        start = time.perf_counter_ns()
        super().record(kind, level)
        self.tracer.add("metering.record.busy_ns", time.perf_counter_ns() - start)


def _timed_primitive(kind: str):
    base = getattr(SimulatorBackend, kind)

    @functools.wraps(base)
    def method(self, *args, **kwargs):
        tracer = self.tracer
        if not tracer.active:
            return base(self, *args, **kwargs)
        start = time.perf_counter_ns()
        out = base(self, *args, **kwargs)
        tracer.add(f"lhe.{kind}.busy_ns", time.perf_counter_ns() - start)
        tracer.add(f"lhe.{kind}.calls", 1)
        return out

    return method


class TracedBackend(SimulatorBackend):
    """Times every primitive (inclusive of its ``record`` call)."""

    def __init__(self, tracer: Tracer, meter: OpMeter | None = None):
        super().__init__(meter)
        self.tracer = tracer

    add = _timed_primitive("add")
    mul = _timed_primitive("mul")
    rot = _timed_primitive("rot")
    cmul = _timed_primitive("cmul")
    encrypt = _timed_primitive("encrypt")
    decrypt = _timed_primitive("decrypt")
    reencrypt = _timed_primitive("reencrypt")


class TracedTee(TeeService):
    """Times every service as a span."""

    def __init__(self, tracer: Tracer, backend, params, seed=None):
        super().__init__(backend, params, seed=seed)
        self.tracer = tracer

    def reencrypt_batch(self, party_id, cts):
        with self.tracer.span("tee.reencrypt_batch"):
            return super().reencrypt_batch(party_id, cts)

    def loss_head(self, party_id, logits, labels, class_count):
        with self.tracer.span("tee.loss_head"):
            return super().loss_head(party_id, logits, labels, class_count)

    def reveal_outputs(self, party_id, logits, class_count):
        with self.tracer.span("tee.reveal_outputs"):
            return super().reveal_outputs(party_id, logits, class_count)


def traced_kit(tracer: Tracer) -> Kit:
    """Session parts that report to ``tracer``."""
    return Kit(lambda: TracedMeter(tracer),
               lambda meter: TracedBackend(tracer, meter),
               lambda backend, params, seed=None: TracedTee(tracer, backend, params, seed))


@contextmanager
def wrapped_modules(tracer: Tracer):
    """Wrap :data:`WRAPPED` for the duration of the block.  Rotations inside a
    ``packing.rotate_spread`` span are also counted."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
    for (module, attr, fn), (_, _, name) in zip(originals, WRAPPED):
        setattr(module, attr, _span_wrapper(tracer, fn, name))
    try:
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def _span_wrapper(tracer: Tracer, fn, name: str):
    counts_rotations = name == "packing.rotate_spread"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        rots = tracer.total("lhe.rot.calls")
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if counts_rotations:
            tracer.add(name + ".rot_count", tracer.total("lhe.rot.calls") - rots)
        return out

    return wrapper
