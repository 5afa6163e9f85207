"""Operation metering and latency estimation for homomorphic pipelines.

Every primitive call is counted under a ``(scope, kind, level)`` key, where
the scope is a caller-chosen stage label ("CL1", "FL2", ...), the kind is one
of :data:`OP_KINDS` and the level is the encryption level the operation runs
at.  A :class:`CostTable` maps ``(kind, level)`` to microseconds so a count
profile can be turned into an estimated latency and amortized per-input cost.
"""

from __future__ import annotations

import csv
import io
import threading
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

# Ciphertext-level primitives, in reporting order.  The first four are the
# homomorphic workhorses the cost model covers; the last three are boundary
# operations counted for accounting only.
PRIMITIVE_KINDS = ("add", "mul", "rot", "cmul")
BOUNDARY_KINDS = ("encrypt", "decrypt", "reencrypt")
OP_KINDS = PRIMITIVE_KINDS + BOUNDARY_KINDS
_OP_KIND_SET = frozenset(OP_KINDS)

UNSCOPED = "(unscoped)"


class OpMeter:
    """Thread-safe counter of primitive calls by (scope, kind, level).

    Scopes nest; a call is attributed to the innermost active label only.
    Counts never decrease.  The scope stack is a list of labels in
    thread-local storage, so each thread has its own, whatever context it
    was started with: the TEE socket server's thread starts unscoped, and
    the ops it runs never land in a session's open scope.
    """

    def __init__(self):
        self._counts: Counter[tuple[str, str, int]] = Counter()
        self._local = threading.local()  # .stack: this thread's labels
        self._scopes: dict[str, _Scope] = {}
        self._lock = threading.Lock()

    @property
    def current_scope(self) -> str:
        stack = getattr(self._local, "stack", ())
        return stack[-1] if stack else UNSCOPED

    def scope(self, label: str) -> "_Scope":
        """Attribute all primitive calls inside the ``with`` block to
        ``label``; the block's target is this meter.  A scope keeps nothing
        per entry, so one is made per label and handed out again: pipelines
        enter a scope per cell."""
        try:
            return self._scopes[label]
        except KeyError:
            scope = self._scopes[label] = _Scope(self, label)
            return scope

    def record(self, kind: str, level: int) -> None:
        if kind not in _OP_KIND_SET:
            raise ValueError(f"unknown op kind {kind!r}")
        stack = getattr(self._local, "stack", ())
        key = (stack[-1] if stack else UNSCOPED, kind, int(level))
        counts = self._counts
        with self._lock:
            counts[key] = counts.get(key, 0) + 1

    def record_many(self, kind: str, level: int, count: int) -> None:
        """Record ``count`` calls of ``kind`` at ``level`` at once."""
        if kind not in _OP_KIND_SET:
            raise ValueError(f"unknown op kind {kind!r}")
        if count < 0:
            raise ValueError(f"negative op count {count}")
        if not count:
            return
        stack = getattr(self._local, "stack", ())
        key = (stack[-1] if stack else UNSCOPED, kind, int(level))
        counts = self._counts
        with self._lock:
            counts[key] = counts.get(key, 0) + count

    # -- read access ----------------------------------------------------

    def checkpoint(self) -> Counter:
        """Snapshot of the raw counts, for later :meth:`since` diffs."""
        with self._lock:
            return Counter(self._counts)

    def since(self, mark: Counter) -> Counter:
        """Counts recorded after ``mark`` was taken."""
        with self._lock:
            delta = Counter(self._counts)
        delta.subtract(mark)
        return +delta

    def _view(self, counts: Counter | None) -> Counter:
        # An empty snapshot is a window with no ops, not "the whole run".
        return self.checkpoint() if counts is None else counts

    def scope_totals(self, counts: Counter | None = None) -> dict[str, dict[str, int]]:
        """Per-scope totals across levels: scope -> kind -> count."""
        out: dict[str, dict[str, int]] = {}
        for (scope, kind, _level), c in self._view(counts).items():
            out.setdefault(scope, {k: 0 for k in OP_KINDS})[kind] += c
        return out

    def level_totals(self, counts: Counter | None = None) -> dict[int, dict[str, int]]:
        """Per-level totals across scopes: level -> kind -> count."""
        out: dict[int, dict[str, int]] = {}
        for (_scope, kind, level), c in self._view(counts).items():
            out.setdefault(level, {k: 0 for k in OP_KINDS})[kind] += c
        return out

    def totals(self, counts: Counter | None = None) -> dict[str, int]:
        out = {k: 0 for k in OP_KINDS}
        for (_scope, kind, _level), c in self._view(counts).items():
            out[kind] += c
        return out

    def scope_tuple(self, scope: str, counts: Counter | None = None) -> tuple[int, int, int, int]:
        """(add, mul, rot, cmul) totals for one scope, in reporting order."""
        per = self.scope_totals(counts).get(scope, {})
        return tuple(per.get(k, 0) for k in PRIMITIVE_KINDS)  # type: ignore[return-value]


class _Scope:
    """The context manager :meth:`OpMeter.scope` returns: entering it pushes
    ``label`` onto the current thread's scope stack, and leaving it pops the
    stack's last label.  A class, not a generator, and it keeps nothing per
    entry, so threads and nested blocks can share it; nested ``with`` blocks
    leave the stack as they found it."""

    __slots__ = ("meter", "label", "local")

    def __init__(self, meter: OpMeter, label: str):
        if not label:
            raise ValueError("scope label must be nonempty")
        self.meter, self.label, self.local = meter, label, meter._local

    def __enter__(self) -> OpMeter:
        try:
            self.local.stack.append(self.label)
        except AttributeError:  # the thread's first scope
            self.local.stack = [self.label]
        return self.meter

    def __exit__(self, kind, value, traceback) -> None:
        self.local.stack.pop()


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

# Measured per-op execution time in microseconds at N=16384, by encryption
# level of the operands (levels 2..11).
_MEASURED_US = {
    "add": (93, 127, 172, 209, 253, 298, 345, 397, 443, 498),
    "mul": (6434, 10106, 14466, 19757, 25931, 33139, 39953, 49835, 57791, 68374),
    "rot": (4542, 7311, 10719, 14995, 20057, 25916, 31722, 40167, 47144, 56366),
    "cmul": (1645, 2467, 3273, 4137, 5018, 5935, 6741, 7942, 8731, 9895),
}
_MEASURED_LEVELS = range(2, 12)


@dataclass
class CostTable:
    """Latency model: (kind, level) -> microseconds, primitive kinds only."""

    latency_us: dict[tuple[str, int], float]
    extrapolated: set[tuple[str, int]] = field(default_factory=set)

    @classmethod
    def default(cls, top_level: int = 11) -> "CostTable":
        """Measured table for levels 2..11, continued linearly (the paper's
        costs grow linearly with level): each row's first segment down to
        level 1, and its last segment up to ``top_level``.

        Extrapolated entries are flagged in :attr:`extrapolated` and marked
        in report output; levels outside 1..max(11, top_level) are reported
        as gaps.
        """
        table: dict[tuple[str, int], float] = {}
        extrapolated: set[tuple[str, int]] = set()
        top = _MEASURED_LEVELS[-1]
        for kind, row in _MEASURED_US.items():
            for level, us in zip(_MEASURED_LEVELS, row):
                table[(kind, level)] = float(us)
            table[(kind, 1)] = float(2 * row[0] - row[1])
            extrapolated.add((kind, 1))
            for level in range(top + 1, top_level + 1):
                table[(kind, level)] = float(row[-1] + (level - top) * (row[-1] - row[-2]))
                extrapolated.add((kind, level))
        return cls(table, extrapolated)

    def lookup(self, kind: str, level: int) -> float | None:
        return self.latency_us.get((kind, level))

    def validate(self) -> None:
        for key, us in self.latency_us.items():
            if us <= 0:
                raise ValueError(f"non-positive latency for {key}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class OpReport:
    """Aggregated view of a metered run.

    ``amortized`` divides the four primitive totals by the parallel-input
    count as exact fractions; text output prints full precision.
    """

    n_inputs: int
    per_scope: dict[str, dict[str, int]]
    per_level: dict[int, dict[str, int]]
    totals: dict[str, int]
    amortized: dict[str, Fraction]
    est_latency_us: float
    gaps: list[tuple[str, int, int]]          # (kind, level, count) lacking a cost entry
    extrapolated_used: list[tuple[str, int]]  # cost entries used that were extrapolated
    _raw: Counter = field(default_factory=Counter, repr=False)

    def amortized_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(self.amortized[k] for k in PRIMITIVE_KINDS)  # type: ignore[return-value]

    def total_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self.totals[k] for k in PRIMITIVE_KINDS)  # type: ignore[return-value]

    def to_csv(self) -> str:
        """CSV with columns scope, level, add, mul, rot, cmul (one row per pair)."""
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["scope", "level"] + list(PRIMITIVE_KINDS))
        cells: dict[tuple[str, int], dict[str, int]] = {}
        for (scope, kind, level), c in self._raw.items():
            if kind in PRIMITIVE_KINDS:
                cells.setdefault((scope, level), {k: 0 for k in PRIMITIVE_KINDS})[kind] += c
        for (scope, level) in sorted(cells, key=lambda sl: (sl[0], -sl[1])):
            row = cells[(scope, level)]
            w.writerow([scope, level] + [row[k] for k in PRIMITIVE_KINDS])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"ops by scope (add, mul, rot, cmul) over {self.n_inputs} parallel inputs:"]
        for scope in sorted(self.per_scope):
            per = self.per_scope[scope]
            tup = ", ".join(str(per.get(k, 0)) for k in PRIMITIVE_KINDS)
            extra = ""
            enc = {k: per.get(k, 0) for k in BOUNDARY_KINDS if per.get(k, 0)}
            if enc:
                extra = "  [" + ", ".join(f"{k}={v}" for k, v in enc.items()) + "]"
            lines.append(f"  {scope:<18} ({tup}){extra}")
        lines.append("ops by level:")
        for level in sorted(self.per_level, reverse=True):
            per = self.per_level[level]
            tup = ", ".join(str(per.get(k, 0)) for k in PRIMITIVE_KINDS)
            lines.append(f"  level {level}: ({tup})")
        tot = ", ".join(str(self.totals[k]) for k in PRIMITIVE_KINDS)
        amo = ", ".join(f"{float(self.amortized[k]):.6g}" for k in PRIMITIVE_KINDS)
        lines.append(f"total:     ({tot})")
        lines.append(f"amortized: ({amo})  per input")
        uncosted = sum(count for _, _, count in self.gaps)
        bound = f" (lower bound: {uncosted} ops uncosted)" if uncosted else ""
        lines.append(f"estimated latency: {self.est_latency_us / 1e6:.3f} s{bound}")
        if self.extrapolated_used:
            used = ", ".join(f"{k}@{lv}" for k, lv in sorted(self.extrapolated_used))
            lines.append(f"  note: extrapolated cost entries used for {used}")
        for kind, level, count in self.gaps:
            lines.append(f"  gap: no cost entry for {kind} at level {level} ({count} ops)")
        return "\n".join(lines) + "\n"


def build_report(meter: OpMeter, cost: CostTable, n_inputs: int,
                 counts: Counter | None = None) -> OpReport:
    """Aggregate ``meter`` (or an explicit counts snapshot) into an :class:`OpReport`."""
    if n_inputs < 1:
        raise ValueError("n_inputs must be positive")
    raw = meter.checkpoint() if counts is None else counts
    totals = meter.totals(raw)
    latency = 0.0
    gap_counter: Counter[tuple[str, int]] = Counter()
    extrapolated_used: set[tuple[str, int]] = set()
    for (_scope, kind, level), c in raw.items():
        if kind not in PRIMITIVE_KINDS:
            continue
        us = cost.lookup(kind, level)
        if us is None:
            gap_counter[(kind, level)] += c
        else:
            latency += us * c
            if (kind, level) in cost.extrapolated:
                extrapolated_used.add((kind, level))
    return OpReport(
        n_inputs=n_inputs,
        per_scope=meter.scope_totals(raw),
        per_level=meter.level_totals(raw),
        totals=totals,
        amortized={k: Fraction(totals[k], n_inputs) for k in PRIMITIVE_KINDS},
        est_latency_us=latency,
        gaps=sorted((k, lv, c) for (k, lv), c in gap_counter.items()),
        extrapolated_used=sorted(extrapolated_used),
        _raw=raw,
    )
