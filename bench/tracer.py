"""Per-layer tracing from outside the program.

``Tracer.install`` replaces functions of the program with wrappers that
record, per calling context, how often a function ran and for how long. The
wrappers sit at the names the callers resolve (``it2ipa.report.aggregate``,
not ``it2ipa.survey.aggregate``), so no file of the program changes.

Records form a calling-context tree: one record per function per parent
record. A function that runs once in its context gives an exact span (name,
start, end, parent); a per-item function such as ``lookup`` gives one record
that sums its calls, so a million calls cost a counter, not a million spans.
Self time is a record's total time minus the time its direct children took;
calls run one at a time in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
import warnings
from dataclasses import dataclass, field


@dataclass
class Record:
    """All calls of one function under one parent record."""

    id: int
    name: str
    parent: int | None
    calls: int = 0
    start: float = 0.0
    end: float = 0.0
    total_s: float = 0.0
    child_s: float = 0.0
    children: dict = field(default_factory=dict, repr=False)

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "calls": self.calls,
            "start": self.start, "end": self.end, "total_s": self.total_s, "self_s": self.self_s,
        }


class Tracer:
    """Records calls of wrapped functions into a calling-context tree."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records: list[Record] = []
        self.counts: dict[str, int] = {}
        self.warnings: dict[tuple[str, str], int] = {}
        self._root = Record(-1, "<root>", None)
        self._stack: list[Record] = [self._root]
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one call of ``name`` under the innermost open call."""
        parent = self._stack[-1]
        record = parent.children.get(name)
        if record is None:
            record = Record(len(self.records), name, None if parent is self._root else parent.id)
            parent.children[name] = record
            self.records.append(record)
        self._stack.append(record)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            elapsed = end - start
            if record.calls == 0:
                record.start = start
            record.calls += 1
            record.end = end
            record.total_s += elapsed
            parent.child_s += elapsed

    def record_warning(self, message, category, filename, lineno, file=None, line=None):
        """``warnings.showwarning`` replacement: count where the warning happens."""
        where = self._stack[-1].name
        key = (category.__name__, where)
        self.warnings[key] = self.warnings.get(key, 0) + 1

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap_counter(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self, timed, counted=()) -> None:
        """Install wrappers from ``(target, metric name)`` pairs.

        A target is ``"module:attr"`` or ``"module:Class.attr"``. Targets the
        program does not define are listed in ``missing`` and skipped.
        """
        plan = [(spec, self.wrap) for spec in timed] + [(spec, self.wrap_counter) for spec in counted]
        for (target, name), wrap in plan:
            owner, attr = _resolve(target)
            if owner is None:
                self.missing.append(target)
                continue
            wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def traced(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` with warnings recorded into this tracer instead of printed."""
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = self.record_warning
            return self.call(name, fn, *args, **kwargs)

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for r in self.records:
            agg = out.setdefault(r.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += r.calls
            agg["s"] += r.total_s
            agg["self_s"] += r.self_s
        return out


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr
