"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each ``agrm`` layer from outside the
package.  A wrapper replaces the function on every module attribute that
refers to it, because callers look functions up through their own module
(``trainer.batch_loss_and_grads``, not ``gradients.batch_loss_and_grads``).
Methods are wrapped on their class.  Each call records one span: its parent
span, its name, the phase it ran in, and start and end in nanoseconds.
Spans are kept in flat arrays and summarised or written out after the run.

Counting wrappers record only how many calls happened in each phase; they
add no span, so their time stays in the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

# Ladder of tail percentiles; a tail is reported at the highest level that
# still leaves at least this many samples beyond it.
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_level(n: int) -> float:
    """Highest percentile in TAIL_LEVELS with >= 10 of n samples beyond it."""
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= TAIL_MIN_BEYOND:
            return level
    return 50.0


class Tracer:
    """Spans and counts for a set of wrapped functions.

    ``targets`` is a list of ``(span name, owner, attribute, count_only,
    units)``: the owner is a module or class; ``units``, when given, is
    called with a call's arguments and result after the span closes and its
    return value is added to that name's unit total (bytes, items).
    ``modules`` are the modules searched for other references to each
    wrapped function.
    """

    def __init__(self, targets, modules):
        self.targets = list(targets)
        self.modules = list(modules)
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.phases: list[str] = []
        self._phase_idx: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.phase = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[tuple[int, int], int] = {}
        self._units: dict[int, float] = {}
        self._stack = [-1]
        self._cur_phase = -1
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, table: dict, items: list, key: str) -> int:
        idx = table.get(key)
        if idx is None:
            idx = table[key] = len(items)
            items.append(key)
        return idx

    # ------------------------------------------------------------ recording

    def _open(self, name_idx: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(name_idx)
        self.phase.append(self._cur_phase)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(sid)
        return sid

    @contextlib.contextmanager
    def span(self, name: str, phase: str | None = None):
        """A span opened by the benchmark itself, such as an op or a phase."""
        prev = self._cur_phase
        if phase is not None:
            self._cur_phase = self._intern(self._phase_idx, self.phases, phase)
        sid = self._open(self._intern(self._name_idx, self.names, name))
        self.start[sid] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter_ns()
            self._stack.pop()
            self._cur_phase = prev

    def _span_wrapper(self, name_idx: int, fn, units=None):
        clock = time.perf_counter_ns
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name_idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if units is not None:
                self._units[name_idx] = self._units.get(name_idx, 0) + units(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name_idx: int, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name_idx, self._cur_phase)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Replace every target on its owner and on each module referring to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, count_only, units in self.targets:
            original = getattr(owner, attr)
            idx = self._intern(self._name_idx, self.names, name)
            if count_only:
                wrapped = self._count_wrapper(idx, original)
            else:
                wrapped = self._span_wrapper(idx, original, units)
            holders = [owner] if isinstance(owner, type) else []
            holders += [m for m in self.modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------ results

    def arrays(self) -> dict[str, np.ndarray]:
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        # calls run on one thread, so child spans never overlap each other
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return {
            "parent": parent,
            "name": np.frombuffer(self.name, dtype=np.int64),
            "phase": np.frombuffer(self.phase, dtype=np.int64),
            "dur_ns": dur,
            "self_ns": dur - child,
        }

    def count(self, name: str, phase: str | None = None) -> int:
        """Calls of ``name`` (spans and counted calls), optionally in one phase."""
        idx = self._name_idx.get(name)
        if idx is None:
            return 0
        ph = None if phase is None else self._phase_idx.get(phase, -2)
        total = sum(
            n for (ni, pi), n in self.counts.items() if ni == idx and ph in (None, pi)
        )
        names = np.frombuffer(self.name, dtype=np.int64)
        sel = names == idx
        if ph is not None:
            sel &= np.frombuffer(self.phase, dtype=np.int64) == ph
        return total + int(sel.sum())

    def units(self, name: str) -> float:
        """Total units (bytes, items) recorded for ``name``."""
        return self._units.get(self._name_idx.get(name, -1), 0)

    def layer_stats(self, n_ops: int) -> dict[str, dict[str, float]]:
        """Per wrapped function: calls and times per op, per-call median and tail."""
        a = self.arrays()
        out = {}
        for name, _, _, count_only, _ in self.targets:
            idx = self._name_idx[name]
            if count_only:
                out[name] = {"calls": self.count(name) / n_ops}
                continue
            sel = a["name"] == idx
            dur = a["dur_ns"][sel]
            n = int(dur.size)
            stats = {
                "calls": n / n_ops,
                "total_ms": float(dur.sum()) / 1e6 / n_ops,
                "self_ms": float(a["self_ns"][sel].sum()) / 1e6 / n_ops,
                "p50_us": float(np.percentile(dur, 50.0)) / 1e3 if n else 0.0,
                "tail_us": float(np.percentile(dur, tail_level(n))) / 1e3 if n else 0.0,
            }
            out[name] = stats
        return out

    def write(self, path) -> None:
        """All spans as compressed arrays, with the name and phase tables."""
        a = self.arrays()
        np.savez_compressed(
            path,
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            names=np.array(self.names),
            phases=np.array(self.phases),
            **a,
        )
