"""Spans around the public calls of each ``repro`` layer, and the ledger built from them.

The benchmark measures the program from outside: :meth:`Hooks.install` wraps
public functions and methods (trace build, the two simulators, result
assembly, the runner, the store, the cluster coordinator) so that every call
records a span — name, start, end, parent span, cell id — and
:meth:`Hooks.uninstall` puts the originals back.  Nothing in ``src/`` knows
about it.

Spans recorded in the benchmark's own process stay in memory.  Spans recorded
in any other process — forked pool workers, which inherit the wrappers, and
the ``repro serve`` / ``repro worker`` subprocesses, which load them through
``perfbench/hook/sitecustomize.py`` — are appended one JSON line at a time to
``<span dir>/<pid>.jsonl``, so nothing is lost however the process ends.
:meth:`Recorder.drain` collects both.

A span's self time is its duration minus the durations of its direct
children (spans in the same process and thread whose parent it is).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (pid, span id, parent id or None, name, start, end, cell id or None, count)
Span = Tuple[int, int, Optional[int], str, float, float, Optional[str], int]

# Layer of each span name; a layer's time is the self time of its spans.
LAYER = {
    "trace.build": "trace",
    "refarch.run": "refarch",
    "dva.run": "dva",
    "core.assemble": "core",
    "core.simulate": "core",
    "core.run": "core",
    "core.run_batch": "core",
    "core.pool_wait": "pool",
    "store.key": "store",
    "store.get": "store",
    "store.put": "store",
    "store.index": "store",
    "cluster.prepare": "cluster",
    "cluster.wait": "cluster",
    "cluster.assemble": "cluster",
}
CELL_WORK_LAYERS = ("trace", "refarch", "dva", "core", "store")


class Recorder:
    """Collects spans; in-memory in the owning process, to files elsewhere.

    ``owner_pid`` is the process whose spans stay in memory (``None`` in a
    child interpreter, where every span goes to a file).  Forked children see
    a different pid and switch to their own file automatically; their
    per-thread parent stacks start empty, so a span open in the parent at
    fork time never adopts a child's spans.
    """

    def __init__(self, span_dir: str, owner_pid: Optional[int] = None) -> None:
        self.span_dir = span_dir
        self.owner_pid = owner_pid
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._file = None
        self._file_pid = None
        self._file_lock = threading.Lock()

    def stack(self) -> list:
        local = self._local
        pid = os.getpid()
        if getattr(local, "pid", None) != pid:
            local.pid = pid
            local.stack = []
        return local.stack

    def next_id(self) -> int:
        return next(self._ids)

    def emit(self, span: Span) -> None:
        if span[0] == self.owner_pid:
            self.spans.append(span)
            return
        line = json.dumps(span, separators=(",", ":")) + "\n"
        with self._file_lock:
            if self._file_pid != span[0]:
                # Line-buffered: every span reaches the file even if the
                # process leaves through os._exit (pool workers do).
                self._file = open(
                    os.path.join(self.span_dir, f"{span[0]}.jsonl"), "a", buffering=1
                )
                self._file_pid = span[0]
            self._file.write(line)

    def drain(self) -> List[Span]:
        """Every span recorded so far, here and in other processes; then forget them."""
        spans, self.spans = self.spans, []
        for entry in sorted(os.listdir(self.span_dir)):
            if not entry.endswith(".jsonl"):
                continue
            path = os.path.join(self.span_dir, entry)
            with open(path) as handle:
                for line in handle:
                    if line.endswith("\n"):
                        spans.append(tuple(json.loads(line)))  # type: ignore[arg-type]
            os.unlink(path)
        return spans


def _wrap(
    recorder: Recorder,
    name: str,
    fn: Callable,
    cell_of: Optional[Callable] = None,
    count_of: Optional[Callable] = None,
) -> Callable:
    """``fn`` recording one span per call.

    ``cell_of(args)`` names the cell a top-level call works for (children
    inherit their parent's); ``count_of(args, result)`` gives the span's
    count field (instructions simulated, 1 for a store hit, ...).
    """
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = recorder.stack()
        parent = stack[-1] if stack else None
        span_id = recorder.next_id()
        cell = cell_of(args) if cell_of is not None else (parent[1] if parent else None)
        stack.append((span_id, cell))
        start = perf()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf()
            stack.pop()
            count = count_of(args, result) if count_of is not None else 1
            recorder.emit(
                (os.getpid(), span_id, parent[0] if parent else None, name,
                 start, end, cell, count)
            )

    return wrapper


def _hook_table():
    """(span name, owner, attribute, cell_of, count_of) for every hooked call."""
    from repro.cluster import ClusterCoordinator
    from repro.core import ResultStore, RunResult, Runner, SpecArchitecture
    from repro.dva.simulator import DecoupledSimulator
    from repro.refarch.simulator import ReferenceSimulator
    from repro.store import keys
    from repro.workloads.program_model import ProgramModel

    instructions = lambda args, result: len(args[1])  # noqa: E731
    return [
        ("trace.build", ProgramModel, "build_trace", lambda a: str(a[0].name), None),
        ("refarch.run", ReferenceSimulator, "run", None, instructions),
        ("dva.run", DecoupledSimulator, "run", None, instructions),
        ("core.assemble", RunResult, "from_reference", None, None),
        ("core.assemble", RunResult, "from_decoupled", None, None),
        (
            "core.simulate", SpecArchitecture, "simulate",
            lambda a: f"{a[1].name}/{a[2].latency}/{a[0].name}", None,
        ),
        ("core.run", Runner, "run", None, None),
        ("core.run_batch", Runner, "run_batch", None, None),
        ("store.key", keys, "cell_key", None, None),
        ("store.get", ResultStore, "get", None, lambda a, r: int(r is not None)),
        ("store.put", ResultStore, "put", None, None),
        ("store.index", ResultStore, "update_index", None, None),
        ("cluster.prepare", ClusterCoordinator, "prepare", None, None),
        ("cluster.wait", ClusterCoordinator, "wait", None, None),
        ("cluster.assemble", ClusterCoordinator, "assemble", None, None),
    ]


class Hooks:
    """The installed wrappers, and what to put back on :meth:`uninstall`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._restore: List[Tuple[object, str, object]] = []

    def install(self) -> "Hooks":
        for name, owner, attr, cell_of, count_of in _hook_table():
            if not hasattr(owner, attr):
                print(f"perfbench: no {attr!r} on {owner!r}; span {name} not recorded",
                      file=sys.stderr)
                continue
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(self.recorder, name, raw.__func__, cell_of, count_of))
            else:
                wrapped = _wrap(self.recorder, name, raw, cell_of, count_of)
            if inspect.ismodule(owner):
                self._rebind_function(raw, wrapped)
            else:
                self._set(owner, attr, wrapped)
        return self

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_function(self, original: Callable, wrapped: Callable) -> None:
        """Replace a module-level function everywhere it was imported by name."""
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


# -- the ledger ----------------------------------------------------------------------


def self_times(spans: List[Span]) -> List[Tuple[Span, float]]:
    """Each span with its self time: duration minus its direct children's."""
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span[2] is not None:
            child_time[(span[0], span[2])] += span[5] - span[4]
    return [(span, span[5] - span[4] - child_time[(span[0], span[1])]) for span in spans]


class Ledger:
    """Per-name totals of one set of spans: self seconds, calls, summed counts."""

    def __init__(self, spans: List[Span], own_pid: int) -> None:
        # A runner call that simulated no cell in its own process handed its
        # cells to a pool and waited: that is pool wait, not dispatch work.
        dispatching = {(s[0], s[2]) for s in spans if s[3] == "core.simulate"}
        spans = [
            s[:3] + ("core.pool_wait",) + s[4:]
            if s[3] in ("core.run", "core.run_batch") and (s[0], s[1]) not in dispatching
            else s
            for s in spans
        ]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.own_self_s = 0.0
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        for span, own in self_times(spans):
            name = span[3]
            self.self_s[name] += own
            self.calls[name] += 1
            self.counts[name] += span[7]
            layer = LAYER.get(name, name)
            self.layer_self_s[layer] += own
            if span[0] == own_pid and layer in CELL_WORK_LAYERS:
                self.own_self_s += own

    @property
    def cell_work_s(self) -> float:
        return sum(self.layer_self_s[layer] for layer in CELL_WORK_LAYERS)

    def share(self, *names: str) -> float:
        total = self.cell_work_s
        return sum(self.self_s[n] for n in names) / total if total else 0.0

    def ms(self, *names: str) -> float:
        return 1000.0 * sum(self.self_s[n] for n in names)
