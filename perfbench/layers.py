"""Outside-in per-layer tracing for the benchmark's traced runs.

The program is not instrumented for this: :class:`LayerTracer` replaces
public callables of the ``repro`` modules with wrappers while it is
installed and puts the originals back when it is removed.  A module
function is replaced in every loaded ``repro`` module that bound it by
name (``from .x import f``), so calls through any import site are seen.

Each timed wrapper records a span (name, start, end, parent, epoch) on
the tracing thread's stack.  A span's self time is its duration minus
the part covered by its child spans; both are summed per layer name into
the open *section* (one tick, or one recovery).  Spans of the first
``keep_sections`` sections stay in memory and :meth:`write_chrome_trace`
writes them out at the end in the Chrome trace-event format that
``repro.obs.trace.load_trace`` reads.  ``sgl.eval_term`` is counted, not
timed: it runs ~10^5 times a tick, and a span per call would dominate
the traced tick.

Calls made on another thread run untraced (the battle workloads make
every wrapped call on the main thread; the epoch log's writer thread
calls none of them).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

from repro.engine.clock import SimulationEngine
from repro.engine.decision import DecisionRunner
from repro.engine.evaluator import IndexedEvaluator
from repro.engine.shardexec import ReplicaWorkerPool
from repro.indexes.hash_layer import PartitionedIndex
from repro.persist.log import EpochLogReader, EpochLogWriter
from repro.serve.publisher import ReplicaPublisher

#: (layer name, owner, attribute, extra-count hook) of every timed
#: wrapper.  The owner is a class, or a module path for a function
#: (patched wherever it was imported).  The hook, when present, maps the
#: call's ``(args, result)`` to ``{count name: increment}``.
TIMED: list[tuple[str, object, str, Callable | None]] = [
    ("clock.tick", SimulationEngine, "tick", None),
    ("evaluator.begin_tick", IndexedEvaluator, "begin_tick", None),
    ("decision.run_unit", DecisionRunner, "run_unit", None),
    ("evaluator.evaluate", IndexedEvaluator, "evaluate", None),
    (
        "indexes.build",
        PartitionedIndex,
        "__init__",
        lambda args, _r: {"indexes.build_rows": len(args[0])},
    ),
    ("indexes.sweep", "repro.indexes.sweepline", "sweep_arg_minmax", None),
    ("effects.resolve_aoe", "repro.engine.effects", "resolve_aoe", None),
    (
        "env.combine_all",
        "repro.env.combine",
        "combine_all",
        lambda args, _r: {"env.combine_rows_in": sum(len(t) for t in args[0])},
    ),
    (
        "env.diff_by_key",
        "repro.env.table",
        "diff_by_key",
        lambda _a, r: {"env.changed_rows": r.changed if r is not None else 0},
    ),
    (
        "env.encode_replica_delta",
        "repro.env.sharding",
        "encode_replica_delta",
        None,
    ),
    ("game.movement", "repro.engine.movement", "run_movement_phase", None),
    ("shardexec.run_tick", ReplicaWorkerPool, "run_tick", None),
    ("persist.append_epoch", EpochLogWriter, "append_epoch", None),
    ("persist.append_state", EpochLogWriter, "append_state", None),
    (
        "persist.replay",
        EpochLogReader,
        "replay",
        lambda _a, r: {"persist.replay_epochs": r.applied},
    ),
    ("persist.truncate", "repro.persist.log", "truncate_torn_tail", None),
    ("serve.publish", ReplicaPublisher, "publish", None),
]

#: (count name, module path, function) of every counting-only wrapper.
COUNTED = [("sgl.eval_term_calls", "repro.sgl.evalterm", "eval_term")]


def _function_sites(module_path: str, attr: str) -> list[tuple[object, str]]:
    """Every ``(module, name)`` in a loaded ``repro`` module bound to the
    function ``module_path.attr``."""
    original = getattr(sys.modules[module_path], attr)
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                sites.append((module, key))
    return sites


class LayerTracer:
    """Span recorder plus the patch set that feeds it.

    Wrappers are installed only while a section is open
    (:meth:`begin_section` .. :meth:`end_section`), so the untraced ticks
    of a traced run execute the program's own callables.
    """

    def __init__(self, keep_sections: int):
        self.keep_sections = keep_sections
        self.sections_closed = 0
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.epoch = 0
        self._stack: list[list] = []  # frames: [span id, child seconds]
        self._next_id = 1
        self._thread = threading.get_ident()
        self._section: defaultdict[str, float] | None = None
        # (owner, attribute, wrapper, original)
        self._patches: list[tuple[object, str, Callable, Callable]] = []
        self._engine_patches: list[tuple[object, str, Callable, Callable]] = []
        for name, owner, attr, hook in TIMED:
            if isinstance(owner, str):
                fn = getattr(sys.modules[owner], attr)
                wrapper = self._timed(name, fn, hook)
                for module, key in _function_sites(owner, attr):
                    self._patches.append((module, key, wrapper, fn))
            else:
                fn = vars(owner)[attr]
                self._patches.append((owner, attr, self._timed(name, fn, hook), fn))
        for name, module_path, attr in COUNTED:
            fn = getattr(sys.modules[module_path], attr)
            wrapper = self._counted(name, fn)
            for module, key in _function_sites(module_path, attr):
                self._patches.append((module, key, wrapper, fn))

    def bind_engine(self, engine) -> None:
        """Also time *engine*'s mechanics callable (``game.mechanics``),
        instead of the previously bound engine's; ``None`` unbinds."""
        self._engine_patches = []
        if engine is not None:
            fn = engine.mechanics
            self._engine_patches.append(
                (engine, "mechanics", self._timed("game.mechanics", fn, None), fn)
            )

    # -- sections ---------------------------------------------------------------

    def begin_section(self, epoch: int) -> None:
        self.epoch = epoch
        self._section = defaultdict(float)
        for owner, attr, wrapper, _original in self._patches + self._engine_patches:
            setattr(owner, attr, wrapper)

    def end_section(self) -> dict[str, float]:
        for owner, attr, _wrapper, original in self._patches + self._engine_patches:
            setattr(owner, attr, original)
        section, self._section = self._section, None
        self.sections_closed += 1
        return dict(section)

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        tracer = self
        stack = self._stack
        perf = time.perf_counter
        thread = self._thread
        calls_key = name + ".calls"
        total_key = name + ".total_s"
        self_key = name + ".self_s"

        def wrapper(*args, **kwargs):
            section = tracer._section
            if section is None or threading.get_ident() != thread:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                section[calls_key] += 1
                section[total_key] += duration
                section[self_key] += duration - frame[1]
                parent = 0
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                if tracer.sections_closed < tracer.keep_sections:
                    tracer.spans.append(
                        (span_id, name, start, end, parent, tracer.epoch)
                    )
            if hook is not None:
                for key, value in hook(args, result).items():
                    section[key] += value
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            section = tracer._section
            if section is not None:
                section[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -----------------------------------------------------------------

    def write_chrome_trace(self, path: str, pid: int) -> int:
        """Write the kept spans as Chrome trace-event ``X`` events;
        returns the number of events written."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": {"id": span_id, "parent": parent, "epoch": epoch},
            }
            for span_id, name, start, end, parent, epoch in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(events, fh, separators=(",", ":"))
        return len(events)
