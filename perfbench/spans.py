"""Span recording for the traced benchmark run.

The program under test records no time of its own, so the traced run
wraps the public functions of each layer from here: every call of a
wrapped function becomes one span (name, start, end, parent, group).
Spans nest per thread; a span's *self time* is its duration minus the
durations of its direct children.  Aggregates (count, self time,
inclusive time, root time per group) are kept online, and the raw
spans stay in memory until :meth:`Recorder.write` saves them.

A wrapped function that no longer exists in the program is skipped and
listed in :attr:`Recorder.missing`; the metrics built on it are then
absent from the report instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array

_clock = time.perf_counter

#: Span names.  ``lang.eval.columnar`` is a Query call evaluated by the
#: columnar engine; every other Query call is ``lang.eval``.
SPANS = (
    "lang.eval",
    "lang.eval.columnar",
    "core.transition",
    "net.transition",
    "net.run",
    "net.scheduler",
    "net.faults",
    "net.convergence",
    "runcache.key",
    "runcache.get",
    "runcache.record",
    "executor.map",
    "analysis.static",
    "analysis.monotone",
    "analysis.coordination",
    "analysis.nti",
    "service.parse",
)
_INDEX = {name: i for i, name in enumerate(SPANS)}
_LANG = (_INDEX["lang.eval"], _INDEX["lang.eval.columnar"])

#: (module, qualified name, span) — module-level functions and methods
#: wrapped as plain spans.
FUNCTION_SPANS = (
    ("repro.core.transducer", "Transducer.transition", "core.transition"),
    ("repro.net.transition", "general_transition", "net.transition"),
    ("repro.net.run", "run_schedule", "net.run"),
    ("repro.net.faults", "execute_fault_action", "net.faults"),
    ("repro.net.convergence", "ConvergenceTracker.check", "net.convergence"),
    ("repro.net.runcache", "run_key", "runcache.key"),
    ("repro.net.runcache", "transducer_fingerprint", "runcache.key"),
    ("repro.net.runcache", "instance_digest", "runcache.key"),
    ("repro.net.runcache", "partition_digest", "runcache.key"),
    ("repro.net.runcache", "RunCache.get", "runcache.get"),
    ("repro.net.runcache", "RunCache.record", "runcache.record"),
    ("repro.net.executor", "SweepEngine.map", "executor.map"),
    ("repro.analysis.static.transducers", "analyze_transducer", "analysis.static"),
    ("repro.lang.monotone", "check_monotone_pair", "analysis.monotone"),
    ("repro.net.coordination", "check_coordination_free_on", "analysis.coordination"),
    ("repro.net.consistency", "check_topology_independence", "analysis.nti"),
    ("repro.service.schemas", "parse_job", "service.parse"),
)
#: Functions counted per call, not timed (``fire_rule`` runs inside a
#: Query call, whose self time must include it; it dispatches to the
#: columnar engine itself, so one count covers every engine).
COUNTERS = (
    ("repro.lang.datalog", "fire_rule", "lang.rule_fires"),
)
#: Query subclasses whose ``__call__`` is not query evaluation: the
#: CALM harness's computed query runs whole networks.
NOT_LANG = ("ComputedQuery",)


class _ThreadLog:
    """One thread's span stack, raw spans and aggregates."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []
        self.group = None
        n = len(SPANS)
        self.count = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.leaf = [0] * n
        self.depth = [0] * n
        self.root_s: dict = {}
        self.counters: dict[str, int] = {}
        self.groups: list = []
        self.group_ids: dict = {}
        self.s_name = array("H")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("l")
        self.s_group = array("l")


class Recorder:
    """Process-wide span recorder; :meth:`install` wraps the program."""

    def __init__(self):
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._undo: list = []
        #: Wrapped functions the program no longer has.
        self.missing: list[str] = []
        #: Span and counter names with at least one wrapped function.
        self.installed: set[str] = set()

    # -- recording -------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def set_group(self, group) -> None:
        """Tag this thread's following root spans (a sweep or job id)."""
        self._log().group = group

    def _enter(self, idx: int) -> None:
        log = self._log()
        start = _clock()
        gid = log.group_ids.get(log.group)
        if gid is None:
            gid = log.group_ids[log.group] = len(log.groups)
            log.groups.append(log.group)
        pos = len(log.s_name)
        log.s_name.append(idx)
        log.s_start.append(start)
        log.s_end.append(start)
        log.s_parent.append(log.stack[-1][4] if log.stack else -1)
        log.s_group.append(gid)
        log.depth[idx] += 1
        log.stack.append([idx, start, 0.0, 0, pos])

    def _exit(self) -> None:
        end = _clock()
        log = self._local.log
        idx, start, child_s, children, pos = log.stack.pop()
        log.s_end[pos] = end
        dur = end - start
        log.count[idx] += 1
        log.self_s[idx] += dur - child_s
        log.depth[idx] -= 1
        if log.depth[idx] == 0:
            log.incl_s[idx] += dur
        if children == 0:
            log.leaf[idx] += 1
        if log.stack:
            parent = log.stack[-1]
            parent[2] += dur
            parent[3] += 1
        else:
            log.root_s[log.group] = log.root_s.get(log.group, 0.0) + dur

    def _count(self, name: str) -> None:
        counters = self._log().counters
        counters[name] = counters.get(name, 0) + 1

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, fn, idx: int):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec._enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._exit()

        return wrapper

    def _lang_wrapper(self, fn, default_engine):
        rec = self
        plain, columnar = _LANG

        @functools.wraps(fn)
        def wrapper(query, *args, **kwargs):
            engine = getattr(query, "engine", None) or default_engine()
            rec._enter(columnar if engine == "columnar" else plain)
            try:
                return fn(query, *args, **kwargs)
            finally:
                rec._exit()

        return wrapper

    def _counter_wrapper(self, fn, name: str):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec._count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _scheduler_wrapper(self, fn):
        rec = self
        idx = _INDEX["net.scheduler"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedGenerator(fn(*args, **kwargs), rec, idx)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        if isinstance(owner, type):
            return
        # Modules that imported the function by name hold their own
        # reference; point those at the wrapper too.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def _resolve(self, module: str, qualname: str):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if parts[-1] not in getattr(owner, "__dict__", {}):
            return None, None
        return owner, parts[-1]

    def install(self) -> None:
        """Wrap every layer entry point; record spans from now on."""
        self.missing = []
        for module, qualname, span in FUNCTION_SPANS:
            owner, attr = self._resolve(module, qualname)
            if owner is None:
                self.missing.append(f"{module}.{qualname}")
                continue
            fn = owner.__dict__[attr]
            self._patch(owner, attr, self._span_wrapper(fn, _INDEX[span]))
            self.installed.add(span)
        for module, qualname, name in COUNTERS:
            owner, attr = self._resolve(module, qualname)
            if owner is None:
                self.missing.append(f"{module}.{qualname}")
                continue
            self._patch(owner, attr, self._counter_wrapper(owner.__dict__[attr], name))
            self.installed.add(name)
        self._install_queries()
        self._install_schedulers()

    def _install_queries(self) -> None:
        try:
            from repro.lang.engine import default_engine
            from repro.lang.query import Query
        except ImportError:
            self.missing.append("repro.lang.query.Query")
            return
        for cls in _subclasses(Query):
            if "__call__" in cls.__dict__ and cls.__name__ not in NOT_LANG:
                wrapper = self._lang_wrapper(cls.__dict__["__call__"], default_engine)
                self._patch(cls, "__call__", wrapper)
                self.installed.update(("lang.eval", "lang.eval.columnar"))

    def _install_schedulers(self) -> None:
        try:
            from repro.net.scheduler import Scheduler
        except ImportError:
            self.missing.append("repro.net.scheduler.Scheduler")
            return
        for cls in _subclasses(Scheduler):
            if "schedule" in cls.__dict__:
                wrapper = self._scheduler_wrapper(cls.__dict__["schedule"])
                self._patch(cls, "schedule", wrapper)
                self.installed.add("net.scheduler")

    def uninstall(self) -> None:
        """Restore every wrapped function (undo :meth:`install`)."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def totals(self) -> dict:
        """Aggregates over every thread, keyed by span name.

        ``{"spans": {name: {"count", "self_s", "incl_s", "leaf"}},
        "counters": {...}, "root_s": {group: seconds}}``
        """
        with self._lock:
            logs = list(self._logs)
        spans = {
            name: {"count": 0, "self_s": 0.0, "incl_s": 0.0, "leaf": 0}
            for name in SPANS
        }
        counters: dict[str, int] = {}
        root_s: dict = {}
        for log in logs:
            for i, name in enumerate(SPANS):
                entry = spans[name]
                entry["count"] += log.count[i]
                entry["self_s"] += log.self_s[i]
                entry["incl_s"] += log.incl_s[i]
                entry["leaf"] += log.leaf[i]
            for key, n in log.counters.items():
                counters[key] = counters.get(key, 0) + n
            for group, seconds in log.root_s.items():
                root_s[group] = root_s.get(group, 0.0) + seconds
        return {"spans": spans, "counters": counters, "root_s": root_s}

    def span_count(self) -> int:
        with self._lock:
            return sum(len(log.s_name) for log in self._logs)

    def write(self, path) -> None:
        """Save every raw span as one ``.npz`` archive.

        Arrays per thread ``t``: ``t{t}_name`` (index into ``names``),
        ``t{t}_start``/``t{t}_end`` (perf-counter seconds),
        ``t{t}_parent`` (index of the parent span, -1 for a root) and
        ``t{t}_group`` (index into ``t{t}_groups``).
        """
        import numpy as np

        arrays = {"names": np.array(SPANS)}
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            t = log.index
            arrays[f"t{t}_name"] = np.frombuffer(log.s_name, dtype=np.uint16)
            arrays[f"t{t}_start"] = np.frombuffer(log.s_start, dtype=np.float64)
            arrays[f"t{t}_end"] = np.frombuffer(log.s_end, dtype=np.float64)
            arrays[f"t{t}_parent"] = np.frombuffer(log.s_parent, dtype=np.int64)
            arrays[f"t{t}_group"] = np.frombuffer(log.s_group, dtype=np.int64)
            arrays[f"t{t}_groups"] = np.array([str(g) for g in log.groups])
        np.savez_compressed(path, **arrays)


class _TimedGenerator:
    """A scheduler generator whose every resumption is one span."""

    __slots__ = ("_gen", "_rec", "_idx")

    def __init__(self, gen, rec: Recorder, idx: int):
        self._gen = gen
        self._rec = rec
        self._idx = idx

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        self._rec._enter(self._idx)
        try:
            return self._gen.send(value)
        finally:
            self._rec._exit()

    def throw(self, *args):
        return self._gen.throw(*args)

    def close(self):
        return self._gen.close()


def _subclasses(cls) -> list:
    out, todo = {}, [cls]
    while todo:
        current = todo.pop()
        if current not in out:
            out[current] = None
            todo.extend(current.__subclasses__())
    return list(out)


def layer_metrics(totals: dict, installed: set, ops: int) -> dict:
    """Per-layer metrics derivable from span aggregates, per operation.

    A metric whose wrapped function is gone from the program is left
    out (see :class:`Recorder`).
    """
    sp = totals["spans"]
    counters = totals["counters"]
    out: dict = {}

    def put(name, needs, value, unit, base=None):
        if all(n in installed for n in needs):
            out[name] = (value, unit, base)

    lang = ("lang.eval", "lang.eval.columnar")
    put("lang.eval_s", lang,
        (sp["lang.eval"]["self_s"] + sp["lang.eval.columnar"]["self_s"]) / ops, "s")
    put("lang.calls", lang,
        (sp["lang.eval"]["count"] + sp["lang.eval.columnar"]["count"]) / ops, "count")
    put("lang.rule_fires", ("lang.rule_fires",),
        counters.get("lang.rule_fires", 0) / ops, "count")
    put("lang.eval_s.columnar", lang, sp["lang.eval.columnar"]["self_s"] / ops, "s")

    tr = sp["core.transition"]
    put("core.transition_s", ("core.transition",), tr["self_s"] / ops, "s")
    put("core.transitions", ("core.transition",), tr["count"] / ops, "count")
    put("core.transition_hit_ratio", ("core.transition",) + lang,
        tr["leaf"] / tr["count"] if tr["count"] else 0.0, "ratio",
        f"{tr['leaf']}/{tr['count']} transition calls")

    for name, span in (("net.transition_s", "net.transition"),
                       ("net.run_s", "net.run"),
                       ("net.scheduler_s", "net.scheduler"),
                       ("net.faults_s", "net.faults"),
                       ("net.convergence_s", "net.convergence"),
                       ("runcache.key_s", "runcache.key"),
                       ("runcache.get_s", "runcache.get"),
                       ("runcache.record_s", "runcache.record"),
                       ("executor.map_s", "executor.map"),
                       ("analysis.static_s", "analysis.static"),
                       ("service.parse_s", "service.parse")):
        put(name, (span,), sp[span]["self_s"] / ops, "s")
    for name, span in (("net.steps", "net.transition"),
                       ("net.runs", "net.run"),
                       ("net.convergence_checks", "net.convergence")):
        put(name, (span,), sp[span]["count"] / ops, "count")
    for name, span in (("net.convergence_total_s", "net.convergence"),
                       ("analysis.monotone_s", "analysis.monotone"),
                       ("analysis.coordination_s", "analysis.coordination"),
                       ("analysis.nti_s", "analysis.nti")):
        put(name, (span,), sp[span]["incl_s"] / ops, "s")
    return out


def import_program() -> None:
    """Import every package whose functions the recorder wraps, so
    that each module holding a by-name reference exists before
    :meth:`Recorder.install` scans for it."""
    for module in ("repro.net", "repro.analysis", "repro.service", "repro.lang"):
        importlib.import_module(module)
