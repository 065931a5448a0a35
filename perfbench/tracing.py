"""Layer-boundary spans recorded from outside the program.

For the traced run the benchmark wraps the public entry points of each
layer of ``repro`` (see :func:`install`) with its own spans; nothing
inside ``src/`` is instrumented.  A span records its name, start, end,
parent span and request id.  Spans nest per thread, so a layer's *self*
time is its span's duration minus the time its child spans cover.
Spans stay in memory and :meth:`Tracer.dump` writes them out when the
run ends.

Wrappers are installed by replacing attributes: methods on their
class, and module-level functions in every loaded ``repro`` module
that bound the same function object (``from x import f`` copies the
reference, so patching only the defining module would miss callers).
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple


class _Frame:
    __slots__ = ("sid", "name", "start", "end", "child_ns", "parent",
                 "rid")

    def __init__(self, sid: int, name: str, start: int,
                 parent: Optional["_Frame"], rid: str) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.child_ns = 0
        self.parent = parent
        self.rid = rid


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.sums: Optional[Dict[str, List[int]]] = None
        self.counts: Optional[Dict[str, float]] = None


class Tracer:
    """In-memory span recorder with per-thread self-time sums."""

    def __init__(self) -> None:
        #: finished spans: (id, parent id, name, start ns, end ns,
        #: self ns, request id)
        self.spans: List[Tuple[int, int, str, int, int, int, str]] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._sums: List[Dict[str, List[int]]] = []
        self._counts: List[Dict[str, float]] = []
        self._lists: Dict[str, List[float]] = defaultdict(list)
        #: client round trip (ns) by the trace id the server echoed
        self.client_ns: Dict[str, int] = {}
        self._undo: List[Callable[[], None]] = []
        self._base: Optional[Tuple[Any, ...]] = None
        #: (self-time sums, counts, sample-list ranges, intervals) summed
        #: over the measured intervals, set by :meth:`mark_end`
        self.window: Optional[Tuple[Any, ...]] = None

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = self._local
        if st.sums is None:
            st.sums = defaultdict(lambda: [0, 0])
            st.counts = defaultdict(float)
            with self._lock:
                self._sums.append(st.sums)
                self._counts.append(st.counts)
        return st

    def begin(self, name: str, rid: str = "") -> _Frame:
        st = self._state()
        parent = st.stack[-1] if st.stack else None
        if not rid:
            rid = parent.rid if parent is not None else (
                _current_trace_id() or f"r{next(self._rids)}")
        frame = _Frame(next(self._ids), name, perf_counter_ns(), parent,
                       rid)
        st.stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        end = frame.end = perf_counter_ns()
        st = self._local
        st.stack.pop()
        dur = end - frame.start
        own = dur - frame.child_ns
        if frame.parent is not None:
            frame.parent.child_ns += dur
        acc = st.sums[frame.name]
        acc[0] += own
        acc[1] += 1
        self.spans.append((
            frame.sid, frame.parent.sid if frame.parent else 0,
            frame.name, frame.start, end, own, frame.rid,
        ))

    def inside(self, name: str) -> bool:
        """Is a span called ``name`` open on this thread?"""
        return any(f.name == name for f in self._state().stack)

    def count(self, name: str, n: float = 1) -> None:
        self._state().counts[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self._lists[name].append(value)

    # -- the measured window ---------------------------------------------

    def _snapshot(self) -> Tuple[Any, ...]:
        sums: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        for per_thread in self._sums:
            for name, (ns, calls) in list(per_thread.items()):
                sums[name][0] += ns
                sums[name][1] += calls
        counts: Dict[str, float] = defaultdict(float)
        for per_thread in self._counts:
            for name, n in list(per_thread.items()):
                counts[name] += n
        with self._lock:
            lengths = {k: len(v) for k, v in self._lists.items()}
        return sums, counts, lengths, perf_counter_ns()

    def mark_start(self) -> None:
        """Start of a measured interval (threads must be idle)."""
        self._base = self._snapshot()

    def mark_end(self) -> None:
        """End of a measured interval.  Per-query figures come from the
        differences between the marks, summed over every interval."""
        assert self._base is not None, "mark_start() first"
        sums0, counts0, lengths0, start = self._base
        sums1, counts1, lengths1, end = self._snapshot()
        self._base = None
        if self.window is None:
            self.window = (defaultdict(lambda: [0, 0]), defaultdict(float),
                           defaultdict(list), [])
        sums, counts, ranges, intervals = self.window
        for k, v in sums1.items():
            before = sums0.get(k, [0, 0])
            sums[k][0] += v[0] - before[0]
            sums[k][1] += v[1] - before[1]
        for k, v in counts1.items():
            counts[k] += v - counts0.get(k, 0)
        for k, v in lengths1.items():
            ranges[k].append((lengths0.get(k, 0), v))
        intervals.append((start, end))

    # -- reading ---------------------------------------------------------

    def self_ms(self, name: str, window: bool = True) -> Tuple[float, int]:
        """Self time (ms) and call count of spans named ``name``, within
        the measured intervals or over the whole traced run."""
        if window:
            ns, calls = self._window()[0].get(name, (0, 0))
            return ns / 1e6, calls
        total = calls = 0
        for sums in self._sums:
            if name in sums:
                total += sums[name][0]
                calls += sums[name][1]
        return total / 1e6, calls

    def total(self, name: str) -> float:
        """A counter's increase within the measured intervals."""
        return self._window()[1].get(name, 0)

    def total_all(self, name: str) -> float:
        """A counter over the whole traced run."""
        return sum(c.get(name, 0) for c in self._counts)

    def samples(self, name: str) -> List[float]:
        """Samples recorded within the measured intervals."""
        ranges = self._window()[2].get(name, ())
        with self._lock:
            values = self._lists.get(name, [])
            return [x for lo, hi in ranges for x in values[lo:hi]]

    def in_window(self, start_ns: int) -> bool:
        return any(lo <= start_ns <= hi for lo, hi in self._window()[3])

    def _window(self) -> Tuple[Any, ...]:
        if self.window is None:
            raise RuntimeError("no measured window was marked")
        return self.window

    def dump(self, path: str) -> None:
        """Write every finished span as one JSON object per line."""
        keys = ("id", "parent", "name", "start_ns", "end_ns", "self_ns",
                "rid")
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))))
                f.write("\n")

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn: Callable, name: Any,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` inside a span.  ``name`` is a span name, or a callable
        returning one (``None`` = no span) at call time.  ``after(frame,
        result, *args, **kwargs)`` runs once the span has ended."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = name() if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            frame = tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            if after is not None:
                after(frame, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch_method(self, cls: type, attr: str, name: Any,
                     after: Optional[Callable[..., None]] = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.wrap(raw.__func__, name, after))
        else:
            new = self.wrap(raw, name, after)
        setattr(cls, attr, new)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def patch_function(self, fn: Callable, name: Any,
                       after: Optional[Callable[..., None]] = None,
                       modules: Optional[List[str]] = None) -> None:
        """Replace ``fn`` wherever a ``repro`` module bound it (or only
        in ``modules``)."""
        wrapped = self.wrap(fn, name, after)
        targets = modules or [m for m in list(sys.modules)
                              if m == "repro" or m.startswith("repro.")]
        for modname in targets:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    self._undo.append(
                        lambda m=mod, a=attr: setattr(m, a, fn))

    def patch_context(self, cls: type, attr: str, name: str) -> None:
        """Time only the *entry* of a context-manager method."""
        raw = cls.__dict__[attr]
        tracer = self

        class _Timed:
            def __init__(self, cm: Any) -> None:
                self.cm = cm

            def __enter__(self) -> Any:
                frame = tracer.begin(name)
                try:
                    return self.cm.__enter__()
                finally:
                    tracer.end(frame)

            def __exit__(self, *exc: Any) -> Any:
                return self.cm.__exit__(*exc)

        setattr(cls, attr, lambda obj, *a, **k: _Timed(raw(obj, *a, **k)))
        self._undo.append(lambda: setattr(cls, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _current_trace_id() -> str:
    from repro.obs import events

    return events.current_trace_id()


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------

def install(tracer: Tracer) -> Tracer:
    """Wrap the public function of every measured layer."""
    import repro.engine.operators as engine_ops
    import repro.server.server as server_mod
    from repro.access.phrasejoin import PhraseJoin
    from repro.access.pick import PickAccess
    from repro.access.termjoin import TermJoin
    from repro.core.trees import STree, tree_from_document
    from repro.engine.base import execute
    from repro.index.inverted import InvertedIndex
    from repro.index.structure import StructureIndex
    from repro.perf.querycache import QueryCache
    from repro.plan.estimate import estimate_plan, qerror
    from repro.plan.optimizer import choose_plan
    from repro.query.compiler import compile_query
    from repro.query.evaluator import QueryEvaluator, evaluate_query
    from repro.query.parser import parse_query
    from repro.resilience.run import execute_guarded
    from repro.server.admission import StoreGate
    from repro.server.client import PooledClient
    from repro.server.protocol import write_frame
    from repro.xmldb.stats import StoreStatistics
    from repro.xmldb.store import XMLStore

    t = tracer

    def postings(frame: _Frame, result: Any, method: Any,
                 *a: Any, **k: Any) -> None:
        t.count("postings_read",
                method.last_stats.get("postings_scanned", 0))

    def plan_counts(frame: _Frame, result: Any, plan: Any,
                    *a: Any, **k: Any) -> None:
        t.count("rows_out", plan.rows_out)
        todo = [plan]
        while todo:
            op = todo.pop()
            todo.extend(op.children)
            if op.name == "termjoin-scan":
                t.count("scan_rows", op.rows_out)
            elif op.name == "structural-filter":
                t.count("filter_rows", op.rows_out)
            if op.est_rows is not None:
                t.sample("qerror", qerror(op.est_rows, op.rows_out))

    def materialized(frame: _Frame, result: Any, doc: Any,
                     node_id: int = 0) -> None:
        t.count("nodes_materialized", len(doc.subtree(node_id)))

    def prefix_name() -> Optional[str]:
        # Only the doc_tree call made while compiling is prefix
        # resolution; the evaluator's own calls stay in its self time.
        if t.inside("query.compile"):
            t.count("prefix_calls")
            return "query.prefix"
        return None

    def client_reply(frame: _Frame, result: Any, *a: Any,
                     **k: Any) -> None:
        t.client_ns[result.trace_id] = frame.end - frame.start
        t.sample("queued_ms", result.queued_ms)

    def frame_size(frame: _Frame, result: Any, sock: Any,
                   obj: Dict[str, Any], *a: Any, **k: Any) -> None:
        if "rows" in obj:
            body = json.dumps(obj, separators=(",", ":"), sort_keys=True)
            t.sample("response_kb", len(body.encode("utf-8")) / 1024.0)

    t.patch_function(parse_query, "query.parse")
    t.patch_function(compile_query, "query.compile")
    t.patch_method(QueryEvaluator, "doc_tree", prefix_name)
    t.patch_function(evaluate_query, "query.evaluate",
                     after=lambda *a, **k: t.count("evaluate_calls"))
    t.patch_function(estimate_plan, "plan.estimate")
    t.patch_function(choose_plan, "plan.choose")
    t.patch_method(TermJoin, "run", "access.termjoin", after=postings)
    t.patch_method(PhraseJoin, "run", "access.phrasejoin", after=postings)
    t.patch_method(PickAccess, "picked_nodes", "access.pick")
    t.patch_function(execute_guarded, "engine.execute", after=plan_counts)
    t.patch_function(execute, "engine.execute", after=plan_counts)
    t.patch_function(tree_from_document, "engine.materialize",
                     after=materialized, modules=[engine_ops.__name__])
    t.patch_method(QueryCache, "run_query_guarded", "server.run")
    t.patch_method(QueryCache, "run_query", "batch.run")
    t.patch_context(StoreGate, "read", "server.gate_wait")
    t.patch_method(STree, "to_xml", "server.serialize")
    t.patch_function(write_frame, "server.write_frame", after=frame_size,
                     modules=[server_mod.__name__])
    t.patch_method(PooledClient, "query", "client.query",
                   after=client_reply)
    t.patch_method(XMLStore, "load", "xmldb.parse")
    t.patch_method(InvertedIndex, "build", "index.inverted_build",
                   after=lambda *a, **k: t.count("index_builds"))
    t.patch_method(StructureIndex, "build", "index.structure_build")
    t.patch_method(StoreStatistics, "build", "xmldb.stats_build")
    return t


def wire_overhead_ms(tracer: Tracer) -> List[float]:
    """Per request: client round trip minus the server-side cached run,
    joined on the propagated trace id."""
    server = {rid: end - start
              for _sid, _parent, name, start, end, _own, rid
              in tracer.spans
              if name == "server.run" and tracer.in_window(start)}
    return [(dur - server[rid]) / 1e6
            for rid, dur in tracer.client_ns.items() if rid in server]
