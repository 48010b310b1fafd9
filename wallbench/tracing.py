"""Layer timings taken from outside the program.

:class:`Wrappers` replaces each layer's public callable *where its
caller looks it up* (``repro.lu.tasks`` binds ``getrf`` at import, so
the wrapper goes on ``repro.lu.tasks.getrf``, not on
``repro.blas.getrf.getrf``) with one that records a span into a
:class:`Tracer`, and puts every original back on exit. Nothing under
``src/`` changes, and untraced runs execute the original objects.

Spans live in memory (name, start, end, parent, rank thread, request
id) and are written once, at the end, in the Chrome ``traceEvents``
schema of :meth:`repro.sim.trace.TraceRecorder.to_chrome_trace`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def _gemm_flops(a, b, *_args, **_kwargs) -> float:
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1]


#: (module, attribute or Class.method, layer, work counter). One entry
#: per lookup site; the same function bound in two modules is two sites.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.lu.tasks", "getrf", "blas.getrf", None),
    ("repro.lu.tasks", "laswp", "blas.laswp", None),
    ("repro.lu.tasks", "trsm_lower_unit_left", "blas.trsm", None),
    ("repro.lu.tasks", "gemm", "blas.gemm", _gemm_flops),
    ("repro.lu.dynamic", "DynamicScheduler.run", "lu.scheduler", None),
    ("repro.hpl.driver", "hpl_system", "hpl.matgen", None),
    ("repro.hpl.driver", "lu_solve", "lu.solve", None),
    ("repro.hpl.driver", "hpl_residual", "hpl.residual", None),
    ("repro.hpl.driver", "residual_passes", "hpl.residual", None),
    ("repro.cluster.hpl_mpi", "getrf", "blas.getrf", None),
    ("repro.cluster.hpl_mpi", "exchange_pivot_rows", "blas.laswp", None),
    ("repro.cluster.hpl_mpi", "exchange_pivot_rows_long", "blas.laswp", None),
    ("repro.cluster.hpl_mpi", "trsm_lower_unit_left", "blas.trsm", None),
    ("repro.cluster.hpl_mpi", "gemm", "blas.gemm", _gemm_flops),
    ("repro.cluster.hpl_mpi", "hpl_submatrix", "hpl.matgen", None),
    ("repro.cluster.hpl_mpi", "hpl_system", "hpl.matgen", None),
    ("repro.cluster.hpl_mpi", "lu_solve", "lu.solve", None),
    ("repro.cluster.hpl_mpi", "hpl_residual", "hpl.residual", None),
    ("repro.cluster.hpl_mpi", "residual_passes", "hpl.residual", None),
    ("repro.cluster.hpl_mpi", "plan_relayout", "elastic.plan", None),
    ("repro.cluster.hpl_mpi", "redistribute", "elastic.redistribute", None),
    ("repro.cluster.comm", "Comm.recv", "cluster.comm.wait", None),
    ("repro.cluster.comm", "RecvRequest.wait", "cluster.comm.wait", None),
    ("repro.resilience.checkpoint", "CheckpointStore.save",
     "resilience.checkpoint.save", None),
    ("repro.resilience.checkpoint", "CheckpointStore.load",
     "resilience.checkpoint.load", None),
)

#: World.run is wrapped separately: it labels rank threads and counts
#: the world's traffic once its ranks finish.
WORLD_RUN = ("repro.cluster.comm", "World.run")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: str
    rank: Optional[int]
    request: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counters of one traced request."""

    def __init__(self, request: object, t0: float):
        self.request = request
        self.t0 = t0
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.rank, local.root = [], None, None
        return local

    def current(self) -> Optional[int]:
        st = self._state()
        return st.stack[-1][0] if st.stack else st.root

    def inside(self, name: str) -> bool:
        """True while this thread is within a ``name`` span."""
        return any(n == name for _sid, n in self._state().stack)

    def enter_rank(self, rank: int, parent: Optional[int]) -> None:
        """Label this (rank) thread and hang its spans under ``parent``."""
        st = self._state()
        st.rank, st.root = rank, parent

    def call(self, name: str, fn: Callable, *args, **kwargs):
        st = self._state()
        parent = st.stack[-1][0] if st.stack else st.root
        with self._lock:
            sid = next(self._ids)
        st.stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            st.stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.current_thread().name, st.rank,
                                   self.request))

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    # -- aggregation ------------------------------------------------------------
    def busy(self) -> Dict[str, float]:
        """Rank-summed inclusive seconds per span name."""
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return out

    def self_time(self, name: str) -> float:
        """Seconds inside ``name`` spans not covered by their children."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return sum(s.duration - child[s.id] for s in self.spans if s.name == name)

    def busy_outside(self, name: str, ancestor: str) -> float:
        """Seconds in ``name`` spans with no ``ancestor`` span above them."""
        by_id = {s.id: s for s in self.spans}

        def under(s: Span) -> bool:
            while s.parent is not None:
                s = by_id.get(s.parent)
                if s is None:
                    return False
                if s.name == ancestor:
                    return True
            return False

        return sum(s.duration for s in self.spans
                   if s.name == name and not under(s))


def _resolve(module: str, attr: str):
    """(owner, name) of a lookup site: a module or a class in it."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Wrappers:
    """Install every layer wrapper on enter; restore each original on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Wrappers":
        try:
            for module, attr, layer, work in TARGETS:
                self._patch(module, attr, self._timed(layer, work))
            self._patch(*WORLD_RUN, self._world_run)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)

    def _patch(self, module: str, attr: str, make: Callable) -> None:
        owner, name = _resolve(module, attr)
        original = owner.__dict__[name]
        setattr(owner, name, functools.wraps(original)(make(original)))
        self.saved.append((owner, name, original))

    def _timed(self, layer: str, work: Optional[Callable]) -> Callable:
        tracer = self.tracer

        def make(original):
            def wrapper(*args, **kwargs):
                if work is not None:
                    tracer.add(f"{layer}.work", work(*args, **kwargs))
                return tracer.call(layer, original, *args, **kwargs)
            return wrapper

        return make

    def _world_run(self, original):
        tracer = self.tracer

        def run(world, fn, *args, **kwargs):
            parent = tracer.current()
            # Redistribution runs its own world; its traffic is elastic's.
            scope = ("elastic" if tracer.inside("elastic.redistribute")
                     else "cluster")

            def rank_body(comm, *a, **k):
                tracer.enter_rank(comm.rank, parent)
                return tracer.call("cluster.rank", fn, comm, *a, **k)

            try:
                return original(world, rank_body, *args, **kwargs)
            finally:
                tracer.add(f"{scope}.comm.messages",
                           sum(c.stats.messages_sent for c in world.comms))
                tracer.add(f"{scope}.comm.bytes",
                           sum(c.stats.bytes_sent for c in world.comms))

        return run


def chrome_trace(tracers: Iterable[Tracer]) -> dict:
    """Every span of ``tracers`` as one Chrome ``traceEvents`` document."""
    from repro.sim.trace import TraceRecorder

    rec = TraceRecorder()
    for tr in tracers:
        for s in sorted(tr.spans, key=lambda s: s.start):
            worker = s.thread if s.rank is None else f"rank{s.rank}"
            rec.record(worker, s.name, s.start - tr.t0, s.end - tr.t0,
                       span=s.id, parent=s.parent or 0, thread=s.thread,
                       request=str(s.request))
    return rec.to_chrome_trace()
