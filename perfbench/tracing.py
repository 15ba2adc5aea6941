"""In-memory span tracer that times calls into each layer of the library.

The library itself carries no tracing: :func:`installed` swaps each
traced function for a timing wrapper *where the calling module binds it*
(``from x import f`` copies the name, so patching ``x.f`` alone would
miss callers) and restores every original on exit.  A span records its
name, wall start/end (``perf_counter``), per-thread CPU (``thread_time``),
the CPU of its child spans, its parent span, the simulated rank and the
call ("run") it belongs to.  Ranks of the ``threads``/``serial`` backends
are threads of this process; ``procs`` ranks are forked processes, so the
rank-body wrapper writes each child's spans to a file before the body
returns and :meth:`Tracer.collect` merges them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

#: Span name of one simulated rank's body (``repro.core.driver._rank_main``).
RANK_SPAN = "simmpi.rank"

#: Span name of one ``xtrapulp()`` call, recorded in the calling thread.
CALL_SPAN = "xtrapulp"

#: The ``simmpi.SimComm`` collectives given their own per-op metrics.
COLLECTIVE_OPS = ("Allreduce", "Alltoallv_fields", "Alltoallv", "Allgatherv")

#: Top-level rank spans of the flat and multilevel pipelines (the phases
#: that together should account for nearly all of a rank body's CPU).
CORE_PHASES = ("init", "vertex_balance", "vertex_refine", "edge_balance",
               "edge_refine")
ML_SPANS = ("hierarchy", "cluster", "contract", "refine", "project")


class Span(NamedTuple):
    """One finished span.  ``id``/``parent`` are unique across the rank
    processes of a run (the pid is folded into the high bits)."""

    id: int
    parent: Optional[int]
    name: str
    rank: int           # simulated rank; -1 for the calling thread
    run: int            # which traced call the span belongs to
    start: float        # perf_counter seconds (CLOCK_MONOTONIC, host-wide)
    end: float
    cpu: float          # thread_time seconds inside the span
    child_cpu: float    # thread_time seconds inside direct child spans
    counts: Optional[Dict[str, int]]


class Tracer:
    """Collects finished spans in memory; one tracer per benchmark run."""

    def __init__(self, workload: str, spill_dir: str) -> None:
        self.workload = workload
        self.spill_dir = spill_dir
        self.spans: List[Span] = []
        self.run_id = 0
        self._owner_pid = os.getpid()
        self._pid_base = self._owner_pid << 32
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        counts: Optional[Callable[..., Callable[[Any], Dict[str, int]]]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        ``counts(*args)`` runs before the call and returns a function of
        the call's result giving the span's counts (counts are taken at
        the same boundary as the time).
        """
        local = self._local
        spans = self.spans
        ids = self._ids
        perf_counter, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [self._pid_base + next(ids), 0.0]  # [span id, child cpu]
            stack.append(frame)
            finish = counts(*args) if counts is not None else None
            t0 = perf_counter()
            c0 = thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = thread_time() - c0
                t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += cpu
                spans.append(Span(
                    frame[0], parent[0] if parent is not None else None,
                    name, getattr(local, "rank", -1), self.run_id,
                    t0, t1, cpu, frame[1],
                    # no counts for a call that raised
                    finish(result) if finish and result is not None else None,
                ))

        return traced

    def wrap_rank_body(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """The SPMD body wrapper: tags the thread with its rank and, in a
        forked rank process, writes that process's spans before returning
        (the parent never sees a child's memory)."""
        timed = self.wrap(RANK_SPAN, fn)

        @functools.wraps(fn)
        def rank_body(comm: Any, *args: Any, **kwargs: Any) -> Any:
            self._local.rank = comm.rank
            pid = os.getpid()
            forked = pid != self._owner_pid
            if forked:
                self.spans.clear()  # the copy inherited from the parent
                self._pid_base = pid << 32
            try:
                return timed(comm, *args, **kwargs)
            finally:
                if forked:
                    path = os.path.join(
                        self.spill_dir, f"spans-{pid}-{self.run_id}.json"
                    )
                    with open(path, "w") as fh:
                        json.dump(self.spans, fh)

        return rank_body

    def collect(self) -> None:
        """Merge (and delete) span files written by forked rank processes."""
        for fname in sorted(os.listdir(self.spill_dir)):
            if fname.startswith("spans-") and fname.endswith(".json"):
                path = os.path.join(self.spill_dir, fname)
                with open(path) as fh:
                    self.spans.extend(Span(*row) for row in json.load(fh))
                os.remove(path)

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """All spans as Chrome trace-event JSON (complete "X" events;
        ``pid`` = traced call, ``tid`` = rank, -1 for the calling thread)."""
        events = [{
            "name": s.name,
            "ph": "X",
            "ts": s.start * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "pid": s.run,
            "tid": s.rank,
            "args": {
                "id": s.id,
                "parent": s.parent,
                "rank": s.rank,
                "workload": self.workload,
                "run": s.run,
                "cpu_s": s.cpu,
                **(s.counts or {}),
            },
        } for s in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _sweeper_counts(sweeper: Any, *_: Any) -> Callable[[Any], Dict[str, int]]:
    # read before the call: exchange() replaces the frontier it swept
    scored = int(sweeper.active_count)
    return lambda moved: {"scored": scored, "moved": int(moved.size)}


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route the library's layer entry points through ``tracer``.

    Every name is patched in the module that *calls* it; the originals
    are restored on exit, so untraced calls run the unmodified library.
    """
    from repro.core import driver as core_driver
    from repro.core.frontier import FrontierSweeper
    from repro.core.state import RankState
    from repro.dist import build as dist_build
    from repro.graph import gather
    from repro.multilevel import coarsen
    from repro.multilevel import driver as ml_driver
    from repro.simmpi.comm import SimComm

    w = tracer.wrap
    build = w("dist.build", dist_build.build_dist_graph)
    init = w("core.init", core_driver.initialize)
    vbal = w("core.vertex_balance", core_driver.vertex_balance_phase)
    ebal = w("core.edge_balance", core_driver.edge_balance_phase)
    eref = w("core.edge_refine", core_driver.edge_refine_phase)
    vref = w("core.vertex_refine", core_driver.vertex_refine_phase)
    patches = [
        (core_driver, "_rank_main",
         tracer.wrap_rank_body(core_driver._rank_main)),
        (core_driver, "build_dist_graph", build),
        (core_driver, "initialize", init),
        (coarsen, "build_dist_graph", build),
        (gather, "neighbor_gather",
         w("graph.neighbor_gather", gather.neighbor_gather)),
        (dist_build, "neighbor_gather",
         w("graph.neighbor_gather", dist_build.neighbor_gather)),
        (RankState, "block_part_counts",
         w("core.block_part_counts", RankState.block_part_counts)),
        (FrontierSweeper, "exchange",
         w("core.exchange", FrontierSweeper.exchange, _sweeper_counts)),
        (SimComm, "_collective",
         w("simmpi.collective", SimComm._collective)),
        (ml_driver, "build_hierarchy",
         w("multilevel.hierarchy", ml_driver.build_hierarchy)),
        (ml_driver, "lp_cluster_labels",
         w("multilevel.cluster", ml_driver.lp_cluster_labels)),
        (ml_driver, "hem_cluster_labels",
         w("multilevel.cluster", ml_driver.hem_cluster_labels)),
        (ml_driver, "contract_level",
         w("multilevel.contract", ml_driver.contract_level)),
        (ml_driver, "ml_refine_phase",
         w("multilevel.refine", ml_driver.ml_refine_phase)),
        (ml_driver, "_project", w("multilevel.project", ml_driver._project)),
        (ml_driver, "initialize", init),
        (ml_driver, "vertex_balance_phase", vbal),
        (ml_driver, "edge_balance_phase", ebal),
        (ml_driver, "edge_refine_phase", eref),
    ]
    patches += [(SimComm, op, w(f"simmpi.{op}", getattr(SimComm, op)))
                for op in COLLECTIVE_OPS]
    # the flat driver looks its phases up in its step-plan table
    phase_table = core_driver._PHASE_FUNCS
    saved_table = dict(phase_table)
    traced_phase = {"vertex_balance": vbal, "vertex_refine": vref,
                    "edge_balance": ebal, "edge_refine": eref}
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        for phase, (_fn, iters_field) in saved_table.items():
            phase_table[phase] = (traced_phase[phase], iters_field)
        yield
    finally:
        phase_table.update(saved_table)
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


def summarize(spans: List[Span], *, backend: str) -> Dict[str, float]:
    """Per-layer metrics of one ``xtrapulp()`` call from its spans.

    ``cpu_s`` sums per-thread CPU over ranks; ``self_cpu_s`` subtracts the
    CPU of child spans; ``.calls`` counts rank-side calls summed over
    ranks.  Collective wait (wall minus CPU) is reported only where ranks
    run concurrently: on ``serial`` it would count other ranks' turns.
    """
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def cpu(name: str) -> float:
        return sum(s.cpu for s in by_name.get(name, ()))

    def self_cpu(name: str) -> float:
        return sum(s.cpu - s.child_cpu for s in by_name.get(name, ()))

    out: Dict[str, float] = {}
    out["graph.neighbor_gather.calls"] = calls("graph.neighbor_gather")
    out["graph.neighbor_gather.cpu_s"] = cpu("graph.neighbor_gather")
    out["dist.build.calls"] = calls("dist.build")
    out["dist.build.cpu_s"] = cpu("dist.build")
    for phase in CORE_PHASES:
        out[f"core.{phase}.cpu_s"] = cpu(f"core.{phase}")
        out[f"core.{phase}.self_cpu_s"] = self_cpu(f"core.{phase}")
    for name in ("core.block_part_counts", "core.exchange"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.cpu_s"] = cpu(name)
    exchanges = by_name.get("core.exchange", ())
    scored = sum(s.counts["scored"] for s in exchanges)
    moved = sum(s.counts["moved"] for s in exchanges)
    out["core.frontier.scored"] = scored
    out["core.frontier.moved"] = moved
    out["core.frontier.move_frac"] = moved / scored if scored else 0.0
    for name in ML_SPANS:
        out[f"multilevel.{name}.cpu_s"] = cpu(f"multilevel.{name}")
    colls = by_name.get("simmpi.collective", ())
    out["simmpi.collectives"] = len(colls)
    out["simmpi.collective.cpu_s"] = cpu("simmpi.collective")
    out["simmpi.collective.wait_s"] = (
        sum(s.end - s.start - s.cpu for s in colls)
        if backend != "serial" else 0.0
    )
    for op in COLLECTIVE_OPS:
        out[f"simmpi.{op}.calls"] = calls(f"simmpi.{op}")
        out[f"simmpi.{op}.cpu_s"] = cpu(f"simmpi.{op}")
    ranks = by_name.get(RANK_SPAN, ())
    (call,) = by_name[CALL_SPAN]
    out["simmpi.spawn_s"] = min(s.start for s in ranks) - call.start
    out["simmpi.teardown_s"] = call.end - max(s.end for s in ranks)
    rank_ids = {s.id for s in ranks}
    top = sum(s.cpu for s in spans if s.parent in rank_ids)
    rank_cpu = sum(s.cpu for s in ranks)
    out["trace.rank_coverage"] = top / rank_cpu if rank_cpu else 0.0
    return out
