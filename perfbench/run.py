"""Partitioner benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flat-rmat --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` alternates untraced and traced calls of the same inputs and
reports the per-layer metrics (see ``perfbench/README.md``).  Every call
is checked: labels in range, partition and ``CommStats.signature()``
identical across repeats of one seed and equal to a ``serial``-backend
run, and (on ``procs``) no shared-memory segment left behind.  The last
line of standard output is a JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero if any call failed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # setup_s counts from here: imports + graph

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

NUM_PARTS = 16

#: Setup is measured at least this many times per run (this process plus
#: fresh interpreters), and more while the fresh ones have taken less than
#: ``SETUP_BUDGET_S`` in all (up to ``SETUP_MAX_SAMPLES``); the median is
#: reported.  Cheap set-ups thus get more samples.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 3.0
SETUP_MAX_SAMPLES = 11


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a suite graph and how it is partitioned.

    ``param_seeds`` distinct ``PulpParams.seed`` values (derived from the
    run seed) are each run at least twice per run: quality and modeled
    time are averaged over them, which narrows their spread across run
    seeds, and the repeat is the determinism check.
    """

    name: str
    graph: str
    scale: str
    backend: str
    nprocs: int
    multilevel: bool
    param_seeds: int

    def seeds(self, seed: int) -> List[int]:
        return [seed * 100 + k for k in range(self.param_seeds)]


#: Why each workload is here, and why a many-rank ``serial`` mesh is not
#: one of them: README.md.  Both run 2 ranks, one per core.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    # the default pipeline and backend: sweep kernels do most of the work
    Workload("flat-rmat", "rmat", "large", "threads", 2, False, 2),
    # hierarchy building, the procs slot protocol and the shm data plane
    Workload("ml-social", "social", "medium", "procs", 2, True, 3),
]}

#: Metric name -> unit, for the end-to-end (untraced) result line.
END_TO_END_UNITS = {
    "setup_s": "s",
    "partition_s": "s",
    "partition_cpu_s": "s",
    "modeled_s": "s",
    "cut_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_excess", "coverage")):
        return "ratio"
    if name == "simmpi.bytes":
        return "bytes"
    return "count"


def _cpu_seconds() -> float:
    """CPU of this process plus every reaped child (procs rank processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


class Bench:
    """Runs checked ``xtrapulp()`` calls of one workload and keeps score."""

    def __init__(self, wl: Workload, graph: Any) -> None:
        from repro.core import PulpParams, partition_quality, xtrapulp

        self.wl = wl
        self.graph = graph
        self._params = PulpParams
        self._quality = partition_quality
        self.xtrapulp = xtrapulp
        self.attempted = 0
        self.failed = 0
        #: first outcome seen per (param seed): later repeats must match
        self.first: Dict[int, checks.Outcome] = {}
        #: one result per param seed, for quality and modeled time
        self.results: Dict[int, Any] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def call(
        self, pseed: int, backend: str, fn: Optional[Callable[..., Any]] = None
    ) -> Optional[Tuple[Any, float, float]]:
        """One checked call; returns ``(result, wall_s, cpu_s)`` or None
        if it raised or failed a check."""
        fn = fn or self.xtrapulp
        wl = self.wl
        self.attempted += 1
        label = f"{wl.name} param-seed {pseed} on {backend}"
        params = self._params(seed=pseed, multilevel=wl.multilevel)
        shm_before = checks.shm_segments(os.getpid())
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            res = fn(self.graph, NUM_PARTS, nprocs=wl.nprocs, params=params,
                     backend=backend)
        except Exception as exc:  # a failed call is a result, not a crash
            self.fail(f"{label}: raised {exc!r}")
            return None
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        errors = checks.label_errors(res.parts, self.graph.n, NUM_PARTS)
        leaked = checks.shm_segments(os.getpid()) - shm_before
        if leaked:
            errors.append(f"left shared-memory segments {sorted(leaked)}")
        got = checks.outcome_of(res.parts, res.stats.signature())
        expected = self.first.setdefault(pseed, got)
        errors += checks.mismatch(expected, got, "the first run of the seed")
        if errors:
            self.fail(f"{label}: {'; '.join(errors)}")
            return None
        self.results.setdefault(pseed, res)
        return res, wall, cpu

    def cross_check(self, pseed: int) -> None:
        """The cross-backend invariant: a ``serial`` run of the same inputs
        must reproduce the partition and the communication record."""
        if self.wl.backend != "serial" and pseed in self.first:
            self.call(pseed, "serial")

    def quality(self, pseed: int) -> Dict[str, float]:
        res = self.results[pseed]
        q = self._quality(self.graph, res.parts, NUM_PARTS)
        p = res.params
        return {
            "modeled_s": res.modeled_seconds,
            "cut_ratio": q.cut_ratio,
            "max_cut_ratio": q.max_cut_ratio,
            "vbal_excess": checks.excess(q.vertex_balance, p.vert_imbalance),
            "ebal_excess": checks.excess(q.edge_balance, p.edge_imbalance),
        }

    def mean_quality(self) -> Dict[str, float]:
        per_seed = [self.quality(s) for s in sorted(self.results)]
        return {k: statistics.fmean(q[k] for q in per_seed)
                for k in per_seed[0]} if per_seed else {}


def _fmt(values: List[float]) -> str:
    return "[" + " ".join(f"{v:.3f}" for v in values) + "]"


def _setup_probe(wl: Workload, seed: int) -> float:
    """Setup time of a fresh interpreter (imports + graph generation)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", wl.name, "--seed", str(seed)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_untraced(bench: Bench, seed: int, seconds: float,
                 setup_s: float) -> Dict[str, float]:
    wl = bench.wl
    seeds = wl.seeds(seed)
    walls: List[float] = []
    cpus: List[float] = []
    t_loop = time.perf_counter()
    i = 0
    while i < 2 * len(seeds) or time.perf_counter() - t_loop < seconds:
        got = bench.call(seeds[i % len(seeds)], wl.backend)
        i += 1
        if got is not None:
            walls.append(got[1])
            cpus.append(got[2])
    peak_rss = _peak_rss_mb()  # before the reference run and the probes
    bench.cross_check(seeds[0])
    setups = [setup_s]
    t_probe = time.perf_counter()
    while len(setups) < SETUP_SAMPLES or (
            len(setups) < SETUP_MAX_SAMPLES
            and time.perf_counter() - t_probe < SETUP_BUDGET_S):
        setups.append(_setup_probe(wl, seed))
    quality = bench.mean_quality()
    print(f"# {wl.name}: {len(walls)} calls over {len(seeds)} param seeds, "
          f"wall {_fmt(walls)} s, cpu {_fmt(cpus)} s; setup {_fmt(setups)} s")
    print("# quality (mean over param seeds): " + ", ".join(
        f"{k}={v:.6g}" for k, v in quality.items()))
    if not walls:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "partition_s": statistics.median(walls),
        "partition_cpu_s": statistics.median(cpus),
        "modeled_s": quality["modeled_s"],
        "cut_ratio": quality["cut_ratio"],
        "peak_rss_mb": peak_rss,
    }


def run_traced(bench: Bench, seed: int, seconds: float,
               generate_s: float) -> Dict[str, float]:
    """Alternate untraced and traced calls of the first param seed; the
    per-layer metrics are medians over the traced calls."""
    wl = bench.wl
    pseed = wl.seeds(seed)[0]
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = tracing.Tracer(wl.name, OUT_DIR)
    traced_xtrapulp = tracer.wrap(tracing.CALL_SPAN, bench.xtrapulp)
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    layers: List[Dict[str, float]] = []
    t_loop = time.perf_counter()
    while len(layers) < 2 or time.perf_counter() - t_loop < seconds:
        got = bench.call(pseed, wl.backend)
        if got is not None:
            plain_walls.append(got[1])
        tracer.run_id += 1
        with tracing.installed(tracer):
            got = bench.call(pseed, wl.backend, fn=traced_xtrapulp)
        tracer.collect()
        if got is None:
            if bench.attempted > 8:
                break  # a persistent failure: stop, the result says so
            continue
        res = got[0]
        traced_walls.append(got[1])
        spans = [s for s in tracer.spans if s.run == tracer.run_id]
        row = tracing.summarize(spans, backend=wl.backend)
        row["simmpi.supersteps"] = res.stats.rounds
        row["simmpi.bytes"] = res.stats.total_bytes
        row["core.work_units"] = res.stats.total_work
        ml = res.multilevel
        row["multilevel.levels"] = ml.levels if ml is not None else 0
        row["multilevel.coarsest_n"] = ml.coarsest_n if ml is not None else 0
        layers.append(row)
    bench.cross_check(pseed)
    path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(tracer.chrome_trace(), fh)
    print(f"# {wl.name}: traced calls {_fmt(traced_walls)} s, untraced "
          f"{_fmt(plain_walls)} s; spans in {os.path.relpath(path, ROOT)}")
    if not layers or not plain_walls:
        return {}
    metrics = {k: statistics.median(row[k] for row in layers)
               for k in layers[0]}
    metrics["graph.generate_s"] = generate_s
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    if pseed in bench.results:
        q = bench.quality(pseed)
        for k in ("max_cut_ratio", "vbal_excess", "ebal_excess"):
            metrics[k] = q[k]
    return metrics


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop and reap multiprocessing's resource tracker, if it was started.

    ``multiprocessing.shared_memory`` (the ``procs`` backend) starts the
    tracker as a separate process that outlives its parent by design and
    is never waited for, so it would be left behind as a zombie.  Closing
    its pipe makes it exit; it is then waited for, and killed if it has
    not ended within ``timeout`` seconds.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except (ChildProcessError, ProcessLookupError):  # already reaped
        pass


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(parse_args(argv))
    finally:
        stop_resource_tracker()


def _main(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    # the benchmark pins its configuration: no REPRO_* override from the
    # calling environment may change backend, comm or integrity defaults
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    from repro.suite import get_graph

    host0 = checks.cpu_counters()
    wl = WORKLOADS[args.workload]
    t_gen = time.perf_counter()
    graph = get_graph(wl.graph, wl.scale, seed=args.seed)
    generate_s = time.perf_counter() - t_gen
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    bench = Bench(wl, graph)
    if args.trace:
        metrics = run_traced(bench, args.seed, args.seconds, generate_s)
    else:
        metrics = run_untraced(bench, args.seed, args.seconds, setup_s)
    steal = checks.steal_frac(host0, checks.cpu_counters())
    failed_frac = bench.failed / max(bench.attempted, 1)
    if args.trace:
        metrics["host.steal_frac"] = steal
        metrics["failed_frac"] = failed_frac
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        units = END_TO_END_UNITS
    print(f"# host.steal_frac={steal:.4f} failed_frac={failed_frac:.4f} "
          f"(graph n={graph.n} m={graph.num_edges})")
    for name in sorted(metrics):
        print(f"# {name:34s} {metrics[name]:.6g} {units[name]}")
    correct = bench.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
