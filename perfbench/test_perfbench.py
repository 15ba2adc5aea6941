"""Tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

from repro.graph import generators  # noqa: E402


@pytest.fixture(scope="module")
def graph():
    return generators.rmat(9, avg_degree=8, seed=3)


def tiny(backend: str = "serial", multilevel: bool = False) -> run.Workload:
    return run.Workload("tiny", "rmat", "tiny", backend, 2, multilevel, 2)


def _benchmark_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- excess formulas ---------------------------------------------------------

@pytest.mark.parametrize("balance", [1.0, 1.05, 1.1])
def test_excess_is_zero_when_the_bound_holds(balance):
    assert checks.excess(balance, 0.10) == 0.0


def test_excess_measures_the_overshoot():
    assert checks.excess(1.25, 0.10) == pytest.approx(0.15)
    assert checks.excess(1.0, 0.0) == 0.0


# -- correctness gate --------------------------------------------------------

def test_label_errors_catch_corrupted_parts():
    parts = np.zeros(10, dtype=np.int64)
    assert checks.label_errors(parts, 10, 4) == []
    for bad in (-1, 4):
        corrupted = parts.copy()
        corrupted[7] = bad
        assert checks.label_errors(corrupted, 10, 4)
    assert checks.label_errors(parts[:9], 10, 4)


def test_mismatch_catches_a_different_signature():
    parts = np.arange(6) % 2
    sig = [("allreduce", "init", [8, 8], [1.0, 1.0])]
    ref = checks.outcome_of(parts, sig)
    assert checks.mismatch(ref, checks.outcome_of(parts.copy(), list(sig)),
                           "ref") == []
    other = [("allreduce", "init", [8, 16], [1.0, 1.0])]
    errors = checks.mismatch(ref, checks.outcome_of(parts, other), "ref")
    assert errors == ["CommStats.signature() differs from ref"]
    flipped = parts.copy()
    flipped[0] ^= 1
    assert checks.mismatch(ref, checks.outcome_of(flipped, sig), "ref") == [
        "parts differ from ref"]


def test_bench_counts_a_corrupted_partition_as_failed(graph):
    bench = run.Bench(tiny(), graph)
    assert bench.call(5, "serial") is not None

    def corrupting(*args, **kwargs):
        res = bench.xtrapulp(*args, **kwargs)
        res.parts[3] = run.NUM_PARTS  # out of range
        return res

    assert bench.call(5, "serial", fn=corrupting) is None
    assert (bench.attempted, bench.failed) == (2, 1)


def test_bench_counts_a_mismatched_signature_as_failed(graph):
    bench = run.Bench(tiny(), graph)
    assert bench.call(5, "serial") is not None

    def extra_event(*args, **kwargs):
        res = bench.xtrapulp(*args, **kwargs)
        res.stats.events.append(res.stats.events[-1])
        return res

    assert bench.call(5, "serial", fn=extra_event) is None
    assert bench.failed == 1


def test_cross_backend_check_passes_on_the_unmodified_library(graph):
    bench = run.Bench(tiny("threads"), graph)
    assert bench.call(7, "threads") is not None
    bench.cross_check(7)
    assert (bench.attempted, bench.failed) == (2, 0)


# -- tracing -----------------------------------------------------------------

def test_installed_restores_every_patched_name():
    from repro.core import driver
    from repro.core.state import RankState
    from repro.simmpi.comm import SimComm

    before = (driver._rank_main, dict(driver._PHASE_FUNCS),
              RankState.block_part_counts, SimComm._collective)
    with tracing.installed(tracing.Tracer("t", HERE)):
        assert driver._rank_main is not before[0]
    after = (driver._rank_main, dict(driver._PHASE_FUNCS),
             RankState.block_part_counts, SimComm._collective)
    assert after == before


def test_span_self_cpu_excludes_children():
    tr = tracing.Tracer("t", HERE)
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: inner() + inner())
    outer()
    by_name = {s.name: s for s in tr.spans}
    spans = [s for s in tr.spans if s.name == "inner"]
    assert len(spans) == 2
    assert all(s.parent == by_name["outer"].id for s in spans)
    assert by_name["outer"].child_cpu == pytest.approx(
        sum(s.cpu for s in spans))


@pytest.mark.parametrize("backend,multilevel", [
    ("threads", False), ("procs", True),
])
def test_traced_run_reports_every_listed_layer(graph, backend, multilevel):
    bench = run.Bench(tiny(backend, multilevel), graph)
    metrics = run.run_traced(bench, seed=1, seconds=0.0, generate_s=0.01)
    assert bench.failed == 0
    assert metrics["trace.rank_coverage"] >= 0.9
    assert metrics["simmpi.collectives"] == 2 * metrics["simmpi.supersteps"]
    assert metrics["core.frontier.scored"] > 0
    assert (metrics["multilevel.levels"] > 0) == multilevel
    listed = {m["name"] for m in _benchmark_spec()["per_layer"]}
    emitted = set(metrics) | {"host.steal_frac", "failed_frac"}
    assert emitted == listed
    if backend == "procs":
        assert not [f for f in os.listdir(run.OUT_DIR)
                    if f.startswith("spans-")]


def test_traced_counts_equal_a_direct_call(graph):
    bench = run.Bench(tiny(), graph)
    metrics = run.run_traced(bench, seed=2, seconds=0.0, generate_s=0.01)
    res = bench.xtrapulp(graph, run.NUM_PARTS, nprocs=2, backend="serial",
                         params=bench._params(seed=200))
    assert metrics["simmpi.bytes"] == res.stats.total_bytes
    assert metrics["simmpi.supersteps"] == res.stats.rounds
    assert metrics["core.work_units"] == res.stats.total_work


# -- result-line contract ----------------------------------------------------

def test_metric_names_and_units_match_the_spec():
    spec = _benchmark_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    for m in spec["per_layer"]:
        assert run.per_layer_unit(m["name"]) == m["unit"]
    names = list(e2e) + [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(checks.METRIC_NAME.fullmatch(n) for n in names)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_workload_param_seeds_derive_from_the_run_seed():
    wl = dataclasses.replace(tiny(), param_seeds=3)
    assert wl.seeds(4) == [400, 401, 402]
    assert wl.seeds(4) != wl.seeds(5)


def test_untraced_run_emits_exactly_the_end_to_end_metrics(graph, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)  # no fresh interpreters
    monkeypatch.setattr(run, "SETUP_MAX_SAMPLES", 1)
    bench = run.Bench(tiny("threads"), graph)
    metrics = run.run_untraced(bench, seed=1, seconds=0.0, setup_s=0.5)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())
    # two param seeds, each run twice, plus the serial cross-check
    assert (bench.attempted, bench.failed) == (5, 0)


def test_stop_resource_tracker_reaps_the_tracker_process():
    from multiprocessing import resource_tracker, shared_memory

    seg = shared_memory.SharedMemory(create=True, size=16)  # starts it
    seg.close()
    seg.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # exited and already waited for
        os.waitpid(pid, os.WNOHANG)
    run.stop_resource_tracker()  # idempotent when not running
