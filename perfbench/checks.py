"""Correctness checks and host probes used by the benchmark command.

Kept free of ``repro`` imports so the tests can exercise them on plain
arrays and stub objects.
"""

from __future__ import annotations

import glob
import hashlib
import os
import re
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Set, Tuple

import numpy as np

#: Every emitted metric name must match this (the result-line contract).
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def excess(balance: float, ratio: float) -> float:
    """How far a balance exceeds the paper's bound ``1 + ratio``; 0 when
    the constraint holds (``vbal_excess`` / ``ebal_excess``)."""
    return max(0.0, float(balance) - (1.0 + float(ratio)))


def label_errors(parts: np.ndarray, n: int, num_parts: int) -> List[str]:
    """Problems with a gathered partition: every vertex needs a label in
    ``[0, num_parts)``."""
    parts = np.asarray(parts)
    if parts.shape != (n,):
        return [f"parts has shape {parts.shape}, expected ({n},)"]
    bad = np.flatnonzero((parts < 0) | (parts >= num_parts))
    if bad.size:
        return [f"{bad.size} vertices labelled outside [0, {num_parts}), "
                f"first at vertex {int(bad[0])} = {int(parts[bad[0]])}"]
    return []


@dataclass(frozen=True)
class Outcome:
    """What must repeat bit-for-bit: the partition and the communication
    record (``CommStats.signature()``)."""

    parts: str
    signature: str


def outcome_of(parts: np.ndarray, signature: Sequence[Any]) -> Outcome:
    parts_hash = hashlib.sha256(
        np.ascontiguousarray(parts, dtype=np.int64).tobytes()
    ).hexdigest()
    sig_hash = hashlib.sha256(repr(signature).encode()).hexdigest()
    return Outcome(parts=parts_hash, signature=sig_hash)


def mismatch(expected: Outcome, got: Outcome, what: str) -> List[str]:
    """Differences between two outcomes of the same inputs."""
    errors = []
    if got.parts != expected.parts:
        errors.append(f"parts differ from {what}")
    if got.signature != expected.signature:
        errors.append(f"CommStats.signature() differs from {what}")
    return errors


def shm_segments(owner_pid: int) -> Set[str]:
    """``/dev/shm`` entries a procs run of process ``owner_pid`` could leak:
    the backend's ``simmpi<pid>x*`` sessions and anonymous ``psm_*``."""
    names: Set[str] = set()
    for pattern in (f"simmpi{owner_pid}x*", "psm_*"):
        names.update(os.path.basename(p)
                      for p in glob.glob(os.path.join("/dev/shm", pattern)))
    return names


def cpu_counters() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` jiffies of the host's aggregate cpu line, or None
    where ``/proc/stat`` is unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal (guest* is in user)
    ticks = [int(x) for x in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_frac(before: Optional[Tuple[int, int]],
               after: Optional[Tuple[int, int]]) -> float:
    """Share of host CPU time stolen by the hypervisor between two reads."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])
