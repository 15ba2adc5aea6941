"""Result-delivery helpers shared by every backend.

The in-process backends (``serial``/``threads``) share one address space,
so a collective can hand every rank the *same* result object instead of a
private copy per rank — provided nobody mutates it.  :func:`seal` marks a
shared result read-only, and :func:`materialize` is the copy-on-write
escape hatch a rank uses when it must mutate a received buffer.

The ``procs`` backend needs neither: its results are pickled into the
rendezvous slots and copied out on receive, so every rank already owns
writable data (see :mod:`repro.simmpi.backends.procs`).
"""

from __future__ import annotations

import os

import numpy as np


def materialize(arr: np.ndarray) -> np.ndarray:
    """Copy-on-write helper: a writable version of a received buffer.

    Zero-copy for arrays that already own writable data; copies only
    read-only buffers — the in-process backends' shared (sealed)
    collective results.
    """
    if isinstance(arr, np.ndarray) and not arr.flags.writeable:
        return arr.copy()
    return arr


#: Environment variable consulted when ``create_runtime(result_sharing=None)``.
RESULT_SHARING_ENV_VAR = "REPRO_RESULT_SHARING"

#: Result-delivery modes of the in-process backends: ``shared`` hands every
#: rank the *same* sealed (read-only) result array — O(P) result bytes per
#: collective instead of the O(P^2) of per-rank copies — while ``copy``
#: keeps the historical private-copy path as the bit-identity verification
#: mode.  Values are identical either way; a rank that must mutate a
#: received result calls :func:`materialize` first.
RESULT_SHARING_MODES = ("shared", "copy")

DEFAULT_RESULT_SHARING = "shared"


def default_result_sharing() -> str:
    """The result-sharing mode used when none is requested explicitly."""
    name = os.environ.get(RESULT_SHARING_ENV_VAR) or DEFAULT_RESULT_SHARING
    if name not in RESULT_SHARING_MODES:
        raise ValueError(
            f"${RESULT_SHARING_ENV_VAR}={name!r} is not a valid result-"
            f"sharing mode; choices: {RESULT_SHARING_MODES}"
        )
    return name


def seal(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only so it can be shared across in-process ranks.

    A sealed result object is handed to *every* rank of a collective, and
    any accidental in-place mutation raises instead of silently leaking
    into other ranks.
    """
    arr.flags.writeable = False
    return arr
