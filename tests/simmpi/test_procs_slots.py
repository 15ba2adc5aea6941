"""Unit tests for the procs backend's rendezvous slots.

Covers the slot wire format (:mod:`repro.simmpi.backends.procs`), the
``_sanitize_exc`` stand-in contract, the copy-on-write helper
(:mod:`repro.simmpi.dataplane`), and small end-to-end collective programs
checked against the serial backend.
"""

import os
import pickle

import numpy as np
import pytest

from repro.simmpi import dataplane
from repro.simmpi.backends import create_runtime
from repro.simmpi.backends.procs import _Slot, _sanitize_exc, _sweep_shm
from repro.simmpi.errors import UnpicklableRankError

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)

#: Payload unit: 2 * BIG int64 values outgrow a slot's initial 64 KiB
#: segment, so the end-to-end programs exercise slot growth.
BIG = 4096


@pytest.fixture
def prefix():
    """A unique slot name prefix, swept clean afterwards."""
    name = f"simmpi0xslottest{os.getpid()}"
    yield name
    _sweep_shm(name)


# -- copy-on-write helper ----------------------------------------------------


def test_materialize_copies_only_read_only_arrays():
    writable = np.arange(10)
    assert dataplane.materialize(writable) is writable
    frozen = np.arange(10)
    frozen.setflags(write=False)
    out = dataplane.materialize(frozen)
    assert out is not frozen
    assert out.flags.writeable
    np.testing.assert_array_equal(out, frozen)


# -- slot wire format --------------------------------------------------------


def test_slot_roundtrip_inlines_everything(prefix):
    slot = _Slot(prefix + "req0")
    try:
        big = np.arange(4 * BIG, dtype=np.uint8)
        small = np.arange(4, dtype=np.int64)
        slot.write(("coll", big, small))
        kind, rbig, rsmall = slot.read("own")
        assert kind == "coll"
        np.testing.assert_array_equal(rbig, big)
        np.testing.assert_array_equal(rsmall, small)
        # "own" copies every buffer out, privately writable
        assert rbig.flags.writeable and rsmall.flags.writeable
        # "borrow" reads the same values through slot windows
        _, bbig, bsmall = slot.read("borrow")
        np.testing.assert_array_equal(bbig, big)
        np.testing.assert_array_equal(bsmall, small)
        del bbig, bsmall  # drop the slot windows before unlinking
    finally:
        slot.unlink()


# -- _sanitize_exc -----------------------------------------------------------


def test_sanitize_passes_picklable_exceptions_through():
    exc = ValueError("plain")
    assert _sanitize_exc(exc) is exc


def test_sanitize_preserves_args_and_traceback():
    def boom():
        raise RuntimeError("ctx", lambda: None)  # lambda: unpicklable

    try:
        boom()
    except RuntimeError as exc:
        out = _sanitize_exc(exc)
    assert isinstance(out, UnpicklableRankError)
    assert out.original_type == "RuntimeError"
    assert out.original_args[0] == "ctx"
    assert "lambda" in out.original_args[1]
    assert "boom" in out.original_traceback  # formatted traceback survives
    # the stand-in itself round-trips, attributes included
    back = pickle.loads(pickle.dumps(out))
    assert back.original_type == "RuntimeError"
    assert "boom" in back.original_traceback


def test_unpicklable_rank_exception_reaches_parent_with_context():
    def fail(comm):
        if comm.rank == 1:
            raise RuntimeError("details", lambda: None)
        comm.barrier()

    rt = create_runtime("procs", nprocs=2, meter_compute=False)
    with pytest.raises(Exception) as info:
        rt.run(fail)
    chain = []
    e = info.value
    while e is not None:
        chain.append(e)
        e = e.__cause__
    stand_in = next(
        (x for x in chain if getattr(x, "original_type", None)), None
    )
    assert stand_in is not None
    assert stand_in.original_type == "RuntimeError"
    assert stand_in.original_args[0] == "details"
    assert "fail" in stand_in.original_traceback


# -- end-to-end against the serial backend ----------------------------------


def _collective_program(comm):
    rng = np.random.default_rng(100 + comm.rank)
    big = rng.integers(0, 1 << 30, size=2 * BIG, dtype=np.int64)
    cts = np.full(comm.size, big.size // comm.size, dtype=np.int64)
    cts[-1] += big.size - int(cts.sum())
    recv, rc = comm.Alltoallv(big, cts)
    merged, counts = comm.Allgatherv(big[:BIG])
    root_val = comm.Bcast(big if comm.rank == 0 else
                          np.empty(big.size, dtype=np.int64))
    total = comm.Allreduce(np.arange(BIG, dtype=np.int64))
    return (int(recv.sum()), int(rc.sum()), int(merged.sum()),
            int(counts.sum()), int(root_val.sum()), int(total.sum()))


def test_procs_collectives_match_serial():
    rt = create_runtime("procs", nprocs=3, meter_compute=False)
    got = rt.run(_collective_program)
    ref = create_runtime("serial", nprocs=3, meter_compute=False).run(
        _collective_program
    )
    assert got == ref
    assert rt.last_shm_reclaimed == []


def test_procs_results_are_private_writable_copies():
    def probe(comm):
        big = np.full(2 * BIG, comm.rank, dtype=np.int64)
        merged, _ = comm.Allgatherv(big)
        writable = bool(merged.flags.writeable)
        merged += 1  # a private copy: mutating it touches no other rank
        return writable, int(merged.sum())

    got = create_runtime("procs", nprocs=2, meter_compute=False).run(probe)
    assert got == [(True, 2 * 2 * BIG + 2 * BIG)] * 2
