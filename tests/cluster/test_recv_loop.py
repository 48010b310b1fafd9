"""The one blocking receive loop: a peer that is gone fails fast.

A receive whose peer has returned (or raised), whose background sender
has drained and whose mailbox holds nothing more can never complete.
Plain mode raises at once instead of waiting out the 60 s deadline;
reliable mode still heals a dropped last message by resend.
"""

import sys
import time

import numpy as np
import pytest

from repro.cluster.comm import CommError, RankDeadError, World
from repro.resilience import FaultInjector, FaultPlan, RetryPolicy


def _timed_failure(world, body):
    t0 = time.perf_counter()
    with pytest.raises(BaseException) as info:
        world.run(body)
    return info.value, time.perf_counter() - t0


class TestGonePeer:
    def test_recv_from_returned_peer_raises_in_under_a_second(self):
        def body(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=7)  # rank 1 never sends

        exc, elapsed = _timed_failure(World(2), body)
        assert type(exc) is CommError
        assert elapsed < 1.0
        msg = str(exc)
        assert "rank 0" in msg and "peer 1" in msg and "tag 7" in msg

    def test_waited_irecv_from_returned_peer_raises(self):
        def body(comm):
            if comm.rank == 0:
                comm.irecv(1, tag=3).wait()

        exc, elapsed = _timed_failure(World(2), body)
        assert isinstance(exc, CommError) and "tag 3" in str(exc)
        assert elapsed < 1.0

    def test_isend_still_draining_is_not_gone(self):
        # The sender returns right after posting an isend whose drain is
        # held up; the receive sees an exited peer and an empty mailbox
        # for a while, but the background sender is still busy, so it
        # waits for the message rather than declaring the peer gone.
        world = World(2)
        sender = world.comms[1]
        deliver = sender._deliver

        def slow_deliver(*args):
            time.sleep(0.3)
            deliver(*args)

        sender._deliver = slow_deliver

        def body(comm):
            if comm.rank == 1:
                comm.isend(np.arange(8.0), 0, tag=5)
                return None
            return comm.recv(source=1, tag=5)

        np.testing.assert_array_equal(world.run(body)[0], np.arange(8.0))

    def test_message_sent_before_return_is_delivered(self):
        def body(comm):
            if comm.rank == 1:
                comm.send("late", 0, tag=9)
                return None
            time.sleep(0.1)  # the sender has long returned
            return comm.recv(source=1, tag=9)

        assert World(2).run(body)[0] == "late"

    def test_no_false_gone_while_senders_exit_under_thread_churn(self):
        # Half the ranks post a chunked isend and return at once, so
        # their background senders drain after the body has exited;
        # with more ranks than cores and a tiny switch interval, no
        # receive may mistake a draining peer for a gone one.
        payload = np.arange(2048, dtype=np.float64)

        def body(comm):
            half = comm.size // 2
            if comm.rank < half:
                comm.isend(payload + comm.rank, comm.rank + half, tag=1,
                           chunk_bytes=256)
                return None
            return comm.recv(source=comm.rank - half, tag=1)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            for _ in range(20):
                results = World(6).run(body)
                for src in range(3):
                    np.testing.assert_array_equal(results[src + 3],
                                                  payload + src)
        finally:
            sys.setswitchinterval(old)
        assert time.perf_counter() - t0 < 60.0

    def test_plain_mode_surfaces_dead_peer(self):
        seen = []

        def body(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            try:
                comm.recv(source=1, tag=2)
            except CommError as exc:
                seen.append(exc)
                raise

        exc, elapsed = _timed_failure(World(2), body)
        assert isinstance(exc, ValueError)  # the root cause wins
        assert len(seen) == 1 and isinstance(seen[0], RankDeadError)
        assert elapsed < 1.0


class TestReliableGonePeer:
    def test_dropped_last_message_heals_without_stalling(self):
        # The sender's only message is dropped and it returns. No later
        # message reveals the gap, and the slice is 30 s: only the gone
        # check's immediate resend request can heal it in time.
        injector = FaultInjector(FaultPlan.parse("drop:op=send"))
        world = World(2, injector=injector,
                      retry=RetryPolicy(comm_timeout_s=30.0, max_retries=2))

        def body(comm):
            if comm.rank == 0:
                comm.send(np.arange(64.0), dest=1, tag=3)
                return None
            return comm.recv(source=0, tag=3).copy()

        t0 = time.perf_counter()
        results = world.run(body)
        assert time.perf_counter() - t0 < 5.0
        np.testing.assert_array_equal(results[1], np.arange(64.0))
        assert world.comms[1].rstats.snapshot()["resend_requests"] >= 1
        assert world.comms[0].rstats.snapshot()["resends"] >= 1
