"""Non-blocking panel broadcast along process rows (look-ahead depth 1).

After the stage-k panel is factored in process column ``k mod Q``, every
other column needs the L rows matching *its own* local rows before it
can run the trailing update. Each rank of the owner column therefore
broadcasts its local slice of the factored panel along its process row —
the "L broadcast" of the HPL stage (and the ``t_lbcast`` term of the
hybrid timing model). At depth 0 that is a blocking collective
(``Comm.bcast`` or one of :mod:`repro.cluster.bcast_algos`).

The ``ibcast_panel_*`` helpers are the depth-1 form: the owner *starts*
the broadcast with ``isend`` (star fan-out, or a store-and-forward ring
for HPL's "ring-modified" shape) and returns immediately; receivers
post an ``irecv`` up front and collect the panel one stage later, after
their trailing update has been running while the message drained.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.cluster.comm import Comm, RecvRequest, SendRequest
from repro.cluster.grid import ProcessGrid


def _ring_order(grid: ProcessGrid, my_row: int, owner_col: int) -> List[int]:
    """This process row's ranks, rotated so the owner column leads."""
    q = grid.q
    return [grid.rank_of(my_row, (owner_col + j) % q) for j in range(q)]


def ibcast_panel_start(
    comm: Comm,
    grid: ProcessGrid,
    payload: Any,
    owner_col: int,
    tag: int,
    algo: str = "star",
    chunk_bytes: Optional[int] = None,
) -> List[SendRequest]:
    """Owner-column side: start broadcasting ``payload`` along this
    rank's process row without blocking.

    ``star`` fans out one chunked ``isend`` per row peer; ``ring-mod``
    (and ``ring``) send only to the ring successor — every receiver
    forwards in :func:`ibcast_panel_finish`, store-and-forward, so each
    link carries the payload once and the forwarding drains behind the
    next stage's compute. Returns the send requests to ``waitall`` on
    before the run tears down.
    """
    my_row, _ = grid.coords(comm.rank)
    order = _ring_order(grid, my_row, owner_col)
    if len(order) == 1:
        return []
    if algo in ("ring", "ring-mod"):
        dests = [order[1]]
    else:  # star fan-out; "binomial" also runs as a star, on every grid
        dests = order[1:]
    return [
        comm.isend(payload, dest, tag=tag, chunk_bytes=chunk_bytes, op="bcast")
        for dest in dests
    ]


def ibcast_panel_post(
    comm: Comm,
    grid: ProcessGrid,
    owner_col: int,
    tag: int,
    algo: str = "star",
) -> RecvRequest:
    """Receiver side: post the panel ``irecv`` (from the owner for
    ``star``, from the ring predecessor for ``ring``/``ring-mod``)."""
    my_row, _ = grid.coords(comm.rank)
    order = _ring_order(grid, my_row, owner_col)
    rel = order.index(comm.rank)
    source = order[rel - 1] if algo in ("ring", "ring-mod") else order[0]
    return comm.irecv(source, tag=tag)


def ibcast_panel_finish(
    comm: Comm,
    grid: ProcessGrid,
    request: RecvRequest,
    owner_col: int,
    tag: int,
    algo: str = "star",
    chunk_bytes: Optional[int] = None,
) -> Tuple[Any, List[SendRequest]]:
    """Receiver side: wait for the panel; ring shapes forward it to the
    ring successor with ``isend`` before returning. Returns the payload
    and any forwarding requests (to ``waitall`` on at teardown)."""
    payload = request.wait()
    sends: List[SendRequest] = []
    if algo in ("ring", "ring-mod"):
        my_row, _ = grid.coords(comm.rank)
        order = _ring_order(grid, my_row, owner_col)
        rel = order.index(comm.rank)
        if rel + 1 < len(order):
            sends.append(
                comm.isend(
                    payload, order[rel + 1], tag=tag, chunk_bytes=chunk_bytes, op="bcast"
                )
            )
    return payload, sends
