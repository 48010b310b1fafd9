"""What each workload runs, as RunSpec dicts drawn from the workload seed.

The program only ever sees the generated spec dicts; the seed stays
with the benchmark. Matrix seeds are fresh for every timed operation,
so a memo keyed on the spec cannot fake a gain.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORKLOADS = ("dist-regrid", "service-mix")

#: The timed dist-regrid solve (``seed`` filled per solve).
SOLVE_SPEC = {
    "kind": "distributed", "n": 1024, "nb": 64, "p": 1, "q": 2,
    "lookahead": "on", "workers": 1, "checkpoint_every": 4,
    "regrid": ["panel=8:2x1"],
}

#: The small dist-regrid spec: answered once per set-up spawn, and the
#: request of the latency probe.
TINY_SPEC = {
    "kind": "distributed", "n": 128, "nb": 32, "p": 1, "q": 2,
    "lookahead": "on", "workers": 1, "checkpoint_every": 2,
    "regrid": ["panel=2:2x1"],
}

#: The small service-mix spec, answered once per set-up spawn.
SERVICE_TINY_SPEC = {
    "kind": "native", "numeric": True, "n": 128, "nb": 64, "workers": 1,
}

#: Service-mix request classes. The reference class (the native numeric
#: path) sets the workload's time_to_solution_s, its floors and its
#: kernel-layer breakdown.
SERVICE_CLASSES: Dict[str, dict] = {
    "native-256": {"kind": "native", "numeric": True, "n": 256, "nb": 64,
                   "workers": 1},
    "native-384": {"kind": "native", "numeric": True, "n": 384, "nb": 64,
                   "workers": 1},
    "mxp-384": {"kind": "native", "numeric": True, "n": 384, "nb": 64,
                "workers": 1, "dtype": "float32", "mxp": True},
    "dist-256-sync": {"kind": "distributed", "n": 256, "nb": 32, "p": 1,
                      "q": 2, "lookahead": "off", "workers": 1},
    "des-12000": {"kind": "native", "n": 12000},
    "hybrid-84000": {"kind": "hybrid", "n": 84000},
}
SERVICE_REFERENCE_CLASS = "native-384"

#: One service-mix pass, in submission order. Each turn is taken by
#: the next free client, which submits its slots at once and waits for
#: all of them. A class name starts a fresh request; an int repeats the
#: request at that earlier position of the pass (rows counted across
#: turns). The two bursts queue compatible jobs together, so the
#: ``Batcher`` coalesces them, and the repeat inside the first one
#: drafts behind its in-flight original (single-flight). 14 fresh
#: requests and 5 repeats (26%) in every pass, whatever the seed.
PASS_TEMPLATE: Tuple[Tuple, ...] = (
    ("native-256",), ("des-12000",), ("native-384",),
    ("hybrid-84000", "hybrid-84000", 3),
    ("mxp-384",), ("dist-256-sync",), (0,), ("native-256",),
    ("native-384",), ("des-12000",), ("mxp-384",), (2,),
    ("dist-256-sync",), ("native-256", "native-384"), (10,), (12,),
)

#: Time counted for a failed operation: it misses every latency limit.
FAILED_S = 60.0

#: Fresh spawns timed for setup_s (median reported), spread over the
#: window between operations so that no one slow spell of the host
#: takes them all.
SETUP_SPAWNS = 11


def setup_due(taken: int, elapsed: float, seconds: float) -> bool:
    """Whether the next set-up spawn is due, ``elapsed`` seconds into
    the window: spawn ``i`` runs once ``i / SETUP_SPAWNS`` of it passed."""
    return taken < SETUP_SPAWNS and elapsed >= taken * seconds / SETUP_SPAWNS


def hpl_flops(n: int) -> float:
    """The HPL operation count of one solve: 2/3 n^3 + 2 n^2."""
    return 2.0 / 3.0 * n**3 + 2.0 * n**2


def rng_for(workload: str, seed: int) -> random.Random:
    """The workload's input generator; one seed gives one input stream."""
    return random.Random(f"wallbench:{workload}:{seed}")


def with_seed(spec: dict, rng: random.Random) -> dict:
    """``spec`` with a fresh matrix seed drawn from ``rng``."""
    return {**spec, "seed": rng.randrange(1, 2**31)}


Row = Tuple[str, dict, bool]


def service_pass(rng: random.Random) -> List[List[Row]]:
    """One pass of the service mix: turns of ``(class, spec, is_repeat)``."""
    rows: List[Row] = []
    turns: List[List[Row]] = []
    for turn in PASS_TEMPLATE:
        start = len(rows)
        for slot in turn:
            if isinstance(slot, int):
                cls, spec, _ = rows[slot]
                rows.append((cls, spec, True))
            else:
                rows.append((slot, with_seed(SERVICE_CLASSES[slot], rng), False))
        turns.append(rows[start:])
    return turns


def service_warmup(rng: random.Random) -> List[Tuple[str, dict]]:
    """One untimed request of every class."""
    return [(c, with_seed(s, rng)) for c, s in SERVICE_CLASSES.items()]
