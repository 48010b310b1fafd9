"""The dist-regrid workload process.

Started by :mod:`wallbench.run`. With ``--setup`` it is one set-up
sample: interpreter start, ``import repro.api`` and one tiny spec, then
``READY`` and exit; the workload process times it from launch to that
line. Otherwise it runs the workload and prints one ``RESULT <json>``
line.

Untraced (``--trace 0``): full-size solves until the window ends, with
a closed-loop probe of small requests and the set-up spawns spread
between them; every operation has a fresh matrix seed and its residual
check. Traced (``--trace 1``): untraced and traced solves alternate, so
the difference of their medians is the tracing overhead, and the traced
ones give the layer timings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from wallbench import host, tracing
from wallbench.workloads import (
    FAILED_S,
    SETUP_SPAWNS,
    SOLVE_SPEC,
    TINY_SPEC,
    rng_for,
    setup_due,
    with_seed,
)

#: Requests in the latency probe: 120 leaves 12 beyond the p90.
PROBE_REQUESTS = 120
#: The probe runs in this many chunks, one before each solve.
PROBE_CHUNKS = 6
#: Solves per run even when the window is shorter.
MIN_SOLVES = 3
#: Seconds a set-up spawn may take to get ready before it is killed.
READY_TIMEOUT_S = 60.0


def run_checked(spec: dict):
    """``(wall_s, result)`` of one ``repro.api.run``; raises unless passed."""
    from repro import api
    from repro.spec import RunSpec

    s = RunSpec.from_dict(spec)
    t0 = time.perf_counter()
    result = api.run(s)
    wall = time.perf_counter() - t0
    if result.passed is not True:
        raise RuntimeError(f"residual check failed: {result.residual!r}")
    return wall, result


def _attempt(spec: dict, tally: dict):
    """Run one operation, counting it; ``(wall_s, result or None)``.

    A failed operation takes ``FAILED_S``, so it misses every limit.
    """
    tally["attempted"] += 1
    try:
        return run_checked(spec)
    except Exception as exc:  # a failed operation is counted, not fatal
        tally["failed"] += 1
        print(f"operation failed: {exc!r}", file=sys.stderr)
        return FAILED_S, None


def setup_sample() -> float:
    """Seconds from launching a fresh ``--setup`` process to its ``READY``."""
    t0 = time.perf_counter()
    proc, line = host.launch(
        [sys.executable, "-m", "wallbench.worker", "--setup"], Path.cwd(),
        dict(os.environ), READY_TIMEOUT_S)
    took = time.perf_counter() - t0
    proc.communicate(timeout=READY_TIMEOUT_S)
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {line!r}, "
                           f"exit {proc.returncode}")
    return took


def layer_metrics(tr: tracing.Tracer, result) -> dict:
    """Per-layer figures of one traced solve (rank-summed seconds)."""
    busy, calls, counts = tr.busy(), tr.calls(), tr.counts
    gemm_s = busy.get("blas.gemm", 0.0)
    res = getattr(result, "resilience", None) or {}
    return {
        "blas.getrf.busy_s": busy.get("blas.getrf", 0.0),
        "blas.getrf.calls": calls.get("blas.getrf", 0),
        "blas.gemm.busy_s": gemm_s,
        "blas.gemm.gflops": counts["blas.gemm.work"] / gemm_s / 1e9 if gemm_s else 0.0,
        "blas.laswp.busy_s": busy.get("blas.laswp", 0.0),
        "blas.trsm.busy_s": busy.get("blas.trsm", 0.0),
        "lu.scheduler.self_s": tr.self_time("lu.scheduler"),
        "hpl.matgen.busy_s": busy.get("hpl.matgen", 0.0),
        "hpl.residual.busy_s": busy.get("hpl.residual", 0.0),
        "lu.solve.busy_s": busy.get("lu.solve", 0.0),
        "cluster.comm.wait_s": tr.busy_outside("cluster.comm.wait",
                                               "elastic.redistribute"),
        "cluster.comm.bytes": counts["cluster.comm.bytes"],
        "cluster.comm.messages": counts["cluster.comm.messages"],
        "resilience.checkpoint.save_s": busy.get("resilience.checkpoint.save", 0.0),
        "resilience.checkpoint.load_s": busy.get("resilience.checkpoint.load", 0.0),
        "resilience.checkpoint.bytes": res.get("checkpoint_bytes", 0),
        "resilience.checkpoint.count": res.get("checkpoints", 0),
        "elastic.redistribute_s": busy.get("elastic.redistribute", 0.0),
        "elastic.plan_s": busy.get("elastic.plan", 0.0),
        "elastic.moved_bytes": getattr(result, "regrid_moved_bytes", 0),
    }


def run_untraced(seed: int, seconds: float) -> dict:
    """Solves until the window ends, with the probe chunks and set-up
    spawns spread between them so that a slow spell of the host cannot
    take all of either."""
    rng = rng_for("dist-regrid", seed)
    tally = {"attempted": 0, "failed": 0}
    start = time.perf_counter()
    deadline = start + seconds
    probe, solves, setup = [], [], []
    probe_wall = 0.0
    probe_ok = 0
    while (len(solves) < MIN_SOLVES or len(probe) < PROBE_REQUESTS
           or len(setup) < SETUP_SPAWNS or time.perf_counter() < deadline):
        if len(probe) < PROBE_REQUESTS:
            t0 = time.perf_counter()
            for _ in range(PROBE_REQUESTS // PROBE_CHUNKS):
                wall, result = _attempt(with_seed(TINY_SPEC, rng), tally)
                probe.append(wall)
                probe_ok += result is not None
            probe_wall += time.perf_counter() - t0
        if len(solves) < MIN_SOLVES or time.perf_counter() < deadline:
            solves.append(_attempt(with_seed(SOLVE_SPEC, rng), tally)[0])
        if setup_due(len(setup), time.perf_counter() - start, seconds):
            setup.append(setup_sample())
    return {**tally, "solve_s": solves, "probe_s": probe, "setup_s": setup,
            "probe_ok": probe_ok, "probe_wall_s": probe_wall,
            "peak_rss_mb": host.vm_hwm_mib()}


def run_traced(seed: int, seconds: float, trace_out: Path) -> dict:
    rng = rng_for("dist-regrid", seed)
    tally = {"attempted": 0, "failed": 0}
    start = time.perf_counter()
    deadline = start + seconds
    plain, traced, layers, tracers = [], [], [], []
    while len(traced) < 1 or time.perf_counter() < deadline:
        plain.append(_attempt(with_seed(SOLVE_SPEC, rng), tally)[0])
        tr = tracing.Tracer(request=f"solve{len(traced)}", t0=start)
        with tracing.Wrappers(tr):
            wall, result = _attempt(with_seed(SOLVE_SPEC, rng), tally)
        traced.append(wall)
        tracers.append(tr)
        if result is not None:
            layers.append(layer_metrics(tr, result))
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps(tracing.chrome_trace(tracers)))
    per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]} \
        if layers else {}
    per_layer["trace.overhead_s"] = (statistics.median(traced)
                                     - statistics.median(plain))
    return {**tally, "solve_s": plain, "traced_s": traced,
            "per_layer": per_layer, "trace_file": str(trace_out)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup", action="store_true",
                    help="one set-up sample: answer the tiny spec and exit")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)

    run_checked(with_seed(TINY_SPEC, rng_for("setup", 0)))
    if args.setup:
        print("READY", flush=True)
        return 0
    if args.trace:
        out = run_traced(args.seed, args.seconds, args.trace_out)
    else:
        out = run_untraced(args.seed, args.seconds)
    out["floors"] = host.floors(SOLVE_SPEC["n"])
    out["host"] = host.host_record()
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
