"""The service-mix workload: a ``repro service serve`` subprocess driven
as a closed loop by two TCP clients from this one process.

One server serves the workload: an untimed warm-up of every class, then
whole passes of :func:`wallbench.workloads.service_pass` until the
window ends. After each pass one client submits fresh requests of the
reference class alone, timed client-side: the workload's time to
solution. Between passes, set-up is timed on fresh spawns of their
own: server launch → ``service listening`` announce → first tiny spec
answered (which forks the cold pool worker). Every answer is checked:
``status: ok``, a passing residual on numeric runs, and each cached or
coalesced answer equal to the executed artifact of its ``spec_hash``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from wallbench import host, tracing
from wallbench.stats import percentile
from wallbench.workloads import (
    FAILED_S,
    SERVICE_CLASSES,
    SERVICE_REFERENCE_CLASS,
    SERVICE_TINY_SPEC,
    hpl_flops,
    rng_for,
    service_pass,
    service_warmup,
    setup_due,
    with_seed,
)

CLIENTS = 2
#: A request unanswered after this long is failed; its latency counts as this.
REQUEST_TIMEOUT_S = FAILED_S
#: Reference requests submitted alone after each pass (time to solution).
SOLO_PER_PASS = 3
#: Enough whole passes for >= 100 latency samples (the p90 rule).
MIN_PASSES = 6
#: Reference requests run under the wrappers in a traced run.
REFERENCE_TRACED = 5
#: Keys that say how an answer was served, not what it is.
PROVENANCE = ("cached", "coalesced")


@dataclass
class Request:
    cls: str
    spec: dict
    client: int = -1
    start: float = 0.0
    end: float = 0.0
    artifact: Optional[dict] = None
    events: Dict[str, float] = field(default_factory=dict)
    failed: bool = False

    @property
    def latency(self) -> float:
        """Submit → terminal answer; a failure misses every limit."""
        return REQUEST_TIMEOUT_S if self.failed else self.end - self.start

    @property
    def executed(self) -> bool:
        a = self.artifact or {}
        return not self.failed and not a.get("cached") and not a.get("coalesced")


class Server:
    """One ``repro service serve`` process on an ephemeral port."""

    def __init__(self, root: Path, env: dict):
        self.t0 = time.perf_counter()
        self.proc, line = host.launch(
            [sys.executable, "-m", "repro", "service", "serve", "--port", "0"],
            root, env, REQUEST_TIMEOUT_S)
        if not line.startswith("service listening on "):
            self.kill()
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the server and its pool workers."""
        pids = [self.proc.pid] + host.descendants(self.proc.pid)
        return sum(host.vm_hwm_mib(p) for p in pids)

    async def stop(self, client) -> None:
        """Orderly shutdown; then make sure no process of the tree lives."""
        tree = host.descendants(self.proc.pid)
        await client.shutdown()
        await client.close()
        try:
            await asyncio.to_thread(self.proc.wait, REQUEST_TIMEOUT_S)
        finally:
            self.kill(tree)

    def kill(self, tree: Optional[List[int]] = None) -> None:
        if self.proc.poll() is None:
            tree = (tree or []) + host.descendants(self.proc.pid)
            self.proc.kill()
        for pid in tree or []:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.proc.stdout.close()


async def _connect(port: int):
    from repro.service.client import ServiceClient

    return await ServiceClient("127.0.0.1", port).connect()


async def _submit(client, req: Request, record_events: bool) -> None:
    from repro.service.client import ServiceError

    def on_event(msg: dict) -> None:
        req.events.setdefault(msg.get("event"), time.perf_counter())

    req.start = time.perf_counter()
    try:
        req.artifact = await asyncio.wait_for(
            client.submit(req.spec, on_event=on_event if record_events else None),
            REQUEST_TIMEOUT_S)
    except (asyncio.TimeoutError, ServiceError, ConnectionError) as exc:
        print(f"request failed: {exc!r}", file=sys.stderr)
        req.failed = True
    req.end = time.perf_counter()


def _strip(artifact: dict) -> dict:
    return {k: v for k, v in artifact.items() if k not in PROVENANCE}


def check_pass(reqs: List[Request]) -> None:
    """Mark every request whose answer is wrong as failed."""
    for req in reqs:
        a = req.artifact
        if req.failed or a is None or a.get("status") != "ok":
            req.failed = True
            continue
        numeric = req.spec.get("numeric") or req.spec["kind"] == "distributed"
        if numeric and a["result"].get("passed") is not True:
            req.failed = True
    groups: Dict[str, List[Request]] = {}
    for req in reqs:
        if not req.failed:
            groups.setdefault(req.artifact["spec_hash"], []).append(req)
    for group in groups.values():
        runs = [r for r in group if r.executed] or group
        reference = _strip(runs[0].artifact)
        for req in group:
            if _strip(req.artifact) != reference:
                req.failed = True


async def run_pass(clients, turns: List[List[Request]], record_events: bool) -> float:
    """Drive one pass as a closed loop; returns its wall seconds.

    Each client takes the next turn, submits all of its requests at
    once over its connection and waits for every answer.
    """
    todo = iter(turns)

    async def loop(index: int, client) -> None:
        for turn in todo:
            for req in turn:
                req.client = index
            await asyncio.gather(*(_submit(client, r, record_events) for r in turn))

    t0 = time.perf_counter()
    await asyncio.gather(*(loop(i, c) for i, c in enumerate(clients)))
    wall = time.perf_counter() - t0
    check_pass([r for turn in turns for r in turn])
    return wall


async def run_solo(client, reqs: List[Request]) -> None:
    """Submit ``reqs`` one at a time with nothing else in flight."""
    for req in reqs:
        req.client = 0
        await _submit(client, req, False)
    check_pass(reqs)


async def _setup_sample(root: Path, env: dict):
    """One fresh spawn to first tiny answer; ``(seconds, server, client)``."""
    server = await asyncio.to_thread(Server, root, env)
    try:
        client = await _connect(server.port)
    except BaseException:
        server.kill()
        raise
    req = Request("tiny", with_seed(SERVICE_TINY_SPEC, rng_for("setup", 0)))
    await _submit(client, req, False)
    took = time.perf_counter() - server.t0
    check_pass([req])
    if req.failed:
        await server.stop(client)
        raise RuntimeError("service set-up request failed")
    return took, server, client


async def _setup_spawn(root: Path, env: dict) -> float:
    """One set-up sample on a server of its own, stopped after."""
    took, server, client = await _setup_sample(root, env)
    await server.stop(client)
    return took


async def _drive(root: Path, env: dict, seed: int, seconds: float,
                 trace: bool) -> dict:
    _took, server, control = await _setup_sample(root, env)
    clients = [control]
    try:
        for _ in range(CLIENTS - 1):
            clients.append(await _connect(server.port))
        rng = rng_for("service-mix", seed)
        warmup = [[Request(c, s)] for c, s in service_warmup(rng)]
        await run_pass(clients[:1], warmup, False)
        if any(r.failed for [r] in warmup):
            raise RuntimeError("service warm-up request failed")
        before = await control.stats()
        passes, walls, traced_walls, solo, setup = [], [], [], [], []
        start = time.perf_counter()
        deadline = start + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            traced = trace and len(passes) % 2 == 1
            turns = [[Request(c, s) for c, s, _repeat in turn]
                     for turn in service_pass(rng)]
            wall = await run_pass(clients, turns, traced)
            passes.append(([r for turn in turns for r in turn], traced))
            (traced_walls if traced else walls).append(wall)
            reference = [Request(SERVICE_REFERENCE_CLASS, with_seed(
                SERVICE_CLASSES[SERVICE_REFERENCE_CLASS], rng))
                for _ in range(SOLO_PER_PASS)]
            await run_solo(control, reference)
            solo.extend(reference)
            if not trace and setup_due(len(setup), time.perf_counter() - start,
                                       seconds):
                setup.append(await _setup_spawn(root, env))
        while not trace and setup_due(len(setup), float("inf"), seconds):
            setup.append(await _setup_spawn(root, env))
        after = await control.stats()
        peak_rss = server.peak_rss_mb()
    finally:
        for extra in clients[1:]:
            await extra.close()
        await server.stop(control)
    return {"setup_s": setup, "passes": passes, "walls": walls, "solo": solo,
            "traced_walls": traced_walls, "before": before, "after": after,
            "peak_rss_mb": peak_rss}


def _solo_latencies(d: dict) -> List[float]:
    return [r.latency for r in d["solo"]]


def end_to_end(d: dict) -> dict:
    reqs = [r for reqs, _t in d["passes"] for r in reqs]
    # A mean, not a median: each core of the host has slow spells lasting
    # seconds, so these short samples are bimodal and their median jumps
    # between modes; the mean moves smoothly with the slow share.
    tts = statistics.mean(_solo_latencies(d))
    ok = sum(not r.failed for r in reqs)
    latencies = [r.latency for r in reqs]
    return {
        "time_to_solution_s": tts,
        "gflops": hpl_flops(SERVICE_CLASSES[SERVICE_REFERENCE_CLASS]["n"]) / tts / 1e9,
        "setup_s": statistics.median(d["setup_s"]),
        "peak_rss_mb": d["peak_rss_mb"],
        "requests_per_s": ok / sum(d["walls"]),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
    }


def service_tracer(d: dict) -> tracing.Tracer:
    """Client-side spans of the traced passes: request, queue wait, run."""
    tracer = tracing.Tracer(request=None, t0=d["passes"][0][0][0].start)
    traced = [reqs for reqs, t in d["passes"] if t]
    for p_index, p in enumerate(traced):
        for i, r in enumerate(p):
            rid = f"pass{p_index}.req{i}"
            tracer.spans.append(tracing.Span(
                len(tracer.spans) + 1, "service.request", r.start, r.end, None,
                f"client{r.client}", None, rid))
            parent = len(tracer.spans)
            for name, (e0, e1) in (("service.queue", ("queued", "running")),
                                   ("service.run", ("running", "done"))):
                if e0 in r.events and e1 in r.events:
                    tracer.spans.append(tracing.Span(
                        len(tracer.spans) + 1, name, r.events[e0], r.events[e1],
                        parent, f"client{r.client}", None, rid))
    return tracer


def reference_layers(seed: int, tracers: List[tracing.Tracer]) -> dict:
    """Kernel layers of the reference request, run here under the wrappers.

    The pool worker is out of reach of the benchmark's wrappers, so the
    breakdown comes from the same spec run in this process after the
    passes; the median over the requests is reported.
    """
    from wallbench.worker import run_checked, layer_metrics

    rng = rng_for("service-mix-layers", seed)
    layers = []
    for i in range(REFERENCE_TRACED):
        tr = tracing.Tracer(request=f"reference{i}", t0=tracers[0].t0)
        with tracing.Wrappers(tr):
            _wall, result = run_checked(
                with_seed(SERVICE_CLASSES[SERVICE_REFERENCE_CLASS], rng))
        tracers.append(tr)
        layers.append(layer_metrics(tr, result))
    keys = ("blas.getrf.busy_s", "blas.getrf.calls", "blas.gemm.busy_s",
            "blas.gemm.gflops", "blas.laswp.busy_s", "blas.trsm.busy_s",
            "lu.scheduler.self_s", "hpl.matgen.busy_s", "hpl.residual.busy_s",
            "lu.solve.busy_s")
    return {k: statistics.median(m[k] for m in layers) for k in keys}


def per_layer(d: dict) -> dict:
    """Service-layer figures of the traced passes plus stats() deltas."""
    traced = [reqs for reqs, t in d["passes"] if t]
    reqs = [r for p in traced for r in p]
    ok = [r for r in reqs if not r.failed]
    hits = [r for r in ok if r.artifact.get("cached")]
    runs = [r for r in ok if r.executed]
    b, a = d["before"], d["after"]

    def delta(*path):
        x, y = a, b
        for key in path:
            x, y = x[key], y[key]
        return x - y

    lookups = delta("cache", "hits_memory") + delta("cache", "hits_disk") \
        + delta("cache", "misses")
    hit_count = delta("cache", "hits_memory") + delta("cache", "hits_disk")
    mxp = [r.artifact["result"]["refine"]["iterations"] for r in runs
           if r.cls == "mxp-384"]
    queue = [r.events["running"] - r.events["queued"] for r in runs
             if "queued" in r.events and "running" in r.events]
    return {
        "service.cache.hit_ratio": hit_count / lookups if lookups else 0.0,
        "service.cache.hit_latency_p50_s": statistics.median(
            [r.latency for r in hits]),
        "service.overhead_p50_s": statistics.median(
            [r.latency - r.artifact["elapsed_s"] for r in runs]),
        "service.queue_wait_p50_s": statistics.median(queue),
        "service.run.busy_s": statistics.median(
            [sum(r.artifact["elapsed_s"] for r in p if r.executed) for p in traced]),
        "service.batching.jobs_per_dispatch":
            delta("batching", "jobs") / delta("batching", "batches"),
        "service.coalesced": delta("coalesced") / len(d["passes"]),
        "hpl.mxp.refine_iters": statistics.median(mxp),
        "trace.overhead_s": (statistics.median(d["traced_walls"])
                             - statistics.median(d["walls"])),
    }


def run(root: Path, env: dict, seed: int, seconds: float, trace: bool,
        trace_file: Path) -> dict:
    d = asyncio.run(_drive(root, env, seed, seconds, trace))
    reqs = [r for reqs, _t in d["passes"] for r in reqs] + d["solo"]
    out = {"attempted": len(reqs), "failed": sum(r.failed for r in reqs)}
    n_ref = SERVICE_CLASSES[SERVICE_REFERENCE_CLASS]["n"]
    floors = host.floors(n_ref)
    if trace:
        tracers = [service_tracer(d)]
        layers = per_layer(d)
        layers.update(reference_layers(seed, tracers))
        layers.update(floors)
        layers["native.floor_ratio"] = (statistics.mean(_solo_latencies(d))
                                        / floors["floor.lu_factor_s"])
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(tracing.chrome_trace(tracers)))
        out["per_layer"] = layers
    else:
        out["end_to_end"] = end_to_end(d)
    out["floors"] = floors
    out["samples"] = {"setup_s": d["setup_s"], "pass_s": d["walls"],
                      "solo_s": _solo_latencies(d)}
    return out
