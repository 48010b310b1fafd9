"""Measured-wall benchmark of the repro HPL stack: one workload, one run.

Run from the root of a checkout::

    python3 wallbench/run.py --workload dist-regrid --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json,
``--trace 1`` every per-layer metric; a metric a workload does not
exercise reads 0. The last stdout line is the result object; the line
before it is the host record (versions, BLAS, floors, trace file).
Metric definitions and the reasons for each workload are in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seconds the workload process may run past its window.
RUN_GRACE_S = 90.0


def _env() -> dict:
    from wallbench.host import BLAS_ENV

    env = {**os.environ, **BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_batch(seed: int, seconds: float, trace: bool, trace_file: Path) -> dict:
    """dist-regrid: one workload process, which also times the set-up spawns."""
    argv = [sys.executable, "-m", "wallbench.worker", "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--trace-out", str(trace_file)]
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=seconds + RUN_GRACE_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1].removeprefix("RESULT "))
    from wallbench.stats import percentile
    from wallbench.workloads import SOLVE_SPEC, hpl_flops

    tts = statistics.median(result["solve_s"])
    floors = result["floors"]
    report = {"attempted": result["attempted"], "failed": result["failed"],
              "floors": floors, "host": result["host"],
              "samples": {"solve_s": result["solve_s"]}}
    if trace:
        layers = dict(result["per_layer"])
        layers.update(floors)
        layers["native.floor_ratio"] = tts / floors["floor.lu_factor_s"]
        report["per_layer"] = layers
        return report
    probe = result["probe_s"]
    report["samples"]["setup_s"] = result["setup_s"]
    report["end_to_end"] = {
        "time_to_solution_s": tts,
        "gflops": hpl_flops(SOLVE_SPEC["n"]) / tts / 1e9,
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "requests_per_s": result["probe_ok"] / result["probe_wall_s"],
        "latency_p50_s": statistics.median(probe),
        "latency_p90_s": percentile(probe, 90),
    }
    return report


def main(argv=None) -> int:
    from wallbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"wallbench: no repro sources under {SRC}; run it from the root "
              "of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from wallbench.host import BLAS_ENV

    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))

    trace_file = ROOT / ".wallbench" / f"{args.workload}-seed{args.seed}.trace.json"
    if args.workload == "service-mix":
        from wallbench import service_mix

        report = service_mix.run(ROOT, _env(), args.seed, args.seconds,
                                 bool(args.trace), trace_file)
        from wallbench.host import host_record
        report["host"] = host_record()
    else:
        report = run_batch(args.seed, args.seconds, bool(args.trace), trace_file)

    if args.trace:
        wanted, values = spec["per_layer"], report["per_layer"]
    else:
        wanted, values = spec["end_to_end"], report["end_to_end"]
    from wallbench.stats import check_metric_names

    names = {m["name"] for m in wanted}
    stray = sorted(set(values) - names)
    missing = sorted(m["name"] for m in wanted
                     if m["name"] not in values and not args.trace)
    if stray or missing:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {stray}; "
                           f"end-to-end metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    check_metric_names(metrics)
    print(json.dumps({"host": report["host"], "floors": report["floors"],
                      "samples": report["samples"],
                      "trace_file": str(trace_file) if args.trace else None}))
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    sys.exit(main())
