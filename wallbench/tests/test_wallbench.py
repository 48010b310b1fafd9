"""The benchmark's own tests: ``python -m pytest wallbench/tests``."""

import json
from collections import Counter
from pathlib import Path

import pytest

from wallbench import service_mix, stats, tracing, worker
from wallbench.workloads import (
    FAILED_S,
    PASS_TEMPLATE,
    SETUP_SPAWNS,
    rng_for,
    service_pass,
    setup_due,
)

ROOT = Path(__file__).resolve().parents[2]
SLOTS = [slot for turn in PASS_TEMPLATE for slot in turn]


def _rows(rng):
    return [row for turn in service_pass(rng) for row in turn]


def _shape(rows):
    return (Counter(cls for cls, _spec, _rep in rows),
            Counter(cls for cls, _spec, rep in rows if rep))


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_service_pass_composition_is_seed_independent(seed):
    rng = rng_for("service-mix", seed)
    reference = _shape(_rows(rng_for("service-mix", 0)))
    for _ in range(3):
        rows = _rows(rng)
        assert _shape(rows) == reference
        assert sum(rep for *_x, rep in rows) == sum(
            isinstance(slot, int) for slot in SLOTS)
        fresh = [spec["seed"] for _c, spec, rep in rows if not rep]
        assert len(set(fresh)) == len(fresh)


def test_service_stream_is_deterministic_per_seed():
    a, b = rng_for("service-mix", 3), rng_for("service-mix", 3)
    assert [service_pass(a) for _ in range(3)] == [service_pass(b) for _ in range(3)]
    assert service_pass(rng_for("service-mix", 3)) != service_pass(
        rng_for("service-mix", 4))


def test_repeats_copy_an_earlier_request_of_the_pass():
    rows = _rows(rng_for("service-mix", 9))
    assert len(rows) == len(SLOTS)
    for i, slot in enumerate(SLOTS):
        if isinstance(slot, int):
            assert slot < i and rows[i][:2] == rows[slot][:2]


def test_every_pass_has_a_burst_with_a_duplicate_in_flight():
    turns = service_pass(rng_for("service-mix", 2))
    bursts = [t for t in turns if len(t) > 1]
    assert bursts
    assert any(len({spec["seed"] for _c, spec, _r in t}) < len(t) for t in bursts)


def test_set_up_spawns_are_spread_over_the_window():
    due = [next(i for i in range(1000) if setup_due(k, i / 10, 50.0))
           for k in range(SETUP_SPAWNS)]
    assert due[0] == 0 and due == sorted(due) and due[-1] / 10 < 50.0
    assert not setup_due(SETUP_SPAWNS, float("inf"), 50.0)


def test_a_failed_operation_counts_and_takes_the_penalty():
    tally = {"attempted": 0, "failed": 0}
    bad = {"kind": "distributed", "n": 0, "nb": 32, "p": 1, "q": 2}
    wall, result = worker._attempt(bad, tally)
    assert (wall, result) == (FAILED_S, None)
    assert tally == {"attempted": 1, "failed": 1}


def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        stats.percentile([], 90)
    assert stats.percentile(list(range(20)), 50) == 9


def test_wrappers_restore_every_original():
    sites = [tracing._resolve(m, a) for m, a, *_ in tracing.TARGETS]
    sites.append(tracing._resolve(*tracing.WORLD_RUN))
    originals = [owner.__dict__[name] for owner, name in sites]
    with tracing.Wrappers(tracing.Tracer("t", 0.0)):
        assert all(owner.__dict__[name] is not orig
                   for (owner, name), orig in zip(sites, originals))
    assert all(owner.__dict__[name] is orig
               for (owner, name), orig in zip(sites, originals))


def test_wrappers_time_the_layers_of_a_run():
    from repro import api
    from repro.spec import RunSpec

    tr = tracing.Tracer("t", 0.0)
    spec = RunSpec(kind="distributed", n=64, nb=16, p=1, q=2, lookahead="on",
                   workers=1, checkpoint_every=2, regrid=("panel=2:2x1",))
    with tracing.Wrappers(tr):
        result = api.run(spec)
    assert result.passed
    calls = tr.calls()
    for layer in ("blas.getrf", "cluster.comm.wait", "hpl.matgen",
                  "resilience.checkpoint.save", "elastic.redistribute",
                  "cluster.rank"):
        assert calls[layer] > 0, layer
    assert {s.rank for s in tr.spans if s.name == "blas.getrf"} <= {0, 1}
    assert tr.counts["cluster.comm.bytes"] > 0
    doc = tracing.chrome_trace([tr])
    assert len(doc["traceEvents"]) == len(tr.spans)


def test_every_metric_name_is_well_formed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    stats.check_metric_names(dict.fromkeys(names))
    with pytest.raises(ValueError):
        stats.check_metric_names({"latency p50": 1})


def _req(spec_hash, cached=False, value=1.0):
    req = service_mix.Request("native-256", {"kind": "native", "numeric": True})
    req.artifact = {"status": "ok", "spec_hash": spec_hash, "cached": cached,
                    "result": {"passed": True, "residual": value}}
    return req


def test_cached_answers_must_match_the_executed_one():
    good = [_req("a"), _req("a", cached=True), _req("b")]
    service_mix.check_pass(good)
    assert not any(r.failed for r in good)
    bad = [_req("a"), _req("a", cached=True, value=2.0)]
    service_mix.check_pass(bad)
    assert [r.failed for r in bad] == [False, True]
    assert bad[1].latency == service_mix.REQUEST_TIMEOUT_S
