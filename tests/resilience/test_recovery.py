"""End-to-end rollback recovery: crash + corruption, bitwise-identical results.

The acceptance scenario from the resilience subsystem: a seeded 2 x 2
distributed run with an injected rank crash and message corruption must
recover via checkpoint/retry and produce **bitwise-identical** lu, ipiv
and x versus the undisturbed run — for both the synchronous and the
look-ahead schedules.
"""

import numpy as np
import pytest

from repro.cluster.hpl_mpi import DistributedHPL
from repro.resilience import CheckpointStore, RankCrashError, RetryPolicy

CFG = dict(n=96, nb=16, p=2, q=2, seed=42)
PLAN = "seed=5;crash:rank=3,stage=3;corrupt:op=send,count=2"
RETRY = RetryPolicy(comm_timeout_s=0.5, max_retries=2)


def _baseline(lookahead=False):
    return DistributedHPL(**CFG, lookahead=lookahead).run()


def _assert_bitwise(r, ref):
    assert np.array_equal(r.lu, ref.lu)
    assert np.array_equal(r.ipiv, ref.ipiv)
    assert np.array_equal(r.x, ref.x)
    assert r.residual == ref.residual
    assert r.passed


class TestCrashRecovery:
    @pytest.mark.parametrize("lookahead", [False, True],
                             ids=["sync", "lookahead"])
    def test_crash_plus_corruption_recovers_bitwise(self, lookahead):
        ref = _baseline(lookahead)
        r = DistributedHPL(**CFG, lookahead=lookahead, fault_plan=PLAN,
                           checkpoint_every=2, retry=RETRY).run()
        _assert_bitwise(r, ref)
        res = r.resilience
        assert res is not None
        assert res["recoveries"] == 1
        assert res["attempts"] == 2
        assert res["corruption_detected"] >= 1
        assert res["faults_injected"]["crash"] == 1
        assert res["checkpoints"] > 0
        assert res["restores"] == 4  # every rank restored once

    def test_crash_without_checkpoint_raises(self):
        with pytest.raises(RankCrashError):
            DistributedHPL(**CFG, fault_plan="crash:rank=1,stage=2",
                           retry=RETRY).run()

    def test_max_recoveries_zero_reraises(self):
        with pytest.raises(RankCrashError):
            DistributedHPL(**CFG, fault_plan="crash:rank=1,stage=4",
                           checkpoint_every=2, retry=RETRY,
                           max_recoveries=0).run()

    def test_disk_checkpoint_store(self, tmp_path):
        ref = _baseline()
        store = CheckpointStore(dir=str(tmp_path / "ckpt"))
        r = DistributedHPL(**CFG, fault_plan="crash:rank=2,stage=4",
                           checkpoint_every=2, checkpoint_store=store,
                           retry=RETRY).run()
        _assert_bitwise(r, ref)
        assert r.resilience["recoveries"] == 1
        assert store.cursors(0)  # blobs landed on disk


class TestCrossDepthRestore:
    @pytest.mark.parametrize("written,resumed", [(False, True), (True, False)],
                             ids=["sync-cut-lookahead-run",
                                  "lookahead-cut-sync-run"])
    def test_cut_restores_at_the_other_depth(self, written, resumed):
        # A look-ahead cut carries its already-factored in-flight panel;
        # a synchronous cut has none, so the panel is factored on
        # resume. Either cut resumes at either depth, bitwise.
        store = CheckpointStore()
        DistributedHPL(**CFG, lookahead=written, checkpoint_every=2,
                       checkpoint_store=store).run()
        r = DistributedHPL(**CFG, lookahead=resumed, checkpoint_every=99,
                           checkpoint_store=store,
                           fault_plan="crash:rank=1,stage=1",
                           retry=RETRY).run()
        assert r.resilience["recoveries"] == 1
        assert r.resilience["restores"] > 0
        _assert_bitwise(r, _baseline(resumed))


class TestTransparentHealing:
    def test_drop_and_duplicate_heal_bitwise(self):
        ref = _baseline()
        r = DistributedHPL(**CFG, retry=RETRY,
                           fault_plan="seed=9;drop:op=send,count=2;"
                                      "duplicate:op=send,count=2").run()
        _assert_bitwise(r, ref)
        res = r.resilience
        assert res["recoveries"] == 0
        assert res["resends"] >= 1
        assert res["duplicates_dropped"] >= 1

    def test_retry_only_run_matches_plain_run(self):
        ref = _baseline()
        r = DistributedHPL(**CFG, retry=RETRY).run()
        _assert_bitwise(r, ref)
        assert r.resilience["attempts"] == 1
        assert r.resilience["recoveries"] == 0

    def test_plain_run_has_no_resilience_block(self):
        assert _baseline().resilience is None


class TestResilienceReporting:
    def test_metrics_mirror_resilience_counters(self):
        r = DistributedHPL(**CFG, fault_plan=PLAN, checkpoint_every=2,
                           retry=RETRY).run()
        m = r.metrics.to_dict()
        counters = m["counters"]
        assert counters["resilience.recoveries"] == 1
        assert counters["resilience.attempts"] == 2
        assert counters["resilience.checkpoints"] == r.resilience["checkpoints"]
        assert counters["resilience.restores"] == 4
        assert "resilience.checkpoint_time_s" in m["timers"]

    def test_to_dict_carries_resilience(self):
        r = DistributedHPL(**CFG, retry=RETRY).run()
        d = r.to_dict()
        assert d["resilience"]["attempts"] == 1
        plain = _baseline().to_dict()
        assert plain["resilience"] is None
