"""Unit tests for the load-store unit: store queue, load queue, policies."""

import pytest

from repro.core.predictors import PredictorSuiteConfig, FSPConfig, SATConfig, DDPConfig, SVWConfig
from repro.lsu.load_queue import LoadQueue
from repro.lsu.policies import (
    AssociativeStoreSetsPolicy,
    IndexedSQPolicy,
    LoadCommitInfo,
    LoadPrediction,
    OracleAssociativePolicy,
)
from repro.lsu.store_queue import StoreQueue


# ---------------------------------------------------------------------------
# Store queue
# ---------------------------------------------------------------------------

class TestStoreQueue:
    def _sq(self, size=8) -> StoreQueue:
        return StoreQueue(size=size)

    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            StoreQueue(size=48)

    def test_allocate_and_occupancy(self):
        sq = self._sq()
        sq.allocate(ssn=1, pc=0x400, seq=0)
        sq.allocate(ssn=2, pc=0x404, seq=1)
        assert len(sq) == 2 and not sq.is_full()

    def test_allocate_requires_increasing_ssn(self):
        sq = self._sq()
        sq.allocate(ssn=5, pc=0x400, seq=0)
        with pytest.raises(ValueError):
            sq.allocate(ssn=5, pc=0x404, seq=1)

    def test_overflow_detected(self):
        sq = self._sq(size=2)
        sq.allocate(1, 0x400, 0)
        sq.allocate(2, 0x404, 1)
        assert sq.is_full()
        with pytest.raises(RuntimeError):
            sq.allocate(3, 0x408, 2)

    def test_write_execute_fills_entry(self):
        sq = self._sq()
        sq.allocate(1, 0x400, 0)
        entry = sq.write_execute(1, addr=0x1000, size=8, value=0xAB)
        assert entry.executed and entry.addr == 0x1000

    def test_write_execute_unknown_ssn(self):
        sq = self._sq()
        with pytest.raises(KeyError):
            sq.write_execute(3, addr=0x1000, size=8, value=0)

    def test_release_in_order(self):
        sq = self._sq()
        sq.allocate(1, 0x400, 0)
        sq.allocate(2, 0x404, 1)
        assert sq.release(1).ssn == 1
        with pytest.raises(ValueError):
            sq.release(3)

    def test_release_empty(self):
        with pytest.raises(RuntimeError):
            self._sq().release(1)

    def test_indexed_read_maps_low_order_ssn_bits(self):
        sq = self._sq(size=8)
        sq.allocate(9, 0x400, 0)          # slot 9 % 8 == 1
        sq.write_execute(9, 0x1000, 8, 1)
        entry = sq.read_indexed(9)
        assert entry is not None and entry.ssn == 9
        # A different SSN mapping to the same slot returns whatever occupies it.
        assert sq.read_indexed(17) is entry

    def test_indexed_read_empty_slot(self):
        sq = self._sq()
        assert sq.read_indexed(5) is None

    def test_lookup_ssn_exact_only(self):
        sq = self._sq(size=8)
        sq.allocate(9, 0x400, 0)
        assert sq.lookup_ssn(9) is not None
        assert sq.lookup_ssn(17) is None

    def test_associative_search_youngest_match(self):
        sq = self._sq()
        sq.allocate(1, 0x400, 0)
        sq.allocate(2, 0x404, 1)
        sq.write_execute(1, 0x1000, 8, 0x11)
        sq.write_execute(2, 0x1000, 8, 0x22)
        entry = sq.associative_search(0x1000, 8, before_ssn=10)
        assert entry.ssn == 2 and entry.value == 0x22

    def test_associative_search_age_bound(self):
        sq = self._sq()
        sq.allocate(1, 0x400, 0)
        sq.allocate(2, 0x404, 1)
        sq.write_execute(1, 0x1000, 8, 0x11)
        sq.write_execute(2, 0x1000, 8, 0x22)
        entry = sq.associative_search(0x1000, 8, before_ssn=1)
        assert entry.ssn == 1

    def test_associative_search_ignores_unexecuted(self):
        sq = self._sq()
        sq.allocate(1, 0x400, 0)
        assert sq.associative_search(0x1000, 8, before_ssn=10) is None

    def test_associative_search_requires_covering_store(self):
        sq = self._sq()
        sq.allocate(1, 0x400, 0)
        sq.write_execute(1, 0x1000, 4, 0x11)
        assert sq.associative_search(0x1000, 8, before_ssn=10) is None
        assert sq.associative_search(0x1000, 4, before_ssn=10) is not None

    def test_youngest_overlapping(self):
        sq = self._sq()
        sq.allocate(1, 0x400, 0)
        sq.write_execute(1, 0x1000, 4, 0x11)
        assert sq.youngest_overlapping(0x1002, 4, before_ssn=10).ssn == 1

    def test_extract_narrow_from_wide(self):
        sq = self._sq()
        sq.allocate(1, 0x400, 0)
        entry = sq.write_execute(1, 0x1000, 8, 0x1122334455667788)
        assert entry.extract(0x1000, 4) == 0x55667788
        assert entry.extract(0x1004, 4) == 0x11223344

    def test_extract_requires_cover(self):
        sq = self._sq()
        sq.allocate(1, 0x400, 0)
        entry = sq.write_execute(1, 0x1004, 4, 0xAABBCCDD)
        with pytest.raises(ValueError):
            entry.extract(0x1000, 8)

    def test_squash_younger(self):
        sq = self._sq()
        for ssn in range(1, 5):
            sq.allocate(ssn, 0x400 + 4 * ssn, ssn)
        squashed = sq.squash_younger(2)
        assert [e.ssn for e in squashed] == [4, 3]
        assert len(sq) == 2
        assert sq.read_indexed(4) is None

    def test_entries_in_order(self):
        sq = self._sq()
        sq.allocate(1, 0x400, 0)
        sq.allocate(2, 0x404, 1)
        assert [e.ssn for e in sq.entries_in_order()] == [1, 2]


# ---------------------------------------------------------------------------
# Load queue
# ---------------------------------------------------------------------------

class TestLoadQueue:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            LoadQueue(size=0)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def _small_predictors() -> PredictorSuiteConfig:
    return PredictorSuiteConfig(
        fsp=FSPConfig(entries=64, assoc=2),
        sat=SATConfig(entries=64),
        ddp=DDPConfig(entries=64, assoc=2),
        svw=SVWConfig(ssbf_entries=256, spct_entries=256),
    )


def _commit_info(policy_prediction, violation=False, forwarded=False, forward_ssn=0,
                 pc=0x400, addr=0x1000, size=8, ssn_cmt=10):
    return LoadCommitInfo(pc=pc, addr=addr, size=size, spec_value=0, correct_value=0,
                          forwarded=forwarded, forward_ssn=forward_ssn,
                          prediction=policy_prediction, ssn_at_rename=ssn_cmt,
                          ssn_cmt=ssn_cmt, violation=violation)


class TestOraclePolicy:
    def test_prediction_passes_oracle_dependence(self):
        policy = OracleAssociativePolicy(predictors=_small_predictors())
        prediction = policy.predict_load(0x400, ssn_ren=10, ssn_cmt=5, oracle_dep_ssn=8)
        assert prediction.fwd_ssn == 8
        assert prediction.predict_forward is True

    def test_forward_uses_associative_search(self):
        policy = OracleAssociativePolicy(predictors=_small_predictors())
        sq = StoreQueue(size=8)
        sq.allocate(1, 0x500, 0)
        sq.write_execute(1, 0x1000, 8, 0x99)
        decision = policy.forward(0x1000, 8, older_than_ssn=5,
                                  prediction=LoadPrediction(), store_queue=sq)
        assert decision.forwarded and decision.value == 0x99

    def test_latency_is_cache_like(self):
        policy = OracleAssociativePolicy(predictors=_small_predictors())
        assert policy.forwarded_load_latency(l1_latency=3) == 3


class TestAssociativePolicy:
    def test_schedule_via_fsp_sat(self):
        policy = AssociativeStoreSetsPolicy(predictors=_small_predictors())
        policy.fsp.insert(0x400, 0x500)
        policy.store_renamed(0x500, ssn=7)
        prediction = policy.predict_load(0x400, ssn_ren=7, ssn_cmt=2)
        assert prediction.fwd_ssn == 7
        assert prediction.predict_forward

    def test_training_only_on_violation(self):
        policy = AssociativeStoreSetsPolicy(predictors=_small_predictors())
        policy.store_committed(0x500, ssn=3, addr=0x1000, size=8)
        info = _commit_info(LoadPrediction(), violation=False)
        policy.load_committed(info)
        assert policy.fsp.lookup(0x400) == []
        info = _commit_info(LoadPrediction(), violation=True)
        policy.load_committed(info)
        assert len(policy.fsp.lookup(0x400)) == 1

    def test_optimistic_scheduling_assumes_cache_latency(self):
        policy = AssociativeStoreSetsPolicy(sq_latency=5, scheduling="optimistic",
                                            predictors=_small_predictors())
        prediction = LoadPrediction(predict_forward=True)
        assert policy.assumed_load_latency(prediction, l1_latency=3) == 3

    def test_predictive_scheduling_assumes_sq_latency_when_forwarding(self):
        policy = AssociativeStoreSetsPolicy(sq_latency=5, scheduling="predictive",
                                            predictors=_small_predictors())
        assert policy.assumed_load_latency(LoadPrediction(predict_forward=True), 3) == 5
        assert policy.assumed_load_latency(LoadPrediction(predict_forward=False), 3) == 3

    def test_forwarded_latency_respects_sq_latency(self):
        slow = AssociativeStoreSetsPolicy(sq_latency=5, predictors=_small_predictors())
        fast = AssociativeStoreSetsPolicy(sq_latency=3, predictors=_small_predictors())
        assert slow.forwarded_load_latency(3) == 5
        assert fast.forwarded_load_latency(3) == 3

    def test_original_formulation_store_dependence(self):
        policy = AssociativeStoreSetsPolicy(formulation="original",
                                            predictors=_small_predictors())
        policy.store_sets.train_violation(0x400, 0x500)
        policy.store_sets.train_violation(0x400, 0x504)
        policy.store_renamed(0x500, ssn=3)
        policy.store_renamed(0x504, ssn=4)
        assert policy.store_dependence(0x504, 4) == 3

    def test_sat_repair_on_squash(self):
        policy = AssociativeStoreSetsPolicy(predictors=_small_predictors())
        token1 = policy.store_renamed(0x500, ssn=3)
        token2 = policy.store_renamed(0x500, ssn=4)
        policy.store_squashed(0x500, 4, token2)
        assert policy.sat.lookup(0x500) == 3
        policy.store_squashed(0x500, 3, token1)
        assert policy.sat.lookup(0x500) == 0

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            AssociativeStoreSetsPolicy(scheduling="bogus")
        with pytest.raises(ValueError):
            AssociativeStoreSetsPolicy(formulation="bogus")


class TestIndexedPolicy:
    def _policy(self, use_delay=True) -> IndexedSQPolicy:
        return IndexedSQPolicy(sq_size=8, use_delay=use_delay,
                               predictors=_small_predictors())

    def test_no_prediction_reads_cache(self):
        policy = self._policy()
        sq = StoreQueue(size=8)
        decision = policy.forward(0x1000, 8, older_than_ssn=5,
                                  prediction=LoadPrediction(fwd_ssn=0), store_queue=sq)
        assert not decision.forwarded

    def test_indexed_hit_with_matching_address(self):
        policy = self._policy()
        sq = StoreQueue(size=8)
        sq.allocate(3, 0x500, 0)
        sq.write_execute(3, 0x1000, 8, 0x77)
        decision = policy.forward(0x1000, 8, older_than_ssn=5,
                                  prediction=LoadPrediction(fwd_ssn=3), store_queue=sq)
        assert decision.forwarded and decision.value == 0x77 and decision.forward_ssn == 3

    def test_indexed_miss_on_address_mismatch(self):
        policy = self._policy()
        sq = StoreQueue(size=8)
        sq.allocate(3, 0x500, 0)
        sq.write_execute(3, 0x2000, 8, 0x77)
        decision = policy.forward(0x1000, 8, older_than_ssn=5,
                                  prediction=LoadPrediction(fwd_ssn=3), store_queue=sq)
        assert not decision.forwarded

    def test_indexed_miss_on_wider_load(self):
        policy = self._policy()
        sq = StoreQueue(size=8)
        sq.allocate(3, 0x500, 0)
        sq.write_execute(3, 0x1000, 4, 0x77)
        decision = policy.forward(0x1000, 8, older_than_ssn=5,
                                  prediction=LoadPrediction(fwd_ssn=3), store_queue=sq)
        assert not decision.forwarded

    def test_narrow_load_from_wide_store_same_address(self):
        policy = self._policy()
        sq = StoreQueue(size=8)
        sq.allocate(3, 0x500, 0)
        sq.write_execute(3, 0x1000, 8, 0x1122334455667788)
        decision = policy.forward(0x1000, 4, older_than_ssn=5,
                                  prediction=LoadPrediction(fwd_ssn=3), store_queue=sq)
        assert decision.forwarded and decision.value == 0x55667788

    def test_indexed_miss_on_unexecuted_store(self):
        policy = self._policy()
        sq = StoreQueue(size=8)
        sq.allocate(3, 0x500, 0)
        decision = policy.forward(0x1000, 8, older_than_ssn=5,
                                  prediction=LoadPrediction(fwd_ssn=3), store_queue=sq)
        assert not decision.forwarded

    def test_indexed_refuses_younger_store_in_slot(self):
        policy = self._policy()
        sq = StoreQueue(size=8)
        sq.allocate(11, 0x500, 0)         # occupies slot 3
        sq.write_execute(11, 0x1000, 8, 0x77)
        decision = policy.forward(0x1000, 8, older_than_ssn=5,
                                  prediction=LoadPrediction(fwd_ssn=3), store_queue=sq)
        assert not decision.forwarded

    def test_chained_fsp_sat_prediction_selects_youngest(self):
        policy = self._policy()
        policy.fsp.insert(0x400, 0x500)
        policy.fsp.insert(0x400, 0x504)
        policy.store_renamed(0x500, ssn=3)
        policy.store_renamed(0x504, ssn=7)
        prediction = policy.predict_load(0x400, ssn_ren=7, ssn_cmt=1)
        assert prediction.fwd_ssn == 7

    def test_delay_prediction_generated(self):
        policy = self._policy(use_delay=True)
        for _ in range(2):
            policy.ddp.train_wrong_prediction(0x400, 2)
        prediction = policy.predict_load(0x400, ssn_ren=20, ssn_cmt=5)
        assert prediction.dly_ssn == 18

    def test_no_delay_when_disabled(self):
        policy = self._policy(use_delay=False)
        for _ in range(2):
            policy.ddp.train_wrong_prediction(0x400, 2)
        prediction = policy.predict_load(0x400, ssn_ren=20, ssn_cmt=5)
        assert prediction.dly_ssn == 0

    def test_scheduler_ignores_forwarding_distinction(self):
        policy = self._policy()
        assert policy.assumed_load_latency(LoadPrediction(predict_forward=True), 3) == 3

    def test_training_on_correct_forwarding_strengthens(self):
        policy = self._policy()
        policy.store_committed(0x500, ssn=9, addr=0x1000, size=8)
        info = _commit_info(LoadPrediction(fwd_ssn=9,
                                           predicted_store_pc=policy.fsp.partial_store_pc(0x500)),
                            forwarded=True, forward_ssn=9, ssn_cmt=10)
        policy.load_committed(info)
        assert len(policy.fsp.lookup(0x400)) == 1

    def test_training_on_violation_inserts_dependence(self):
        policy = self._policy()
        policy.store_committed(0x500, ssn=9, addr=0x1000, size=8)
        info = _commit_info(LoadPrediction(), violation=True, ssn_cmt=10)
        policy.load_committed(info)
        assert len(policy.fsp.lookup(0x400)) == 1
        # Violations also train the delay predictor.
        assert policy.ddp.occupancy() == 1

    def test_no_ddp_training_without_prediction_or_violation(self):
        policy = self._policy()
        policy.store_committed(0x500, ssn=9, addr=0x1000, size=8)
        info = _commit_info(LoadPrediction(fwd_ssn=0), violation=False, ssn_cmt=10)
        policy.load_committed(info)
        assert policy.ddp.occupancy() == 0

    def test_not_most_recent_unlearns_fsp(self):
        policy = self._policy()
        partial = policy.fsp.partial_store_pc(0x500)
        policy.fsp.insert(0x400, 0x500)
        policy.store_committed(0x500, ssn=9, addr=0x1000, size=8)
        # Predicted the right PC but the wrong instance; no violation (the
        # load read the correct value from the cache).
        info = _commit_info(LoadPrediction(fwd_ssn=4, predicted_store_pc=partial),
                            forwarded=False, violation=False, ssn_cmt=10)
        for _ in range(20):
            policy.load_committed(info)
        assert policy.fsp.lookup(0x400) == []

    def test_clear_ssn_state(self):
        policy = self._policy()
        policy.store_renamed(0x500, 5)
        policy.store_committed(0x500, 5, 0x1000, 8)
        policy.clear_ssn_state()
        assert policy.sat.lookup(0x500) == 0
        assert policy.svw.ssbf.lookup(0x1000, 8) == 0

    def test_policy_names(self):
        assert IndexedSQPolicy(use_delay=True).name == "indexed-3-fwd+dly"
        assert IndexedSQPolicy(use_delay=False).name == "indexed-3-fwd"
        assert AssociativeStoreSetsPolicy(sq_latency=5).name == "associative-5-predictive"
