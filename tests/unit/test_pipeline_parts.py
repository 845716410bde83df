"""Unit tests for pipeline components: RAT, ROB, configuration, statistics."""

import pytest

from repro.pipeline.config import CoreConfig, IssueLimits, small_test_config
from repro.pipeline.rename import ARCH_READY, RegisterAliasTable
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.stats import SimStats


class TestRAT:
    def test_initially_architectural(self):
        rat = RegisterAliasTable()
        assert rat.producer_of(3) == ARCH_READY

    def test_rename_and_lookup(self):
        rat = RegisterAliasTable()
        rat.rename_dest(3, seq=10)
        assert rat.producer_of(3) == 10

    def test_zero_register_never_renamed(self):
        rat = RegisterAliasTable()
        assert rat.rename_dest(31, seq=10) is None
        assert rat.producer_of(31) == ARCH_READY

    def test_none_dest(self):
        rat = RegisterAliasTable()
        assert rat.rename_dest(None, seq=10) is None

    def test_undo_restores_previous_producer(self):
        rat = RegisterAliasTable()
        rat.rename_dest(3, seq=10)
        undo = rat.rename_dest(3, seq=20)
        rat.undo(undo)
        assert rat.producer_of(3) == 10

    def test_undo_chain_youngest_first(self):
        rat = RegisterAliasTable()
        undo_a = rat.rename_dest(3, seq=10)
        undo_b = rat.rename_dest(3, seq=20)
        undo_c = rat.rename_dest(3, seq=30)
        rat.undo(undo_c)
        rat.undo(undo_b)
        assert rat.producer_of(3) == 10
        rat.undo(undo_a)
        assert rat.producer_of(3) == ARCH_READY

    def test_retire_clears_only_if_still_youngest(self):
        rat = RegisterAliasTable()
        rat.rename_dest(3, seq=10)
        rat.rename_dest(3, seq=20)
        rat.retire_dest(3, seq=10)
        assert rat.producer_of(3) == 20
        rat.retire_dest(3, seq=20)
        assert rat.producer_of(3) == ARCH_READY

    def test_clear(self):
        rat = RegisterAliasTable()
        rat.rename_dest(3, seq=10)
        rat.clear()
        assert rat.producer_of(3) == ARCH_READY

    def test_invalid_register(self):
        rat = RegisterAliasTable()
        with pytest.raises(ValueError):
            rat.producer_of(999)


class TestROB:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ReorderBuffer(size=0)


class TestCoreConfig:
    def test_defaults_match_paper(self):
        config = CoreConfig()
        assert config.rob_size == 512
        assert config.issue_queue_size == 300
        assert config.load_queue_size == 128
        assert config.store_queue_size == 64
        assert config.rename_width == 8
        assert config.issue_width == 8
        assert config.commit_width == 8
        assert config.fetch_width == 12
        assert config.issue_limits.int_ops == 6
        assert config.issue_limits.fp_ops == 4
        assert config.issue_limits.branches == 1
        assert config.issue_limits.loads == 2
        assert config.issue_limits.stores == 2
        assert config.ssn_bits == 16

    def test_sq_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            CoreConfig(store_queue_size=48)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(flush_penalty=-1)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=0)

    def test_issue_limits_validation(self):
        with pytest.raises(ValueError):
            IssueLimits(loads=0)

    def test_small_test_config(self):
        config = small_test_config()
        assert config.rob_size == 64
        assert config.store_queue_size == 8
        assert config.rob_size > config.load_queue_size > config.store_queue_size

    def test_small_test_config_overrides(self):
        config = small_test_config(rob_size=128)
        assert config.rob_size == 128


class TestSimStats:
    def test_derived_metrics_empty(self):
        stats = SimStats()
        assert stats.ipc == 0.0
        assert stats.forwarding_rate == 0.0
        assert stats.mis_forwardings_per_1000_loads == 0.0
        assert stats.avg_delay_cycles == 0.0

    def test_ipc(self):
        stats = SimStats(cycles=100, committed=250)
        assert stats.ipc == pytest.approx(2.5)

    def test_forwarding_rates(self):
        stats = SimStats(committed_loads=200, loads_should_forward=50, loads_forwarded=40)
        assert stats.forwarding_rate == pytest.approx(0.25)
        assert stats.forwarded_rate == pytest.approx(0.20)

    def test_mis_forwarding_per_1000(self):
        stats = SimStats(committed_loads=2000, mis_forwardings=3)
        assert stats.mis_forwardings_per_1000_loads == pytest.approx(1.5)

    def test_delay_metrics(self):
        stats = SimStats(committed_loads=100, loads_delayed=4, total_delay_cycles=200)
        assert stats.percent_loads_delayed == pytest.approx(4.0)
        assert stats.avg_delay_cycles == pytest.approx(50.0)

    def test_reexecution_rate(self):
        stats = SimStats(committed_loads=50, loads_reexecuted=5)
        assert stats.reexecution_rate == pytest.approx(0.1)

    def test_branch_misprediction_rate(self):
        stats = SimStats(committed_branches=100, branch_mispredictions=7)
        assert stats.branch_misprediction_rate == pytest.approx(0.07)

    def test_as_dict_contains_derived(self):
        stats = SimStats(cycles=10, committed=20)
        data = stats.as_dict()
        assert data["ipc"] == pytest.approx(2.0)
        assert "mis_forwardings_per_1000_loads" in data
        assert "percent_loads_delayed" in data
