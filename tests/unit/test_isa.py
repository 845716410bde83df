"""Unit tests for the trace ISA: micro-ops, registers, traces."""

import pickle

import pytest

from repro.isa.registers import (
    ArchRegisterFile,
    FP_REG_COUNT,
    INT_REG_COUNT,
    REG_ZERO,
    TOTAL_REG_COUNT,
    is_fp_reg,
    is_int_reg,
    validate_reg,
)
from repro.isa.plane import EncodedOps, encode_uops
from repro.isa.uop import (
    DEFAULT_LATENCIES,
    MemAccess,
    MicroOp,
    OpClass,
    make_alu,
    make_branch,
    make_load,
    make_store,
)


# ---------------------------------------------------------------------------
# OpClass
# ---------------------------------------------------------------------------

class TestOpClass:
    def test_load_predicates(self):
        assert OpClass.LOAD.is_load
        assert OpClass.LOAD.is_memory
        assert not OpClass.LOAD.is_store
        assert not OpClass.LOAD.is_branch

    def test_store_predicates(self):
        assert OpClass.STORE.is_store
        assert OpClass.STORE.is_memory
        assert not OpClass.STORE.is_load

    def test_branch_predicates(self):
        assert OpClass.BRANCH.is_branch
        assert not OpClass.BRANCH.is_memory

    def test_fp_classification(self):
        assert OpClass.FP_ALU.is_fp
        assert OpClass.FP_MUL.is_fp
        assert OpClass.FP_DIV.is_fp
        assert not OpClass.INT_ALU.is_fp

    def test_int_classification(self):
        assert OpClass.INT_ALU.is_int
        assert OpClass.INT_MUL.is_int
        assert not OpClass.FP_ALU.is_int

    def test_every_class_has_latency(self):
        for op_class in OpClass:
            assert op_class in DEFAULT_LATENCIES
            assert DEFAULT_LATENCIES[op_class] >= 1


# ---------------------------------------------------------------------------
# MemAccess
# ---------------------------------------------------------------------------

class TestMemAccess:
    def test_valid_sizes(self):
        for size in (1, 2, 4, 8):
            access = MemAccess(addr=0x1000, size=size)
            assert access.size == size

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MemAccess(addr=0x1000, size=3)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemAccess(addr=-8, size=8)

    def test_value_width_checked(self):
        with pytest.raises(ValueError):
            MemAccess(addr=0, size=1, value=256)
        MemAccess(addr=0, size=1, value=255)

    def test_byte_range(self):
        access = MemAccess(addr=0x100, size=4)
        assert list(access.byte_range) == [0x100, 0x101, 0x102, 0x103]

    def test_overlaps_true(self):
        a = MemAccess(addr=0x100, size=8)
        b = MemAccess(addr=0x104, size=8)
        assert a.overlaps(b)
        assert b.overlaps(a)

    def test_overlaps_false_adjacent(self):
        a = MemAccess(addr=0x100, size=8)
        b = MemAccess(addr=0x108, size=8)
        assert not a.overlaps(b)

    def test_contains(self):
        wide = MemAccess(addr=0x100, size=8)
        narrow = MemAccess(addr=0x104, size=4)
        assert wide.contains(narrow)
        assert not narrow.contains(wide)

    def test_contains_requires_full_cover(self):
        a = MemAccess(addr=0x100, size=4)
        b = MemAccess(addr=0x102, size=4)
        assert not a.contains(b)


# ---------------------------------------------------------------------------
# MicroOp
# ---------------------------------------------------------------------------

class TestMicroOp:
    def test_load_requires_mem(self):
        with pytest.raises(ValueError):
            MicroOp(pc=0x400, op_class=OpClass.LOAD, dest=1)

    def test_store_requires_value(self):
        with pytest.raises(ValueError):
            MicroOp(pc=0x400, op_class=OpClass.STORE, mem=MemAccess(addr=8, size=8))

    def test_alu_must_not_carry_mem(self):
        with pytest.raises(ValueError):
            MicroOp(pc=0x400, op_class=OpClass.INT_ALU, dest=1, mem=MemAccess(addr=8, size=8))

    def test_taken_branch_requires_target(self):
        with pytest.raises(ValueError):
            MicroOp(pc=0x400, op_class=OpClass.BRANCH, is_taken=True)

    def test_make_load(self):
        uop = make_load(0x400, dest=3, addr=0x1000, size=4)
        assert uop.is_load and uop.dest == 3 and uop.addr == 0x1000 and uop.size == 4

    def test_make_store(self):
        uop = make_store(0x404, addr=0x1000, value=0xAB, size=1)
        assert uop.is_store and uop.mem.value == 0xAB

    def test_make_alu(self):
        uop = make_alu(0x408, dest=5, srcs=(1, 2))
        assert uop.op_class is OpClass.INT_ALU and uop.srcs == (1, 2)

    def test_make_branch_default_target(self):
        uop = make_branch(0x40C, taken=True)
        assert uop.is_branch and uop.is_taken and uop.target is not None

    def test_describe_contains_pc_and_class(self):
        uop = make_load(0x400, dest=3, addr=0x1000)
        text = uop.describe()
        assert "0x400" in text and "LOAD" in text

    def test_describe_branch_direction(self):
        taken = make_branch(0x400, taken=True)
        not_taken = make_branch(0x404, taken=False)
        assert "taken" in taken.describe()
        assert "not-taken" in not_taken.describe()


# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------

class TestRegisters:
    def test_counts(self):
        assert TOTAL_REG_COUNT == INT_REG_COUNT + FP_REG_COUNT

    def test_classification(self):
        assert is_int_reg(0)
        assert is_int_reg(INT_REG_COUNT - 1)
        assert is_fp_reg(INT_REG_COUNT)
        assert not is_fp_reg(0)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_reg(TOTAL_REG_COUNT)
        with pytest.raises(ValueError):
            validate_reg(-1)

    def test_zero_register_reads_zero(self):
        regfile = ArchRegisterFile()
        regfile.write(REG_ZERO, 0xDEAD)
        assert regfile.read(REG_ZERO) == 0

    def test_write_read_roundtrip(self):
        regfile = ArchRegisterFile()
        regfile.write(5, 0x1234)
        assert regfile.read(5) == 0x1234

    def test_write_masks_to_64_bits(self):
        regfile = ArchRegisterFile()
        regfile.write(4, 1 << 70)
        assert regfile.read(4) == 0

    def test_snapshot_restore(self):
        regfile = ArchRegisterFile()
        regfile.write(3, 7)
        snap = regfile.snapshot()
        regfile.write(3, 9)
        regfile.restore(snap)
        assert regfile.read(3) == 7

    def test_restore_rejects_bad_length(self):
        regfile = ArchRegisterFile()
        with pytest.raises(ValueError):
            regfile.restore([0, 1, 2])

    def test_len_and_iter(self):
        regfile = ArchRegisterFile()
        assert len(regfile) == TOTAL_REG_COUNT
        assert len(list(regfile)) == TOTAL_REG_COUNT


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def _small_trace() -> EncodedOps:
    return encode_uops([
        make_load(0x400, dest=1, addr=0x1000, size=8),
        make_alu(0x404, dest=2, srcs=(1,)),
        make_store(0x408, addr=0x1000, value=0x55, size=1, srcs=(2,)),
        make_branch(0x40C, taken=True, target=0x400, call=True),
        make_branch(0x410, taken=False),
    ], name="unit")


class TestTrace:
    def test_writer_builds_in_order(self):
        trace = _small_trace()
        assert len(trace) == 5
        assert trace[0].is_load and trace[2].is_store

    def test_stats_counts(self):
        stats = _small_trace().stats
        assert stats.total == 5
        assert stats.loads == 1
        assert stats.stores == 1
        assert stats.branches == 2
        assert stats.taken_branches == 1
        assert stats.int_ops == 1
        assert stats.fp_ops == 0

    def test_stats_unique_pcs(self):
        stats = _small_trace().stats
        assert stats.unique_pcs == 5
        assert stats.unique_load_pcs == 1
        assert stats.unique_store_pcs == 1

    def test_stats_fractions(self):
        stats = _small_trace().stats
        assert stats.load_fraction == pytest.approx(0.2)
        assert stats.store_fraction == pytest.approx(0.2)
        assert stats.branch_fraction == pytest.approx(0.4)

    def test_empty_trace_stats(self):
        stats = EncodedOps().stats
        assert stats.total == 0
        assert stats.load_fraction == 0.0

    def test_truncated(self):
        trace = _small_trace()
        short = trace.slice(0, 2)
        assert len(short) == 2 and len(trace) == 5
        assert short.uops == trace.uops[:2]

    def test_serialisation_roundtrip(self):
        trace = _small_trace()
        restored = pickle.loads(pickle.dumps(trace))
        assert restored.name == trace.name
        assert len(restored) == len(trace)
        for original, loaded in zip(trace, restored):
            assert original.pc == loaded.pc
            assert original.op_class == loaded.op_class
            assert original.dest == loaded.dest
            assert original.srcs == loaded.srcs
            assert (original.mem is None) == (loaded.mem is None)
            if original.mem is not None:
                assert original.mem.addr == loaded.mem.addr
                assert original.mem.size == loaded.mem.size
                assert original.mem.value == loaded.mem.value
            assert original.is_taken == loaded.is_taken
            assert original.hint_call == loaded.hint_call

    def test_extend(self):
        trace = _small_trace()
        trace.extend(encode_uops([make_alu(0x500, dest=3)]))
        assert len(trace) == 6
        assert trace[5].pc == 0x500 and trace[5].dest == 3
