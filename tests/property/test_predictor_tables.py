"""Seeded-random differential test of the FSP and DDP tables against the
frozen seed implementations in ``benchmarks/legacy_ref/``.

``repro.core`` keeps each predictor as flat per-field lists indexed
``set * assoc + way``; the seed stack keeps one object per way.  Both are
driven through the same random operation sequence on tiny tables (a few
sets, a handful of load PCs, narrow tags and counters) so that sets
overflow, partial tags and store PCs alias, and replacement ties on
``(counter, lru)`` are common.  After every operation the test compares
the operation's result, every way's full contents (valid, tag, store PC,
counter, LRU stamp, both distances, instance count) and the stats
dataclass.

``state_signature()`` leaves counters and LRU stamps out, and the golden
suite sees a replacement slip only once it changes a simulated number;
this is the check that catches a wrong victim or LRU sequence directly.
"""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

from repro.core.ddp import DelayDistancePredictor
from repro.core.fsp import ForwardingStorePredictor
from repro.core.predictors import DDPConfig, FSPConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from legacy_ref import ddp as legacy_ddp  # noqa: E402
from legacy_ref import fsp as legacy_fsp  # noqa: E402
from legacy_ref import predictors as legacy_predictors  # noqa: E402

OPERATIONS = 400
SEEDS = range(5)

#: (entries, assoc, tag_bits, store_pc_bits, counter_bits, positive, negative)
FSP_GEOMETRIES = [
    (8, 1, 8, 8, 4, 8, 1),
    (8, 2, 8, 8, 4, 8, 1),
    (16, 4, 2, 3, 2, 2, 1),
    (32, 2, 3, 8, 3, 4, 2),
    (32, 4, 8, 8, 4, 8, 1),
    (16, 2, 8, 4, 1, 1, 1),
]

#: (entries, assoc, tag_bits, counter_bits, threshold, positive, negative,
#:  future_interval, sq_size)
DDP_GEOMETRIES = [
    (8, 1, 8, 4, 8, 4, 1, 8, 16),
    (8, 2, 8, 4, 8, 4, 1, 8, 8),
    (16, 4, 2, 2, 2, 1, 1, 2, 8),
    (32, 2, 8, 3, 4, 4, 1, 3, 32),
    (32, 4, 3, 4, 8, 4, 1, 8, 16),
    (16, 2, 8, 1, 1, 1, 1, 1, 4),
]


def _load_pcs(rng, entries, assoc):
    """More distinct load PCs than ways, packed onto few sets."""
    sets = entries // assoc
    words = rng.sample(range(sets * 12), entries + 4)
    return [4 * word for word in words]


def _fsp_ways(fsp):
    return [(e.valid, e.tag, e.store_pc, e.counter, e.lru) for e in fsp.entries()]


def _legacy_fsp_ways(fsp):
    return [(e.valid, e.tag, e.store_pc, e.counter, e.lru)
            for ways in fsp._sets for e in ways]


def _ddp_ways(ddp):
    return [(e.valid, e.tag, e.counter, e.current_distance, e.future_distance,
             e.instances, e.lru) for e in ddp.entries()]


def _legacy_ddp_ways(ddp):
    return [(e.valid, e.tag, e.counter, e.current_distance, e.future_distance,
             e.instances, e.lru) for ways in ddp._sets for e in ways]


def _entry_values(entries):
    return [(e.valid, e.tag, e.store_pc, e.counter, e.lru) for e in entries]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("geometry", FSP_GEOMETRIES, ids=lambda g: "x".join(map(str, g)))
def test_fsp_matches_seed_table(geometry, seed):
    entries, assoc, tag_bits, store_pc_bits, counter_bits, pos, neg = geometry
    params = dict(entries=entries, assoc=assoc, tag_bits=tag_bits,
                  store_pc_bits=store_pc_bits, counter_bits=counter_bits,
                  positive_weight=pos, negative_weight=neg)
    fsp = ForwardingStorePredictor(FSPConfig(**params))
    ref = legacy_fsp.ForwardingStorePredictor(legacy_predictors.FSPConfig(**params))
    rng = random.Random(f"fsp-{geometry}-{seed}")
    load_pcs = _load_pcs(rng, entries, assoc)
    store_pcs = [4 * word for word in rng.sample(range(64), 6)]

    for step in range(OPERATIONS):
        load_pc = rng.choice(load_pcs)
        store_pc = rng.choice(store_pcs)
        roll = rng.random()
        if roll < 0.25:
            op = "lookup"
            got = _entry_values(fsp.lookup(load_pc))
            want = _entry_values(ref.lookup(load_pc))
        elif roll < 0.30:
            op = "predicted_store_pcs"
            got = fsp.predicted_store_pcs(load_pc)
            want = ref.predicted_store_pcs(load_pc)
        elif roll < 0.55:
            op = "strengthen"
            got = fsp.strengthen(load_pc, store_pc)
            want = ref.strengthen(load_pc, store_pc)
        elif roll < 0.70:
            op = "weaken"
            got = fsp.weaken(load_pc, store_pc)
            want = ref.weaken(load_pc, store_pc)
        elif roll < 0.78:
            op = "weaken_all"
            got = fsp.weaken_all(load_pc)
            want = ref.weaken_all(load_pc)
        elif roll < 0.985:
            op = "insert"
            got = fsp.insert(load_pc, store_pc)
            want = ref.insert(load_pc, store_pc)
        else:
            op = "invalidate_all"
            got = fsp.invalidate_all()
            want = ref.invalidate_all()
        where = f"step {step}: {op}({load_pc:#x}, {store_pc:#x})"
        assert got == want, where
        assert _fsp_ways(fsp) == _legacy_fsp_ways(ref), where
        assert dataclasses.asdict(fsp.stats) == dataclasses.asdict(ref.stats), where
        assert fsp.occupancy() == ref.occupancy(), where
        assert fsp.state_signature() == ref.state_signature(), where


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("geometry", DDP_GEOMETRIES, ids=lambda g: "x".join(map(str, g)))
def test_ddp_matches_seed_table(geometry, seed):
    (entries, assoc, tag_bits, counter_bits, threshold, pos, neg,
     future_interval, sq_size) = geometry
    params = dict(entries=entries, assoc=assoc, tag_bits=tag_bits,
                  counter_bits=counter_bits, counter_threshold=threshold,
                  positive_weight=pos, negative_weight=neg,
                  future_interval=future_interval)
    ddp = DelayDistancePredictor(DDPConfig(**params), sq_size=sq_size)
    ref = legacy_ddp.DelayDistancePredictor(legacy_predictors.DDPConfig(**params),
                                            sq_size=sq_size)
    rng = random.Random(f"ddp-{geometry}-{seed}")
    load_pcs = _load_pcs(rng, entries, assoc)

    for step in range(OPERATIONS):
        load_pc = rng.choice(load_pcs)
        roll = rng.random()
        if roll < 0.25:
            op = "predict_distance"
            got = ddp.predict_distance(load_pc)
            want = ref.predict_distance(load_pc)
        elif roll < 0.35:
            op = "delay_ssn"
            ssn = rng.randrange(sq_size * 4)
            got = ddp.delay_ssn(load_pc, ssn)
            want = ref.delay_ssn(load_pc, ssn)
        elif roll < 0.70:
            op = "train_wrong_prediction"
            distance = rng.randrange(-2, sq_size + 4)
            got = ddp.train_wrong_prediction(load_pc, distance)
            want = ref.train_wrong_prediction(load_pc, distance)
        elif roll < 0.99:
            op = "train_correct_prediction"
            got = ddp.train_correct_prediction(load_pc)
            want = ref.train_correct_prediction(load_pc)
        else:
            op = "invalidate_all"
            got = ddp.invalidate_all()
            want = ref.invalidate_all()
        where = f"step {step}: {op}({load_pc:#x})"
        assert got == want, where
        assert _ddp_ways(ddp) == _legacy_ddp_ways(ref), where
        assert dataclasses.asdict(ddp.stats) == dataclasses.asdict(ref.stats), where
        assert ddp.occupancy() == ref.occupancy(), where
        assert ddp.state_signature() == ref.state_signature(), where
