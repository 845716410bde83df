"""Delay Distance Predictor (DDP).

Section 3.3: the DDP maps each static load to the distance (in dynamic
stores) between the load and the closest older store that causes its
mis-forwardings.  It is a tagged, PC-indexed, set-associative table; each
entry has a valid bit, partial tag, saturating counter, and two distance
fields.  The counter decides whether a load should be delayed at all; the
distance is used at rename to compute ``SSNdly = SSNren - Ddly``; the load
then waits until the store with that SSN has committed.

Training (all at load commit):

* On a *wrong forwarding prediction* the counter is incremented and a delay
  distance equal to ``SSNcmt - SSBF[load.addr]`` is learned, but only if it
  is smaller than the currently known distance (conservatively preserving
  information about previous delays).
* On a *correct forwarding prediction* the counter is decremented.
* To allow distances to be unlearned (not just the delay-or-not decision),
  each entry has a second "future" distance field trained in parallel; every
  ``future_interval`` (8) load instances the current field is replaced by the
  future field and the future field is reset.

Distances are clamped to the SQ size: any delay distance larger than the SQ
is effectively no delay at all (the store is guaranteed to have committed by
the time the load could possibly execute).

Layout: the DDP is one flat array of ways per field — ``_valid``,
``_tag``, ``_counter``, ``_current_distance``, ``_future_distance``,
``_instances`` and ``_lru`` — with way ``w`` of set ``s`` at slot
``s * assoc + w``, so a checkpoint pickles seven lists of small ints
rather than one object per way.
:class:`DDPEntry` is only the read-only value :meth:`entries` hands out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.predictors import DDPConfig


@dataclass(frozen=True, slots=True)
class DDPEntry:
    """One DDP way, as a read-only value."""

    valid: bool = False
    tag: int = 0
    counter: int = 0
    current_distance: int = 0
    future_distance: int = 0
    instances: int = 0
    lru: int = 0


@dataclass(slots=True)
class DDPStats:
    """DDP activity counters."""

    lookups: int = 0
    hits: int = 0
    delays_predicted: int = 0
    learns: int = 0
    unlearns: int = 0
    inserts: int = 0
    evictions: int = 0
    promotions: int = 0


class DelayDistancePredictor:
    """Tagged, PC-indexed load-delay-distance predictor."""

    def __init__(self, config: Optional[DDPConfig] = None, sq_size: int = 64) -> None:
        self.config = config or DDPConfig()
        if sq_size <= 0 or sq_size & (sq_size - 1):
            raise ValueError("SQ size must be a positive power of two")
        self.sq_size = sq_size
        self.stats = DDPStats()
        entries = self.config.entries
        self._assoc = self.config.assoc
        self._valid: List[bool] = [False] * entries
        self._tag: List[int] = [0] * entries
        self._counter: List[int] = [0] * entries
        self._current_distance: List[int] = [0] * entries
        self._future_distance: List[int] = [0] * entries
        self._instances: List[int] = [0] * entries
        self._lru: List[int] = [0] * entries
        self._set_mask = self.config.sets - 1
        self._tag_mask = (1 << self.config.tag_bits) - 1
        self._counter_max = (1 << self.config.counter_bits) - 1
        self._no_delay_distance = sq_size  # "distance >= SQ size" means no delay
        self._tag_shift = self.config.sets.bit_length() - 1
        self._lru_clock = 0

    # -- indexing ---------------------------------------------------------------

    def _find(self, load_pc: int) -> int:
        """Slot holding this load's entry, or -1.

        Per-load path (prediction and training): the set is walked with a
        ``while`` loop, which costs about half of building a ``range`` per
        call.
        """
        pc = load_pc >> 2
        tag = (pc >> self._tag_shift) & self._tag_mask
        slot = (pc & self._set_mask) * self._assoc
        end = slot + self._assoc
        valid, tags = self._valid, self._tag
        while slot < end:
            if tags[slot] == tag and valid[slot]:
                return slot
            slot += 1
        return -1

    # -- prediction -------------------------------------------------------------

    def predict_distance(self, load_pc: int) -> Optional[int]:
        """Delay distance for this load, or ``None`` for no delay.

        ``None`` is returned when the load has no DDP entry, its counter is
        below threshold, or its learned distance is at least the SQ size
        (which can impose no effective delay).
        """
        self.stats.lookups += 1
        slot = self._find(load_pc)
        if slot < 0:
            return None
        self.stats.hits += 1
        if self._counter[slot] < self.config.counter_threshold:
            return None
        distance = self._current_distance[slot]
        if distance >= self._no_delay_distance:
            return None
        self.stats.delays_predicted += 1
        return distance

    def delay_ssn(self, load_pc: int, ssn_rename: int) -> int:
        """``SSNdly`` for a load renamed when ``SSNren == ssn_rename``.

        Returns 0 (no delay) when the predictor does not delay this load.
        """
        distance = self.predict_distance(load_pc)
        if distance is None:
            return 0
        ssn_dly = ssn_rename - distance
        return max(ssn_dly, 0)

    # -- training ---------------------------------------------------------------

    def train_wrong_prediction(self, load_pc: int, observed_distance: int) -> None:
        """Train on a wrong forwarding prediction.

        ``observed_distance`` is ``SSNcmt - SSBF[load.addr]`` computed at load
        commit: the distance (in dynamic stores) from the load's commit point
        back to the actual most recent store to its address.
        """
        observed_distance = max(0, min(observed_distance, self._no_delay_distance))
        slot = self._find(load_pc)
        if slot < 0:
            self._insert(load_pc, observed_distance)
            return
        self.stats.learns += 1
        self._counter[slot] = min(self._counter_max,
                                  self._counter[slot] + self.config.positive_weight)
        # Conservatively keep the smallest (most conservative) distance.
        if observed_distance < self._current_distance[slot]:
            self._current_distance[slot] = observed_distance
        if observed_distance < self._future_distance[slot]:
            self._future_distance[slot] = observed_distance
        self._tick(slot)

    def train_correct_prediction(self, load_pc: int) -> None:
        """Train on a correct forwarding prediction (decrement the counter)."""
        slot = self._find(load_pc)
        if slot < 0:
            return
        self.stats.unlearns += 1
        self._counter[slot] = max(0, self._counter[slot] - self.config.negative_weight)
        self._tick(slot)

    def _tick(self, slot: int) -> None:
        """Advance the per-entry instance counter; promote the future field
        every ``future_interval`` instances (distance down-training)."""
        instances = self._instances[slot] + 1
        if instances >= self.config.future_interval:
            instances = 0
            self._current_distance[slot] = self._future_distance[slot]
            self._future_distance[slot] = self._no_delay_distance
            self.stats.promotions += 1
        self._instances[slot] = instances

    def _insert(self, load_pc: int, distance: int) -> None:
        pc = load_pc >> 2
        tag = (pc >> self._tag_shift) & self._tag_mask
        base = (pc & self._set_mask) * self._assoc
        ways = range(base, base + self._assoc)
        self.stats.inserts += 1
        self._lru_clock += 1
        valid = self._valid
        # Reuse an invalid way first.
        for slot in ways:
            if not valid[slot]:
                break
        else:
            # Evict the way with the smallest counter (ties broken by LRU,
            # then by way order).
            counter, lru = self._counter, self._lru
            slot = min(ways, key=lambda s: (counter[s], lru[s]))
            self.stats.evictions += 1
        valid[slot] = True
        self._tag[slot] = tag
        self._counter[slot] = min(self._counter_max, self.config.positive_weight)
        self._current_distance[slot] = distance
        self._future_distance[slot] = distance
        self._instances[slot] = 0
        self._lru[slot] = self._lru_clock

    # -- maintenance ------------------------------------------------------------

    def invalidate_all(self) -> None:
        """Clear the predictor."""
        entries = self.config.entries
        self._valid[:] = [False] * entries
        self._counter[:] = [0] * entries

    def occupancy(self) -> int:
        return self._valid.count(True)

    def entries(self) -> List[DDPEntry]:
        """Every way's contents, valid or not, in ``set * assoc + way`` order."""
        return [DDPEntry(self._valid[slot], self._tag[slot], self._counter[slot],
                         self._current_distance[slot], self._future_distance[slot],
                         self._instances[slot], self._lru[slot])
                for slot in range(self.config.entries)]

    def state_signature(self) -> frozenset:
        """The set of (set index, tag, current distance) delays held
        (counters/LRU excluded; see the FSP's ``state_signature``)."""
        assoc, tags, current = self._assoc, self._tag, self._current_distance
        return frozenset(
            (slot // assoc, tags[slot], current[slot])
            for slot, valid in enumerate(self._valid) if valid)

    def storage_bits(self) -> int:
        """Approximate storage cost in bits (two distances + counter + tag)."""
        distance_bits = (self.sq_size - 1).bit_length()
        per_entry = 1 + self.config.tag_bits + self.config.counter_bits + 2 * distance_bits
        return per_entry * self.config.entries
