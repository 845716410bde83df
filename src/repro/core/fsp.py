"""Forwarding Store Predictor (FSP).

Section 3.2: the FSP maps each load PC to a small set of store PCs from which
the load recently forwarded.  It is a PC-indexed, set-associative table; each
entry holds a valid bit, a partial tag, a partial store PC, and a short
saturating counter.  The associativity determines both how many loads can
share a set and how many store dependences a single load can represent; the
paper finds 2-way associativity adequate.

The FSP is trained at load commit by every committing load (both positively
and negatively); the per-entry counter weighs positive training against
negative with a default ratio of 8:1.  The decision of *when* to train
positively or negatively (correct forwarding, mis-forwarding with an
unpredicted store PC, distance larger than the SQ, not-most-recent
forwarding) lives in the indexed-SQ policy
(:mod:`repro.lsu.policies`); this class provides the mechanical operations:
lookup, strengthen, weaken, and insert.

Layout: like the hardware table, the FSP is one flat array of ways per
field — ``_valid``, ``_tag``, ``_store_pc``, ``_counter`` and ``_lru`` —
with way ``w`` of set ``s`` at slot ``s * assoc + w``.  A checkpoint
therefore pickles five lists of small ints, not one object per way.
:class:`FSPEntry` is only the read-only value :meth:`lookup` and
:meth:`entries` hand out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.predictors import FSPConfig


@dataclass(frozen=True, slots=True)
class FSPEntry:
    """One FSP way, as a read-only value."""

    valid: bool = False
    tag: int = 0
    store_pc: int = 0          # partial store PC (SAT index bits)
    counter: int = 0
    lru: int = 0


@dataclass(slots=True)
class FSPStats:
    """FSP activity counters."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0
    strengthens: int = 0
    weakens: int = 0
    invalidations: int = 0


class ForwardingStorePredictor:
    """PC-indexed set-associative load-PC -> store-PC predictor."""

    def __init__(self, config: Optional[FSPConfig] = None) -> None:
        self.config = config or FSPConfig()
        self.stats = FSPStats()
        entries = self.config.entries
        self._assoc = self.config.assoc
        self._valid: List[bool] = [False] * entries
        self._tag: List[int] = [0] * entries
        self._store_pc: List[int] = [0] * entries
        self._counter: List[int] = [0] * entries
        self._lru: List[int] = [0] * entries
        self._set_mask = self.config.sets - 1
        self._tag_mask = (1 << self.config.tag_bits) - 1
        self._store_pc_mask = (1 << self.config.store_pc_bits) - 1
        self._counter_max = (1 << self.config.counter_bits) - 1
        self._tag_shift = self.config.sets.bit_length() - 1
        self._lru_clock = 0

    # -- indexing helpers -------------------------------------------------------

    def _locate(self, load_pc: int) -> Tuple[range, int]:
        """The slots of a load PC's set and the tag it matches against."""
        pc = load_pc >> 2
        base = (pc & self._set_mask) * self._assoc
        return range(base, base + self._assoc), (pc >> self._tag_shift) & self._tag_mask

    def partial_store_pc(self, store_pc: int) -> int:
        """Partial store PC as stored in an entry (and used to index the SAT)."""
        return (store_pc >> 2) & self._store_pc_mask

    def _entry(self, slot: int) -> FSPEntry:
        return FSPEntry(self._valid[slot], self._tag[slot], self._store_pc[slot],
                        self._counter[slot], self._lru[slot])

    # -- prediction -------------------------------------------------------------

    def lookup(self, load_pc: int) -> List[FSPEntry]:
        """Return the (up to ``assoc``) matching entries for a load PC.

        All matching valid entries are returned, in way order; the counter
        is used for replacement decisions and is consulted by callers that
        want to ignore weak entries.  A hit stamps every matching way with
        one new LRU time.
        """
        self.stats.lookups += 1
        ways, tag = self._locate(load_pc)
        valid, tags = self._valid, self._tag
        matches = [slot for slot in ways if valid[slot] and tags[slot] == tag]
        if matches:
            self.stats.hits += 1
            self._lru_clock += 1
            for slot in matches:
                self._lru[slot] = self._lru_clock
        return [self._entry(slot) for slot in matches]

    def predicted_store_pcs(self, load_pc: int) -> List[int]:
        """Partial store PCs predicted for this load (for chained SAT access)."""
        return [e.store_pc for e in self.lookup(load_pc)]

    # -- training ---------------------------------------------------------------

    def _find(self, load_pc: int, store_pc: int) -> int:
        """Slot holding the load->store dependence, or -1.

        Per-load training path: :meth:`_locate` is inlined and the set is
        walked with a ``while`` loop, which costs about half of building a
        ``range`` per call.
        """
        pc = load_pc >> 2
        tag = (pc >> self._tag_shift) & self._tag_mask
        slot = (pc & self._set_mask) * self._assoc
        end = slot + self._assoc
        partial = self.partial_store_pc(store_pc)
        valid, tags, store_pcs = self._valid, self._tag, self._store_pc
        while slot < end:
            if tags[slot] == tag and valid[slot] and store_pcs[slot] == partial:
                return slot
            slot += 1
        return -1

    def strengthen(self, load_pc: int, store_pc: int) -> None:
        """Positive training: reinforce (or create) the load->store dependence."""
        slot = self._find(load_pc, store_pc)
        if slot < 0:
            self.insert(load_pc, store_pc)
            return
        self.stats.strengthens += 1
        self._counter[slot] = min(self._counter_max,
                                  self._counter[slot] + self.config.positive_weight)
        self._lru_clock += 1
        self._lru[slot] = self._lru_clock

    def _weaken_slot(self, slot: int) -> None:
        self.stats.weakens += 1
        counter = self._counter[slot] - self.config.negative_weight
        if counter < 0:
            self._valid[slot] = False
            counter = 0
            self.stats.invalidations += 1
        self._counter[slot] = counter

    def weaken(self, load_pc: int, store_pc: int) -> None:
        """Negative training: weaken the dependence; invalidate when exhausted."""
        slot = self._find(load_pc, store_pc)
        if slot >= 0:
            self._weaken_slot(slot)

    def weaken_all(self, load_pc: int) -> None:
        """Weaken every dependence recorded for this load PC."""
        pc = load_pc >> 2
        tag = (pc >> self._tag_shift) & self._tag_mask
        slot = (pc & self._set_mask) * self._assoc
        end = slot + self._assoc
        valid, tags = self._valid, self._tag
        while slot < end:
            if tags[slot] == tag and valid[slot]:
                self._weaken_slot(slot)
            slot += 1

    def insert(self, load_pc: int, store_pc: int) -> None:
        """Install a new load->store dependence, evicting the weakest way."""
        ways, tag = self._locate(load_pc)
        partial = self.partial_store_pc(store_pc)
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
        self._store_pc[slot] = partial
        self._counter[slot] = self.config.positive_weight
        self._lru[slot] = self._lru_clock

    def invalidate_all(self) -> None:
        """Clear the predictor (SSN wrap handling clears SSN-free state too
        conservatively; provided mainly for tests and wrap modelling)."""
        entries = self.config.entries
        self._valid[:] = [False] * entries
        self._counter[:] = [0] * entries

    def occupancy(self) -> int:
        """Number of valid entries (for diagnostics)."""
        return self._valid.count(True)

    def entries(self) -> List[FSPEntry]:
        """Every way's contents, valid or not, in ``set * assoc + way`` order."""
        return [self._entry(slot) for slot in range(self.config.entries)]

    def state_signature(self) -> frozenset:
        """The set of (set index, tag, partial store PC) dependences held.

        Counter and LRU values are excluded: they steer replacement, not
        prediction, and functional warming trains them at a different rate
        than detailed execution.  Warming tests compare dependence *sets*.
        """
        assoc, tags, store_pcs = self._assoc, self._tag, self._store_pc
        return frozenset(
            (slot // assoc, tags[slot], store_pcs[slot])
            for slot, valid in enumerate(self._valid) if valid)

    def storage_bits(self) -> int:
        """Approximate storage cost in bits (Section 4.1 sizing discussion)."""
        per_entry = 1 + self.config.tag_bits + self.config.store_pc_bits + self.config.counter_bits
        return per_entry * self.config.entries
