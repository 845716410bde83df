"""Load queue.

With SVW-filtered re-execution the load queue needs no address CAM
(Section 2, Figure 2): it is an age-ordered buffer holding, per in-flight
load, the executed value and the SVW sequence number used by the
re-execution filter.  The core's run loop (:mod:`repro.pipeline._vector_loop`)
keeps that per-load state with the rest of its in-flight arrays and models
the queue's occupancy itself; this class holds the capacity and the
activity counters the loop writes back after every run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class LoadQueueStats:
    """LQ activity counters."""

    allocations: int = 0
    releases: int = 0
    squashes: int = 0


class LoadQueue:
    """Age-ordered load queue without an address CAM."""

    def __init__(self, size: int = 128) -> None:
        if size <= 0:
            raise ValueError("LQ size must be positive")
        self.size = size
        self.stats = LoadQueueStats()
