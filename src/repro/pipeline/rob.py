"""Reorder buffer.

The ROB is the in-order window of in-flight instructions.  The window
itself — program order, commit from the head, squash of everything younger
than a flushing load — lives in the core's run loop
(:mod:`repro.pipeline._vector_loop`), which keeps in-flight state in
struct-of-arrays form.  This class holds the ROB's capacity and the
counters the loop writes back after every run.
"""

from __future__ import annotations


class ReorderBuffer:
    """ROB capacity plus allocation and peak-occupancy counters."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("ROB size must be positive")
        self.size = size
        #: Instructions allocated (squashed re-dispatches included).
        self.allocations = 0
        self.max_occupancy = 0
