"""Trace micro-op ISA.

The paper evaluates on Alpha AXP binaries.  This reproduction replaces the
Alpha front end with a compact *trace ISA*.  A trace is **two-plane**
(:mod:`repro.isa.plane`): a :class:`~repro.isa.plane.StaticProgramPlane`
decoded once per static program (op classes, register tuples, issue-class
routing, branch hints, latencies) plus an
:class:`~repro.isa.plane.EncodedOps` dynamic stream carrying only
per-instance fields (address / size / store value, branch outcome /
target).  ``EncodedOps`` is the only trace type.
:class:`~repro.isa.uop.MicroOp` is the one-object view of a single dynamic
instruction: build traces by hand as ``MicroOp`` lists and intern them
with :func:`~repro.isa.plane.encode_uops`.
"""

from repro.isa.registers import ArchRegisterFile, INT_REG_COUNT, FP_REG_COUNT, REG_ZERO
from repro.isa.uop import MemAccess, MicroOp, OpClass
from repro.isa.plane import EncodedOps, StaticProgramPlane, TraceStats, encode_uops

__all__ = [
    "ArchRegisterFile",
    "EncodedOps",
    "StaticProgramPlane",
    "encode_uops",
    "FP_REG_COUNT",
    "INT_REG_COUNT",
    "MemAccess",
    "MicroOp",
    "OpClass",
    "REG_ZERO",
    "TraceStats",
]
