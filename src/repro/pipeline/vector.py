"""``VectorCore``: a second name for :class:`~repro.pipeline.core.OutOfOrderCore`."""

from repro.pipeline.core import OutOfOrderCore

# The frozen benchmark tracer (perfbench/tracing.py) imports this name and
# wraps ``run`` on it at class level; the alias keeps that hook on the core.
VectorCore = OutOfOrderCore

__all__ = ["VectorCore"]
