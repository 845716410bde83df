"""Every ``REPRO_*`` environment knob, in one table.

Each :class:`Knob` row names a variable, the parser that turns its raw
string into a value, the default used when it is unset or empty, a
one-line hint for error messages, and whether it is *execution-only*.
An execution-only knob changes how a sweep runs (workers, stores,
retries, profiling), never what any job computes, so it stays out of
every result-cache and snapshot key.  ``REPRO_CHECKPOINTS`` is the one
exception: it picks the warm state sampled intervals start from.

Every ``REPRO_*`` read in :mod:`repro` goes through :func:`value`, and
:func:`validate_environment` parses the whole table, so a malformed value
fails fast as one :class:`EnvKnobError` line that names the knob.

============================  ======================================================
``REPRO_JOBS``                worker count (default 1; ``<= 0`` means all CPUs)
``REPRO_CACHE``               ``0`` disables the result cache
``REPRO_CACHE_DIR``           result-cache directory (default ``.repro-cache/``)
``REPRO_CHECKPOINTS``         ``0`` turns checkpointed warming off for sampled runs
``REPRO_CHECKPOINT_DIR``      snapshot-store directory (default ``.repro-checkpoints/``)
``REPRO_RETRIES``             retries per crashed or timed-out job (default 2)
``REPRO_JOB_TIMEOUT``         per-job deadline in seconds on the pool (0 disables)
``REPRO_FAULT_PLAN``          deterministic fault injection, see
                              :func:`repro.exec.resilience.parse_fault_plan`
``REPRO_PROFILE``             ``1`` or a directory: per-job ``cProfile`` dumps
============================  ======================================================

The cache and checkpoint directories are always safe to delete.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["KNOBS", "EnvKnobError", "Knob", "validate_environment", "value"]


class EnvKnobError(ValueError):
    """A malformed ``REPRO_*`` environment knob.

    The message is a single actionable line (knob name, offending value,
    what to use instead); entry points print it and exit instead of dumping
    a traceback from the middle of a sweep.
    """


@dataclass(frozen=True)
class Knob:
    """One row of the knob table."""

    name: str
    #: Raw (stripped, non-empty) string -> value; raises ``ValueError``
    #: with a short reason on malformed input.
    parse: Callable[[str], Any]
    default: Any
    hint: str
    execution_only: bool = True


def _integer(minimum: Optional[int] = None) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        try:
            number = int(raw)
        except ValueError:
            raise ValueError("must be an integer") from None
        if minimum is not None and number < minimum:
            raise ValueError(f"must be >= {minimum}")
        return number
    return parse


def _seconds(raw: str) -> float:
    try:
        number = float(raw)
    except ValueError:
        raise ValueError("must be a number") from None
    if number < 0:
        raise ValueError("must be >= 0")
    return number


def _switch(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError("must be 0 or 1")
    return raw == "1"


def _directory(raw: str) -> str:
    if os.path.isfile(raw):
        raise ValueError("must be a directory path, not an existing file")
    return raw


def _profile(raw: str) -> Optional[str]:
    if raw == "0":
        return None
    return ".repro-profile" if raw == "1" else _directory(raw)


def _fault_plan(raw: str):
    from repro.exec.resilience import parse_fault_plan

    return parse_fault_plan(raw)


KNOBS: Tuple[Knob, ...] = (
    Knob("REPRO_JOBS", _integer(), 1,
         'use 0 or a negative value for "all CPUs"'),
    Knob("REPRO_CACHE", _switch, True, "use 0 to disable the result cache"),
    Knob("REPRO_CACHE_DIR", _directory, ".repro-cache",
         "point it at a directory, or unset it for .repro-cache/"),
    Knob("REPRO_CHECKPOINTS", _switch, True,
         "use 0 for bounded functional warming", execution_only=False),
    Knob("REPRO_CHECKPOINT_DIR", _directory, ".repro-checkpoints",
         "point it at a directory, or unset it for .repro-checkpoints/"),
    Knob("REPRO_RETRIES", _integer(minimum=0), 2, "use 0 to disable retries"),
    # Generous: one checkpoint-generation job replays a whole trace prefix,
    # which runs long at paper-scale lengths, and the deadline must never
    # fire on a healthy machine.
    Knob("REPRO_JOB_TIMEOUT", _seconds, 3600.0,
         "seconds per job; use 0 to disable deadlines"),
    Knob("REPRO_FAULT_PLAN", _fault_plan, None,
         "e.g. worker_crash@job:3,corrupt_blob@p=0.1"),
    Knob("REPRO_PROFILE", _profile, None,
         "use 1 for .repro-profile/ or a directory path"),
)

_BY_NAME: Dict[str, Knob] = {knob.name: knob for knob in KNOBS}

#: Parsed values memoized by ``(name, raw)``.  The fault plan needs the
#: memo (its fire-once-per-key state must outlive one lookup, and it is
#: read on every blob write); for the other knobs it is merely cheap.
_PARSED: Dict[Tuple[str, str], Any] = {}

_UNSET = object()


def value(name: str, default: Any = _UNSET) -> Any:
    """The parsed value of knob ``name``.

    Unset or empty returns ``default`` when given, else the table default.
    A malformed value raises :class:`EnvKnobError`.
    """
    knob = _BY_NAME[name]
    raw = os.environ.get(name, "").strip()
    if not raw:
        return knob.default if default is _UNSET else default
    memo = (name, raw)
    if memo not in _PARSED:
        try:
            _PARSED[memo] = knob.parse(raw)
        except EnvKnobError:
            raise
        except ValueError as exc:
            raise EnvKnobError(
                f"{name} {exc} (got {raw!r}); {knob.hint}") from None
    return _PARSED[memo]


def validate_environment() -> Dict[str, Any]:
    """Parse every knob in the table, failing fast on the first bad one.

    Called once per :class:`~repro.exec.engine.ExperimentEngine`
    construction, so a malformed knob surfaces before any simulation work
    starts.  Returns ``{name: value}`` for the whole table.
    """
    return {knob.name: value(knob.name) for knob in KNOBS}
