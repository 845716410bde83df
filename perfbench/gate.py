"""The output-correctness gate: frozen digests plus seed-independent invariants.

For the default seed every job's full ``SimStats`` (and, for sampled jobs,
every interval of its ``SampledResult``) is hashed and compared with the
digests frozen in ``digests.json``.  For any seed the gate checks that
every job returned, that the committed count equals the measured trace
span, that cycles and the relative times built from them are finite and
positive, and that a sampled job measured exactly the plan's intervals.
A job that fails any check counts as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Dict, List, Optional


def stats_record(stats) -> Dict[str, int]:
    """Every ``SimStats`` field by name (raw counters, no derived rates)."""
    return {field.name: getattr(stats, field.name)
            for field in dataclasses.fields(stats)}


def sampled_record(sampled) -> Dict[str, object]:
    """The per-interval content of a ``SampledResult``."""
    return {
        "plan": dataclasses.asdict(sampled.plan),
        "total_instructions": sampled.total_instructions,
        "intervals": [[m.index, m.measure_start, m.instructions, m.cycles,
                       stats_record(m.stats)] for m in sampled.intervals],
    }


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def record_digest(record) -> str:
    """Digest of one engine record's simulated output."""
    result = record.result
    payload = {"stats": stats_record(result.stats)}
    sampled = getattr(result, "sampled", None)
    if sampled is not None:
        payload["sampled"] = sampled_record(sampled)
    return digest(payload)


def check_record(spec, record) -> List[str]:
    """Seed-independent invariants of one job's record (empty = pass)."""
    if record is None:
        return ["job returned no record"]
    problems = []
    result = record.result
    settings = spec.settings
    plan = settings.sampling
    # Measurement starts and stops at the first commit cycle that reaches
    # its count, so each boundary may overshoot by up to commit_width - 1.
    slack = settings.core.commit_width - 1
    if plan is None:
        spans = [(settings.instructions
                  - int(settings.instructions * settings.stats_warmup_fraction),
                  result.stats.committed, result.stats.cycles)]
    else:
        sampled = getattr(result, "sampled", None)
        planned = plan.intervals(settings.instructions)
        if sampled is None:
            return ["sampled job returned no SampledResult"]
        if sampled.num_intervals != len(planned):
            return [f"{sampled.num_intervals} intervals != plan's {len(planned)}"]
        spans = [(w.measure_length, m.instructions, m.cycles)
                 for w, m in zip(planned, sampled.intervals)]
        if result.stats.committed != sum(m.instructions for m in sampled.intervals):
            problems.append("merged committed != sum of interval commits")
    for span, committed, cycles in spans:
        if abs(committed - span) > slack:
            problems.append(f"committed {committed} not within {slack} of "
                            f"the measured span {span}")
        if not cycles > 0:
            problems.append(f"cycles {cycles} not positive")
    return problems


def check_ratio(value: float) -> Optional[str]:
    if not (math.isfinite(value) and value > 0):
        return f"relative time {value!r} not finite and positive"
    return None


def check_digests(digests: Dict[str, str], frozen: Dict[str, str]) -> Dict[str, str]:
    """Label -> problem for every job whose digest differs from ``frozen``."""
    problems = {}
    for label, value in digests.items():
        want = frozen.get(label)
        if want is None:
            problems[label] = "no frozen digest"
        elif want != value:
            problems[label] = f"digest {value[:12]} != frozen {want[:12]}"
    for label in frozen:
        if label not in digests:
            problems[label] = "job missing"
    return problems
