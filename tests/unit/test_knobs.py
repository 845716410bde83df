"""The ``REPRO_*`` knob table: coverage, parsing, and cache-key hygiene.

Table-driven: every row of :data:`repro.exec.knobs.KNOBS` gets a valid
non-default value and malformed ones below, and the tests check that the
table covers every knob literal in the package, that malformed values fail
fast as one line naming the knob, and that only ``REPRO_CHECKPOINTS``
reaches a result-cache key.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.exec import (
    KNOBS,
    EnvKnobError,
    ExperimentEngine,
    JobSpec,
    available_cpus,
    job_key,
    knobs,
    validate_environment,
)
from repro.harness.runner import ExperimentSettings
from repro.sampling.checkpoints import resolve_checkpointed
from repro.sampling.driver import expand_sampled_spec
from repro.sampling.plan import SamplingPlan

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Literals that look like knobs but are internal plumbing.
INTERNAL = {"_REPRO_PROFILE_RUN"}

#: A valid value for every row, differing from its default.
VALID = {
    "REPRO_JOBS": ("3", 3),
    "REPRO_CACHE": ("0", False),
    "REPRO_CACHE_DIR": ("elsewhere/cache", "elsewhere/cache"),
    "REPRO_CHECKPOINTS": ("0", False),
    "REPRO_CHECKPOINT_DIR": ("elsewhere/ckpt", "elsewhere/ckpt"),
    "REPRO_RETRIES": ("5", 5),
    "REPRO_JOB_TIMEOUT": ("12.5", 12.5),
    "REPRO_FAULT_PLAN": ("corrupt_blob@p=0.5,seed=3", None),
    "REPRO_PROFILE": ("1", ".repro-profile"),
}

#: Malformed values for every row, one per failure branch of its parser;
#: ``FILE`` stands for an existing file where a directory is expected.
MALFORMED = {
    "REPRO_JOBS": ("abc", "2.5"),
    "REPRO_CACHE": ("maybe",),
    "REPRO_CACHE_DIR": ("FILE",),
    "REPRO_CHECKPOINTS": ("yes",),
    "REPRO_CHECKPOINT_DIR": ("FILE",),
    "REPRO_RETRIES": ("-1", "abc"),
    "REPRO_JOB_TIMEOUT": ("soon", "-2"),
    "REPRO_FAULT_PLAN": ("explode@everywhere", "worker_crash@job:x",
                         "corrupt_blob@p=2"),
    "REPRO_PROFILE": ("FILE",),
}

NAMES = [knob.name for knob in KNOBS]

PLAN = SamplingPlan(interval_length=500, detailed_warmup=300,
                    period=5_000, functional_warmup=1_000, seed=0)


@pytest.fixture(autouse=True)
def _clean_knobs(monkeypatch):
    for name in NAMES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(knobs, "_PARSED", {})


def _knob_literals():
    found = set()
    for path in SRC.rglob("*.py"):
        found.update(re.findall(r"_?REPRO_[A-Z_]+", path.read_text()))
    return found - INTERNAL


def _keys():
    """The result-cache keys of a full-detail spec and of the first
    interval of a sampled spec, resolved the way the engine resolves them
    from the environment."""
    full = JobSpec("gzip", "indexed-3-fwd", ExperimentSettings(instructions=800))
    sampled = JobSpec("vortex", "indexed-3-fwd",
                      ExperimentSettings(instructions=20_000, sampling=PLAN))
    checkpointed = resolve_checkpointed(sampled.settings)
    interval = expand_sampled_spec(
        sampled, checkpointed=checkpointed,
        checkpoint_dir=(knobs.value("REPRO_CHECKPOINT_DIR")
                        if checkpointed else None))[0]
    return job_key(full), job_key(interval)


def test_table_is_the_single_source():
    assert len(KNOBS) == 9
    assert set(NAMES) == set(VALID) == set(MALFORMED)
    assert _knob_literals() <= set(NAMES), _knob_literals() - set(NAMES)
    # Only REPRO_CHECKPOINTS reaches a simulated result.
    assert [k.name for k in KNOBS if not k.execution_only] == \
        ["REPRO_CHECKPOINTS"]


@pytest.mark.parametrize("name", NAMES)
def test_defaults_and_valid_values(monkeypatch, name):
    default = next(k.default for k in KNOBS if k.name == name)
    assert validate_environment()[name] == default
    raw, parsed = VALID[name]
    monkeypatch.setenv(name, raw)
    value = validate_environment()[name]
    if name == "REPRO_FAULT_PLAN":
        assert value.text == raw and value is knobs.value(name)
    else:
        assert value == parsed


@pytest.mark.parametrize("name,raw", [
    (name, raw) for name in NAMES for raw in MALFORMED[name]])
def test_malformed_values_fail_fast_on_one_line(monkeypatch, tmp_path, name,
                                                raw):
    if raw == "FILE":
        clash = tmp_path / "not-a-dir"
        clash.write_text("x")
        raw = str(clash)
    monkeypatch.setenv(name, raw)
    with pytest.raises(EnvKnobError, match=name) as excinfo:
        knobs.value(name)
    assert "\n" not in str(excinfo.value)
    with pytest.raises(EnvKnobError, match=name):
        validate_environment()
    with pytest.raises(EnvKnobError, match=name):
        ExperimentEngine(jobs=1, cache=False)


@pytest.mark.parametrize("name", [k.name for k in KNOBS if k.execution_only])
def test_execution_only_knobs_leave_cache_keys_alone(monkeypatch, name):
    # The suite-wide default disables checkpointing; the interval key
    # must stay unchanged with it on, too.
    monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
    unset = _keys()
    monkeypatch.setenv(name, VALID[name][0])
    assert _keys() == unset


def test_checkpoints_knob_changes_the_interval_key(monkeypatch):
    monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
    full_on, interval_on = _keys()
    monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
    full_off, interval_off = _keys()
    assert full_on == full_off
    assert interval_on != interval_off


def _load_bench_common():
    """Import ``benchmarks/_common.py`` afresh (it reads the environment
    at import time)."""
    spec = importlib.util.spec_from_file_location(
        "_bench_common_under_test", ROOT / "benchmarks" / "_common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_worker_count_rejects_malformed_jobs(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    with pytest.raises(EnvKnobError, match="REPRO_JOBS") as excinfo:
        _load_bench_common()
    assert "\n" not in str(excinfo.value)


@pytest.mark.parametrize("raw", [None, "0", "3"])
def test_bench_worker_count_defaults_to_all_cpus(monkeypatch, raw):
    if raw is not None:
        monkeypatch.setenv("REPRO_JOBS", raw)
    want = 3 if raw == "3" else available_cpus()
    assert _load_bench_common().DEFAULT_JOBS == want
