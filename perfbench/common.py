"""Shared pieces of the benchmark: results, statistics, quality checks."""

from __future__ import annotations

import math
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.eval.metrics import normalized_mutual_information
from repro.eval.validation import validate_link, validation_summary
from repro.lexicon.dictionary import build_dictionary
from repro.pipeline.tables import table2a_rows, table2b_rows
from repro.rheology.studies import TABLE_I

#: How many times each workload repeats its set-up; ``setup_s`` is the
#: median, so one slow set-up cannot move it.
SETUP_REPEATS = 3


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class RunResult:
    """What one workload run measured."""

    attempted: int
    failed: int
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: Output or trace checks that did not hold (empty when correct).
    problems: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples))


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def timed_setup(once: Callable[[], Any], teardown: Callable[[Any], None]) -> tuple[Any, float, int]:
    """Run set-up :data:`SETUP_REPEATS` times; keep the last one.

    Returns ``(state, median seconds, repeats)``. Every earlier set-up
    is torn down before the next starts, so each does identical work.
    """
    seconds: list[float] = []
    state: Any = None
    for attempt in range(SETUP_REPEATS):
        if attempt:
            teardown(state)
            state = None
        started = time.perf_counter()
        state = once()
        seconds.append(time.perf_counter() - started)
    return state, median(seconds), len(seconds)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return math.nan


class WorkDir:
    """A fresh temporary directory inside the checkout, removed on exit."""

    def __init__(self, root: Path) -> None:
        self.base = root / ".perfbench_work"
        self.path: Path | None = None

    def __enter__(self) -> Path:
        self.base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=self.base))
        return self.path

    def __exit__(self, *exc: object) -> None:
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass  # another run still holds a work directory here


def fresh_dir(parent: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


# -- quality -------------------------------------------------------------------

_DICTIONARY = build_dictionary()
_ROW3 = next(s for s in TABLE_I if s.data_id == 3)


def nmi(assigned: Sequence[Any], truth: Sequence[str]) -> float:
    return float(normalized_mutual_information(list(assigned), list(truth)))


def table2b_ok(result: Any) -> bool:
    """The ``bench_table2b_dishes.py`` check on one fitted pipeline.

    Bavarois and Milk jelly land in one topic, that topic is a gelatin
    topic at 1.5-4 % gelatin, and Table I row 3 links to it.
    """
    bavarois, milk = table2b_rows(result)
    if bavarois.assigned_topic != milk.assigned_topic:
        return False
    rows = {row.topic: row for row in table2a_rows(result)}
    row = rows.get(bavarois.assigned_topic)
    gelatin = None if row is None else row.gel_summary.get("gelatin")
    if gelatin is None or not 0.015 <= gelatin <= 0.04:
        return False
    return result.linker.link_setting(_ROW3).topic == bavarois.assigned_topic


def linkage_valid(result: Any) -> float:
    """Consistent fraction over the 13 Table I links of one fit."""
    phi = np.asarray(result.model.phi_)
    validations = [
        validate_link(
            phi[result.linker.link_setting(setting).topic],
            result.vocabulary,
            _DICTIONARY,
            setting.texture,
        )
        for setting in TABLE_I
    ]
    return validation_summary(validations)["consistent_fraction"]


def fit_problems(model: Any, linker: Any) -> list[str]:
    """Output checks on one fitted model and its linker."""
    problems = []
    phi = np.asarray(model.phi_)
    theta = np.asarray(model.theta_)
    if not np.allclose(phi.sum(axis=1), 1.0, atol=1e-9):
        problems.append("phi rows do not sum to 1")
    if not np.allclose(theta.sum(axis=1), 1.0, atol=1e-9):
        problems.append("theta rows do not sum to 1")
    if not np.all(np.isfinite(model.log_likelihoods_)):
        problems.append("non-finite log-likelihood")
    n_topics = phi.shape[0]
    for setting in TABLE_I:
        topic = linker.link_setting(setting).topic
        if not 0 <= topic < n_topics:
            problems.append(f"Table I row {setting.data_id} links to no topic")
    return problems
