"""A zero-dependency wall-clock sampling profiler.

A dedicated daemon thread reads :func:`sys._current_frames` at a
configurable rate (default ~97 Hz — a prime, so the sampler never
phase-locks with periodic work) and folds each observed thread's stack
into a bounded ``(span, stack) -> count`` table. Stacks are attributed
to the innermost open :mod:`repro.obs.trace` span of the sampled
thread via the tracer's cross-thread span-name stacks (context
variables are not readable across threads), so a flame view can answer
"which frames burn the ``lda.fit`` budget" directly.

Like the tracer, the module holds at most one active
:class:`Profiler` and is a **strict no-op when disabled**: no thread,
no per-span bookkeeping (span tracking in :mod:`repro.obs.trace` is
switched on only while a profiler runs), no RNG, so profiled and
unprofiled fits are bit-identical by construction.

The persisted artifact (``format: repro-profile``, schema v1) carries
provenance (pid, python version, command) plus the folded stacks; see
:class:`ProfileReport` for rendering (``folded()`` emits standard
``frame;frame count`` lines consumable by external flamegraph tools).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time
from typing import Any, TextIO

from repro.errors import ObservabilityError
from repro.obs import trace

#: Schema version stamped into every profile artifact.
PROFILE_SCHEMA_VERSION = 1

#: ``format`` key value identifying profile artifacts.
PROFILE_FORMAT = "repro-profile"

#: Environment variable naming a profile output path; the CLI enables
#: profiling to that path for any command when it is set.
PROFILE_ENV = "REPRO_PROFILE"

#: Default sampling rate. Prime, so periodic work cannot phase-lock.
DEFAULT_HZ = 97.0

#: Bound on distinct (span, stack) keys before folding into overflow.
DEFAULT_MAX_STACKS = 10_000

#: Bound on recorded stack depth (frames beyond it are dropped,
#: root-most first, and the stack is marked truncated).
DEFAULT_MAX_DEPTH = 64

#: Interpreter switch interval (seconds) while a profiler runs. CPython
#: forces a GIL hand-off to a waiting thread only after one full switch
#: interval (5 ms by default) with no release in between, and every
#: brief release resets that clock. Code that releases the GIL briefly
#: and often — numpy's locked RNG calls, once per document in the dense
#: z-sweep — therefore starves the sampler thread, whose samples then
#: land only on the rare long releases (the log-likelihood, the count
#: sync) instead of where the time goes. A 0.1 ms interval lets the
#: sampler in at its own rate; only threads already waiting for the GIL
#: are affected, and the previous interval is restored on stop.
SAMPLING_SWITCH_INTERVAL_S = 1e-4

#: Synthetic stack for samples past the ``max_stacks`` bound.
OVERFLOW_FRAME = "~overflow"

#: Span label for samples on threads with no open span.
NO_SPAN = "-"


def _frame_label(frame: Any) -> str:
    """``module:qualname`` for one frame (qualname needs 3.11+)."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    func = getattr(code, "co_qualname", None) or code.co_name
    return f"{module}:{func}"


class Profiler:
    """The sampling thread plus its folded-stack accumulator.

    Use via the module-level :func:`enable` / :func:`disable` pair in
    production code; direct construction with explicit ``start`` /
    ``stop`` is for tests.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        max_stacks: int = DEFAULT_MAX_STACKS,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> None:
        if hz <= 0:
            raise ObservabilityError(f"profiler hz must be > 0, got {hz}")
        if max_stacks < 1:
            raise ObservabilityError("profiler max_stacks must be >= 1")
        if max_depth < 1:
            raise ObservabilityError("profiler max_depth must be >= 1")
        self.hz = float(hz)
        self.interval_s = 1.0 / self.hz
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self.n_samples = 0
        self.truncated = False
        self.started_unix = 0.0
        self.duration_s = 0.0
        self._counts: dict[tuple[str, tuple[str, ...]], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_perf = 0.0
        self._saved_switch_interval: float | None = None

    def start(self) -> None:
        if self._thread is not None:
            raise ObservabilityError("profiler already started")
        self._stop.clear()
        with self._lock:
            self.started_unix = time.time()
            self._started_perf = time.perf_counter()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._saved_switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(
                min(self._saved_switch_interval, SAMPLING_SWITCH_INTERVAL_S)
            )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)  # never under the lock: _sample holds it
        with self._lock:
            self._thread = None
            self.duration_s = time.perf_counter() - self._started_perf
            if self._saved_switch_interval is not None:
                sys.setswitchinterval(self._saved_switch_interval)
                self._saved_switch_interval = None

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample(own)

    def _sample(self, own_ident: int) -> None:
        # Telemetry machinery must not pollute the profile: skip our
        # own thread and any other ``repro-`` daemon, which would show
        # up only as idle waits.
        skip = {own_ident}
        for thread in threading.enumerate():
            if thread.name.startswith("repro-") and thread.ident is not None:
                skip.add(thread.ident)
        frames = sys._current_frames()
        for ident, frame in frames.items():
            if ident in skip:
                continue
            stack: list[str] = []
            depth = 0
            depth_truncated = False
            f: Any = frame
            while f is not None:
                if depth >= self.max_depth:
                    depth_truncated = True
                    break
                stack.append(_frame_label(f))
                f = f.f_back
                depth += 1
            if not stack:
                continue
            stack.reverse()  # root-first, the folded-stack convention
            span = trace.thread_span_name(ident) or NO_SPAN
            key = (span, tuple(stack))
            with self._lock:
                if depth_truncated:
                    self.truncated = True
                counts = self._counts
                if key not in counts and len(counts) >= self.max_stacks:
                    self.truncated = True
                    key = (span, (OVERFLOW_FRAME,))
                counts[key] = counts.get(key, 0) + 1
                self.n_samples += 1

    def report(self) -> "ProfileReport":
        """Fold the accumulated samples into an immutable report."""
        with self._lock:
            stacks = [
                {"span": span, "stack": list(stack), "count": count}
                for (span, stack), count in sorted(
                    self._counts.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
        return ProfileReport(
            hz=self.hz,
            n_samples=self.n_samples,
            duration_s=self.duration_s,
            stacks=stacks,
            truncated=self.truncated,
            started_unix=self.started_unix,
        )


class ProfileReport:
    """An immutable folded-stack profile with provenance + renderers."""

    def __init__(
        self,
        hz: float,
        n_samples: int,
        duration_s: float,
        stacks: list[dict[str, Any]],
        truncated: bool = False,
        started_unix: float = 0.0,
    ) -> None:
        self.hz = hz
        self.n_samples = n_samples
        self.duration_s = duration_s
        self.stacks = stacks
        self.truncated = truncated
        self.started_unix = started_unix

    def to_json(self) -> dict[str, Any]:
        """The persisted artifact payload (``repro-profile`` v1)."""
        return {
            "format": PROFILE_FORMAT,
            "v": PROFILE_SCHEMA_VERSION,
            "hz": self.hz,
            "n_samples": self.n_samples,
            "duration_s": self.duration_s,
            "started_unix": self.started_unix,
            "truncated": self.truncated,
            "pid": os.getpid(),
            "python": platform.python_version(),
            "argv": list(sys.argv),
            "stacks": self.stacks,
        }

    @classmethod
    def from_json(cls, payload: Any) -> "ProfileReport":
        """Parse and validate a persisted profile artifact."""
        if not isinstance(payload, dict):
            raise ObservabilityError("profile artifact must be a JSON object")
        if payload.get("format") != PROFILE_FORMAT:
            raise ObservabilityError(
                f"not a profile artifact (format={payload.get('format')!r})"
            )
        if payload.get("v") != PROFILE_SCHEMA_VERSION:
            raise ObservabilityError(
                f"unsupported profile schema v{payload.get('v')!r}"
            )
        stacks = payload.get("stacks")
        if not isinstance(stacks, list):
            raise ObservabilityError("profile artifact has no stacks list")
        for row in stacks:
            if (
                not isinstance(row, dict)
                or not isinstance(row.get("span"), str)
                or not isinstance(row.get("stack"), list)
                or not isinstance(row.get("count"), int)
            ):
                raise ObservabilityError(
                    "profile stack rows need span/stack/count"
                )
        return cls(
            hz=float(payload.get("hz", 0.0)),
            n_samples=int(payload.get("n_samples", 0)),
            duration_s=float(payload.get("duration_s", 0.0)),
            stacks=stacks,
            truncated=bool(payload.get("truncated", False)),
            started_unix=float(payload.get("started_unix", 0.0)),
        )

    def folded(self, with_span: bool = True) -> list[str]:
        """Standard flamegraph folded-stack lines, hottest first.

        With ``with_span`` the attributed span name leads each stack as
        a synthetic root frame, so span attribution survives round
        trips through external flamegraph tooling.
        """
        lines = []
        for row in self.stacks:
            frames = list(row["stack"])
            if with_span:
                frames.insert(0, str(row["span"]))
            lines.append(";".join(frames) + f" {row['count']}")
        return lines

    def attribution(self, needle: str) -> float:
        """Fraction of samples whose stack mentions ``needle``.

        Matches substrings of ``module:qualname`` frame labels; 0.0
        when the profile holds no samples.
        """
        if self.n_samples == 0:
            return 0.0
        hit = sum(
            row["count"]
            for row in self.stacks
            if any(needle in frame for frame in row["stack"])
        )
        return hit / self.n_samples

    def top_functions(self, limit: int = 15) -> list[tuple[str, int, int]]:
        """``(frame, self_count, total_count)`` rows, hottest first.

        ``self`` counts samples where the frame is the leaf;
        ``total`` counts samples where it appears anywhere.
        """
        self_counts: dict[str, int] = {}
        total_counts: dict[str, int] = {}
        for row in self.stacks:
            stack = row["stack"]
            count = row["count"]
            if stack:
                leaf = stack[-1]
                self_counts[leaf] = self_counts.get(leaf, 0) + count
            for frame in set(stack):
                total_counts[frame] = total_counts.get(frame, 0) + count
        rows = [
            (frame, self_counts.get(frame, 0), total)
            for frame, total in total_counts.items()
        ]
        rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
        return rows[:limit]

    def render(self, limit: int = 15) -> str:
        """A terminal table of the hottest frames."""
        header = (
            f"profile: {self.n_samples} samples @ {self.hz:g} Hz over "
            f"{self.duration_s:.2f}s"
            + (" (truncated)" if self.truncated else "")
        )
        lines = [header, f"{'self':>6} {'total':>6}  frame"]
        n = max(self.n_samples, 1)
        for frame, self_count, total in self.top_functions(limit):
            lines.append(
                f"{100.0 * self_count / n:5.1f}% "
                f"{100.0 * total / n:5.1f}%  {frame}"
            )
        return "\n".join(lines)


#: The module-level flag: ``None`` means profiling is disabled.
_profiler: Profiler | None = None
#: Output path bound at :func:`enable` time, written by :func:`disable`.
_output_path: str | None = None


def is_enabled() -> bool:
    """Whether a profiler is running (the hot-path guard)."""
    return _profiler is not None


def active() -> Profiler | None:
    """The running profiler, if any."""
    return _profiler


def enable(
    path: str | os.PathLike[str] | None = None, hz: float = DEFAULT_HZ
) -> Profiler:
    """Start a profiler; :func:`disable` writes the artifact to ``path``.

    Replaces any running profiler (persisting its artifact first).
    Also switches on the tracer's cross-thread span tracking so
    samples can be attributed to open spans.
    """
    global _profiler, _output_path
    disable()
    profiler = Profiler(hz=hz)
    trace.set_span_tracking(True)
    profiler.start()
    _profiler = profiler
    _output_path = os.fspath(path) if path is not None else None
    return profiler


def disable() -> ProfileReport | None:
    """Stop the profiler, persist its artifact, return the report.

    A no-op returning ``None`` when no profiler is running.
    """
    global _profiler, _output_path
    profiler = _profiler
    if profiler is None:
        return None
    path = _output_path
    _profiler = None
    _output_path = None
    profiler.stop()
    trace.set_span_tracking(False)
    report = profiler.report()
    if path is not None:
        write_report(report, path)
    return report


def write_report(
    report: ProfileReport, target: str | os.PathLike[str] | TextIO
) -> None:
    """Serialise ``report`` as JSON to a path or open text stream."""
    payload = json.dumps(report.to_json(), sort_keys=True)
    if hasattr(target, "write"):
        target.write(payload + "\n")  # type: ignore[union-attr]
        return
    with open(os.fspath(target), "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")


def read_report(path: str | os.PathLike[str]) -> ProfileReport:
    """Load and validate a persisted profile artifact."""
    fspath = os.fspath(path)
    if not os.path.exists(fspath):
        raise ObservabilityError(f"no profile file at {fspath}")
    try:
        with open(fspath, encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"{fspath} is not valid JSON: {exc}"
        ) from exc
    return ProfileReport.from_json(payload)
