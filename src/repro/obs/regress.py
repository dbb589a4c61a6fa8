"""Cross-run performance regression detection over bench trajectories.

``BENCH_sampler.json`` and ``BENCH_serve.json`` are append-only
trajectories: every bench run appends one row per measured cell, tagged
with the commit it ran at. The committed floor files
(``benchmarks/sampler_floor.json``, ``benchmarks/serve_floor.json``)
ratchet the *minimum acceptable* throughput per cell. This module
closes the loop: ``repro bench check`` compares a **robust statistic**
of the recent trajectory — the median of the last N rows per cell —
against ``tolerance × floor``, so a single noisy row neither fails CI
nor masks a real regression that persists across runs.

Cells with no floor entry (e.g. rows of a kernel the floor file does
not name) are skipped; cells with a floor but no
trajectory rows are reported as regressions too — a silently vanished
bench is itself a regression of coverage.
"""

from __future__ import annotations

import json
import os
from statistics import median
from typing import Any, Mapping, Sequence

from repro.errors import ObservabilityError

#: Rows per cell fed into the median (most recent first).
DEFAULT_RECENT = 5

#: Fallback throughput tolerance when a floor file names none.
DEFAULT_TOLERANCE = 0.7


class Regression:
    """One detected regression (or coverage gap) in a trajectory."""

    __slots__ = ("bench", "cell", "observed", "threshold", "n_rows", "detail")

    def __init__(
        self,
        bench: str,
        cell: str,
        observed: float | None,
        threshold: float,
        n_rows: int,
        detail: str,
    ) -> None:
        self.bench = bench
        self.cell = cell
        self.observed = observed
        self.threshold = threshold
        self.n_rows = n_rows
        self.detail = detail

    def __repr__(self) -> str:
        return f"Regression({self.bench}/{self.cell}: {self.detail})"

    def message(self) -> str:
        return f"{self.bench} {self.cell}: {self.detail}"


def _load_json(path: str | os.PathLike[str], what: str) -> Any:
    fspath = os.fspath(path)
    if not os.path.exists(fspath):
        raise ObservabilityError(f"no {what} file at {fspath}")
    try:
        with open(fspath, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"{fspath} is not valid JSON: {exc}"
        ) from exc


def _recent_median(values: Sequence[float], recent: int) -> float:
    tail = list(values)[-recent:]
    return float(median(tail))


def check_sampler(
    rows: Sequence[Mapping[str, Any]],
    floor_payload: Mapping[str, Any],
    recent: int = DEFAULT_RECENT,
) -> list[Regression]:
    """Check the sampler trajectory against per-(kernel, K) floors.

    Rows are matched to a floor cell by ``kernel`` and ``n_topics`` on
    the ``full`` preset (the preset the floors were ratcheted on);
    kernels without a floor entry are ignored.
    """
    if recent < 1:
        raise ObservabilityError("recent must be >= 1")
    tolerance = float(floor_payload.get("tolerance", DEFAULT_TOLERANCE))
    floors = floor_payload.get("floors")
    if not isinstance(floors, Mapping):
        raise ObservabilityError("sampler floor file needs a floors map")
    findings: list[Regression] = []
    for kernel in sorted(floors):
        cells = floors[kernel]
        if not isinstance(cells, Mapping):
            raise ObservabilityError(
                f"sampler floors for kernel {kernel!r} must be a map"
            )
        for k_str in sorted(cells, key=lambda s: int(s)):
            floor = float(cells[k_str])
            threshold = tolerance * floor
            k = int(k_str)
            cell = f"kernel={kernel} K={k}"
            values = [
                float(row["tokens_per_sec"])
                for row in rows
                if row.get("preset") == "full"
                and row.get("kernel") == kernel
                and int(row.get("n_topics", -1)) == k
                and "tokens_per_sec" in row
            ]
            if not values:
                findings.append(
                    Regression(
                        "sampler",
                        cell,
                        None,
                        threshold,
                        0,
                        "floor committed but no trajectory rows",
                    )
                )
                continue
            observed = _recent_median(values, recent)
            if observed < threshold:
                n = min(recent, len(values))
                findings.append(
                    Regression(
                        "sampler",
                        cell,
                        observed,
                        threshold,
                        n,
                        f"median of last {n} rows "
                        f"{observed:.0f} tokens/sec < "
                        f"{threshold:.0f} ({tolerance:g} x floor "
                        f"{floor:.0f})",
                    )
                )
    return findings


def check_serve(
    rows: Sequence[Mapping[str, Any]],
    floor_payload: Mapping[str, Any],
    recent: int = DEFAULT_RECENT,
) -> list[Regression]:
    """Check the serve trajectory against the requests/sec floor.

    Every preset present in the trajectory is held to the same floor
    (the floor is a load-bench minimum, not a preset-specific target).
    """
    if recent < 1:
        raise ObservabilityError("recent must be >= 1")
    floor_raw = floor_payload.get("requests_per_sec")
    if floor_raw is None:
        raise ObservabilityError(
            "serve floor file needs a requests_per_sec entry"
        )
    floor = float(floor_raw)
    tolerance = float(floor_payload.get("tolerance", DEFAULT_TOLERANCE))
    threshold = tolerance * floor
    presets = sorted(
        {str(row.get("preset", "?")) for row in rows}
    )
    findings: list[Regression] = []
    if not presets:
        findings.append(
            Regression(
                "serve",
                "preset=*",
                None,
                threshold,
                0,
                "floor committed but no trajectory rows",
            )
        )
        return findings
    for preset in presets:
        values = [
            float(row["requests_per_sec"])
            for row in rows
            if str(row.get("preset", "?")) == preset
            and "requests_per_sec" in row
        ]
        cell = f"preset={preset}"
        if not values:
            findings.append(
                Regression(
                    "serve",
                    cell,
                    None,
                    threshold,
                    0,
                    "rows present but none carry requests_per_sec",
                )
            )
            continue
        observed = _recent_median(values, recent)
        if observed < threshold:
            n = min(recent, len(values))
            findings.append(
                Regression(
                    "serve",
                    cell,
                    observed,
                    threshold,
                    n,
                    f"median of last {n} rows {observed:.1f} req/sec < "
                    f"{threshold:.1f} ({tolerance:g} x floor {floor:.1f})",
                )
            )
    return findings


def _load_rows(path: str | os.PathLike[str], what: str) -> list[dict[str, Any]]:
    payload = _load_json(path, what)
    if not isinstance(payload, list):
        raise ObservabilityError(
            f"{os.fspath(path)} must hold a JSON list of bench rows"
        )
    return payload


def check_files(
    sampler_path: str | os.PathLike[str] | None = None,
    sampler_floor_path: str | os.PathLike[str] | None = None,
    serve_path: str | os.PathLike[str] | None = None,
    serve_floor_path: str | os.PathLike[str] | None = None,
    recent: int = DEFAULT_RECENT,
) -> list[Regression]:
    """Run every check whose trajectory+floor file pair was given."""
    findings: list[Regression] = []
    if sampler_path is not None and sampler_floor_path is not None:
        findings.extend(
            check_sampler(
                _load_rows(sampler_path, "sampler trajectory"),
                _load_json(sampler_floor_path, "sampler floor"),
                recent=recent,
            )
        )
    if serve_path is not None and serve_floor_path is not None:
        findings.extend(
            check_serve(
                _load_rows(serve_path, "serve trajectory"),
                _load_json(serve_floor_path, "serve floor"),
                recent=recent,
            )
        )
    return findings
