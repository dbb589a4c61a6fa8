"""Load benchmark for the texture inference service (``repro.serve``).

Starts a real :class:`~repro.serve.app.TextureServer` (port 0) backed by
a warm engine and a :class:`~repro.serve.batch.MicroBatcher`, built the
way ``repro serve`` builds them, fires ``N_REQUESTS``
``POST /v1/texture`` requests from ``CONCURRENCY`` client threads over
HTTP, and appends one record per run to the ``BENCH_serve.json``
trajectory at the repo root::

    {"commit": ..., "preset": "full" | "tiny", "requests": ...,
     "concurrency": ..., "requests_per_sec": ..., "p50_ms": ...,
     "p99_ms": ..., "batch_size": ...}

``requests_per_sec`` is wall-clock throughput over the whole run (the
tracked number with a committed floor in ``benchmarks/serve_floor.json``);
``p50_ms`` / ``p99_ms`` are client-observed end-to-end latencies, and
``batch_size`` is the mean fold-in batch the collector actually formed
under this load (from the ``serve.batch_size`` histogram delta).

Run modes:

* ``python -m benchmarks.bench_serve`` — full bench preset, prints a
  summary and appends a trajectory record.
* ``REPRO_BENCH_TINY=1 pytest benchmarks/bench_serve.py`` — CI smoke:
  the shared tiny pipeline (250 recipes, 20 sweeps, seed 3), fewer
  requests, plus the throughput-floor assertion (fails on a >30%
  regression below ``serve_floor.json``).

Every request body is distinct: the mix cycles through four gel
compositions and steps the gel by 0.01 g each cycle (see
:func:`request_body`). Each request therefore hashes its own content
into an RNG stream and misses the server's answer cache, so throughput
reflects genuinely independent fold-in passes, not cached answers.
"""

from __future__ import annotations

import copy
import json
import os
import threading
import time
import urllib.request

from benchmarks.common import REPO_ROOT, append_trajectory, git_commit
from repro.obs import metrics
from repro.pipeline.experiment import quick_config, run_experiment
from repro.serve import (
    FoldInConfig,
    InferenceEngine,
    MicroBatcher,
    ModelBundle,
    make_server,
    run_server,
)

_TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

BENCH_SEED = 3
N_REQUESTS = 48 if _TINY else 240
CONCURRENCY = 8
N_RECIPES = 250 if _TINY else 600
N_FIT_SWEEPS = 20 if _TINY else 60

TRAJECTORY_PATH = REPO_ROOT / "BENCH_serve.json"
FLOOR_PATH = REPO_ROOT / "benchmarks" / "serve_floor.json"

#: The gel compositions the request mix cycles through.
REQUEST_BODIES = [
    {
        "ingredients": [
            {"name": "gelatin", "quantity": "10 g"},
            {"name": "water", "quantity": "200 ml"},
        ],
        "description": "chilled and set until firm",
    },
    {
        "ingredients": [
            {"name": "kanten", "quantity": "4 g"},
            {"name": "water", "quantity": "300 ml"},
        ],
        "description": "boiled then cooled into a crisp jelly",
    },
    {
        "ingredients": [
            {"name": "agar", "quantity": "6 g"},
            {"name": "milk", "quantity": "250 ml"},
        ],
        "description": "a soft milk pudding",
    },
    {
        "ingredients": [
            {"name": "gelatin", "quantity": "3 g"},
            {"name": "agar", "quantity": "3 g"},
            {"name": "water", "quantity": "250 ml"},
        ],
        "description": "a sticky mixed-gel dessert",
    },
]


def request_body(index: int) -> bytes:
    """Request ``index`` of the mix: composition ``index % 4`` with its
    first (gel) ingredient stepped by 0.01 g per cycle, so no two
    requests of a run share a body."""
    body = copy.deepcopy(REQUEST_BODIES[index % len(REQUEST_BODIES)])
    gel = body["ingredients"][0]
    grams = float(gel["quantity"].split()[0])
    gel["quantity"] = f"{grams + 0.01 * (index // len(REQUEST_BODIES)):.2f} g"
    return json.dumps(body).encode("utf-8")


def build_engine() -> InferenceEngine:
    """A warm engine over the bench-preset fitted pipeline."""
    result = run_experiment(
        quick_config(N_RECIPES, N_FIT_SWEEPS, seed=BENCH_SEED)
    )
    return InferenceEngine(ModelBundle.from_result(result), FoldInConfig())


def _client(
    base_url: str,
    bodies: list[bytes],
    indices: list[int],
    latencies: list[float],
    failures: list[str],
) -> None:
    """One load-generator thread: POST its share of the request mix."""
    for index in indices:
        data = bodies[index]
        request = urllib.request.Request(
            f"{base_url}/v1/texture",
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        started = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                response.read()
                status = response.status
        except OSError as exc:  # repro: noqa[EXC001] - a dead server must fail the bench, not hang it
            failures.append(repr(exc))
            continue
        latencies.append(time.perf_counter() - started)
        if status != 200:
            failures.append(f"status {status}")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 1])."""
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def measure(
    n_requests: int = N_REQUESTS, concurrency: int = CONCURRENCY
) -> dict:
    """Serve ``n_requests`` over HTTP and summarise the load run."""
    engine = build_engine()
    batcher = MicroBatcher(engine)
    server = make_server(engine, port=0, batcher=batcher)
    thread = run_server(server)
    host, port = server.server_address[:2]
    base_url = f"http://{host}:{port}"
    bodies = [request_body(index) for index in range(n_requests)]
    batch_hist = metrics.registry.histogram("serve.batch_size")
    count_before, total_before = batch_hist.count, batch_hist.total

    latencies: list[float] = []
    failures: list[str] = []
    shares = [
        list(range(worker, n_requests, concurrency))
        for worker in range(concurrency)
    ]
    clients = [
        threading.Thread(
            target=_client,
            args=(base_url, bodies, share, latencies, failures),
        )
        for share in shares if share
    ]
    started = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    wall = time.perf_counter() - started

    server.shutdown()
    server.server_close()
    batcher.close()
    thread.join(5.0)

    if failures:
        raise RuntimeError(f"{len(failures)} requests failed: {failures[:3]}")
    n_batches = batch_hist.count - count_before
    batch_size = (
        (batch_hist.total - total_before) / n_batches if n_batches else None
    )
    ordered = sorted(latencies)
    return {
        "requests": n_requests,
        "concurrency": concurrency,
        "requests_per_sec": round(n_requests / wall, 1),
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 2),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 2),
        "batch_size": round(batch_size, 2) if batch_size else None,
    }


def run_bench(write_trajectory: bool = True) -> dict:
    """Measure one load run, append it to the trajectory, return it."""
    record = {
        "commit": git_commit(),
        "preset": "tiny" if _TINY else "full",
        **measure(),
    }
    if write_trajectory:
        append_trajectory(TRAJECTORY_PATH, [record])
    return record


# -- pytest entry point (CI smoke) -------------------------------------------


def test_serve_meets_throughput_floor():
    """The tracked serving perf number vs the committed floor.

    Fails when throughput regresses more than 30% below
    ``serve_floor.json`` and writes the BENCH_serve.json record CI
    uploads as an artifact.
    """
    record = run_bench(write_trajectory=True)
    floor = json.loads(FLOOR_PATH.read_text())["requests_per_sec"]
    print(
        f"\nserve: {record['requests_per_sec']:,.0f} req/s "
        f"(floor {floor:,.0f}), p50 {record['p50_ms']}ms "
        f"p99 {record['p99_ms']}ms batch {record['batch_size']}"
    )
    assert record["requests_per_sec"] >= 0.7 * floor, (
        f"requests_per_sec regressed: {record['requests_per_sec']:,.1f} "
        f"req/s is more than 30% below the committed floor of "
        f"{floor:,.0f} (benchmarks/serve_floor.json)"
    )


if __name__ == "__main__":
    bench_record = run_bench()
    print(json.dumps(bench_record, indent=2))
    print(f"\nappended 1 record to {TRAJECTORY_PATH}")
