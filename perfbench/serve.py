"""The serving workload ``serve-saturate``.

Set-up fits the pipeline-cold configuration at a fixed training seed
into a fresh artifact store, then starts ``repro serve`` on it as its
own process with default flags (serial batcher, ``max_batch`` 8, 2 ms
batch wait, 48 fold-in sweeps) and waits for ``/healthz``.

The load is a closed loop from one process with :data:`CLIENTS`
threads, each holding one persistent HTTP/1.1 connection and sending its
next ``POST /v1/texture`` when the previous answer arrives. Every run
sends a fixed number of requests, sized from ``--seconds``. Bodies are
held-out default-preset recipes drawn with replacement, so about half
repeat an earlier body.

Request bodies come from :class:`repro.synth.CorpusGenerator` seeded from
the workload seed, never from the training seed, and each carries its
ground-truth gel band. Every response is checked: status 200, ``status``
``ok`` or ``review``, a topic distribution summing to 1 within 1e-9, and
byte-identical answers for identical bodies.
"""

from __future__ import annotations

import dataclasses
import http.client
import itertools
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.pipeline.experiment import clear_cache, quick_config, run_experiment
from repro.rng import ensure_rng, spawn
from repro.synth.generator import CorpusGenerator
from repro.synth.presets import DEFAULT_PRESET

from perfbench import layers
from perfbench.common import (
    RunResult,
    fresh_dir,
    linkage_valid,
    median,
    nmi,
    percentile,
    pid_peak_rss_mb,
    table2b_ok,
    timed_setup,
)
from perfbench.tracing import RID_PARAM, Tracer, install_pipeline, read_spans

#: The served model: the pipeline-cold configuration at a fixed seed,
#: so every set-up does identical work.
TRAIN_CONFIG = quick_config(600, 60, seed=11)
#: Latency limit for ``slo_ok_ratio``, above today's p90.
SLO_MS = 100.0
#: Client threads (one persistent connection each); two vCPUs.
CLIENTS = min(2, os.cpu_count() or 1)
#: Requests per second of ``--seconds``: the closed loop's rate on a
#: 2-vCPU VM, so a run lasts about ``--seconds``.
NOMINAL_RATE = 40.0
#: Fewest requests per run: ten samples beyond the p90.
MIN_REQUESTS = 100
#: Distinct bodies per request so draws with replacement repeat about
#: half the time: (1 - exp(-x)) / x = 0.5 at x = 1.594.
REPEAT_POOL_RATIO = 1.594
REQUEST_TIMEOUT_S = 10.0
SERVER_START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Request:
    body: bytes
    #: Index of the distinct body; equal keys must get equal answers.
    key: int
    band: str


@dataclass
class Sent:
    sent: float
    done: float
    status: int
    data: bytes


# -- requests ------------------------------------------------------------------


def _bodies(rng: Any, n: int) -> list[tuple[bytes, str]]:
    """``n`` default-preset recipes as request bodies with their gel band."""
    corpus = CorpusGenerator(rng=rng).generate(
        dataclasses.replace(DEFAULT_PRESET, n_recipes=n)
    )
    bodies = []
    for recipe in corpus.recipes:
        payload = {
            "ingredients": [
                {"name": i.name, "quantity": i.quantity_text}
                for i in recipe.ingredients
            ],
            "description": recipe.description,
        }
        bodies.append(
            (
                json.dumps(payload).encode("utf-8"),
                corpus.truth_of(recipe.recipe_id).gel_band,
            )
        )
    return bodies


def saturate_requests(seed: int, n: int) -> list[Request]:
    body_rng, pick_rng = spawn(ensure_rng(seed), 2)
    pool = _bodies(body_rng, max(1, round(n / REPEAT_POOL_RATIO)))
    picks = pick_rng.integers(0, len(pool), size=n)
    return [Request(pool[k][0], int(k), pool[k][1]) for k in picks]


def repeat_ratio(requests: list[Request]) -> float:
    return 1.0 - len({r.key for r in requests}) / len(requests)


# -- the server process ----------------------------------------------------------


class ServerProcess:
    """``repro serve`` on a store, as a child process on a free port."""

    def __init__(
        self, root: Path, store: Path, work: Path, spans: Path | None = None
    ) -> None:
        if spans is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [
                sys.executable, "-m", "perfbench.serve_launcher",
                "--spans", str(spans), "--",
            ]
        command += ["serve", "--cache-dir", str(store), "--port", "0"]
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in (obs_trace.TRACE_ENV, obs_profile.PROFILE_ENV)
        }
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        env["TMPDIR"] = str(work)
        self._log = open(work / f"server-{os.getpid()}-{id(self)}.log", "wb")
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.host, self.port = self._address()
            self._wait_healthy()
        except (RuntimeError, OSError, http.client.HTTPException):
            self.stop()
            raise

    def _address(self) -> tuple[str, int]:
        assert self.process.stdout is not None
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError("repro serve did not report its address")
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.process.stdout.fileno(), 1)
                if not chunk:
                    raise RuntimeError("repro serve exited during start-up")
                line += chunk
        match = re.search(rb"http://([\d.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected start-up line {line!r}")
        return match.group(1).decode(), int(match.group(2))

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _wait_healthy(self) -> None:
        status, _ = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


# -- load ------------------------------------------------------------------------


def send_all(host: str, port: int, requests: list[Request]) -> list[Sent]:
    """Send every request over :data:`CLIENTS` persistent connections.

    Each thread takes the next request in order as soon as its previous
    answer is back.
    """
    results: list[Sent | None] = [None] * len(requests)
    order = itertools.count()
    lock = threading.Lock()

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    index = next(order)
                if index >= len(requests):
                    return
                sent = time.perf_counter()
                try:
                    conn.request(
                        "POST",
                        f"/v1/texture?{RID_PARAM}={index}",
                        body=requests[index].body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    status, data = response.status, response.read()
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=REQUEST_TIMEOUT_S
                    )
                results[index] = Sent(sent, time.perf_counter(), status, data)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in results if r is not None]


@dataclass
class Checked:
    ok: list[bool]
    topics: list[int]
    statuses: list[str]


def check_responses(requests: list[Request], sent: list[Sent]) -> Checked:
    """The response oracle of every serve run."""
    first: dict[int, bytes] = {}
    checked = Checked([], [], [])
    for request, answer in zip(requests, sent):
        ok, topic, status = answer.status == 200, -1, ""
        if ok:
            try:
                payload = json.loads(answer.data)
                status = payload["status"]
                total = sum(payload["topic_distribution"])
                topic = int(payload["topic"])
            except (ValueError, KeyError, TypeError):
                ok = False
            else:
                ok = status in ("ok", "review") and abs(total - 1.0) <= 1e-9
        if ok:
            earlier = first.setdefault(request.key, answer.data)
            ok = earlier == answer.data
        checked.ok.append(ok)
        checked.topics.append(topic if ok else -1)
        checked.statuses.append(status)
    return checked


# -- the workloads -----------------------------------------------------------------


@dataclass
class ServeState:
    store: Path
    result: Any
    server: ServerProcess


def _latencies_ms(sent: list[Sent], ok: list[bool]) -> list[float]:
    return [(s.done - s.sent) * 1000.0 for s, good in zip(sent, ok) if good]


def serve_saturate(
    seed: int, seconds: int, root: Path, work: Path, trace: bool
) -> RunResult:
    requests = saturate_requests(seed, max(MIN_REQUESTS, round(NOMINAL_RATE * seconds)))

    def setup() -> ServeState:
        store = fresh_dir(work, "store-")
        result = run_experiment(TRAIN_CONFIG, cache_dir=store)
        clear_cache()
        return ServeState(store, result, ServerProcess(root, store, work))

    def teardown(state: ServeState) -> None:
        state.server.stop()
        shutil.rmtree(state.store, ignore_errors=True)

    tracer = Tracer() if trace else None
    if tracer is not None:
        install_pipeline(tracer)
    state, setup_s, setups = timed_setup(setup, teardown)
    if tracer is not None:
        tracer.uninstall()
    try:
        sent = send_all(state.server.host, state.server.port, requests)
        peak_rss = state.server.peak_rss_mb()
    finally:
        state.server.stop()
    checked = check_responses(requests, sent)
    latencies = _latencies_ms(sent, checked.ok)
    result = RunResult(attempted=len(requests), failed=checked.ok.count(False))
    if len(sent) != len(requests):
        result.problems.append("the load generator lost requests")
    if tracer is not None:
        try:
            traced = _traced_run(state, root, work, requests)
        finally:
            shutil.rmtree(state.store, ignore_errors=True)
        traced_checked = check_responses(requests, traced.sent)
        traced_latencies = _latencies_ms(traced.sent, traced_checked.ok)
        result.failed += traced_checked.ok.count(False)
        result.attempted += len(requests)
        layers.serve_layers(
            result,
            tracer.spans,
            traced.spans,
            traced.sent,
            traced_checked.statuses,
            n_setups=setups,
            overhead=median(traced_latencies) / median(latencies) - 1.0,
            batch_size_mean=traced.batch_size_mean,
            repeat_ratio=repeat_ratio(requests),
        )
        _flag_failures(result)
        return result
    shutil.rmtree(state.store, ignore_errors=True)

    n_sent = len(requests)
    span_s = max(s.done for s in sent) - min(s.sent for s in sent)
    served = state.result
    result.add("setup_s", setup_s, "s", setups)
    result.add("op_ms.p50", median(latencies), "ms", len(latencies))
    result.add("op_ms.p90", percentile(latencies, 90.0), "ms", len(latencies))
    result.add("throughput_per_s", len(latencies) / span_s, "1/s", len(latencies))
    result.add(
        "slo_ok_ratio",
        sum(
            1
            for s, good in zip(sent, checked.ok)
            if good and (s.done - s.sent) * 1000.0 <= SLO_MS
        )
        / n_sent,
        "ratio",
        n_sent,
    )
    result.add("error_ratio", result.failed / n_sent, "ratio", n_sent)
    result.add("peak_rss_mb", peak_rss, "MB", 1)
    result.add("nmi", nmi(checked.topics, [r.band for r in requests]), "ratio", n_sent)
    result.add("table2b_ok_ratio", float(table2b_ok(served)), "ratio", 1)
    result.add("linkage_valid_ratio", linkage_valid(served), "ratio", 1)
    _flag_failures(result)
    return result


def _flag_failures(result: RunResult) -> None:
    if result.failed:
        result.problems.append(
            f"{result.failed} of {result.attempted} responses failed the oracle"
        )


@dataclass
class TracedServe:
    sent: list[Sent]
    spans: list[dict[str, Any]]
    batch_size_mean: float


def _traced_run(
    state: ServeState,
    root: Path,
    work: Path,
    requests: list[Request],
) -> TracedServe:
    """The same load against a server with the serve-layer spans on."""
    spans_path = work / "server-spans.json"
    server = ServerProcess(root, state.store, work, spans=spans_path)
    try:
        sent = send_all(server.host, server.port, requests)
        status, body = server.get("/metricz")
        histogram = json.loads(body)["metrics"].get("serve.batch_size", {})
        batch_size_mean = float(histogram.get("mean") or 0.0) if status == 200 else 0.0
    finally:
        server.stop()
    return TracedServe(sent, read_spans(spans_path), batch_size_mean)
