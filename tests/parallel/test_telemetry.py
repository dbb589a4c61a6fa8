"""Worker telemetry propagation: restarts report back from the pool too.

The process pool once dropped each restart chain's
seed/wall-clock/likelihood on the worker side. These tests pin the
contract — identical telemetry *content* (everything but wall-clock,
which legitimately differs per host) from the serial loop and the
process pool, and executor wait/run histograms fed for pooled runs.
"""

import numpy as np
import pytest

from repro.core.collapsed import CollapsedJointModel
from repro.core.joint_model import JointModelConfig, JointTextureTopicModel
from repro.core.telemetry import generator_seed, restart_telemetry
from repro.obs import metrics, trace
from repro.rng import ensure_rng, spawn
from tests.core.test_joint_model import synthetic_joint_data


@pytest.fixture(autouse=True)
def _fresh_obs():
    trace.disable()
    metrics.registry.reset()
    yield
    trace.disable()
    metrics.registry.reset()


def _fit(n_workers: int, model_cls: type = JointTextureTopicModel):
    rng = ensure_rng(8)
    docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=25)
    config = JointModelConfig(
        n_topics=3, n_sweeps=6, burn_in=2, thin=2,
        n_restarts=3, n_workers=n_workers,
    )
    model = model_cls(config)
    return model.fit(docs, gels, emulsions, 9, rng=19)


class TestGeneratorSeed:
    def test_round_trips_integer_seeds(self):
        assert generator_seed(ensure_rng(1234)) == 1234

    def test_spawned_streams_report_their_draw(self):
        children = spawn(7, 3)
        seeds = [generator_seed(child) for child in children]
        assert all(isinstance(s, int) for s in seeds)
        # re-spawning from the same parent yields the same child seeds
        assert seeds == [generator_seed(c) for c in spawn(7, 3)]

    def test_unrecoverable_seed_is_none(self):
        child_seq = ensure_rng(5).bit_generator.seed_seq.spawn(1)[0]
        assert generator_seed(ensure_rng(child_seq)) is None


class TestRestartTelemetry:
    def test_record_shape(self):
        record = restart_telemetry(ensure_rng(3), 1.5, -200.0)
        assert record == {
            "seed": 3, "fit_seconds": 1.5, "final_log_likelihood": -200.0,
        }

    @pytest.mark.parametrize(
        "model_cls", [JointTextureTopicModel, CollapsedJointModel],
        ids=["gibbs", "collapsed"],
    )
    def test_restart_telemetry_populated(self, model_cls):
        model = _fit(1, model_cls)
        assert len(model.restart_telemetry_) == 3
        assert len(model.restart_seconds_) == 3
        for record in model.restart_telemetry_:
            assert isinstance(record["seed"], int)
            assert record["fit_seconds"] > 0
            assert np.isfinite(record["final_log_likelihood"])

    def test_serial_process_parity(self):
        """Process workers must ship the same telemetry content home."""
        serial = _fit(1)
        process = _fit(2)
        assert serial.log_likelihoods_ == process.log_likelihoods_

        def comparable(records):
            return [
                (r["seed"], r["final_log_likelihood"]) for r in records
            ]

        assert comparable(serial.restart_telemetry_) == comparable(
            process.restart_telemetry_
        )
        assert all(
            r["fit_seconds"] > 0 for r in process.restart_telemetry_
        )


class TestExecutorMetrics:
    def test_run_histograms_fed(self):
        _fit(2)
        snap = metrics.registry.snapshot()
        assert snap["executor.task_run_seconds"]["count"] == 3
        assert snap["executor.task_wait_seconds"]["count"] == 3

    def test_serial_feeds_run_times_only(self):
        _fit(1)
        snap = metrics.registry.snapshot()
        assert snap["executor.task_run_seconds"]["count"] == 3
        assert "executor.task_wait_seconds" not in snap


class TestCrossProcessTraceForwarding:
    def test_process_spans_replayed_into_parent_trace(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        trace.enable(trace_path)
        _fit(2)
        trace.disable()
        from repro.obs.export import read_trace, validate_trace

        records = read_trace(trace_path)
        validate_trace(records)
        forwarded = [r for r in records if r.get("forwarded")]
        assert forwarded, "no worker records were forwarded"
        restarts = [
            r for r in forwarded
            if r["kind"] == "span" and r["name"] == "joint-model.restart"
        ]
        assert len(restarts) == 3
        run_tasks_span = next(
            r for r in records
            if r["kind"] == "span" and r["name"] == "run-tasks"
        )
        assert all(
            r["parent_id"] == run_tasks_span["span_id"] for r in restarts
        )
        # worker sweep events travelled too, under their worker spans
        sweeps = [
            r for r in forwarded
            if r["kind"] == "event" and r["name"] == "sweep"
        ]
        assert len(sweeps) == 3 * 6
