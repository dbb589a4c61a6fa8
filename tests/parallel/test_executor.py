"""Tests for repro.parallel — the seeded backend-pluggable executor."""

import time

import pytest

from repro.errors import ParallelError
from repro.parallel import BACKENDS, ParallelConfig, run_tasks
from repro.rng import ensure_rng, spawn


def _draw(payload, rng):
    """Echo the payload plus three draws from the task's stream."""
    return payload, rng.random(3).tolist()


def _boom(payload, rng):
    raise ValueError(f"task {payload} exploded")


def _sleepy(payload, rng):
    time.sleep(0.3)
    return payload * 2


class TestConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ParallelError):
            ParallelConfig(backend="gpu")

    def test_degenerate_limits_rejected(self):
        with pytest.raises(ParallelError):
            ParallelConfig(max_workers=0)
        with pytest.raises(ParallelError):
            ParallelConfig(timeout=0.0)

    def test_auto_resolves_to_concrete_backend(self):
        resolved = ParallelConfig(backend="auto").resolve_backend()
        assert resolved in ("serial", "process")
        assert resolved in BACKENDS

    def test_worker_count_bounded_by_tasks(self):
        assert ParallelConfig(max_workers=8).resolve_workers(3) == 3
        assert ParallelConfig(max_workers=2).resolve_workers(5) == 2


class TestReproducibility:
    def test_serial_matches_manual_spawn(self):
        """The serial backend is definitionally spawn-then-loop."""
        expected = [
            ("a" * i, child.random(3).tolist())
            for i, child in enumerate(spawn(123, 4))
        ]
        got = run_tasks(
            _draw, ["", "a", "aa", "aaa"], rng=123,
            config=ParallelConfig(backend="serial"),
        )
        assert got == expected

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_match_serial_bitwise(self, backend):
        payloads = list(range(5))
        serial = run_tasks(_draw, payloads, rng=7)
        parallel = run_tasks(
            _draw, payloads, rng=7,
            config=ParallelConfig(backend=backend, max_workers=2),
        )
        assert parallel == serial

    def test_results_keep_submission_order(self):
        got = run_tasks(
            _draw, [3, 1, 2], rng=0, config=ParallelConfig(backend="thread")
        )
        assert [payload for payload, _ in got] == [3, 1, 2]

    def test_empty_payloads(self):
        assert run_tasks(_draw, [], rng=0) == []


class TestFallback:
    def test_unpicklable_fn_falls_back_to_serial(self):
        """A lambda cannot cross a process boundary; results must not."""
        serial = run_tasks(_draw, [1, 2, 3], rng=11)
        got = run_tasks(  # repro: noqa[PAR001] - deliberately unpicklable lambda: this test exercises the serial fallback
            lambda payload, rng: _draw(payload, rng), [1, 2, 3], rng=11,
            config=ParallelConfig(backend="process"),
        )
        assert got == serial

    def test_unpicklable_fn_starts_no_pool(self, monkeypatch):
        """The task function is pickled before a process pool exists: a
        pickling failure inside a live pool's feeder thread can leave the
        pool's manager thread waiting forever and hang interpreter exit."""
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started for an unpicklable task")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        got = run_tasks(  # repro: noqa[PAR001] - deliberately unpicklable lambda: this test asserts no pool starts
            lambda payload, rng: _draw(payload, rng), [1, 2, 3], rng=11,
            config=ParallelConfig(backend="process"),
        )
        assert got == run_tasks(_draw, [1, 2, 3], rng=11)

    def test_fallback_disabled_raises(self):
        with pytest.raises(ParallelError):
            run_tasks(  # repro: noqa[PAR001] - deliberately unpicklable lambda: this test asserts the raise
                lambda payload, rng: payload, [1, 2], rng=0,
                config=ParallelConfig(
                    backend="process", fallback_to_serial=False
                ),
            )

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_task_errors_propagate(self, backend):
        """Exceptions from the task body are never eaten by the fallback."""
        with pytest.raises(ValueError, match="exploded"):
            run_tasks(
                _boom, [1, 2], rng=0, config=ParallelConfig(backend=backend)
            )

    def test_timeout_recomputes_serially(self):
        """An expired batch is recomputed, not lost."""
        got = run_tasks(
            _sleepy, [1, 2], rng=0,
            config=ParallelConfig(backend="thread", timeout=0.01),
        )
        assert got == [2, 4]

    def test_timeout_without_fallback_raises(self):
        with pytest.raises(ParallelError):
            run_tasks(
                _sleepy, [1, 2], rng=0,
                config=ParallelConfig(
                    backend="thread", timeout=0.01, fallback_to_serial=False
                ),
            )


class TestModelIntegration:
    """End-to-end: the executor drives real restart/chain fan-outs."""

    def test_collapsed_chains_reproducible_across_backends(self):
        from repro.core.collapsed import run_chains
        from repro.core.joint_model import JointModelConfig
        from tests.core.test_joint_model import synthetic_joint_data

        rng = ensure_rng(1)
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=30)
        reference = None
        for backend in ("serial", "thread"):
            config = JointModelConfig(
                n_topics=3, n_sweeps=8, burn_in=4, thin=2, backend=backend
            )
            chains = run_chains(
                config, docs, gels, emulsions, 9, n_chains=2, rng=42
            )
            assert len(chains) == 2
            key = [chain.log_likelihoods_ for chain in chains]
            if reference is None:
                reference = key
            else:
                assert key == reference
