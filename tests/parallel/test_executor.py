"""Tests for repro.parallel — the seeded task fan-out."""

import concurrent.futures

import pytest

from repro.errors import ParallelError
from repro.parallel import run_tasks
from repro.rng import ensure_rng, spawn

#: The two execution paths: the loop in the caller and the process pool.
PATHS = pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])


def _draw(payload, rng):
    """Echo the payload plus three draws from the task's stream."""
    return payload, rng.random(3).tolist()


def _boom(payload, rng):
    raise ValueError(f"task {payload} exploded")


class TestConfig:
    def test_degenerate_limits_rejected(self):
        with pytest.raises(ParallelError):
            run_tasks(_draw, [1], rng=0, workers=0)

    def test_worker_count_bounded_by_tasks(self, monkeypatch):
        sizes = []
        pool_type = concurrent.futures.ProcessPoolExecutor

        def recorded_pool(*args, **kwargs):
            sizes.append(kwargs["max_workers"])
            return pool_type(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", recorded_pool
        )
        run_tasks(_draw, [1, 2], rng=0, workers=8)
        run_tasks(_draw, [1], rng=0, workers=8)  # one task: no pool
        assert sizes == [2]


class TestReproducibility:
    def test_serial_matches_manual_spawn(self):
        """One worker is definitionally spawn-then-loop."""
        expected = [
            ("a" * i, child.random(3).tolist())
            for i, child in enumerate(spawn(123, 4))
        ]
        got = run_tasks(_draw, ["", "a", "aa", "aaa"], rng=123, workers=1)
        assert got == expected

    @pytest.mark.parametrize("workers", [2], ids=["process"])
    def test_backends_match_serial_bitwise(self, workers):
        payloads = list(range(5))
        serial = run_tasks(_draw, payloads, rng=7)
        assert run_tasks(_draw, payloads, rng=7, workers=workers) == serial

    def test_results_keep_submission_order(self):
        got = run_tasks(_draw, [3, 1, 2], rng=0, workers=2)
        assert [payload for payload, _ in got] == [3, 1, 2]

    def test_empty_payloads(self):
        assert run_tasks(_draw, [], rng=0) == []


class TestFallback:
    def test_unpicklable_fn_falls_back_to_serial(self):
        """A lambda cannot cross a process boundary; results must not."""
        serial = run_tasks(_draw, [1, 2, 3], rng=11)
        got = run_tasks(  # repro: noqa[PAR001] - deliberately unpicklable lambda: this test exercises the serial fallback
            lambda payload, rng: _draw(payload, rng), [1, 2, 3], rng=11,
            workers=2,
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
            workers=2,
        )
        assert got == run_tasks(_draw, [1, 2, 3], rng=11)

    @PATHS
    def test_task_errors_propagate(self, workers):
        """Exceptions from the task body are never eaten by the fallback."""
        with pytest.raises(ValueError, match="exploded"):
            run_tasks(_boom, [1, 2], rng=0, workers=workers)


class TestModelIntegration:
    """End-to-end: the executor drives real restart/chain fan-outs."""

    def test_collapsed_chains_reproducible_across_backends(self):
        from repro.core.collapsed import CollapsedJointModel
        from repro.core.joint_model import JointModelConfig, run_chains
        from tests.core.test_joint_model import synthetic_joint_data

        rng = ensure_rng(1)
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=30)
        reference = None
        for workers in (1, 2):
            config = JointModelConfig(
                n_topics=3, n_sweeps=8, burn_in=4, thin=2, n_workers=workers
            )
            chains = run_chains(
                CollapsedJointModel, config, docs, gels, emulsions, 9,
                n_chains=2, rng=42,
            )
            assert len(chains) == 2
            key = [chain.log_likelihoods_ for chain, _ in chains]
            if reference is None:
                reference = key
            else:
                assert key == reference
