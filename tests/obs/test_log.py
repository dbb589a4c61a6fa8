"""Tests for repro.obs.log — the single idempotent repro logger."""

import io
import logging

import pytest

from repro.obs import log as obs_log


@pytest.fixture(autouse=True)
def _clean_root():
    root = logging.getLogger(obs_log.ROOT)
    before = list(root.handlers)
    yield
    for handler in list(root.handlers):
        if handler not in before:
            root.removeHandler(handler)


class TestGetLogger:
    def test_prefixes_repro(self):
        assert obs_log.get_logger("parallel").name == "repro.parallel"

    def test_keeps_existing_prefix(self):
        assert obs_log.get_logger("repro.core").name == "repro.core"
        assert obs_log.get_logger().name == "repro"


class TestResolveLevel:
    def test_explicit_name_wins(self):
        assert obs_log.resolve_level("debug", verbosity=0) == logging.DEBUG
        assert obs_log.resolve_level("error", verbosity=2) == logging.ERROR

    def test_verbosity_mapping(self):
        assert obs_log.resolve_level(None, 0) == logging.WARNING
        assert obs_log.resolve_level(None, 1) == logging.INFO
        assert obs_log.resolve_level(None, 2) == logging.DEBUG
        assert obs_log.resolve_level(None, 5) == logging.DEBUG

    def test_int_passthrough(self):
        assert obs_log.resolve_level(17) == 17

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            obs_log.resolve_level("loud")


class TestConfigure:
    def test_no_duplicate_handlers_on_repeat(self):
        root = logging.getLogger(obs_log.ROOT)

        def ours():
            return [
                h for h in root.handlers
                if getattr(h, obs_log._MARKER, False)
            ]

        # An earlier CLI main() in this process may have left its marked
        # handler installed; only handlers configure() did not install
        # are a fixed baseline.
        foreign = len(root.handlers) - len(ours())
        obs_log.configure(verbosity=1)
        obs_log.configure(verbosity=1)
        obs_log.configure(level="debug")
        assert len(ours()) == 1
        assert len(root.handlers) == foreign + 1
        assert root.level == logging.DEBUG

    def test_records_reach_the_stream(self):
        stream = io.StringIO()
        obs_log.configure(verbosity=1, stream=stream)
        obs_log.get_logger("core.joint_model").info("sweep %d", 3)
        assert "repro.core.joint_model" in stream.getvalue()
        assert "sweep 3" in stream.getvalue()

    def test_does_not_propagate_to_global_root(self):
        obs_log.configure(stream=io.StringIO())
        assert logging.getLogger(obs_log.ROOT).propagate is False
