"""Tests for repro.obs.profile — the wall-clock sampling profiler."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.lda import LDAConfig, LatentDirichletAllocation
from repro.errors import ObservabilityError
from repro.obs import profile, trace
from repro.rng import ensure_rng


@pytest.fixture(autouse=True)
def _profiling_off():
    profile.disable()
    trace.disable()
    yield
    profile.disable()
    trace.disable()


def _spin(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(range(200))


class TestProfilerConstruction:
    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ObservabilityError, match="hz"):
            profile.Profiler(hz=0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ObservabilityError, match="max_stacks"):
            profile.Profiler(max_stacks=0)
        with pytest.raises(ObservabilityError, match="max_depth"):
            profile.Profiler(max_depth=0)

    def test_double_start_rejected(self):
        profiler = profile.Profiler(hz=200)
        profiler.start()
        try:
            with pytest.raises(ObservabilityError, match="already"):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_without_start_is_a_no_op(self):
        profile.Profiler().stop()

    def test_switch_interval_lowered_while_running(self):
        before = sys.getswitchinterval()
        profiler = profile.Profiler(hz=200)
        profiler.start()
        try:
            assert sys.getswitchinterval() <= (
                profile.SAMPLING_SWITCH_INTERVAL_S
            )
        finally:
            profiler.stop()
        assert sys.getswitchinterval() == before


class TestSampling:
    def test_samples_busy_thread(self):
        stop = threading.Event()
        worker = threading.Thread(target=_spin, args=(stop,))
        worker.start()
        try:
            profiler = profile.Profiler(hz=400)
            for _ in range(30):
                profiler._sample(threading.get_ident())
                time.sleep(0.002)
        finally:
            stop.set()
            worker.join()
        report = profiler.report()
        assert report.n_samples > 0
        assert report.attribution("test_profile:_spin") > 0.0

    def test_own_and_repro_threads_are_skipped(self):
        profiler = profile.Profiler(hz=400)
        stop = threading.Event()
        decoy = threading.Thread(
            target=stop.wait, name="repro-decoy", daemon=True
        )
        decoy.start()
        try:
            profiler._sample(threading.get_ident())
        finally:
            stop.set()
            decoy.join()
        frames = [
            frame
            for row in profiler.report().stacks
            for frame in row["stack"]
        ]
        # neither the sampling thread itself nor repro-* daemons appear
        assert not any("_sample" in frame for frame in frames)
        assert not any("Event.wait" in frame for frame in frames)

    def test_max_stacks_overflow_folds(self):
        profiler = profile.Profiler(hz=400, max_stacks=1)
        profiler._counts[("-", ("something:else",))] = 1
        stop = threading.Event()
        worker = threading.Thread(target=_spin, args=(stop,))
        worker.start()
        try:
            for _ in range(5):
                profiler._sample(threading.get_ident())
                time.sleep(0.002)
        finally:
            stop.set()
            worker.join()
        assert profiler.truncated
        overflow = [
            row
            for row in profiler.report().stacks
            if row["stack"] == [profile.OVERFLOW_FRAME]
        ]
        assert overflow and overflow[0]["count"] > 0

    def test_max_depth_truncates(self):
        release = threading.Event()
        ready = threading.Event()

        def deep(n: int) -> None:
            if n > 0:
                deep(n - 1)
                return
            ready.set()
            release.wait()

        worker = threading.Thread(target=deep, args=(40,))
        worker.start()
        assert ready.wait(5.0)
        profiler = profile.Profiler(hz=400, max_depth=8)
        try:
            profiler._sample(threading.get_ident())
        finally:
            release.set()
            worker.join()
        assert profiler.truncated
        assert all(
            len(row["stack"]) <= 8 for row in profiler.report().stacks
        )


class TestSpanAttribution:
    def test_samples_attribute_to_open_span(self):
        trace.enable(None)
        profile.enable(None, hz=400)
        deadline = time.perf_counter() + 0.3
        with trace.span("profiled.work"):
            while time.perf_counter() < deadline:
                sum(range(200))
        report = profile.disable()
        spans = {}
        for row in report.stacks:
            spans[row["span"]] = spans.get(row["span"], 0) + row["count"]
        assert spans.get("profiled.work", 0) > 0

    def test_no_span_label_without_tracing(self):
        profile.enable(None, hz=400)
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            sum(range(200))
        report = profile.disable()
        assert {row["span"] for row in report.stacks} <= {profile.NO_SPAN}

    def test_span_tracking_flag_follows_profiler(self):
        assert not trace._span_tracking
        profile.enable(None, hz=200)
        assert trace._span_tracking
        profile.disable()
        assert not trace._span_tracking


class TestReport:
    def _report(self):
        return profile.ProfileReport(
            hz=97.0,
            n_samples=10,
            duration_s=0.5,
            stacks=[
                {"span": "s", "stack": ["m:f", "m:g"], "count": 7},
                {"span": "-", "stack": ["m:f"], "count": 3},
            ],
        )

    def test_round_trip(self):
        report = self._report()
        payload = json.loads(json.dumps(report.to_json()))
        back = profile.ProfileReport.from_json(payload)
        assert back.hz == report.hz
        assert back.n_samples == report.n_samples
        assert back.stacks == report.stacks
        assert payload["format"] == profile.PROFILE_FORMAT
        assert payload["v"] == profile.PROFILE_SCHEMA_VERSION
        for key in ("pid", "python", "argv", "started_unix", "truncated"):
            assert key in payload

    def test_folded_lines(self):
        report = self._report()
        assert report.folded() == ["s;m:f;m:g 7", "-;m:f 3"]
        assert report.folded(with_span=False) == ["m:f;m:g 7", "m:f 3"]

    def test_attribution(self):
        report = self._report()
        assert report.attribution("m:g") == pytest.approx(0.7)
        assert report.attribution("m:f") == pytest.approx(1.0)
        assert report.attribution("nowhere") == 0.0
        empty = profile.ProfileReport(97.0, 0, 0.0, [])
        assert empty.attribution("m:f") == 0.0

    def test_top_functions_self_vs_total(self):
        rows = dict(
            (frame, (self_count, total))
            for frame, self_count, total in self._report().top_functions()
        )
        assert rows["m:g"] == (7, 7)
        assert rows["m:f"] == (3, 10)

    def test_render_mentions_hottest_frame(self):
        out = self._report().render()
        assert "10 samples" in out
        assert "m:g" in out

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"format": "nope", "v": 1, "stacks": []},
            {"format": "repro-profile", "v": 99, "stacks": []},
            {"format": "repro-profile", "v": 1, "stacks": "x"},
            {"format": "repro-profile", "v": 1, "stacks": [{"span": 3}]},
        ],
    )
    def test_from_json_rejects_malformed(self, payload):
        with pytest.raises(ObservabilityError):
            profile.ProfileReport.from_json(payload)


class TestModuleApi:
    def test_disabled_by_default(self):
        assert not profile.is_enabled()
        assert profile.active() is None
        assert profile.disable() is None

    def test_enable_disable_writes_artifact(self, tmp_path):
        path = tmp_path / "profile.json"
        profile.enable(path, hz=300)
        assert profile.is_enabled()
        time.sleep(0.05)
        report = profile.disable()
        assert report is not None
        assert not profile.is_enabled()
        back = profile.read_report(path)
        assert back.hz == 300

    def test_no_profiler_thread_when_disabled(self):
        names = {t.name for t in threading.enumerate()}
        assert "repro-profiler" not in names

    def test_read_report_missing_file(self, tmp_path):
        with pytest.raises(ObservabilityError, match="no profile file"):
            profile.read_report(tmp_path / "absent.json")

    def test_read_report_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "repro-profile"')
        with pytest.raises(ObservabilityError, match="not valid JSON"):
            profile.read_report(path)


def _fit_corpus():
    rng = ensure_rng(7)
    docs = [
        rng.integers(0, 400, size=rng.integers(40, 80)) for _ in range(150)
    ]
    return docs, 400


class TestProfiledFit:
    """The acceptance criterion: a profiled fit blames the kernel."""

    CONFIG = LDAConfig(
        n_topics=16, n_sweeps=30, burn_in=10, thin=2, kernel="dense"
    )

    #: Cap on repeated fits inside one profiled window: a fast host
    #: needs several fits to clear the sample floor, and a dead sampler
    #: must fail the floor instead of hanging the test.
    MAX_FITS = 40

    def test_kernel_sweep_dominates_profile(self):
        docs, vocab = _fit_corpus()
        trace.enable(None)
        profile.enable(None, hz=250)
        # Count-based, not clock-based: repeat the same seeded fit until
        # the profiler holds enough samples for the share checks.
        for _ in range(self.MAX_FITS):
            LatentDirichletAllocation(self.CONFIG).fit(
                docs, vocab, rng=ensure_rng(11)
            )
            if profile.active().n_samples > 50:
                break
        report = profile.disable()
        trace.disable()
        assert report.n_samples > 50
        # >= 80% of samples land in kernel sweep code, attributed to
        # the lda.fit span.
        assert report.attribution("repro.core.kernels") >= 0.8
        in_fit_span = sum(
            row["count"] for row in report.stacks if row["span"] == "lda.fit"
        )
        assert in_fit_span / report.n_samples >= 0.8

    def test_profiled_fit_is_bit_identical(self):
        docs, vocab = _fit_corpus()
        plain = LatentDirichletAllocation(self.CONFIG).fit(
            docs, vocab, rng=ensure_rng(11)
        )
        profile.enable(None, hz=250)
        profiled = LatentDirichletAllocation(self.CONFIG).fit(
            docs, vocab, rng=ensure_rng(11)
        )
        profile.disable()
        assert np.array_equal(plain.phi_, profiled.phi_)
        assert np.array_equal(plain.theta_, profiled.theta_)
