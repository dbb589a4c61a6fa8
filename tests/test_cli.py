"""Tests for repro.cli."""

import socket

import pytest

from repro.cli import main


class TestParsing:
    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--recipes", "0"],
            ["figures", "--recipes", "0"],
            ["run", "--recipes", "0"],
            ["estimate", "gelatin=5g", "--recipes", "0"],
            ["search", "purupuru", "--recipes", "0"],
            ["rules", "--recipes", "0"],
            ["report", "{tmp}", "--recipes", "0"],
            ["search", "purupuru", "--recipes", "120", "--top", "0"],
            ["search", "purupuru", "--recipes", "120", "--top", "-2"],
            ["rules", "--recipes", "120", "--limit", "0"],
            ["rules", "--recipes", "120", "--limit", "-2"],
            ["trace", "flame", "{tmp}", "--limit", "0"],
            ["trace", "flame", "{tmp}", "--limit", "-2"],
            ["pipeline", "--recipes", "120", "--restarts", "0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
    )
    def test_count_below_one_is_a_usage_error(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / "out") if a == "{tmp}" else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        [error_line] = [line for line in err.splitlines() if "error:" in line]
        assert "must be >= 1" in error_line
        assert "Traceback" not in err


class TestTable1:
    def test_prints_all_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "H(pub)" in out
        assert "gelatin:0.018" in out
        assert out.count("\n") >= 14  # header + 13 rows


class TestEstimate:
    def test_bad_ingredient_syntax(self, capsys):
        code = main(["estimate", "gelatin-no-equals"])
        assert code == 2

    def test_estimate_small_pipeline(self, capsys):
        code = main(
            [
                "estimate",
                "gelatin=5g",
                "water=300ml",
                "--recipes", "250",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted texture terms" in out


class TestPipeline:
    def test_pipeline_small(self, capsys):
        code = main(
            ["pipeline", "--recipes", "250", "--sweeps", "20", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Topic" in out and "Bavarois" in out


class TestFigures:
    def test_figures_small(self, capsys):
        code = main(
            ["figures", "--recipes", "250", "--sweeps", "20", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out and "Fig 4" in out
        assert "Bavarois" in out and "Milk jelly" in out


class TestSearch:
    def test_search_small(self, capsys):
        # pick a term guaranteed to exist in this tiny dataset's vocabulary
        from repro.pipeline.experiment import quick_config, run_experiment

        result = run_experiment(quick_config(250, seed=3))
        term = result.dataset.vocabulary[0]
        code = main(
            ["search", term, "--recipes", "250", "--seed", "3", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top 3 recipes" in out

    def test_unknown_term_exits_2(self, capsys):
        code = main(
            ["search", "zzz-not-a-term", "--recipes", "250", "--seed", "3"]
        )
        assert code == 2


class TestRules:
    def test_rules_small(self, capsys):
        code = main(["rules", "--recipes", "250", "--seed", "3", "--limit", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recipes use" in out or "no rules" in out


class TestDictionary:
    def test_full_dictionary(self, capsys):
        assert main(["dictionary"]) == 0
        out = capsys.readouterr().out
        assert "288 terms" in out
        assert "purupuru" in out and "プルプル" in out

    def test_category_filter(self, capsys):
        assert main(["dictionary", "--category", "adhesiveness"]) == 0
        out = capsys.readouterr().out
        assert "nettori" in out
        assert "288 terms" not in out  # subset is smaller

    def test_gel_only(self, capsys):
        assert main(["dictionary", "--gel-only"]) == 0
        out = capsys.readouterr().out
        assert "karikari" not in out


class TestRun:
    ARGS = ["run", "--recipes", "250", "--sweeps", "20", "--seed", "3"]

    def test_cold_then_warm(self, capsys, tmp_path):
        from repro.pipeline.experiment import clear_cache

        cache = str(tmp_path / "store")
        assert main([*self.ARGS, "--cache-dir", cache]) == 0
        assert "5 computed" in capsys.readouterr().out
        clear_cache()
        assert main([*self.ARGS, "--cache-dir", cache, "--require-cached"]) == 0
        out = capsys.readouterr().out
        assert "5 cached / 0 computed" in out

    def test_require_cached_fails_cold(self, capsys, tmp_path):
        code = main(
            [*self.ARGS, "--cache-dir", str(tmp_path / "empty"),
             "--require-cached"]
        )
        assert code == 3
        assert "not served" in capsys.readouterr().err

    def test_json_manifest_written(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "manifest.json"
        code = main(
            [*self.ARGS, "--cache-dir", str(tmp_path / "store"),
             "--json", str(out_path)]
        )
        assert code == 0
        manifest = json.loads(out_path.read_text())
        assert manifest["format"] == "repro-run"
        assert set(manifest["stages"]) == {
            "synth-corpus", "gel-filter", "build-dataset",
            "fit-model", "build-linker",
        }

    def test_runs_without_cache_dir(self, capsys):
        assert main(self.ARGS) == 0
        assert "experiment" in capsys.readouterr().out


class TestCache:
    def _populate(self, tmp_path):
        cache = str(tmp_path / "store")
        assert main(
            ["run", "--recipes", "250", "--sweeps", "20", "--seed", "3",
             "--cache-dir", cache]
        ) == 0
        return cache

    def test_ls(self, capsys, tmp_path):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "fit-model" in out
        assert "5 artifacts, 1 run manifests" in out

    def test_ls_empty_store(self, capsys, tmp_path):
        """`cache ls` on an absent store is a friendly no-op, exit 0."""
        missing = str(tmp_path / "nil")
        assert main(["cache", "ls", "--cache-dir", missing]) == 0
        assert f"no store at {missing}" in capsys.readouterr().out

    def test_ls_empty_directory_is_not_a_store(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["cache", "ls", "--cache-dir", str(empty)]) == 0
        assert f"no store at {empty}" in capsys.readouterr().out

    def test_info_redacts_rng_state(self, capsys, tmp_path):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        from repro.artifacts.store import ArtifactStore

        fingerprint = next(
            f for s, f, _ in ArtifactStore(cache).iter_artifacts()
            if s == "fit-model"
        )
        assert main(["cache", "info", fingerprint, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert '"fingerprint"' in out and "rng_state_out" not in out
        assert main(
            ["cache", "info", fingerprint[:6], "--cache-dir", cache, "--full"]
        ) == 0
        assert "rng_state_out" in capsys.readouterr().out

    def test_info_unknown_fingerprint_exits_2(self, capsys, tmp_path):
        cache = self._populate(tmp_path)
        assert main(["cache", "info", "feedface", "--cache-dir", cache]) == 2

    def test_gc_dry_run_keeps_everything(self, capsys, tmp_path):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        assert main(
            ["cache", "gc", "--cache-dir", cache, "--keep-runs", "0",
             "--dry-run"]
        ) == 0
        assert "would remove" in capsys.readouterr().out
        from repro.artifacts.store import ArtifactStore

        assert len(list(ArtifactStore(cache).iter_artifacts())) == 5

    def test_gc_removes_unreferenced(self, capsys, tmp_path):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache, "--keep-runs", "0"]) == 0
        assert "removed" in capsys.readouterr().out
        from repro.artifacts.store import ArtifactStore

        assert list(ArtifactStore(cache).iter_artifacts()) == []


class TestReport:
    def test_report_bundle(self, capsys, tmp_path):
        code = main(
            [
                "report", str(tmp_path / "out"),
                "--recipes", "250", "--sweeps", "20", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (tmp_path / "out" / "report.txt").exists()
        assert (tmp_path / "out" / "table2a.csv").exists()


class TestOutputPaths:
    """An output the run cannot write fails before the run, in one
    ``error:`` line, and no "wrote ... to PATH" line claims a file that
    was never written."""

    RUN = ["run", "--recipes", "120", "--sweeps", "6", "--no-w2v-filter"]

    @pytest.mark.parametrize("case", ["trace", "profile", "json", "report"])
    def test_unusable_output_exits_2_in_one_line(self, capsys, tmp_path, case):
        missing = tmp_path / "missing" / "out.json"
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        argv, named = {
            "trace": ([*self.RUN, "--trace", str(missing)], missing),
            "profile": ([*self.RUN, "--profile", str(missing)], missing),
            "json": ([*self.RUN, "--json", str(missing)], missing),
            "report": (
                ["report", str(a_file), "--recipes", "120", "--sweeps", "6"],
                a_file,
            ),
        }[case]
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error:")
        assert str(named) in lines[0]
        assert not missing.parent.exists()


class TestTraceCli:
    ARGS = ["run", "--recipes", "250", "--sweeps", "20", "--seed", "3"]

    def test_run_trace_then_summary_and_tree(self, capsys, tmp_path):
        from repro.pipeline.experiment import clear_cache

        clear_cache()
        trace_file = tmp_path / "trace.jsonl"
        assert main([*self.ARGS, "--trace", str(trace_file)]) == 0
        captured = capsys.readouterr()
        assert f"wrote trace to {trace_file}" in captured.err
        assert trace_file.exists()

        assert main(["trace", "summary", str(trace_file)]) == 0
        out = capsys.readouterr().out
        for stage in (
            "synth-corpus", "gel-filter", "build-dataset",
            "fit-model", "build-linker",
        ):
            assert stage in out
        assert "sweep events" in out
        assert "run-pipeline" in out

        assert main(["trace", "tree", str(trace_file)]) == 0
        tree = capsys.readouterr().out
        assert tree.splitlines()[0].startswith("run-pipeline")
        assert "  fit-model" in tree

    def test_env_var_enables_tracing(self, capsys, tmp_path, monkeypatch):
        from repro.pipeline.experiment import clear_cache

        clear_cache()
        path = tmp_path / "env-trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        assert main(self.ARGS) == 0
        capsys.readouterr()
        assert path.exists()
        assert main(["trace", "summary", str(path)]) == 0
        assert "fit-model" in capsys.readouterr().out

    def test_trace_summary_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["trace", "summary", str(tmp_path / "none.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_ids_land_in_json_manifest(self, capsys, tmp_path):
        import json

        from repro.pipeline.experiment import clear_cache

        clear_cache()
        trace_file = tmp_path / "trace.jsonl"
        manifest_file = tmp_path / "manifest.json"
        assert main(
            [*self.ARGS, "--trace", str(trace_file),
             "--json", str(manifest_file)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads(manifest_file.read_text())
        from repro.obs.export import read_trace

        span_ids = {
            r["span_id"] for r in read_trace(trace_file)
            if r["kind"] == "span"
        }
        assert manifest["span_id"] in span_ids
        for record in manifest["stages"].values():
            assert record["span_id"] in span_ids


class TestLoggingFlags:
    def test_verbose_sets_info_level(self, capsys):
        import logging

        assert main(["-v", "table1"]) == 0
        capsys.readouterr()
        assert logging.getLogger("repro").level == logging.INFO

    def test_log_level_flag_wins(self, capsys):
        import logging

        assert main(["--log-level", "error", "-vv", "table1"]) == 0
        capsys.readouterr()
        assert logging.getLogger("repro").level == logging.ERROR

    def test_repeat_invocations_single_handler(self, capsys):
        import logging

        from repro.obs.log import _MARKER

        assert main(["-v", "table1"]) == 0
        assert main(["-v", "table1"]) == 0
        capsys.readouterr()
        handlers = [
            h for h in logging.getLogger("repro").handlers
            if getattr(h, _MARKER, False)
        ]
        assert len(handlers) == 1


class TestServeCli:
    def test_empty_store_exits_2(self, capsys, tmp_path):
        code = main(["serve", "--cache-dir", str(tmp_path / "void")])
        assert code == 2
        assert "no fitted runs" in capsys.readouterr().err

    def test_too_few_sweeps_rejected(self, capsys, tmp_path):
        """Rejected while parsing, before any store is opened."""
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["serve", "--cache-dir", str(tmp_path / "void"),
                 "--fold-in-sweeps", "2"]
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        [error_line] = [line for line in err.splitlines() if "error:" in line]
        assert "--fold-in-sweeps: must be >= 3, got 2" in error_line
        assert "Traceback" not in err


class TestServePort:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        cache = str(tmp_path_factory.mktemp("serve-port") / "store")
        assert main(
            ["run", "--recipes", "250", "--sweeps", "20", "--seed", "3",
             "--cache-dir", cache]
        ) == 0
        return cache

    def test_busy_port_exits_2(self, capsys, store):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            capsys.readouterr()
            code = main(["serve", "--port", str(port), "--cache-dir", store])
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error:")
        assert f"127.0.0.1:{port}" in lines[0]

    def test_out_of_range_port_is_a_usage_error(self, capsys, store):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", "99999", "--cache-dir", store])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "0..65535" in err
        assert "Traceback" not in err


class TestTraceCliErrors:
    def test_trace_tree_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["trace", "tree", str(tmp_path / "none.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1  # friendly, not a traceback

    def test_trace_summary_truncated_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"kind": "span", "v": 1, "name": "x"\n')
        assert main(["trace", "summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert ":1" in err  # points at the offending line
        assert len(err.strip().splitlines()) == 1

    def test_trace_tree_truncated_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"kind": "span"')
        assert main(["trace", "tree", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestProfileCli:
    ARGS = ["run", "--recipes", "250", "--sweeps", "20", "--seed", "3"]

    def test_run_profiled_then_flame(self, capsys, tmp_path):
        profile_file = tmp_path / "profile.json"
        assert main([*self.ARGS, "--profile", str(profile_file)]) == 0
        captured = capsys.readouterr()
        assert f"wrote profile to {profile_file}" in captured.err
        assert profile_file.exists()

        assert main(["trace", "flame", str(profile_file)]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "samples" in out

        assert main(["trace", "flame", str(profile_file), "--folded"]) == 0
        capsys.readouterr()

    def test_env_var_enables_profiling(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env-profile.json"
        monkeypatch.setenv("REPRO_PROFILE", str(path))
        assert main(self.ARGS) == 0
        capsys.readouterr()
        assert path.exists()

    def test_flame_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["trace", "flame", str(tmp_path / "none.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_flame_rejects_run_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "run.json"
        assert main([*self.ARGS, "--json", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["trace", "flame", str(manifest)]) == 2
        assert "not a profile artifact" in capsys.readouterr().err


class TestBenchCli:
    def _floor_files(self, tmp_path):
        import json as _json

        sampler_floor = tmp_path / "sampler_floor.json"
        sampler_floor.write_text(_json.dumps(
            {"tolerance": 0.7, "floors": {"dense": {"50": 1000.0}}}
        ))
        serve_floor = tmp_path / "serve_floor.json"
        serve_floor.write_text(_json.dumps({"requests_per_sec": 100.0}))
        return sampler_floor, serve_floor

    def _trajectories(self, tmp_path, tokens_per_sec, requests_per_sec):
        import json as _json

        sampler = tmp_path / "BENCH_sampler.json"
        sampler.write_text(_json.dumps([
            {"preset": "full", "kernel": "dense", "n_topics": 50,
             "tokens_per_sec": tokens_per_sec}
            for _ in range(5)
        ]))
        serve = tmp_path / "BENCH_serve.json"
        serve.write_text(_json.dumps([
            {"preset": "full", "requests_per_sec": requests_per_sec}
            for _ in range(5)
        ]))
        return sampler, serve

    def test_committed_trajectories_pass(self, capsys):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        code = main([
            "bench", "check",
            "--sampler", str(root / "BENCH_sampler.json"),
            "--sampler-floor", str(root / "benchmarks" / "sampler_floor.json"),
            "--serve", str(root / "BENCH_serve.json"),
            "--serve-floor", str(root / "benchmarks" / "serve_floor.json"),
        ])
        assert code == 0
        assert "bench check ok" in capsys.readouterr().out

    def test_injected_regression_exits_1(self, capsys, tmp_path):
        sampler_floor, serve_floor = self._floor_files(tmp_path)
        sampler, serve = self._trajectories(tmp_path, 100.0, 30.0)
        code = main([
            "bench", "check",
            "--sampler", str(sampler), "--sampler-floor", str(sampler_floor),
            "--serve", str(serve), "--serve-floor", str(serve_floor),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "perf regression(s) detected" in err
        assert "kernel=dense K=50" in err
        assert "preset=full" in err

    def test_healthy_trajectories_pass(self, capsys, tmp_path):
        sampler_floor, serve_floor = self._floor_files(tmp_path)
        sampler, serve = self._trajectories(tmp_path, 5000.0, 400.0)
        code = main([
            "bench", "check",
            "--sampler", str(sampler), "--sampler-floor", str(sampler_floor),
            "--serve", str(serve), "--serve-floor", str(serve_floor),
        ])
        assert code == 0
        assert "bench check ok" in capsys.readouterr().out

    def test_missing_trajectory_exits_2(self, capsys, tmp_path):
        sampler_floor, serve_floor = self._floor_files(tmp_path)
        code = main([
            "bench", "check",
            "--sampler", str(tmp_path / "none.json"),
            "--sampler-floor", str(sampler_floor),
            "--serve", str(tmp_path / "also-none.json"),
            "--serve-floor", str(serve_floor),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
