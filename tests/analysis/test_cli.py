"""End-to-end CLI behaviour: exit codes, formats, and the self-check."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.runner import analyze_paths
from repro.analysis.sarif import fingerprint_all

REPO_ROOT = Path(__file__).resolve().parents[2]

#: One representative offence per rule — the acceptance criterion is
#: that injecting any one of these into a scratch file turns the run red.
INJECTIONS = {
    "RNG001": """
        import numpy as np
        rng = np.random.default_rng(0)
        """,
    "NUM001": """
        import numpy as np
        a = np.linalg.inv(m)
        """,
    "NUM002": """
        import numpy as np
        y = np.log(x)
        """,
    "EXC001": """
        try:
            f()
        except Exception:
            pass
        """,
    "PAR001": """
        from repro.parallel import run_tasks
        out = run_tasks(lambda payload, rng: payload, [1], rng=0)
        """,
}


def write_scratch(tmp_path: Path, source: str) -> Path:
    scratch = tmp_path / "scratch.py"
    scratch.write_text(textwrap.dedent(source), encoding="utf-8")
    return scratch


def test_clean_file_exits_zero(tmp_path, capsys):
    scratch = write_scratch(tmp_path, "X = 1\n")
    assert main([str(scratch)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


@pytest.mark.parametrize("rule", sorted(INJECTIONS))
def test_injected_violation_fails(rule, tmp_path, capsys):
    scratch = write_scratch(tmp_path, INJECTIONS[rule])
    assert main([str(scratch)]) == 1
    assert rule in capsys.readouterr().out


def test_json_format(tmp_path, capsys):
    scratch = write_scratch(tmp_path, INJECTIONS["RNG001"])
    assert main([str(scratch), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] is True
    (finding,) = report["violations"]
    assert finding["rule"] == "RNG001"


def test_select_limits_rules(tmp_path):
    scratch = write_scratch(tmp_path, INJECTIONS["RNG001"])
    assert main([str(scratch), "--select", "NUM001"]) == 0
    assert main([str(scratch), "--select", "RNG001"]) == 1


def test_unknown_rule_is_usage_error(tmp_path, capsys):
    scratch = write_scratch(tmp_path, "X = 1\n")
    assert main([str(scratch), "--select", "NOPE999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "does-not-exist")]) == 2
    assert "repro.analysis:" in capsys.readouterr().err


def test_syntax_error_is_reported_and_fails(tmp_path, capsys):
    scratch = write_scratch(tmp_path, "def broken(:\n")
    assert main([str(scratch)]) == 1
    assert "SYNTAX" in capsys.readouterr().out


def test_only_an_inline_suppression_accepts_a_finding(
    tmp_path, monkeypatch, capsys
):
    """A findings list in ``analysis-baseline.json`` is not read."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tests").mkdir()
    scratch = write_scratch(tmp_path / "tests", INJECTIONS["RNG001"])
    violations = analyze_paths(["tests"]).violations
    assert [v.rule for v in violations] == ["RNG001"]
    entries = [
        {"rule": v.rule, "path": v.path, "line": v.line,
         "snippet": v.snippet, "fingerprint": fp}
        for v, fp in zip(violations, fingerprint_all(violations))
    ]
    (tmp_path / "analysis-baseline.json").write_text(
        json.dumps({"version": 1, "count": len(entries), "entries": entries}),
        encoding="utf-8",
    )
    assert main([]) == 1
    assert "RNG001" in capsys.readouterr().out

    scratch.write_text(
        scratch.read_text().replace(
            "default_rng(0)",
            "default_rng(0)  # repro: noqa[RNG001] - fixed reference stream",
        ),
        encoding="utf-8",
    )
    assert main([]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in INJECTIONS:
        assert rule in out


def test_shipped_src_tree_is_clean(capsys):
    """Acceptance: ``python -m repro.analysis src/repro`` exits 0."""
    assert main([str(REPO_ROOT / "src" / "repro")]) == 0


def test_default_paths_pass(monkeypatch, capsys):
    """src/repro, tests/ and benchmarks/ carry no finding."""
    monkeypatch.chdir(REPO_ROOT)
    assert main([]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_dump_obs_names_prints_registry_sets(capsys):
    assert main(["--dump-obs-names", str(REPO_ROOT / "src" / "repro")]) == 0
    out = capsys.readouterr().out
    for label in ("SPANS", "EVENTS", "METRICS"):
        assert f"{label}: frozenset[str] = frozenset(" in out
    assert "'serve.requests'" in out


def test_check_obs_names_in_sync_on_shipped_tree(capsys):
    """Acceptance: the committed registry matches a fresh scan."""
    assert main(["--check-obs-names", str(REPO_ROOT / "src" / "repro")]) == 0
    assert "obs-name registry in sync" in capsys.readouterr().out


def test_check_obs_names_flags_unregistered_emission(tmp_path, capsys):
    scratch = write_scratch(
        tmp_path,
        """
        from repro.obs import trace
        with trace.span("totally.new.span"):
            pass
        """,
    )
    assert main(["--check-obs-names", str(scratch)]) == 1
    err = capsys.readouterr().err
    assert "obs-name registry drift" in err
    assert "'totally.new.span'" in err
    assert "--dump-obs-names" in err  # regenerate hint


def test_check_obs_names_flags_vanished_name(tmp_path, capsys):
    # an empty tree emits nothing, so every registered scanner-visible
    # name reads as vanished
    scratch = write_scratch(tmp_path, "X = 1\n")
    assert main(["--check-obs-names", str(scratch)]) == 1
    err = capsys.readouterr().err
    assert "no literal call site emits it" in err
