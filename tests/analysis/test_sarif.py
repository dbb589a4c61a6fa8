"""Tests for the SARIF 2.1.0 exporter and its finding fingerprints."""

import json

import pytest

from repro.analysis.cli import main
from repro.analysis.core import Violation
from repro.analysis.runner import analyze_paths
from repro.analysis.sarif import (
    FINGERPRINT_KEY,
    SARIF_VERSION,
    fingerprint,
    fingerprint_all,
    render_sarif,
)

BAD_SOURCE = """\
import numpy as np


def make():
    return np.random.default_rng(0)
"""


@pytest.fixture
def bad_tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    return tmp_path


def render(bad_tree):
    result = analyze_paths(["bad.py"])
    assert result.violations, "fixture must produce at least one finding"
    return result, json.loads(render_sarif(result))


def make_violation(
    rule: str = "RNG001",
    path: str = "tests/test_x.py",
    line: int = 10,
    snippet: str = "rng = np.random.default_rng(0)",
) -> Violation:
    return Violation(
        rule=rule,
        path=path,
        line=line,
        col=7,
        message="direct RNG construction",
        snippet=snippet,
    )


class TestDocumentShape:
    def test_version_and_schema(self, bad_tree):
        _, doc = render(bad_tree)
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        assert len(doc["runs"]) == 1

    def test_driver_lists_every_rule_plus_syntax(self, bad_tree):
        _, doc = render(bad_tree)
        ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
        assert ids == sorted(ids)
        for expected in (
            "DET001",
            "EXC002",
            "OBS001",
            "RNG001",
            "SYNTAX",
            "THR001",
        ):
            assert expected in ids

    def test_rule_descriptors_link_docs(self, bad_tree):
        _, doc = render(bad_tree)
        for rule in doc["runs"][0]["tool"]["driver"]["rules"]:
            assert "static-analysis.md" in rule["helpUri"]
            assert rule["shortDescription"]["text"]


class TestResults:
    def test_result_location_and_fingerprint(self, bad_tree):
        result, doc = render(bad_tree)
        sarif_results = doc["runs"][0]["results"]
        assert len(sarif_results) == len(result.violations)
        first = sarif_results[0]
        assert first["ruleId"] == "RNG001"
        loc = first["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "bad.py"
        assert loc["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert loc["region"]["startLine"] == 5
        assert "default_rng" in loc["region"]["snippet"]["text"]
        fp = first["partialFingerprints"][FINGERPRINT_KEY]
        assert len(fp) == 16

    def test_severity_maps_to_sarif_level(self, bad_tree):
        _, doc = render(bad_tree)
        for res in doc["runs"][0]["results"]:
            assert res["level"] in ("error", "warning", "note")

    def test_parse_failure_reported_as_syntax(self, bad_tree):
        (bad_tree / "broken.py").write_text("def oops(:\n")
        result = analyze_paths(["broken.py"])
        doc = json.loads(render_sarif(result))
        (res,) = doc["runs"][0]["results"]
        assert res["ruleId"] == "SYNTAX"


class TestCli:
    def test_format_sarif_prints_valid_json(self, bad_tree, capsys):
        exit_code = main(["bad.py", "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert exit_code == 1  # findings still gate the exit code
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]


class TestFingerprint:
    def test_stable_across_line_drift(self):
        a = make_violation(line=10)
        b = make_violation(line=99)  # same line text, moved by edits above
        assert fingerprint(a) == fingerprint(b)

    def test_changes_with_snippet(self):
        a = make_violation()
        b = make_violation(snippet="rng = np.random.default_rng(1)")
        assert fingerprint(a) != fingerprint(b)

    def test_all_disambiguates_duplicates(self):
        twins = [make_violation(line=10), make_violation(line=20)]
        fps = fingerprint_all(twins)
        assert len(set(fps)) == 2
