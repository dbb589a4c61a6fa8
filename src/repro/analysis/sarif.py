"""SARIF 2.1.0 export for GitHub code-scanning annotations.

One run object per invocation: the tool section lists every registered
rule (plus the ``SYNTAX`` pseudo-rule for parse failures), and each
finding carries the analyser's stable fingerprint in
``partialFingerprints``, so code scanning tracks it across line drift.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from repro.analysis.core import Rule, Violation
from repro.analysis.rules import default_rules
from repro.analysis.runner import RunResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: ``partialFingerprints`` key; versioned so a future fingerprint
#: scheme can coexist during migration.
FINGERPRINT_KEY = "reproAnalysis/v1"

_DOC_URI = "docs/static-analysis.md"


def fingerprint(violation: Violation, duplicate_index: int = 0) -> str:
    """Stable identity of a violation across line-number drift.

    ``sha256(rule | path | stripped-line-text | duplicate-index)``: edits
    elsewhere in the file that shift line numbers keep it, while editing
    the flagged line itself (or adding a second identical offence)
    changes it.
    """
    payload = "|".join(
        (
            violation.rule,
            violation.path,
            violation.snippet,
            str(duplicate_index),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def fingerprint_all(violations: Sequence[Violation]) -> list[str]:
    """Fingerprints for a batch, disambiguating identical lines."""
    seen: dict[tuple[str, str, str], int] = {}
    out: list[str] = []
    for v in sorted(violations, key=Violation.sort_key):
        key = (v.rule, v.path, v.snippet)
        index = seen.get(key, 0)
        seen[key] = index + 1
        out.append(fingerprint(v, index))
    return out


def _rule_descriptor(rule: Rule) -> dict[str, object]:
    return {
        "id": rule.code,
        "name": rule.name,
        "shortDescription": {"text": rule.description},
        "helpUri": _DOC_URI,
        "defaultConfiguration": {"level": rule.severity},
    }


def _syntax_descriptor() -> dict[str, object]:
    return {
        "id": "SYNTAX",
        "name": "parse-failure",
        "shortDescription": {"text": "The file could not be parsed as Python."},
        "helpUri": _DOC_URI,
        "defaultConfiguration": {"level": "error"},
    }


def _result(violation: Violation, fp: str | None = None) -> dict[str, object]:
    region: dict[str, object] = {
        "startLine": violation.line,
        "startColumn": violation.col,
    }
    if violation.snippet:
        region["snippet"] = {"text": violation.snippet}
    record: dict[str, object] = {
        "ruleId": violation.rule,
        "level": violation.severity,
        "message": {"text": violation.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": violation.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": region,
                }
            }
        ],
    }
    if fp is not None:
        record["partialFingerprints"] = {FINGERPRINT_KEY: fp}
    return record


def render_sarif(
    result: RunResult, rules: Sequence[Rule] | None = None
) -> str:
    """The full report as one SARIF 2.1.0 JSON document."""
    from repro import __version__

    active = tuple(rules) if rules is not None else default_rules()
    ordered = sorted(result.violations, key=Violation.sort_key)
    results = [
        _result(violation, fp)
        for violation, fp in zip(ordered, fingerprint_all(ordered))
    ]
    results.extend(_result(failure) for failure in result.parse_failures)
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "informationUri": _DOC_URI,
                        "version": __version__,
                        "rules": sorted(
                            [
                                *(_rule_descriptor(rule) for rule in active),
                                _syntax_descriptor(),
                            ],
                            key=lambda descriptor: descriptor["id"],
                        ),
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)
