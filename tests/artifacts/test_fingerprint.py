"""Tests for repro.artifacts.fingerprint."""

import dataclasses

import numpy as np
import pytest

from repro.artifacts.fingerprint import (
    FINGERPRINT_LENGTH,
    canonical,
    canonical_json,
    fingerprint_of,
    freeze,
    stage_fingerprint,
)
from repro.errors import ArtifactError


@dataclasses.dataclass(frozen=True)
class Inner:
    gamma: float = 0.1


@dataclasses.dataclass(frozen=True)
class Outer:
    name: str = "x"
    inner: Inner = dataclasses.field(default_factory=Inner)
    flags: tuple = (1, 2)


class TestCanonical:
    def test_dataclass_walks_fields_generically(self):
        encoded = canonical(Outer())
        assert encoded["__dataclass__"] == "Outer"
        assert encoded["inner"] == {"__dataclass__": "Inner", "gamma": 0.1}
        assert encoded["flags"] == [1, 2]

    def test_mapping_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_sets_are_sorted(self):
        assert canonical(frozenset({"b", "a"})) == ["a", "b"]

    def test_numpy_scalars_collapse(self):
        assert canonical(np.int64(3)) == 3
        assert canonical(np.float64(0.5)) == 0.5
        assert canonical(np.array([1, 2])) == [1, 2]

    def test_unsupported_type_rejected(self):
        with pytest.raises(ArtifactError):
            canonical(object())

    def test_passthrough_primitives(self):
        for value in (None, True, 3, 0.25, "x"):
            assert canonical(value) == value


class TestFingerprint:
    def test_length_and_stability(self):
        fp = fingerprint_of(Outer())
        assert len(fp) == FINGERPRINT_LENGTH
        assert fp == fingerprint_of(Outer())

    def test_any_field_perturbs(self):
        base = fingerprint_of(Outer())
        assert fingerprint_of(Outer(name="y")) != base
        assert fingerprint_of(Outer(inner=Inner(gamma=0.2))) != base
        assert fingerprint_of(Outer(flags=(1, 3))) != base

    def test_opted_out_field_stays_out(self):
        """A field marked ``fingerprint: False`` never perturbs the key."""

        @dataclasses.dataclass(frozen=True)
        class Run:
            k: int = 10
            workers: int = dataclasses.field(
                default=1, metadata={"fingerprint": False}
            )

        assert "workers" not in canonical(Run())
        assert fingerprint_of(Run(workers=4)) == fingerprint_of(Run())
        assert fingerprint_of(Run(k=11)) != fingerprint_of(Run())

    def test_stage_fingerprint_mixes_everything(self):
        base = stage_fingerprint("fit", 1, {"k": 10}, {"up": "aa"})
        assert stage_fingerprint("fit2", 1, {"k": 10}, {"up": "aa"}) != base
        assert stage_fingerprint("fit", 2, {"k": 10}, {"up": "aa"}) != base
        assert stage_fingerprint("fit", 1, {"k": 11}, {"up": "aa"}) != base
        assert stage_fingerprint("fit", 1, {"k": 10}, {"up": "bb"}) != base


class TestFreeze:
    def test_hashable_and_order_insensitive(self):
        frozen = freeze({"b": [1, 2], "a": Inner()})
        assert hash(frozen) == hash(freeze({"a": Inner(), "b": [1, 2]}))
        assert freeze({"a": 1}) != freeze({"a": 2})
