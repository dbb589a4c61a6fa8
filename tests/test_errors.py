"""Tests for the exception hierarchy."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.UnitParseError,
    errors.UnitConversionError,
    errors.UnknownTermError,
    errors.DictionaryError,
    errors.CorpusError,
    errors.ModelError,
    errors.NotFittedError,
    errors.ConvergenceError,
    errors.LinkageError,
    errors.RheologyError,
    errors.ExperimentError,
]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


def test_unit_parse_error_carries_text():
    err = errors.UnitParseError("3 blobs", "unknown unit")
    assert err.text == "3 blobs"
    assert "3 blobs" in str(err)
    assert "unknown unit" in str(err)


def test_unit_parse_error_is_value_error():
    assert issubclass(errors.UnitParseError, ValueError)


def test_unknown_term_carries_surface():
    err = errors.UnknownTermError("whoosh")
    assert err.surface == "whoosh"


def test_not_fitted_is_runtime_error():
    err = errors.NotFittedError("thing")
    assert isinstance(err, RuntimeError)
    assert "thing" in str(err)


def test_catch_all_at_api_boundary():
    with pytest.raises(errors.ReproError):
        raise errors.CorpusError("boom")
