"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries while still being
able to discriminate failure modes when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class UnitParseError(ReproError, ValueError):
    """A quantity string could not be parsed into a :class:`~repro.units.quantity.Quantity`."""

    def __init__(self, text: str, reason: str = "") -> None:
        self.text = text
        self.reason = reason
        detail = f": {reason}" if reason else ""
        super().__init__(f"cannot parse quantity {text!r}{detail}")


class UnitConversionError(ReproError, ValueError):
    """A quantity could not be converted to grams (e.g. unknown density)."""


class UnknownIngredientError(ReproError, KeyError):
    """An ingredient name is absent from the catalogue or gravity table."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown ingredient: {name!r}")


class UnknownTermError(ReproError, KeyError):
    """A texture term is not present in the dictionary."""

    def __init__(self, surface: str) -> None:
        self.surface = surface
        super().__init__(f"unknown texture term: {surface!r}")


class DictionaryError(ReproError):
    """The texture-term dictionary failed an internal consistency check."""


class CorpusError(ReproError):
    """A recipe or corpus-level invariant was violated."""


class StoreError(ReproError):
    """The recipe store was used incorrectly (duplicate ids, missing ids…)."""


class ModelError(ReproError):
    """A topic model was configured or driven incorrectly."""


class NotFittedError(ModelError, RuntimeError):
    """A model method requiring a completed fit was called before ``fit``."""

    def __init__(self, what: str = "model") -> None:
        super().__init__(f"{what} is not fitted; call fit() first")


class ConvergenceError(ModelError, RuntimeError):
    """An iterative procedure failed to converge within its budget."""


class LinkageError(ReproError):
    """Topic-to-study linkage could not be established."""


class RheologyError(ReproError):
    """A rheological simulation or conversion failed."""


class ExperimentError(ReproError):
    """An experiment pipeline was configured inconsistently."""


class ArtifactError(ReproError):
    """The on-disk artifact store hit a corrupt, missing or foreign entry."""


class ParallelError(ReproError, RuntimeError):
    """The parallel executor was misconfigured (a worker count below 1)."""


class ObservabilityError(ReproError):
    """The tracing/metrics layer was misused or fed a malformed trace."""


class ServeError(ReproError):
    """The inference service was misconfigured or cannot serve."""


class BadRequestError(ServeError, ValueError):
    """A serving request body was malformed or semantically invalid."""
