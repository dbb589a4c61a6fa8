"""Typed request/response contracts of the texture inference service.

Every endpoint of :mod:`repro.serve.app` speaks JSON whose shape is
pinned here as frozen dataclasses, one per payload, each with a
``to_dict`` producing the exact wire format. The DishTwin-style
``status`` field is the service's confidence contract:

* ``"ok"`` — the fold-in posterior concentrates on one topic; the
  predicted terms and linked rheology can be trusted as-is.
* ``"review"`` — the posterior is spread over competing topics; the
  answer is the best guess, but a human (or a retry with a richer
  description) should review it.

``tests/serve/test_contract.py`` pins these shapes as golden data, so
renaming a field or changing the enum is an intentional, visible break.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.estimator import canonical_key
from repro.errors import BadRequestError

#: Version stamped into every response envelope.
SCHEMA_VERSION = 1

#: The confidence enum (DishTwin's ok/review contract).
CONFIDENCE_VALUES = ("ok", "review")

#: Hard cap on request bodies (bytes); anything bigger is rejected
#: before parsing.
MAX_BODY_BYTES = 1 << 20

#: Cap on ``top_terms`` (response size guard).
MAX_TOP_TERMS = 50


@dataclass(frozen=True)
class TextureRequest:
    """A parsed ``POST /v1/texture`` body.

    ``ingredients`` are (name, quantity-text) pairs exactly as a recipe
    sharing site would post them; ``description`` is free text mined for
    texture terms; ``terms`` optionally adds explicit texture terms
    (each must exist in the model vocabulary, else the request 404s).
    """

    ingredients: tuple[tuple[str, str], ...]
    description: str = ""
    terms: tuple[str, ...] = ()
    top_terms: int = 8

    @classmethod
    def parse(cls, body: bytes) -> "TextureRequest":
        """Parse and validate a raw request body.

        Raises :class:`~repro.errors.BadRequestError` on anything that
        is not a well-formed texture request.
        """
        if len(body) > MAX_BODY_BYTES:
            raise BadRequestError(
                f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise BadRequestError(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequestError("body must be a JSON object")
        unknown = set(payload) - {
            "ingredients", "description", "terms", "top_terms"
        }
        if unknown:
            raise BadRequestError(
                f"unknown request fields: {sorted(unknown)}"
            )
        raw = payload.get("ingredients")
        if not isinstance(raw, (list, dict)) or not raw:
            raise BadRequestError(
                "'ingredients' must be a non-empty list of "
                "{name, quantity} objects or a name->quantity mapping"
            )
        ingredients: list[tuple[str, str]] = []
        names: set[str] = set()
        if isinstance(raw, dict):
            items: list[Any] = [
                {"name": name, "quantity": quantity}
                for name, quantity in raw.items()
            ]
        else:
            items = list(raw)
        for entry in items:
            if not isinstance(entry, dict):
                raise BadRequestError(
                    "each ingredient must be a {name, quantity} object"
                )
            name = entry.get("name")
            quantity = entry.get("quantity")
            if not isinstance(name, str) or not name.strip():
                raise BadRequestError("ingredient 'name' must be a string")
            if not isinstance(quantity, str) or not quantity.strip():
                raise BadRequestError(
                    f"ingredient {name!r} needs a 'quantity' string"
                )
            name = name.strip()
            if name in names:
                raise BadRequestError(f"ingredient {name!r} is listed twice")
            names.add(name)
            ingredients.append((name, quantity.strip()))
        description = payload.get("description", "")
        if not isinstance(description, str):
            raise BadRequestError("'description' must be a string")
        terms_raw = payload.get("terms", [])
        if not isinstance(terms_raw, list) or any(
            not isinstance(t, str) for t in terms_raw
        ):
            raise BadRequestError("'terms' must be a list of strings")
        top_terms = payload.get("top_terms", 8)
        if not isinstance(top_terms, int) or isinstance(top_terms, bool) or (
            not 1 <= top_terms <= MAX_TOP_TERMS
        ):
            raise BadRequestError(
                f"'top_terms' must be an integer in [1, {MAX_TOP_TERMS}]"
            )
        return cls(
            ingredients=tuple(ingredients),
            description=description,
            terms=tuple(terms_raw),
            top_terms=top_terms,
        )

    def canonical(self) -> str:
        """The request content's canonical key
        (:func:`repro.core.estimator.canonical_key`).

        Two requests with the same canonical form are *the same
        question* and must get bit-identical answers — this string seeds
        the per-request RNG stream, as it does for ``repro estimate``.
        """
        return canonical_key(self.ingredients, self.description, self.terms)


@dataclass(frozen=True)
class PredictedTerm:
    """One predicted texture term with its topic probability."""

    surface: str
    probability: float

    def to_dict(self) -> dict[str, Any]:
        return {"surface": self.surface, "probability": self.probability}


@dataclass(frozen=True)
class RheologySettings:
    """Expected instrumental texture, in the paper's RU units."""

    hardness: float
    cohesiveness: float
    adhesiveness: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "hardness": self.hardness,
            "cohesiveness": self.cohesiveness,
            "adhesiveness": self.adhesiveness,
        }


@dataclass(frozen=True)
class TextureResponse:
    """The ``POST /v1/texture`` answer.

    ``status``/``confidence`` implement the ok/review contract:
    ``confidence`` is the posterior mass on the winning topic and
    ``status`` is ``"ok"`` exactly when it clears the engine's
    threshold.
    """

    status: str
    confidence: float
    topic: int
    topic_distribution: tuple[float, ...]
    predicted_terms: tuple[PredictedTerm, ...]
    rheology: RheologySettings | None
    linked_settings: tuple[int, ...]
    model_fingerprint: str
    seed: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "status": self.status,
            "confidence": self.confidence,
            "topic": self.topic,
            "topic_distribution": list(self.topic_distribution),
            "predicted_terms": [t.to_dict() for t in self.predicted_terms],
            "rheology": None if self.rheology is None else self.rheology.to_dict(),
            "linked_settings": list(self.linked_settings),
            "model_fingerprint": self.model_fingerprint,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class TermResponse:
    """The ``GET /v1/terms/{term}`` answer: one term's model profile."""

    surface: str
    gloss: str
    gel_related: bool
    polarity: Mapping[str, float]
    topic_affinity: tuple[float, ...]
    best_topic: int
    rheology: RheologySettings | None
    linked_settings: tuple[int, ...]
    model_fingerprint: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "surface": self.surface,
            "gloss": self.gloss,
            "gel_related": self.gel_related,
            "polarity": dict(self.polarity),
            "topic_affinity": list(self.topic_affinity),
            "best_topic": self.best_topic,
            "rheology": None if self.rheology is None else self.rheology.to_dict(),
            "linked_settings": list(self.linked_settings),
            "model_fingerprint": self.model_fingerprint,
        }


def error_body(error_type: str, message: str) -> dict[str, Any]:
    """The uniform error envelope every non-2xx response carries."""
    return {
        "schema_version": SCHEMA_VERSION,
        "error": {"type": error_type, "message": message},
    }
