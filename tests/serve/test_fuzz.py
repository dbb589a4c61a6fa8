"""Property test: no valid-shaped ``POST /v1/texture`` body gets a 5xx.

Bodies mix catalogue and unknown ingredient names (repeats allowed),
parseable and unparseable quantities, and optional descriptions and
explicit terms. Each must be answered below 500, and every non-2xx
answer must carry the uniform error envelope. The examples are
derandomized with a fixed count, so the test is deterministic.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServeApp

NAMES = ("gelatin", "kanten", "agar", "water", "milk", "sugar", "juice",
         "unobtainium", "dragon-fruit-foam")
QUANTITIES = ("0.0g", "5g", "oosaji 2", "200 ml", "a pinch")
DESCRIPTIONS = (
    "",
    "chilled and set until firm",
    "boiled then cooled into a crisp jelly",
)

INGREDIENT = st.fixed_dictionaries(
    {"name": st.sampled_from(NAMES), "quantity": st.sampled_from(QUANTITIES)}
)


def bodies(vocabulary):
    return st.fixed_dictionaries(
        {"ingredients": st.lists(INGREDIENT, min_size=1, max_size=5)},
        optional={
            "description": st.sampled_from(DESCRIPTIONS),
            "terms": st.lists(
                st.sampled_from((*vocabulary[:6], "zzz-not-a-term")),
                max_size=3,
            ),
        },
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_valid_shaped_bodies_never_get_5xx(engine, data):
    body = data.draw(bodies(engine.vocabulary))
    status, payload = ServeApp(engine).handle(
        "POST", "/v1/texture", json.dumps(body).encode("utf-8")
    )
    assert status < 500, (body, payload)
    if status >= 300:
        assert set(payload) == {"schema_version", "error"}, payload
        assert set(payload["error"]) == {"type", "message"}, payload
