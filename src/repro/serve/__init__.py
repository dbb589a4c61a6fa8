"""The texture inference service (ROADMAP item 1).

An HTTP API answering "what does this recipe feel like in the mouth?":
a fitted joint model + :class:`~repro.core.linkage.TopicLinker` are
loaded from the artifact store once and held warm; unseen recipes are
folded in with the seeded collapsed Gibbs passes of
:class:`repro.core.estimator.TextureEstimator`, micro-batched across
concurrent requests; answers carry predicted texture terms, the
KL-linked rheology settings and a DishTwin-style ok/review confidence.

Typical production use::

    repro run   --cache-dir .repro-cache            # fit once
    repro serve --cache-dir .repro-cache --port 8321

Programmatic use::

    from repro.serve import InferenceEngine, ModelBundle, make_server

    bundle = ModelBundle.load(ArtifactStore(".repro-cache"))
    server = make_server(InferenceEngine(bundle), port=0)

See ``docs/serving.md`` for the endpoint contracts.
"""

from repro.core.estimator import FoldInConfig, request_seed
from repro.serve.app import (
    ServeApp,
    TextureServer,
    make_server,
    run_server,
    status_of,
)
from repro.serve.batch import MicroBatcher
from repro.serve.engine import InferenceEngine, ModelBundle
from repro.serve.schemas import (
    CONFIDENCE_VALUES,
    SCHEMA_VERSION,
    TermResponse,
    TextureRequest,
    TextureResponse,
)

__all__ = [
    "CONFIDENCE_VALUES",
    "FoldInConfig",
    "InferenceEngine",
    "MicroBatcher",
    "ModelBundle",
    "SCHEMA_VERSION",
    "ServeApp",
    "TermResponse",
    "TextureRequest",
    "TextureResponse",
    "TextureServer",
    "make_server",
    "request_seed",
    "run_server",
    "status_of",
]
