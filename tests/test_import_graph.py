"""What the program's entry points load.

``scipy.stats`` costs about 40 MB of resident memory and about a second
of interpreter start-up, and the program uses none of it: the Wishart
draw runs its Bartlett construction in :mod:`repro.core.normal_wishart`.
The texture service needs no scipy at all: the samplers import it inside
the functions that fit, so a process that only loads a fitted model and
answers requests never pays for it. Each check runs in a fresh
interpreter, so no earlier test's imports can hide or cause a failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.pipeline.experiment import quick_config, run_experiment

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro.cli, repro.pipeline.experiment, repro.serve
from repro.pipeline.experiment import quick_config, run_experiment
run_experiment(quick_config(120, 4, seed=0))
print("scipy.stats" in sys.modules)
"""

SERVE_PROBE = """
import json, sys
import repro.cli
from repro.artifacts.store import ArtifactStore
from repro.serve import (
    FoldInConfig, InferenceEngine, MicroBatcher, ModelBundle, ServeApp,
)

bundle = ModelBundle.load(ArtifactStore(sys.argv[1]))
engine = InferenceEngine(bundle, config=FoldInConfig(n_sweeps=12))
batcher = MicroBatcher(engine)
app = ServeApp(engine, batcher=batcher)
term = bundle.vocabulary[0]
ingredients = [
    {"name": "gelatin", "quantity": "10 g"},
    {"name": "water", "quantity": "200 ml"},
]
requests = [
    ("POST", "/v1/texture", {"ingredients": ingredients, "terms": [term]}),
    ("POST", "/v1/texture", {"ingredients": ingredients}),
    ("GET", "/v1/terms/" + term, None),
    ("GET", "/healthz", None),
    ("GET", "/metricz", None),
    ("GET", "/metricz?format=prometheus", None),
]
statuses = []
for method, path, body in requests:
    raw = b"" if body is None else json.dumps(body).encode("utf-8")
    statuses.append(app.handle(method, path, raw)[0])
batcher.close()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"statuses": statuses, "scipy": loaded}))
"""


def _run(probe: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_cli_pipeline_and_serve_never_load_scipy_stats():
    assert _run(PROBE) == "False"


def test_serving_a_fitted_store_never_loads_scipy(tmp_path):
    run_experiment(quick_config(120, 4, seed=0), cache_dir=tmp_path)
    report = json.loads(_run(SERVE_PROBE, str(tmp_path)))
    assert report["statuses"] == [200] * 6
    assert report["scipy"] == []
