"""What the program's entry points load.

``scipy.stats`` costs about 40 MB of resident memory and about a second
of interpreter start-up, and the program uses none of it: the Wishart
draw runs its Bartlett construction in :mod:`repro.core.normal_wishart`.
The check runs in a fresh interpreter, so no earlier test's imports can
hide or cause a failure.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro.cli, repro.pipeline.experiment, repro.serve
from repro.pipeline.experiment import quick_config, run_experiment
run_experiment(quick_config(120, 4, seed=0))
print("scipy.stats" in sys.modules)
"""


def test_cli_pipeline_and_serve_never_load_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip().splitlines()[-1] == "False", probe.stdout
