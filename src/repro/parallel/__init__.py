"""Parallel execution layer: seeded task fan-out.

See :mod:`repro.parallel.executor` for the design. Typical use::

    from repro.parallel import run_tasks

    results = run_tasks(fit_one, payloads, rng=seed, workers=4)
"""

from repro.parallel.executor import run_tasks

__all__ = ["run_tasks"]
