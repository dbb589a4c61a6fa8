"""Seeded-violation fixture modules for the project-wide rules.

Each module contains exactly one deliberate defect. The tests load
them through :class:`~repro.analysis.core.FileContext` with a fake
``src/repro/...`` relpath so the product-path gating treats them as
shipped code; under their real ``tests/...`` path the default scan
skips them, so the default scan stays at zero findings.
"""
