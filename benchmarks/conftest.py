"""Shared fixtures for the benchmark gates.

Each gate (``test_runner``, ``test_obs``, ``test_runtime``) archives
its measurement under ``results/``.  The figure and table renderings
there come from ``repro run all --csv results``, which writes each
table as ``<name>.txt`` next to its ``<name>.csv``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
