"""Shared fixtures."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def src_env() -> dict:
    """Environment for a subprocess that imports graphmotive from this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def sweeps(monkeypatch) -> list:
    """The q of every counting.sweep_zero_patterns call made during the test."""
    from graphmotive import counting

    calls = []
    sweep = counting.sweep_zero_patterns

    def spy(polys, q, **kw):
        calls.append(q)
        return sweep(polys, q, **kw)

    monkeypatch.setattr(counting, "sweep_zero_patterns", spy)
    return calls
