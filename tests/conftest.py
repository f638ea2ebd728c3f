"""Shared fixtures."""

import pytest

from cfarkit import simulation


@pytest.fixture
def pools_started(monkeypatch):
    """``max_workers`` of every process pool the engine starts, in order."""
    started = []

    class CountingPool(simulation.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", CountingPool)
    return started
