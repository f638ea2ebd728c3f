"""Shared fixtures."""

import concurrent.futures

import pytest


@pytest.fixture
def pools_started(monkeypatch):
    """``max_workers`` of every process pool the engine starts, in order."""
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return started
