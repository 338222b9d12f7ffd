"""Shared fixtures."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from stia import precoding

# Fixed examples and no example database, so every run checks the same cases.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def singular_guard(monkeypatch):
    """Make the precoder and ZF guard report every matrix as singular."""
    real = precoding._guarded_solve

    def singular(a):
        inv, cond = real(a)
        return inv, np.full(cond.shape, np.inf)

    monkeypatch.setattr(precoding, "_guarded_solve", singular)


@pytest.fixture
def rare_singular_guard(monkeypatch):
    """Make the precoder and ZF guard report a matrix as singular when its first entry exceeds 2.5
    in magnitude: about one CN(0,1) matrix in 500, so a large batch redraws a few of its items."""
    real = precoding._guarded_solve

    def rare(a):
        inv, cond = real(a)
        return inv, np.where(np.abs(a[..., 0, 0]) > 2.5, np.inf, cond)

    monkeypatch.setattr(precoding, "_guarded_solve", rare)


@pytest.fixture
def traced_peak():
    """``peak(fn)``: the most bytes ``fn`` held at once under tracemalloc, which numpy reports its arrays to."""

    def peak(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return peak
