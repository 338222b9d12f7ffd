"""Shared fixtures."""

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

    def singular(a, b=None):
        x, inv, cond = real(a, b)
        return x, inv, np.full(cond.shape, np.inf)

    monkeypatch.setattr(precoding, "_guarded_solve", singular)
