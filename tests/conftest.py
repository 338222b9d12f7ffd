"""Shared fixtures."""

import numpy as np
import pytest

from stia import precoding


@pytest.fixture
def singular_guard(monkeypatch):
    """Make the precoder and ZF guard report every matrix as singular."""
    real = precoding._guarded_solve

    def singular(a, b=None):
        x, inv, cond = real(a, b)
        return x, inv, np.full(cond.shape, np.inf)

    monkeypatch.setattr(precoding, "_guarded_solve", singular)
