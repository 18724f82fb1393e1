import numpy as np
import pytest

import wml.features
import wml.quad


@pytest.fixture
def one_bisection(monkeypatch):
    """Give every adaptive pass a budget of one bisection, too few for
    its target, so that it raises NonConvergence."""
    monkeypatch.setattr(wml.quad, "_MAX_SUBDIVISIONS", 1)


@pytest.fixture
def integrated(monkeypatch):
    """Leave every Lorentzian pairing to the adaptive pass, as if its
    closed form certified no point (a column it lacks still raises)."""
    closed = wml.features._lorentz_pairings

    def none_certified(*args):
        values, errors, certified = closed(*args)
        return values, errors, np.zeros_like(certified)

    monkeypatch.setattr(wml.features, "_lorentz_pairings", none_certified)
