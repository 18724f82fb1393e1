import pytest

import wml.quad


@pytest.fixture
def one_bisection(monkeypatch):
    """Give every adaptive pass a budget of one bisection, too few for
    its target, so that it raises NonConvergence."""
    monkeypatch.setattr(wml.quad, "_MAX_SUBDIVISIONS", 1)
