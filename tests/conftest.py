import dataclasses

import pytest

import wml.quad


@pytest.fixture
def one_bisection(monkeypatch):
    """Give every adaptive pass a budget of one bisection, too few for
    its target, so that it raises NonConvergence."""
    adaptive = wml.quad._adaptive
    monkeypatch.setattr(wml.quad, "_adaptive", lambda f, edges, cfg: adaptive(
        f, edges, dataclasses.replace(cfg, max_subdivisions=1)))
