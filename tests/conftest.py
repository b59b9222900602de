"""Fixtures shared by the test modules."""

import pytest

import kelvinfn.quad


@pytest.fixture
def integrals(monkeypatch):
    """The results of every integral the engine runs, in order."""
    runs = []
    orig = kelvinfn.quad.integrate_finite

    def recorded(f, a, b):
        res = orig(f, a, b)
        runs.append(res)
        return res

    monkeypatch.setattr(kelvinfn.quad, "integrate_finite", recorded)
    return runs
