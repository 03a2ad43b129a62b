"""Fixtures shared by the test modules."""

import pytest

from dgratio import meancycle


@pytest.fixture
def evaluate_calls(monkeypatch):
    """A list that gains one entry per policy evaluation Howard makes."""
    calls = []
    evaluate = meancycle._evaluate

    def counted(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(meancycle, "_evaluate", counted)
    return calls
