"""Fixtures shared by the test modules."""

import pytest

from cmlink import complexes


@pytest.fixture
def syzygy_steps(monkeypatch):
    """A list that gets the order of every syzygy step a resolution takes."""
    steps = []
    original = complexes.syzygy_matrix

    def counting(M, order):
        steps.append(order)
        return original(M, order)

    monkeypatch.setattr(complexes, "syzygy_matrix", counting)
    return steps
