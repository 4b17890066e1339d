"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def walks(monkeypatch):
    """The partner tables that ``mapcore._vertices`` walks during the test, in order."""
    from onefacemaps import mapcore

    tables = []
    walk = mapcore._vertices

    def counted(partner):
        tables.append(partner)
        return walk(partner)

    monkeypatch.setattr(mapcore, "_vertices", counted)
    return tables
