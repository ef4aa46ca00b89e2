"""Guard resolution and the KEEPTREE_GUARD environment override."""

import pytest

from keeptree.errors import GuardExceeded, ParseError, resolve_guard
from keeptree.families import complete_bipartite
from keeptree.triples import enumerate_triples


def test_explicit_beats_default():
    assert resolve_guard(5, 12) == 5
    assert resolve_guard(None, 12) == 12


def test_env_override(monkeypatch):
    monkeypatch.setenv("KEEPTREE_GUARD", "20")
    assert resolve_guard(None, 12) == 20
    # Explicit argument still wins over the environment.
    assert resolve_guard(3, 12) == 3


def test_env_must_be_integer(monkeypatch):
    monkeypatch.setenv("KEEPTREE_GUARD", "many")
    with pytest.raises(ParseError, match="KEEPTREE_GUARD"):
        resolve_guard(None, 12)


def test_negative_guard_rejected(monkeypatch):
    with pytest.raises(ValueError, match="nonnegative"):
        resolve_guard(-1, 12)
    monkeypatch.setenv("KEEPTREE_GUARD", "-1")
    with pytest.raises(ParseError, match="KEEPTREE_GUARD"):
        resolve_guard(None, 12)
    # An explicit guard still wins over the environment.
    assert resolve_guard(0, 12) == 0


def test_env_lifts_operation_guard(monkeypatch):
    g = complete_bipartite(6, 6)
    with pytest.raises(GuardExceeded):
        enumerate_triples(g, 1)
    monkeypatch.setenv("KEEPTREE_GUARD", "12")
    found, _ = enumerate_triples(g, 1)
    assert found
