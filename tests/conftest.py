"""Shared fixtures."""

import pytest

from momsand import montecarlo as mc


@pytest.fixture
def sampled(monkeypatch):
    """Past the enumeration cap, verify and perpetuity sample as if the moment engine
    did not apply, the sampled path they took before it existed."""
    monkeypatch.setattr(mc, "_no_moments", lambda *args: "sampled for the test")
