import pytest

from apxmm import core


@pytest.fixture
def one_and_split(monkeypatch):
    """run(f) calls f on one thread, then with every pass cut into blocks on
    three workers whatever its size, and returns both results."""

    def run(f):
        monkeypatch.setattr(core, "GRAIN", 1)
        monkeypatch.setattr(core, "WORKERS", 1)
        one = f()
        monkeypatch.setattr(core, "WORKERS", 3)
        return one, f()

    return run
