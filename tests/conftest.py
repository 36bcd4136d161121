"""Shared test fixtures."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name, record=None) replaces module.name by a wrapper that
    appends record(*args, **kwargs) (default: the positional arguments) to a list
    before each call, and returns that list. The record is taken before the call,
    so it sees an argument the call overwrites as it was passed."""

    def install(module, name, record=None):
        real, calls = getattr(module, name), []

        def counting(*args, **kwargs):
            calls.append(args if record is None else record(*args, **kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install
