"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps module.name so that each call bumps the returned
    counter; pass ``calls`` to count a second binding into the same counter."""

    def wrap(module, name, calls=None):
        calls = [0] if calls is None else calls
        original = getattr(module, name)

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    return wrap
