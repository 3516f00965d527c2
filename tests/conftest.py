"""Shared fixtures."""

import pytest

from boltzkit import combinatorics


@pytest.fixture
def drop_members(monkeypatch):
    """Plant a fault in the composition walk: after ``drop_members(lost)``,
    ``combinatorics._runs`` yields every run with the members in ``lost``
    (occupation tuples) missing from its xs, a tuple, so that it can key a
    cache as a range does."""
    walk = combinatorics._runs

    def plant(lost):
        lost = set(lost)

        def runs(total, parts):
            for head, r, xs in walk(total, parts):
                yield head, r, tuple(x for x in xs
                                     if (*head, x, r - x)[:parts] not in lost)

        monkeypatch.setattr(combinatorics, "_runs", runs)

    return plant
