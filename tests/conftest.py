"""Shared fixtures."""

import pytest

from boltzkit import combinatorics


@pytest.fixture
def drop_members(monkeypatch):
    """Plant a fault in the composition walk: after ``drop_members(lost)``,
    ``combinatorics._runs`` yields every block with the members in ``lost``
    (occupation tuples) missing from its runs, each run's xs a tuple, so that
    it never passes for the full range."""
    walk = combinatorics._runs

    def plant(lost):
        lost = set(lost)

        def runs(total, parts):
            for outer, left, xss in walk(total, parts):
                yield outer, left, [
                    tuple(x for x in xs
                          if (*outer, y, x, left - y - x)[-parts:] not in lost)
                    for y, xs in enumerate(xss)]

        monkeypatch.setattr(combinatorics, "_runs", runs)

    return plant
