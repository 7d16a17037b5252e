import pytest
from hypothesis import settings

from streakcount import _series, counting, recurrence

# exhaustive integer checks can be slow on cold caches; wall-clock deadlines
# only add flakiness here
settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def fresh_resume_state(monkeypatch):
    """Start every test as a fresh process does: the series stream at its
    seeds with no miss before, and no table kept by closed_distribution or
    dp_distribution, so that test order cannot pick the path a test takes."""
    monkeypatch.setattr(_series, "_cursor", _series.SEEDS)
    monkeypatch.setattr(_series, "_last_miss", 0)
    monkeypatch.setattr(counting, "_last", (-1, [], []))
    monkeypatch.setattr(recurrence, "_last", recurrence._FIRST)
