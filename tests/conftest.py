import pytest

from mtss import cone


@pytest.fixture
def empty_region_memo(monkeypatch):
    """An empty cone region memo for one test, so that each region's first
    LP is assembled from its rows and runs phase 1 (the process-wide memo
    fills as earlier tests solve cone LPs)."""
    memo = cone._RegionMemo(cone.REGION_ENTRIES)
    monkeypatch.setattr(cone, "_REGIONS", memo)
    return memo
