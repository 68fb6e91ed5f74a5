import pytest

from casverify.engine import ExploreConfig, RunContext


@pytest.fixture
def cfg():
    return ExploreConfig(size_bound=2)


@pytest.fixture
def ctx(cfg):
    return RunContext(cfg)
