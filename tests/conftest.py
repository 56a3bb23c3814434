import pytest

from mine.generate import random_crossed_3label
from mine.instance import EnergyInstance
from mine.reductions.planar import planarize


@pytest.fixture(scope="session")
def criterion5_outputs():
    """planarize() of acceptance criterion 5's 50 seeded drawings."""
    return [planarize(*random_crossed_3label(seed)) for seed in range(50)]


@pytest.fixture
def instance_constructions(monkeypatch):
    """A one-item list counting the EnergyInstances constructed from here on."""
    count = [0]
    validate = EnergyInstance.__post_init__

    def counting(self):
        count[0] += 1
        validate(self)

    monkeypatch.setattr(EnergyInstance, "__post_init__", counting)
    return count
