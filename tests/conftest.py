import pytest

from mine.generate import random_crossed_3label
from mine.reductions.planar import planarize


@pytest.fixture(scope="session")
def criterion5_outputs():
    """planarize() of acceptance criterion 5's 50 seeded drawings."""
    return [planarize(*random_crossed_3label(seed)) for seed in range(50)]
