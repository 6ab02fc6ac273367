import os
import sys

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# every run draws the same examples, so a property failure reproduces
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def _golden_env(monkeypatch):
    monkeypatch.setenv("STABLAB_GOLDEN_DIR", GOLDEN)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_grid_function(rng, n, spiky=False):
    from stablab import GridFunction

    values = rng.standard_normal(n)
    if spiky:
        values = values * np.exp(rng.standard_normal(n))
    return GridFunction(values)
