import json
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


@pytest.fixture
def frozen():
    """frozen(name, value) compares a measured constant with golden/<name>.json.

    It fails when the file is missing or the value exceeds the frozen one
    beyond a relative 1e-9 and an absolute 1e-15, and returns the frozen
    value.  It never writes: a golden is regenerated on purpose by writing
    the JSON line the failure prints, with an entry in CHANGES.md.
    """

    def check(name: str, value: float) -> float:
        path = os.path.join(GOLDEN, f"{name}.json")
        line = json.dumps({"name": name, "value": value}, sort_keys=True)
        if not os.path.exists(path):
            pytest.fail(f"the golden {path} is missing; to freeze {value!r} on purpose, write: {line}", pytrace=False)
        with open(path) as fh:
            frozen_value = float(json.load(fh)["value"])
        if value > frozen_value * (1.0 + 1e-9) + 1e-15:
            pytest.fail(
                f"frozen constant {name} regressed: measured {value!r} > frozen {frozen_value!r}; "
                f"to regenerate it on purpose, write to {path}: {line}",
                pytrace=False,
            )
        return frozen_value

    return check


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_grid_function(rng, n, spiky=False):
    from stablab import GridFunction

    values = rng.standard_normal(n)
    if spiky:
        values = values * np.exp(rng.standard_normal(n))
    return GridFunction(values)
