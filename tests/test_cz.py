from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_cz_cubes, reference_cz_parts
from stablab import GridFunction, cz_decompose, norm, verify_cz
from stablab.cz import ConsistencyError, all_passed
from stablab.grid import DyadicInterval, dyadic_means


def spiky(rng, n):
    return GridFunction(rng.standard_normal(n) * np.exp(rng.standard_normal(n)))


def test_level_above_sup_returns_trivial_split():
    f = GridFunction([1.0, -0.5, 0.25, 0.0])
    d = cz_decompose(f, 2.0)
    assert d.cubes == ()
    assert d.good == f
    assert d.bad == GridFunction.zeros(4)
    assert d.omega.measure == 0.0


def test_worked_example_spike_on_eighth():
    # f = 8 on [0, 1/8) of an 8-cell grid, level 2: the parent [0, 1/2) has
    # average exactly 2 (not selected, strict inequality), its child [0, 1/4)
    # has average 4 and is selected
    f = GridFunction([8.0, 0, 0, 0, 0, 0, 0, 0])
    d = cz_decompose(f, 2.0)
    assert [(q.level, q.index) for q in d.cubes] == [(2, 0)]
    assert np.allclose(d.good.values, [4, 4, 0, 0, 0, 0, 0, 0])
    assert np.allclose(d.bad.values, [4, -4, 0, 0, 0, 0, 0, 0])
    assert abs(float(d.bad.values[:2].mean())) <= 1e-12
    assert norm(d.good, np.inf) == 4.0 == 2 * d.level
    assert d.cube_measure == 0.25 <= norm(f, 1) / d.level
    assert all_passed(verify_cz(d, f))


def test_ties_do_not_select():
    # constant 2 at level 2: every average equals 2, nothing is selected
    f = GridFunction.constant(2.0, 8)
    d = cz_decompose(f, 2.0)
    assert d.cubes == ()


def test_single_cell_floor():
    # a lone huge cell becomes a one-cell cube with zero bad part there
    # (parent [1/2, 1) has average 8 <= 10 < 16)
    f = GridFunction([0.0, 0.0, 0.0, 16.0])
    d = cz_decompose(f, 10.0)
    assert [(q.level, q.index) for q in d.cubes] == [(2, 3)]
    assert np.all(d.bad.values == 0.0)


def test_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        cz_decompose(GridFunction([1.0, 0.0]), 0.0)


def test_invariant_campaign(rng):
    for _ in range(200):
        n = int(rng.choice([64, 256]))
        f = spiky(rng, n)
        lam = norm(f, 1) * float(10 ** rng.uniform(0, 2))
        d = cz_decompose(f, lam)
        checks = verify_cz(d, f)
        failed = [c for c in checks if not c.passed]
        assert not failed, failed


def test_additivity_and_disjointness_details(rng):
    f = spiky(rng, 128)
    lam = norm(f, 1) * 2.0
    d = cz_decompose(f, lam)
    scale = max(1.0, norm(f, np.inf))
    assert np.abs(d.good.values + d.bad.values - f.values).max() <= 1e-12 * scale
    covered = np.zeros(128, dtype=int)
    for q in d.cubes:
        covered[q.cell_slice(128)] += 1
        if q.level > 0:
            parent = DyadicInterval(q.level - 1, q.index // 2)
            parent_avg = float(np.abs(f.values[parent.cell_slice(128)]).mean())
            assert parent_avg <= lam  # maximality
        assert float(np.abs(f.values[q.cell_slice(128)]).mean()) > lam
    assert covered.max() <= 1
    off = covered == 0
    assert np.all(d.bad.values[off] == 0.0)


def test_omega_measure_bound(rng):
    for _ in range(50):
        f = spiky(rng, 256)
        lam = norm(f, 1) * float(10 ** rng.uniform(0, 1.5))
        d = cz_decompose(f, lam)
        bound = min(1.0, 10.0 * norm(f, 1) / lam) + 2.0 * len(d.cubes) / 256
        assert d.omega.measure <= bound + 1e-12


def test_lp_good_part_budget(rng):
    for _ in range(50):
        f = spiky(rng, 256)
        lam = norm(f, 1) * float(10 ** rng.uniform(0.01, 2))
        d = cz_decompose(f, lam)
        for p in (1.5, 2.0, 3.0, 4.0):
            assert norm(d.good, p) ** p <= (2 * lam) ** (p - 1) * norm(f, 1) * (1 + 1e-12)


def test_verify_rejects_wrong_function(rng):
    f = spiky(rng, 64)
    d = cz_decompose(f, norm(f, 1) * 3.0)
    with pytest.raises(ConsistencyError):
        verify_cz(d, f + GridFunction.constant(5.0, 64))


@pytest.mark.parametrize("scale", [1.0, 1e-150])
def test_verify_rejects_a_corrupted_bad_part_at_every_scale(scale):
    f = GridFunction(scale * np.random.default_rng(3).standard_normal(64))
    d = cz_decompose(f, 3.0 * norm(f, 1))
    # 100 times the size of f added to every cell of the bad part
    corrupted = replace(d, bad=GridFunction(d.bad.values + 100.0 * scale))
    with pytest.raises(ConsistencyError):
        verify_cz(corrupted, f)


@settings(max_examples=200)
@given(
    k=st.integers(1, 12),
    magnitude=st.floats(-150.0, 150.0),
    zeros=st.sampled_from([0.0, 0.5, 0.9]),
    tie=st.booleans(),
    ratio=st.floats(-1.0, np.log10(300.0)),
    seed=st.integers(0, 2**32 - 1),
)
# the level is the root's pyramid mean, which np.mean over all the cells rounds one ulp higher
@example(k=12, magnitude=0.0, zeros=0.0, tie=True, ratio=0.0, seed=464)
# norm(g, 4)^4 passes the largest double here
@example(k=6, magnitude=120.0, zeros=0.0, tie=False, ratio=float(np.log10(3.0)), seed=3)
def test_level_pass_selects_the_reference_cubes(k, magnitude, zeros, tie, ratio, seed):
    rng = np.random.default_rng(seed)
    n = 2**k
    values = rng.standard_normal(n) * np.exp(rng.standard_normal(n)) * 10.0**magnitude
    values[rng.uniform(size=n) < zeros] = 0.0
    values[rng.integers(n)] = 10.0**magnitude  # one nonzero cell at least, so some mean is positive
    f = GridFunction(values)
    if tie:
        # an exact pyramid mean: that node sits at the level and must not be selected
        means = dyadic_means(np.abs(values))
        lev = int(rng.integers(k + 1))
        idx = int(rng.choice(np.flatnonzero(means[lev] > 0)))
        level = float(means[lev][idx])
    else:
        level = norm(f, 1) * 10.0**ratio
    d = cz_decompose(f, level)
    assert d.cubes == reference_cz_cubes(f, level)
    # the parts the single pass builds, bit for bit against the per-cube assembly
    good, bad, omega = reference_cz_parts(f, d.cubes)
    assert d.good.values.tobytes() == good.values.tobytes()
    assert d.bad.values.tobytes() == bad.values.tobytes()
    assert d.omega == omega
    if tie:
        assert DyadicInterval(lev, idx) not in d.cubes
    failed = [c for c in verify_cz(d, f) if not c.passed]
    assert not failed, failed
