import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablab import (
    GridFunction,
    adjoint,
    apply,
    cz_decompose,
    haar_transform,
    hilbert,
    identity_minus_mean,
    inner,
    long_range_ratio,
    norm,
    operator_norm_estimate,
)
from oracles import identity_block, reference_apply_haar, reference_level_signs
from stablab.grid import DimensionError
from stablab.harness import make_operator
from stablab.operators import LinearOperatorSpec, apply_values, as_matrix, nyquist_free

N = 128


def all_kinds(n=N, seed=5):
    return [hilbert(n), make_operator("haar_transform", n, seed), identity_minus_mean(n)]


def test_hilbert_cos_to_sin():
    x = np.arange(N) / N
    got = apply(hilbert(N), GridFunction(np.cos(2 * np.pi * x)))
    assert norm(got - GridFunction(np.sin(2 * np.pi * x)), np.inf) <= 1e-10


def test_hilbert_kills_constants():
    got = apply(hilbert(N), GridFunction.constant(3.0, N))
    assert norm(got, np.inf) <= 1e-12


def test_haar_all_plus_one_is_demeaning(rng):
    f = GridFunction(rng.standard_normal(N))
    got = apply(haar_transform(N), f)
    assert norm(got - GridFunction(f.values - f.values.mean()), np.inf) <= 1e-12


def test_apply_is_linear(rng):
    for T in all_kinds():
        for _ in range(20):
            f = GridFunction(rng.standard_normal(N))
            g = GridFunction(rng.standard_normal(N))
            a, b = rng.standard_normal(2)
            lhs = apply(T, GridFunction(a * f.values + b * g.values))
            rhs = a * apply(T, f) + b * apply(T, g)
            assert norm(lhs - rhs, np.inf) <= 1e-10 * max(1.0, norm(rhs, np.inf))


def test_adjoint_pairing(rng):
    for T in all_kinds():
        Ts = adjoint(T)
        for _ in range(100):
            f = GridFunction(rng.standard_normal(N))
            g = GridFunction(rng.standard_normal(N))
            assert abs(inner(apply(T, f), g) - inner(f, apply(Ts, g))) <= 1e-10


@settings(max_examples=200)
@given(
    kind=st.sampled_from(["hilbert", "haar_transform", "identity_minus_mean"]),
    k=st.integers(1, 10),
    f_magnitude=st.floats(-150.0, 150.0),
    g_magnitude=st.floats(-150.0, 150.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_pairing_at_every_scale(kind, k, f_magnitude, g_magnitude, seed):
    n = 2**k
    rng = np.random.default_rng(seed)
    T = make_operator(kind, n, seed)  # seeded Haar signs
    f = GridFunction(rng.standard_normal(n) * 10.0**f_magnitude)
    g = GridFunction(rng.standard_normal(n) * 10.0**g_magnitude)
    gap = abs(inner(apply(T, f), g) - inner(f, apply(adjoint(T), g)))
    assert gap <= 1e-12 * norm(f, 2) * norm(g, 2)


def test_adjoint_is_involution(rng):
    for T in all_kinds():
        TT = adjoint(adjoint(T))
        assert (TT.kind, TT.n, TT.signs, TT.negate) == (T.kind, T.n, T.signs, T.negate)
        assert as_matrix(TT).tobytes() == as_matrix(T).tobytes()
        f = GridFunction(rng.standard_normal(N))
        assert norm(apply(TT, f) - apply(T, f), np.inf) <= 1e-14


def test_hilbert_antisymmetry(rng):
    H = hilbert(N)
    for _ in range(50):
        f = GridFunction(rng.standard_normal(N))
        g = GridFunction(rng.standard_normal(N))
        assert abs(inner(apply(H, f), g) + inner(f, apply(H, g))) <= 1e-10


def test_hilbert_squared_is_negative_demeaning_on_top_mode_free_probes(rng):
    # the multiplier annihilates the unpaired top mode of an even grid, so
    # the classical identity is asserted on its natural domain
    H = hilbert(N)
    for _ in range(20):
        f = nyquist_free(GridFunction(rng.standard_normal(N)))
        twice = apply(H, apply(H, f))
        want = GridFunction(-(f.values - f.values.mean()))
        assert norm(twice - want, np.inf) <= 1e-9


def test_hilbert_squared_exact_grid_identity(rng):
    # on arbitrary probes the identity holds after removing the top mode
    H = hilbert(N)
    f = GridFunction(rng.standard_normal(N))
    twice = apply(H, apply(H, f))
    clean = nyquist_free(f).values
    want = GridFunction(-(clean - clean.mean()))
    assert norm(twice - want, np.inf) <= 1e-9


def test_parseval_on_top_mode_free_probes(rng):
    H = hilbert(N)
    for _ in range(20):
        f = nyquist_free(GridFunction(rng.standard_normal(N)))
        assert norm(apply(H, f), 2) == pytest.approx(
            norm(GridFunction(f.values - f.values.mean()), 2), abs=1e-9
        )


def test_haar_involution_signed(rng):
    T = make_operator("haar_transform", N, seed=11)
    for _ in range(20):
        f = GridFunction(rng.standard_normal(N))
        twice = apply(T, apply(T, f))
        want = GridFunction(f.values - f.values.mean())
        assert norm(twice - want, np.inf) <= 1e-9


def test_operator_norms_are_one():
    assert operator_norm_estimate(hilbert(N), 2) == pytest.approx(1.0, abs=1e-6)
    assert operator_norm_estimate(identity_minus_mean(N), 2) == pytest.approx(1.0, abs=1e-6)
    T = make_operator("haar_transform", N, seed=3)
    assert operator_norm_estimate(T, 2) == pytest.approx(1.0, abs=1e-6)


def test_long_range_ratio_zero_for_zero_bad():
    f = GridFunction([1.0, -0.5, 0.25, 0.0])
    d = cz_decompose(f, 5.0)
    assert long_range_ratio(hilbert(4), d) == 0.0


def test_long_range_spec_dipole_big_cube(frozen):
    # dipole on [0, 1/4): the factor-10 dilate saturates the circle, so the
    # outside mass is zero; the bound <= 1 holds with room to spare
    n = 256
    f = GridFunction(np.where(np.arange(n) < n // 8, 8.0, 0.0))
    d = cz_decompose(f, 2.0)
    assert [(q.level, q.index) for q in d.cubes] == [(2, 0)]
    ratio = long_range_ratio(hilbert(n), d)
    assert ratio <= 1.0
    frozen("long_range_hilbert_big_cube", ratio)


def test_long_range_small_cube_frozen(frozen):
    # mass on the left half of [0, 1/64) gives a true dipole on a small cube
    n = 256
    f = GridFunction(np.where(np.arange(n) < n // 128, 128.0, 0.0))
    d = cz_decompose(f, 40.0)
    assert [(q.level, q.index) for q in d.cubes] == [(6, 0)]
    got = {
        "hilbert": long_range_ratio(hilbert(n), d),
        "haar_transform": long_range_ratio(make_operator("haar_transform", n, 7), d),
        "identity_minus_mean": long_range_ratio(identity_minus_mean(n), d),
    }
    # dyadically localized kinds leave nothing outside their own cube
    assert got["haar_transform"] == 0.0
    assert got["identity_minus_mean"] == 0.0
    assert got["hilbert"] <= 1.0
    for kind, val in got.items():
        frozen(f"long_range_small_cube_{kind}", val)


def test_long_range_campaign_frozen(rng, frozen):
    n = 256
    worst = {kind: 0.0 for kind in ("hilbert", "haar_transform", "identity_minus_mean")}
    ops = {kind: make_operator(kind, n, 5) for kind in worst}
    for _ in range(60):
        f = GridFunction(rng.standard_normal(n) * np.exp(rng.standard_normal(n)))
        lam = norm(f, 1) * float(10 ** rng.uniform(0, 2))
        d = cz_decompose(f, lam)
        if norm(d.bad, 1) == 0.0:
            continue
        for kind, T in ops.items():
            worst[kind] = max(worst[kind], long_range_ratio(T, d))
    # a dyadically localized kind maps a function with mean zero on each cube to one
    # supported on that cube, so its true ratio is 0; only rounding is left
    assert worst["haar_transform"] <= 1e-15
    assert worst["identity_minus_mean"] <= 1e-15
    assert np.isfinite(worst["hilbert"])
    frozen("long_range_campaign_hilbert", worst["hilbert"])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        apply(hilbert(8), GridFunction.zeros(16))


def test_spec_validation():
    with pytest.raises(ValueError):
        LinearOperatorSpec("unknown", 8)
    with pytest.raises(ValueError):
        LinearOperatorSpec("haar_transform", 8, signs=(1, 1))
    with pytest.raises(ValueError):
        LinearOperatorSpec("hilbert", 8, signs=(1,) * 7)


@pytest.mark.parametrize("n", [8, 256, 1024])
@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("kind", ["hilbert", "haar_transform", "identity_minus_mean"])
def test_as_matrix_is_the_column_loop_bit_for_bit(kind, negate, n, rng):
    T = make_operator(kind, n, 2)
    if negate:
        T = LinearOperatorSpec(kind, n, signs=T.signs, negate=True)
    cols = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols[:, j] = apply(T, GridFunction(e)).values
    M = as_matrix(T)
    assert M.tobytes() == cols.tobytes()
    f = GridFunction(rng.standard_normal(n))
    assert norm(GridFunction(M @ f.values) - apply(T, f), np.inf) <= 1e-12


@pytest.mark.parametrize("k", range(1, 15))
def test_haar_on_the_pyramid_is_the_per_level_synthesis_bit_for_bit(k):
    rng = np.random.default_rng(k)
    n = 2**k
    for signs in (rng.choice([-1, 1], n - 1), np.ones(n - 1, dtype=int)):
        T = haar_transform(n, signs)
        level_signs = reference_level_signs(signs, n)
        for magnitude in (2.0**-1070, 1.0, 2.0**1000):
            for values in (
                rng.standard_normal(n) * magnitude,
                rng.choice([-1.0, 1.0], n) * magnitude,
                rng.standard_normal((3, n)) * magnitude,
                identity_block(n, magnitude),
            ):
                # apply_values batches rows, the reference columns: it runs on the transpose
                got, want = apply_values(T, values), reference_apply_haar(values.T, level_signs).T
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("kind", ["hilbert", "haar_transform", "identity_minus_mean"])
def test_a_batch_of_rows_is_each_row_bit_for_bit(kind, negate):
    # the cells run along the last axis: a C-ordered (3, n) batch gives every row the bits of its own call
    rng = np.random.default_rng(3 * len(kind) + negate)
    for k in range(1, 15):
        n = 2**k
        T = LinearOperatorSpec(kind, n, signs=make_operator(kind, n, k).signs, negate=negate)
        for magnitude in (2.0**-1070, 1.0, 2.0**1000):
            values = rng.standard_normal((3, n)) * magnitude
            got = apply_values(T, values)
            assert got.shape == values.shape
            assert got.tobytes() == np.stack([apply_values(T, row) for row in values]).tobytes()
