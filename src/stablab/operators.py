"""Discrete singular-integral-type operators with adjoints and diagnostics.

Three kinds are provided, all linear maps on a fixed grid of n cells:

* ``hilbert`` -- the periodic conjugate-function multiplier: Fourier mode j
  is multiplied by -i sign(j), mode 0 by 0, and (for even n) the unpaired
  top mode n/2 is sent to 0 so the output stays real.  This convention
  makes the algebraic identities below exact and bit-reproducible at
  fixed n.
* ``haar_transform`` -- the martingale transform sum of eps_Q <f, h_Q> h_Q
  over the dyadic Haar system, one sign per scale/position; all signs +1
  reproduces f - mean(f).
* ``identity_minus_mean`` -- the mean-zero projection f - mean(f).

An optional restriction set realizes chi_E T (mask applied to the output);
taking adjoints moves the mask to the input side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cz import CzDecomposition
from .grid import DimensionError, GridFunction, GridSet, dyadic_means, mask, norm

__all__ = [
    "LinearOperatorSpec",
    "hilbert",
    "haar_transform",
    "identity_minus_mean",
    "apply",
    "apply_values",
    "adjoint",
    "as_matrix",
    "long_range_ratio",
    "operator_norm_estimate",
    "nyquist_free",
]

KINDS = ("hilbert", "haar_transform", "identity_minus_mean")
MATRIX_BLOCK = 64  # columns per transform call in as_matrix


@dataclass(frozen=True, eq=False)
class LinearOperatorSpec:
    """A named operator T on a grid of n cells, possibly masked by a set E.

    ``negate`` tracks the sign flip picked up by the conjugate-function
    multiplier under adjunction; ``restriction_side`` records whether the
    mask acts on the output (chi_E T) or on the input (T chi_E).
    """

    kind: str
    n: int
    signs: tuple[int, ...] | None = None
    restriction: GridSet | None = None
    restriction_side: str = "output"
    negate: bool = False
    # haar_transform signs per level as float arrays, level l holding 2^l of them
    level_signs: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 2, got {self.n}")
        if self.kind == "haar_transform":
            want = self.n - 1
            if self.signs is None:
                object.__setattr__(self, "signs", (1,) * want)
            elif len(self.signs) != want or any(s not in (-1, 1) for s in self.signs):
                raise ValueError(f"haar_transform needs {want} signs in {{-1, +1}}")
            flat = np.asarray(self.signs, dtype=float)
            flat.flags.writeable = False
            levels = tuple(flat[(1 << lev) - 1 : (2 << lev) - 1] for lev in range(self.n.bit_length() - 1))
            object.__setattr__(self, "level_signs", levels)
        elif self.signs is not None:
            raise ValueError(f"{self.kind} takes no signs")
        if self.restriction is not None and self.restriction.n != self.n:
            raise DimensionError("restriction set lives on a different grid")
        if self.restriction_side not in ("output", "input"):
            raise ValueError(f"restriction_side must be 'output' or 'input', got {self.restriction_side!r}")


def hilbert(n: int, restriction: GridSet | None = None) -> LinearOperatorSpec:
    return LinearOperatorSpec("hilbert", n, restriction=restriction)


def haar_transform(n: int, signs=None, restriction: GridSet | None = None) -> LinearOperatorSpec:
    signs = None if signs is None else tuple(int(s) for s in signs)
    return LinearOperatorSpec("haar_transform", n, signs=signs, restriction=restriction)


def identity_minus_mean(n: int, restriction: GridSet | None = None) -> LinearOperatorSpec:
    return LinearOperatorSpec("identity_minus_mean", n, restriction=restriction)


def _by_cell(a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A per-cell array shaped to broadcast along axis 0 of ``values``."""
    return a.reshape(a.shape + (1,) * (values.ndim - 1))


def _apply_hilbert(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    spec = np.fft.rfft(values, axis=0)
    mult = np.full(spec.shape[0], -1j)
    mult[0] = 0.0
    mult[-1] = 0.0  # unpaired top mode of an even grid
    return np.fft.irfft(spec * _by_cell(mult, spec), n, axis=0)


def _apply_haar(values: np.ndarray, level_signs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Pyramid evaluation of sum_Q eps_Q <f, h_Q> h_Q in O(n) per level."""
    means = dyadic_means(values)
    out = np.zeros((1,) + values.shape[1:])
    for lev, eps in enumerate(level_signs):
        fine = means[lev + 1]
        half_diff = _by_cell(eps, fine) * (0.5 * (fine[0::2] - fine[1::2]))
        expanded = np.empty((2 << lev,) + values.shape[1:])
        expanded[0::2] = out + half_diff
        expanded[1::2] = out - half_diff
        out = expanded
    return out


def apply(T: LinearOperatorSpec, f: GridFunction) -> GridFunction:
    """Evaluate T f; the restriction mask is applied on its recorded side."""
    if T.n != f.n:
        raise DimensionError(f"operator on n={T.n} applied to f with n={f.n}")
    return GridFunction(apply_values(T, f.values))


def apply_values(T: LinearOperatorSpec, values: np.ndarray) -> np.ndarray:
    """The arithmetic of ``apply`` on a raw array of length T.n, unchecked.

    A 2-D array is transformed column by column (along axis 0).
    """
    if T.restriction is not None and T.restriction_side == "input":
        values = np.where(_by_cell(T.restriction.membership, values), values, 0.0)
    if T.kind == "hilbert":
        out = _apply_hilbert(values)
    elif T.kind == "haar_transform":
        out = _apply_haar(values, T.level_signs)
    else:
        out = values - values.mean(axis=0)
    if T.negate:
        out = -out
    if T.restriction is not None and T.restriction_side == "output":
        out = np.where(_by_cell(T.restriction.membership, out), out, 0.0)
    return out


def adjoint(T: LinearOperatorSpec) -> LinearOperatorSpec:
    """The adjoint under the normalized pairing; an involution.

    The conjugate-function multiplier flips sign; the Haar expansion and the
    mean-zero projection are self-adjoint; a restriction mask moves to the
    other side.
    """
    out = T
    if T.kind == "hilbert":
        out = replace(out, negate=not T.negate)
    if T.restriction is not None:
        side = "input" if T.restriction_side == "output" else "output"
        out = replace(out, restriction_side=side)
    return out


def as_matrix(T: LinearOperatorSpec) -> np.ndarray:
    """Dense matrix of T in the cell basis (columns are T applied to cells).

    The transforms run on blocks of MATRIX_BLOCK columns of the identity at
    once, which gives the bits of applying T to each cell in turn.
    """
    n = T.n
    cols = np.empty((n, n))
    for j in range(0, n, MATRIX_BLOCK):
        width = min(MATRIX_BLOCK, n - j)
        block = np.zeros((n, width))
        block[np.arange(j, j + width), np.arange(width)] = 1.0
        cols[:, j : j + width] = apply_values(T, block)
    return cols


def long_range_ratio(T: LinearOperatorSpec, d: CzDecomposition) -> float:
    """norm(T(bad), 1) outside the dilated exceptional set, per unit of bad mass.

    The diagnostic behind the stability argument: the image of the mean-zero
    bad part should carry little mass far away from the stopping cubes.
    Returns 0 by convention when the bad part vanishes.
    """
    bad_mass = norm(d.bad, 1)
    if bad_mass == 0.0:
        return 0.0
    outside = mask(apply(T, d.bad), d.omega.complement())
    return norm(outside, 1) / bad_mass


def operator_norm_estimate(T: LinearOperatorSpec, p, trials: int = 16, seed: int = 0) -> float:
    """Lower estimate of the L^p -> L^p operator norm from random probes.

    For p = 2 a power iteration on T* T sharpens the estimate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = float(p)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        f = GridFunction(rng.standard_normal(T.n))
        denom = norm(f, p)
        if denom > 0:
            best = max(best, norm(apply(T, f), p) / denom)
    if p == 2.0:
        Ts = adjoint(T)
        x = GridFunction(rng.standard_normal(T.n))
        for _ in range(60):
            y = apply(Ts, apply(T, x))
            size = norm(y, 2)
            if size == 0.0:
                break
            x = y * (1.0 / size)
        ray = norm(apply(T, x), 2) / max(norm(x, 2), 1e-300)
        best = max(best, ray)
    return best


def nyquist_free(f: GridFunction) -> GridFunction:
    """Remove the unpaired top Fourier mode (the kernel the multiplier adds)."""
    spec = np.fft.rfft(f.values)
    spec[-1] = 0.0
    return GridFunction(np.fft.irfft(spec, f.n))
