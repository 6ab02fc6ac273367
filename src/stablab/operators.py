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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cz import CzDecomposition
from .grid import DimensionError, GridFunction, dyadic_pyramid, mask, norm

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
MATRIX_BLOCK = 64  # identity rows per transform call in as_matrix


@dataclass(frozen=True, eq=False)
class LinearOperatorSpec:
    """A named operator T on a grid of n cells.

    ``signs`` holds the haar_transform's eps_Q, one per Haar function
    (n - 1 of them); ``negate`` records the sign flip the conjugate-function
    multiplier picks up under adjunction.
    """

    kind: str
    n: int
    signs: tuple[int, ...] | None = None
    negate: bool = False
    # haar_transform signs as a read-only float array, entry i - 1 for the heap node i of dyadic_pyramid
    sign_values: np.ndarray | None = field(default=None, init=False, repr=False)

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
            object.__setattr__(self, "sign_values", flat)
        elif self.signs is not None:
            raise ValueError(f"{self.kind} takes no signs")


def hilbert(n: int) -> LinearOperatorSpec:
    return LinearOperatorSpec("hilbert", n)


def haar_transform(n: int, signs=None) -> LinearOperatorSpec:
    signs = None if signs is None else tuple(int(s) for s in signs)
    return LinearOperatorSpec("haar_transform", n, signs=signs)


def identity_minus_mean(n: int) -> LinearOperatorSpec:
    return LinearOperatorSpec("identity_minus_mean", n)


def _apply_hilbert(values: np.ndarray) -> np.ndarray:
    n = values.shape[-1]
    spec = np.fft.rfft(values)
    mult = np.full(spec.shape[-1], -1j)
    mult[0] = 0.0
    mult[-1] = 0.0  # unpaired top mode of an even grid
    return np.fft.irfft(spec * mult, n)


def _apply_haar(values: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """sum_Q eps_Q <f, h_Q> h_Q, on one dyadic pyramid of f, in O(n).

    Node i's term is eps_i times half the difference of its children's
    means, formed for all n - 1 nodes in one pass.  The pyramid is then
    overwritten from the root down with the partial sums: the root holds 0
    (the transform has mean zero) and each child holds its parent's sum
    plus (left) or minus (right) the parent's signed half-difference.
    """
    n = values.shape[-1]
    heap = dyadic_pyramid(values)
    half_diff = np.subtract(heap[..., 2::2], heap[..., 3::2])
    half_diff *= 0.5
    half_diff *= signs
    heap[..., 1] = 0.0
    width = 1
    while width < n:
        sums, diffs = heap[..., width : 2 * width], half_diff[..., width - 1 : 2 * width - 1]
        np.add(sums, diffs, out=heap[..., 2 * width : 4 * width : 2])
        np.subtract(sums, diffs, out=heap[..., 2 * width + 1 : 4 * width : 2])
        width *= 2
    return heap[..., n:]


def apply(T: LinearOperatorSpec, f: GridFunction) -> GridFunction:
    """Evaluate T f on a function of T's grid."""
    if T.n != f.n:
        raise DimensionError(f"operator on n={T.n} applied to f with n={f.n}")
    return GridFunction(apply_values(T, f.values))


def apply_values(T: LinearOperatorSpec, values: np.ndarray) -> np.ndarray:
    """The arithmetic of ``apply`` on a raw array of length T.n, unchecked.

    A 2-D array is transformed row by row, each row with the bits of its own
    call; the result is negated when ``T.negate`` is set.
    """
    if T.kind == "hilbert":
        out = _apply_hilbert(values)
    elif T.kind == "haar_transform":
        out = _apply_haar(values, T.sign_values)
    else:
        out = values - values.mean(axis=-1, keepdims=True)
    return -out if T.negate else out


def adjoint(T: LinearOperatorSpec) -> LinearOperatorSpec:
    """The adjoint under the normalized pairing; an involution.

    The conjugate-function multiplier flips sign; the Haar expansion and the
    mean-zero projection are self-adjoint.
    """
    return replace(T, negate=not T.negate) if T.kind == "hilbert" else T


def as_matrix(T: LinearOperatorSpec) -> np.ndarray:
    """Dense matrix of T in the cell basis (columns are T applied to cells), C-ordered.

    The transforms run on blocks of MATRIX_BLOCK rows of the identity at
    once, which gives the bits of applying T to each cell in turn.
    One apply_values(T, np.eye(n)) gives the same bits at twice the peak memory (n = 256).
    """
    n = T.n
    cols = np.empty((n, n))
    for j in range(0, n, MATRIX_BLOCK):  # rows j, j + 1, ... of the identity
        cols[:, j : j + MATRIX_BLOCK] = apply_values(T, np.eye(min(MATRIX_BLOCK, n - j), n, j)).T
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
