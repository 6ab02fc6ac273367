"""Existence made quantitative: the smallest workable constant.

For the couple (sup norm, L^p ball) no explicit minimizer formula survives
the operator, so the stable near-minimizer is found as a point in the
intersection of three convex sets, with the constant c shrunk by bisection.
Every witness is certified by direct norm evaluation, never by solver
trust.  A support set confines the search to functions living on it.
"""

import numpy as np

from stablab import (
    DyadicInterval,
    GridFunction,
    GridSet,
    annihilator_pair,
    apply,
    duality_pairing,
    make_instance,
    min_constant,
    norm,
)
from stablab.harness import make_operator

n = 64

print("worked instance: f = 2, ball radius 1, p = 2")
inst = make_instance(GridFunction.constant(2.0, n), make_operator("hilbert", n), 1.0, 2)
print("  gaps: r =", inst.r, " t =", inst.t)
res = min_constant(inst, tol=1e-3)
print(f"  smallest constant {res.c_star:.5f} (true optimum 2/3), status {res.status}")
print(f"  certified lower end {res.c_lower:.5f} (weak duality)")
print(f"  witness is the constant {res.v.values[0]:.5f}")

print()
print("a spiky instance:")
rng = np.random.default_rng(4)
values = rng.standard_normal(n) * np.exp(rng.standard_normal(n))
f = GridFunction(values / np.abs(values).mean())
inst = make_instance(f, make_operator("haar_transform", n, seed=11), 0.4 * norm(f, 2), 2)
res = min_constant(inst, tol=1e-2)
print(f"  c* = {res.c_star:.4f} in the certified bracket [{res.c_lower:.4f}, {res.c_star:.4f}]")
print(f"  residuals p/inf/T: {res.res_p:.4f} {res.res_inf:.4f} {res.res_Tinf:.4f}")

print()
print("support mode: everything lives on the left half circle")
E = GridSet.from_interval(DyadicInterval(1, 0), n)
masked = np.where(E.membership, f.values, 0.0)
fE = GridFunction(masked / np.abs(masked).mean())
inst = make_instance(fE, make_operator("hilbert", n), 0.4 * norm(fE, 2), 2, support=E)
res = min_constant(inst, tol=1e-2)
print(f"  c* = {res.c_star:.4f}, status {res.status}")
print("  witness off-support mass:", float(np.abs(res.v.values[~E.membership]).max()), "(exact zero)")

print()
print("the duality that powers the existence argument:")
beta = GridFunction(rng.standard_normal(n))
g = GridFunction(rng.standard_normal(n))
T = make_operator("hilbert", n)
pair = annihilator_pair(beta, T)
print("  <(g, Tg), (-T*b, b)> =", duality_pairing((g, apply(T, g)), pair))
