"""How far is a function from an L^p ball, and who attains it?

Walks through the two distance functionals on a small grid: the L^1
distance (attained by clipping at a uniform level) and the sup-norm
distance (attained by soft thresholding).  The test suite cross-checks
both against a structure-blind brute-force solver (tests/oracles.py).
"""

import numpy as np

from stablab import (
    GridFunction,
    dist_l1_to_lp_ball,
    dist_linf_to_lp_ball,
    norm,
)

f = GridFunction([2.0, 0.0, -1.0, 0.5])
print("f =", f.values, " norm_2 =", round(norm(f, 2), 6))

for s in (0.25, 0.5, 1.0, 2.0):
    res = dist_l1_to_lp_ball(f, s, 2)
    print(f"s = {s:4}: L1 distance {res.value:.6f}  clip level {res.threshold:.6f}")

print()
print("minimizer for s = 0.5 (a hard clip of f):")
res = dist_l1_to_lp_ball(f, 0.5, 2)
print("  g =", np.round(res.minimizer.values, 6), " norm_2(g) =", round(norm(res.minimizer, 2), 9))

print()
print("sup-norm distance shrinks every cell toward zero instead:")
resi = dist_linf_to_lp_ball(f, 0.5, 2)
print("  value", round(resi.value, 6), " minimizer", np.round(resi.minimizer.values, 6))

