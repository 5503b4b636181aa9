"""Kernel-level building blocks.

The operator is normalized so that its Fourier symbol is |xi|^(2s); the
constant is the reciprocal of a singular oscillatory integral, evaluated
here by certified quadrature and compared against the Gamma-function display
carried along in the literature (the two disagree by an exact factor two,
which the result records rather than hides).
"""

import math

from mixedfrac import (
    exterior_mass,
    make_order,
    normalization_constant,
    pair_integral,
    tail_mass,
)

print("=== normalization constant ===")
for dim in (1, 2):
    for s in (0.25, 0.5, 0.75):
        res = normalization_constant(dim, s, tol=1e-10)
        print(f"  N={dim} s={s:4.2f}: a = {res.value:.10f}   "
              f"gamma-form = {res.gamma_form:.10f}   ratio = {res.ratio:.6f}")
print("  (N=1, s=1/2 reference: 1/pi =", f"{1/math.pi:.10f})")

print("\n=== cell-pair integrals of |x-y|^-(1+2s) ===")
order = make_order(1, 0.25)
print("  separated ([0,1] x [2,3], s=1/4):",
      f"{pair_integral((0, 1), (2, 3), order.s):.7f}")
print("  touching  ([-1,0] x [0,1], s=1/4):",
      f"{pair_integral((-1, 0), (0, 1), order.s):.7f}",
      "(= 8 - 4 sqrt 2)")
print("  semi-infinite tail ([0,1] x [2,inf)):",
      f"{pair_integral((0, 1), (2, math.inf), 0.25):.7f}")

print("\n=== mass of Omega = (0,1) seen from outside ===")
for d in (0.25, 1.0, 4.0, 16.0):
    val = exterior_mass(-d, (0.0, 1.0), order)
    bound = d ** (-2 * order.s) / order.s
    print(f"  x = {-d:6.2f}: I = {val:9.5f}  <=  dist^-2s / s = {bound:9.5f}")

print("\n=== far-field tail mass (everything beyond radius R) ===")
for R in (1.0, 4.0, 16.0):
    print(f"  R = {R:4.0f}: {tail_mass(R, make_order(1, 0.5)):.6f}  (s = 1/2)")
