"""Nonlocal calculus checks on discrete solutions.

The assembled matrix satisfies the divergence-theorem and
integration-by-parts identities exactly (they are row-block identities of a
symmetric matrix); the discrete Neumann condition holds on exterior cells at
solver tolerance; far from the domain the solution approaches its interior
average at rate 1/|x|; and the Dirichlet eigenfunction's kernel potential is
integrable over the whole exterior.
"""

import math

import numpy as np

from mixedfrac import (
    DiscParams,
    Domain1D,
    PartitionFamily,
    dirichlet_baseline,
    farfield_rate,
    gauss_residual_relative,
    generate,
    make_order,
    neumann_cell_residuals,
    parts_residual_relative,
    phi_integrability,
    phi_potential,
    solve_mixed,
)

om = Domain1D(-1.0, 1.0)
order = make_order(1, 0.5)

print("=== matrix-level identities (random test vectors) ===")
part = generate(PartitionFamily(kind="explicit", omega=om,
                                params={"neumann": "rest", "dirichlet": []}), 0)
res0 = solve_mixed(om, part, order, DiscParams(h=0.05, L=8.0, scheme="P1"))
rng = np.random.default_rng(1)
g = p = 0.0
for _ in range(5):
    u = rng.standard_normal(res0.u.system.n_free)
    v = rng.standard_normal(res0.u.system.n_free)
    g = max(g, gauss_residual_relative(res0.u.system, u))
    p = max(p, parts_residual_relative(res0.u.system, u, v))
print(f"  Gauss defect (relative): {g:.2e}    parts defect: {p:.2e}")

print("\n=== discrete Neumann condition on exterior cells ===")
part = generate(PartitionFamily(kind="explicit", omega=om,
                                params={"neumann": [[1.0, math.inf]],
                                        "dirichlet": "rest"}), 0)
res = solve_mixed(om, part, order, DiscParams(h=0.02, L=8.0, scheme="P1"))
raw, rel = neumann_cell_residuals(res.u.system, res.u.values)
print(f"  max |cell-averaged residual| (relative): {np.abs(rel).max():.2e}")

print("\n=== far-field asymptotics of the reconstruction ===")
fn = res.u
pts = np.logspace(1, 3, 9)
rep = farfield_rate(fn, pts)
print(f"  interior mean: {fn.omega_mean():.6f}")
for x, v in zip(rep.points[::4], rep.values[::4]):
    print(f"  |u({x:7.1f}) - mean| = {v:.3e}")
print(f"  log-log slope: {rep.slope:.3f}  (the asymptotic rate is 1/|x|)")

print("\n=== integrability of the Dirichlet eigenfunction potential ===")
for s in (0.25, 0.5, 0.75):
    od = make_order(1, s)
    resd = dirichlet_baseline(om, od, DiscParams(h=0.05, L=8.0, scheme="P1"))
    phi = resd.u
    table = phi_integrability(phi, [2.0, 4.0, 8.0, 16.0])
    vals = ", ".join(f"B_{row.R:g}: {row.integral:.5f}" for row in table.rows)
    print(f"  s={s}: {vals}   (Cauchy within the tail bound: {table.cauchy})")
    print(f"         Phi(1000) = {phi_potential(phi, 1000.0):.3e}"
          f" ~ |x|^-(1+2s) * |phi|_L1")
