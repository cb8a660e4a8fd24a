"""The unitary path model: walk bases, sector blocks, and gate relations.

Shows the admissible-walk bases and their endpoint sectors, the eigenvector
identity behind the construction, the exact symmetry and relation residuals
of the generator images, and the unitarity of the braid-letter gates.
"""

import cmath
import math

import numpy as np

from tljones import (
    adjacency_eigen_check,
    braid_gen_unitary,
    choose_a,
    enumerate_paths,
)
from tljones.pathmodel import sector_products

print("=== Walk bases and sectors ===")
for n, k in ((1, 5), (2, 3), (3, 5), (6, 6), (8, 8)):
    basis = enumerate_paths(n, k)
    dims = ", ".join(f"m={m}: {dim}" for m, dim in sorted(basis.sector_dims().items()))
    print(f"  n={n}, k={k}: total {basis.total_dim():3d} walks  ({dims})")

print()
print("=== Eigenvector identity of the path graph ===")
for k in (3, 4, 8, 64):
    print(f"  k={k:2d}: ||M lambda - d lambda||_inf = {adjacency_eigen_check(k):.2e}")

print()
print("=== The evaluation phase A ===")
for k in (3, 4, 5, 10):
    a = choose_a(k)
    d = -a**2 - 1 / a**2
    t = a**-4
    print(f"  k={k:2d}: A = {a:.6f},  -A^2-A^-2 = {d.real:+.6f},  t = A^-4 = {t:.6f}")
bare = cmath.exp(-1j * math.pi / 10)  # e^(-i pi / 2k) at k=5
print(f"  bare phase at k=5 gives -A^2-A^-2 = {(-bare**2 - 1/bare**2).real:+.6f} (wrong sign, rejected)")

print()
print("=== Generator images: relations on every sector block ===")
basis = enumerate_paths(6, 7)
d = basis.params.d
phis = {i: sector_products(basis, [i]) for i in range(1, 6)}
worst_sym = worst_idem = worst_rec = worst_comm = 0.0
for i, blocks in phis.items():
    for m, block in blocks.items():
        worst_sym = max(worst_sym, float(np.max(np.abs(block - block.T))))
        worst_idem = max(worst_idem, float(np.max(np.abs(block @ block - d * block))))
for i in range(1, 5):
    for m in basis.nonempty_sectors():
        a_blk, b_blk = phis[i][m], phis[i + 1][m]
        worst_rec = max(worst_rec, float(np.max(np.abs(a_blk @ b_blk @ a_blk - a_blk))))
for i in range(1, 6):
    for j in range(i + 2, 6):
        for m in basis.nonempty_sectors():
            a_blk, b_blk = phis[i][m], phis[j][m]
            worst_comm = max(worst_comm, float(np.max(np.abs(a_blk @ b_blk - b_blk @ a_blk))))
print(f"  n=6, k=7: symmetry {worst_sym:.1e}, idempotency {worst_idem:.1e}, "
      f"recoupling {worst_rec:.1e}, distant commutation {worst_comm:.1e}")

print()
print("=== Braid-letter gates are unitary ===")
worst = 0.0
for i in range(1, 6):
    for m in basis.nonempty_sectors():
        for exponent in (1, -1):
            u = braid_gen_unitary(basis, i, exponent, m).matrix
            worst = max(worst, float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))))
print(f"  max ||U U+ - I||_inf over all letters/sectors at n=6, k=7: {worst:.2e}")
